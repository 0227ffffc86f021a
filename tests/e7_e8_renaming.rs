//! Experiments E7/E8 — renaming (Section 5, Appendix D).
//!
//! E7: the Figure-3 gate turns the 2-concurrent behaviour of Figure 4 into a
//! 1-resilient algorithm (Theorem 12's constructive half).
//! E8: Figure 4 solves (j, j+k−1)-renaming in k-concurrent runs
//! (Theorem 15), and via the Theorem-9 engine, with `¬Ωk` in EFD
//! (Theorem 16). Includes the namespace histogram that exhibits the
//! advice-vs-baseline crossover the evaluation section of a systems paper
//! would plot.

use wfa::algorithms::renaming::{rename_run, RenamingFig3, RenamingFig4};
use wfa::kernel::executor::Executor;
use wfa::kernel::sched::{run_schedule, KConcurrent, NullEnv, RandomSched, Starve};
use wfa::kernel::value::{Pid, Value};
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

fn names_of(ex: &Executor, pids: &[Pid]) -> Vec<Option<i64>> {
    pids.iter().map(|p| ex.status(*p).decision().and_then(Value::as_int)).collect()
}

#[test]
fn e8_fig4_respects_j_plus_k_minus_1_across_sizes() {
    for j in [2usize, 3, 5, 7] {
        let m = j + 2;
        for k in 1..=j {
            for seed in 0..15u64 {
                let mut ex = Executor::new();
                let pids = rename_run(&mut ex, j, m, k, seed);
                let names: Vec<i64> =
                    names_of(&ex, &pids).into_iter().map(|n| n.expect("decided")).collect();
                let mut sorted = names.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), names.len(), "j={j} k={k} seed={seed}: dup {names:?}");
                let bound = (j + k - 1) as i64;
                assert!(
                    names.iter().all(|n| *n >= 1 && *n <= bound),
                    "j={j} k={k} seed={seed}: {names:?} exceeds {bound}"
                );
            }
        }
    }
}

#[test]
fn e8_namespace_histogram_shows_crossover() {
    // For j = 4: sweep k and record the max name over an ensemble — the
    // observed namespace must be monotone in k and both endpoints must be
    // *attained* (k = 1 stays at j; the unrestricted end needs > j).
    let j = 4;
    let m = j + 1;
    let mut max_by_k = Vec::new();
    for k in 1..=j {
        let mut max_name = 0i64;
        for seed in 0..120u64 {
            let mut ex = Executor::new();
            let pids = rename_run(&mut ex, j, m, k, seed);
            for n in names_of(&ex, &pids) {
                max_name = max_name.max(n.expect("decided"));
            }
        }
        max_by_k.push(max_name);
    }
    assert_eq!(max_by_k[0], j as i64, "k=1 is strong renaming");
    for w in max_by_k.windows(2) {
        assert!(w[0] <= w[1], "namespace must grow with k: {max_by_k:?}");
    }
    assert!(
        *max_by_k.last().unwrap() > j as i64,
        "unrestricted runs must overflow the strong namespace: {max_by_k:?}"
    );
}

#[test]
fn e7_fig3_is_1_resilient() {
    // j participants, any single one may stop forever at an arbitrary time:
    // all others decide distinct names within 1..=j+1 (inner runs are
    // 2-concurrent).
    let j = 3;
    let m = 5;
    let parts = [0usize, 2, 4];
    for victim in 0..j {
        for seed in 0..8u64 {
            let mut ex = Executor::new();
            let pids: Vec<Pid> = parts
                .iter()
                .map(|i| {
                    ex.add_process(Box::new(RenamingFig3::new(*i, m, j, RenamingFig4::new(*i, m))))
                })
                .collect();
            let base = RandomSched::over_all(&ex, seed);
            let stop_t = 100 + seed * 300;
            let mut sched = Starve::new(base, vec![(pids[victim], stop_t)]);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 3_000_000);
            let mut names = Vec::new();
            for (x, pid) in pids.iter().enumerate() {
                match ex.status(*pid).decision() {
                    Some(v) => names.push(v.as_int().unwrap()),
                    None => assert_eq!(x, victim, "non-victim undecided (seed {seed})"),
                }
            }
            assert!(names.len() >= j - 1);
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicates: {names:?}");
            assert!(names.iter().all(|n| *n >= 1 && *n <= (j + 1) as i64), "{names:?}");
        }
    }
}

#[test]
fn e8_validates_against_task_relation() {
    // End-to-end against the Δ relation (not just the name bound).
    let j = 3;
    let m = 5;
    for k in 1..=j {
        let task = Renaming::new(m, j, j + k - 1);
        for seed in 0..10u64 {
            let parts = [1usize, 2, 4];
            let mut ex = Executor::new();
            let pids: Vec<Pid> =
                parts.iter().map(|i| ex.add_process(Box::new(RenamingFig4::new(*i, m)))).collect();
            let mut sched = KConcurrent::with_seed(pids.clone(), [], k, seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000);
            let mut input = vec![Value::Unit; m];
            let mut output = vec![Value::Unit; m];
            for (slot, pid) in parts.iter().zip(&pids) {
                input[*slot] = Value::Int(1000 + *slot as i64);
                output[*slot] = ex.status(*pid).decision().cloned().unwrap();
            }
            task.validate(&input, &output).unwrap_or_else(|e| panic!("k={k} seed={seed}: {e}"));
        }
    }
}
