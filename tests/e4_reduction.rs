//! Experiment E4 — Theorem 8 / Figure 1: extracting `¬Ωk` from a detector
//! that solves a non-(k+1)-concurrently-solvable task.
//!
//! `T` = consensus (class 1, so not 2-concurrently solvable by Lemma 11's
//! machinery), `A` = the EFD consensus solver, `D` = `→Ω1`. The real
//! S-processes run the Figure-1 exploration; the histories they emit must
//! satisfy the `¬Ω1` specification — some correct process is eventually
//! never output — under several leaders, crash patterns, and input-vector
//! sets.

use wfa::core::reduction::{emulated_key, AsimBuilders, ReductionS};
use wfa::fd::detectors::{FdGen, HistoryEntry};
use wfa::fd::pattern::FailurePattern;
use wfa::fd::reduction::omega_from_anti_omega_1;
use wfa::fd::spec::{check_anti_omega_k, check_omega};
use wfa::kernel::executor::Executor;
use wfa::kernel::sched::{RandomSched, Scheduler};
use wfa::kernel::value::Value;

fn run_extraction(
    pattern: FailurePattern,
    stab: u64,
    seed: u64,
    slots: u64,
) -> (FailurePattern, Vec<HistoryEntry>) {
    let n = pattern.n();
    assert_eq!(n, 3, "AsimBuilders::CONSENSUS3 simulates three processes");
    let inputs: Vec<Vec<Value>> =
        vec![(0..n as i64).map(Value::Int).collect(), vec![Value::Int(0); n]];
    let mut fd = FdGen::vector_omega_k(pattern.clone(), 1, stab, seed);
    let mut ex = Executor::new();
    for q in 0..n {
        let s = ReductionS::new(q, n, 1, AsimBuilders::CONSENSUS3, inputs.clone());
        ex.add_process(Box::new(s));
    }
    let mut sched = RandomSched::over_all(&ex, seed ^ 0x44);
    let mut history = Vec::new();
    for step in 0..slots {
        let Some(pid) = sched.next(&ex) else { break };
        let now = ex.clock();
        let q = pid.0;
        if !pattern.is_alive(q, now) {
            continue;
        }
        let fdv = fd.output(q, now);
        ex.step(pid, Some(&fdv));
        if step % 16 == 0 {
            let v = ex.memory().peek(emulated_key(q as u32));
            if !v.is_unit() {
                history.push(HistoryEntry { q, t: now, val: v });
            }
        }
    }
    (pattern, history)
}

#[test]
fn e4_extraction_failure_free() {
    for seed in [11u64, 23, 37] {
        let (pattern, history) =
            run_extraction(FailurePattern::failure_free(3), 300, seed, 700_000);
        let w = check_anti_omega_k(&pattern, &history, 1, 5_000)
            .unwrap_or_else(|| panic!("seed {seed}: ¬Ω1 violated"));
        assert!(pattern.is_correct(w.who));
    }
}

#[test]
fn e4_extraction_with_crashes() {
    for (seed, crashes) in [(5u64, vec![(1usize, 400u64)]), (8, vec![(0, 900)])] {
        let (pattern, history) =
            run_extraction(FailurePattern::with_crashes(3, &crashes), 300, seed, 900_000);
        let w = check_anti_omega_k(&pattern, &history, 1, 5_000)
            .unwrap_or_else(|| panic!("seed {seed}: ¬Ω1 violated"));
        assert!(pattern.is_correct(w.who));
    }
}

/// Closing the loop of §2.3: the extracted `¬Ω1` converts to `Ω` by
/// complementation — extraction + reduction yields an eventual leader from
/// nothing but a task-solving detector.
#[test]
fn e4_extracted_detector_yields_omega() {
    let (pattern, history) = run_extraction(FailurePattern::failure_free(3), 300, 99, 700_000);
    let omega_history: Vec<HistoryEntry> = history
        .iter()
        .map(|e| HistoryEntry { q: e.q, t: e.t, val: omega_from_anti_omega_1(3, &e.val) })
        .collect();
    let w = check_omega(&pattern, &omega_history, 5_000).expect("complemented history is Ω");
    assert!(pattern.is_correct(w.who), "leader {w:?} must be correct");
}
