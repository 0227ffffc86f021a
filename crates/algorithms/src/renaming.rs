//! Renaming algorithms (Figures 3 and 4, Appendix D).
//!
//! [`RenamingFig4`] is the paper's Figure 4 — the rank-based suggestion
//! protocol in the style of the classic wait-free (j, 2j−1)-renaming
//! [Attiya et al. 90]. Its name-space usage is a function of the *run's
//! concurrency*: in k-concurrent runs with at most `j` participants every
//! name fits in `{1, …, j+k−1}` (Theorem 15). The very same automaton run
//! unrestricted (`k = j`) is the wait-free `(j, 2j−1)` baseline — the
//! benches sweep `k` to show the advice-vs-baseline crossover.
//!
//! Both automata read the register board with the kernel's atomic-snapshot
//! primitive (one operation): the paper's "get the current participating
//! set" is an instantaneous view, and the Theorem-15 bound genuinely needs
//! it — with a plain one-register-per-step collect, a scan can observe
//! `k+1` still-trying participants across its duration (one finalizes
//! mid-collect, a new arrival is admitted and suggests), pushing the rank
//! to `k+1` and a name to `j+k`. The violating schedule is reproduced in
//! this module's tests as `collect_scan_breaks_the_bound`.
//!
//! [`RenamingFig3`] is Figure 3 — the gate that turns any algorithm solving
//! renaming in 2-concurrent runs into a 1-resilient solution: participants
//! register, and only the (at most two) smallest-id undecided participants
//! among `j` (or the single smallest among `j−1`) take steps of the inner
//! algorithm. The paper uses it inside the Theorem-12 impossibility proof;
//! here it runs for real, wrapped around Figure 4.

use wfa_kernel::executor::Executor;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::sched::{run_schedule, KConcurrent, NullEnv};
use wfa_kernel::value::{Pid, Value};
use crate::boards::ns;

fn suggest_key(l: usize) -> RegKey {
    RegKey::idx(ns::RENAME, l as u32, 0, 0, 0)
}

fn gate_key(l: usize) -> RegKey {
    RegKey::idx(ns::FIG3, l as u32, 0, 0, 0)
}

/// Decoded suggestion record `(id, name, still-deciding)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Suggestion {
    id: usize,
    name: i64,
    trying: bool,
}

fn decode(v: &Value) -> Option<Suggestion> {
    Some(Suggestion {
        id: v.get(0)?.as_int()? as usize,
        name: v.get(1)?.as_int()?,
        trying: v.get(2)?.as_bool()?,
    })
}

#[derive(Clone, Hash, Debug)]
enum Fig4Pc {
    Suggest,
    Scan,
    Finalize,
}

/// Figure 4: the k-concurrent (j, j+k−1)-renaming automaton.
#[derive(Clone, Hash, Debug)]
pub struct RenamingFig4 {
    me: usize,
    m: usize,
    name: i64,
    pc: Fig4Pc,
}

impl RenamingFig4 {
    /// Process `me` of `m` (at most `j` of which participate per run).
    ///
    /// # Panics
    ///
    /// Panics if `me >= m`.
    pub fn new(me: usize, m: usize) -> RenamingFig4 {
        assert!(me < m);
        RenamingFig4 { me, m, name: 1, pc: Fig4Pc::Suggest }
    }

    fn all_keys(&self) -> Vec<RegKey> {
        (0..self.m).map(suggest_key).collect()
    }
}

impl Process for RenamingFig4 {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match &mut self.pc {
            Fig4Pc::Suggest => {
                // R_i := (i, s, true): register/refresh the suggested name.
                let rec = Value::tuple([
                    Value::Int(self.me as i64),
                    Value::Int(self.name),
                    Value::Bool(true),
                ]);
                ctx.write(suggest_key(self.me), rec);
                self.pc = Fig4Pc::Scan;
                Status::Running
            }
            Fig4Pc::Scan => {
                let raw = ctx.snapshot(&self.all_keys());
                let seen: Vec<Suggestion> = raw.iter().filter_map(decode).collect();
                let conflict =
                    seen.iter().any(|s| s.id != self.me && s.name == self.name);
                if conflict {
                    // r := my rank among still-trying participants (1-based).
                    let mut trying: Vec<usize> =
                        seen.iter().filter(|s| s.trying).map(|s| s.id).collect();
                    trying.sort_unstable();
                    let r = trying.iter().position(|id| *id == self.me).map_or(1, |p| p + 1);
                    // s := r-th positive integer not suggested by others.
                    let others: Vec<i64> =
                        seen.iter().filter(|s| s.id != self.me).map(|s| s.name).collect();
                    let mut count = 0;
                    let mut cand = 0;
                    while count < r {
                        cand += 1;
                        if !others.contains(&cand) {
                            count += 1;
                        }
                    }
                    self.name = cand;
                    self.pc = Fig4Pc::Suggest;
                } else {
                    self.pc = Fig4Pc::Finalize;
                }
                Status::Running
            }
            Fig4Pc::Finalize => {
                // R_i := (i, s, false) and return s.
                let rec = Value::tuple([
                    Value::Int(self.me as i64),
                    Value::Int(self.name),
                    Value::Bool(false),
                ]);
                ctx.write(suggest_key(self.me), rec);
                Status::Decided(Value::Int(self.name))
            }
        }
    }

    fn label(&self) -> String {
        format!("fig4-rename[{}]", self.me)
    }
}

#[derive(Clone, Hash, Debug)]
enum Fig3Pc {
    Register,
    Scan,
    InnerStep,
    Unregister { name: Value },
}

/// Figure 3: the 1-resilient gate around an inner 2-concurrent solver.
#[derive(Clone, Hash, Debug)]
pub struct RenamingFig3<A> {
    me: usize,
    m: usize,
    j: usize,
    inner: A,
    pc: Fig3Pc,
}

impl<A: Process> RenamingFig3<A> {
    /// Gate for process `me` of `m`, with participation bound `j`, wrapping
    /// `inner` (an algorithm assumed correct in 2-concurrent runs).
    ///
    /// # Panics
    ///
    /// Panics if `me >= m` or `j < 2`.
    pub fn new(me: usize, m: usize, j: usize, inner: A) -> RenamingFig3<A> {
        assert!(me < m && j >= 2);
        RenamingFig3 { me, m, j, inner, pc: Fig3Pc::Register }
    }

    fn gate_keys(&self) -> Vec<RegKey> {
        (0..self.m).map(gate_key).collect()
    }
}

impl<A: Process> Process for RenamingFig3<A> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match &mut self.pc {
            Fig3Pc::Register => {
                ctx.write(gate_key(self.me), Value::Int(1));
                self.pc = Fig3Pc::Scan;
                Status::Running
            }
            Fig3Pc::Scan => {
                let raw = ctx.snapshot(&self.gate_keys());
                // S: registered; S': registered and not yet decided.
                let s: Vec<usize> =
                    raw.iter().enumerate().filter(|(_, v)| !v.is_unit()).map(|(l, _)| l).collect();
                let s1: Vec<usize> = raw
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.as_int() == Some(1))
                    .map(|(l, _)| l)
                    .collect();
                let min1 = s1.first().copied();
                let min2 = s1.get(1).copied().or(min1);
                let admitted = (s.len() == self.j
                    && (min1 == Some(self.me) || min2 == Some(self.me)))
                    || (s.len() == self.j - 1 && min1 == Some(self.me));
                self.pc = if admitted { Fig3Pc::InnerStep } else { Fig3Pc::Scan };
                Status::Running
            }
            Fig3Pc::InnerStep => {
                match self.inner.step(ctx) {
                    Status::Decided(name) => self.pc = Fig3Pc::Unregister { name },
                    _ => self.pc = Fig3Pc::Scan,
                }
                Status::Running
            }
            Fig3Pc::Unregister { name } => {
                let name = name.clone();
                ctx.write(gate_key(self.me), Value::Int(0));
                Status::Decided(name)
            }
        }
    }

    fn label(&self) -> String {
        format!("fig3-gate[{}]", self.me)
    }
}

/// The `wfa-cli rename` run: adds Figure-4 participants `0..j` over a board
/// of `m` names to `ex` (whose backend and metrics the caller has set) and
/// runs them under the seeded `k`-concurrent scheduler for at most
/// 5,000,000 slots. Returns the participants' pids.
pub fn rename_run(ex: &mut Executor, j: usize, m: usize, k: usize, seed: u64) -> Vec<Pid> {
    let pids: Vec<Pid> =
        (0..j).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, m)))).collect();
    let mut sched = KConcurrent::with_seed(pids.clone(), [], k, seed);
    run_schedule(ex, &mut sched, &mut NullEnv, 5_000_000);
    pids
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_kernel::sched::{RandomSched, Starve};
    use wfa_tasks::renaming::Renaming;
    use wfa_tasks::task::Task;

    /// Runs Figure 4 with `parts` participants under a k-concurrent schedule
    /// and returns the decided names (by participant order).
    fn run_fig4(m: usize, parts: &[usize], k: usize, seed: u64) -> Vec<i64> {
        let mut ex = Executor::new();
        let pids: Vec<Pid> =
            parts.iter().map(|i| ex.add_process(Box::new(RenamingFig4::new(*i, m)))).collect();
        // Shuffle arrival order deterministically by seed.
        let mut arrival = pids.clone();
        let rot = (seed as usize) % arrival.len().max(1);
        arrival.rotate_left(rot);
        let mut sched = KConcurrent::new(arrival, [], k);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
        pids.iter()
            .map(|p| {
                ex.status(*p)
                    .decision()
                    .unwrap_or_else(|| panic!("{p} undecided (seed {seed})"))
                    .as_int()
                    .unwrap()
            })
            .collect()
    }

    fn assert_names(names: &[i64], bound: i64) {
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names: {names:?}");
        assert!(names.iter().all(|n| *n >= 1 && *n <= bound), "names {names:?} exceed {bound}");
    }

    #[test]
    fn one_concurrent_runs_use_j_names() {
        // k=1 ⇒ names in 1..=j (j+k−1 = j): strong renaming, sequentially.
        for seed in 0..10 {
            let names = run_fig4(6, &[1, 3, 4, 5], 1, seed);
            assert_names(&names, 4);
        }
    }

    #[test]
    fn k_concurrent_runs_respect_j_plus_k_minus_1() {
        for k in 1..=4usize {
            for seed in 0..10 {
                let names = run_fig4(6, &[0, 2, 3, 5], k, seed);
                assert_names(&names, (4 + k - 1) as i64);
            }
        }
    }

    #[test]
    fn unrestricted_runs_are_the_wait_free_baseline() {
        // k = j: the classic (j, 2j−1) bound.
        for seed in 0..20 {
            let names = run_fig4(6, &[0, 1, 2, 4, 5], 5, seed);
            assert_names(&names, 2 * 5 - 1);
        }
    }

    #[test]
    fn random_fair_schedules_terminate_and_validate() {
        let task = Renaming::new(6, 4, 7); // j + k − 1 with k = j = 4 ⇒ ℓ = 7
        for seed in 0..20 {
            let parts = [0usize, 1, 3, 4];
            let mut ex = Executor::new();
            let pids: Vec<Pid> =
                parts.iter().map(|i| ex.add_process(Box::new(RenamingFig4::new(*i, 6)))).collect();
            let mut sched = RandomSched::over_all(&ex, seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
            let mut input = vec![Value::Unit; 6];
            let mut output = vec![Value::Unit; 6];
            for (slot, pid) in parts.iter().zip(&pids) {
                input[*slot] = Value::Int(1000 + *slot as i64);
                output[*slot] = ex.status(*pid).decision().cloned().unwrap();
            }
            task.validate(&input, &output).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn fig3_produces_1_resilient_renaming() {
        // j = 3 participants of m = 5; wrap Figure 4; starve one participant
        // (1-resilient). Inner runs are 2-concurrent ⇒ names ≤ j + 1.
        let j = 3;
        for seed in 0..15 {
            let parts = [0usize, 2, 4];
            let starved = parts[(seed as usize) % parts.len()];
            let mut ex = Executor::new();
            let pids: Vec<Pid> = parts
                .iter()
                .map(|i| {
                    ex.add_process(Box::new(RenamingFig3::new(
                        *i,
                        5,
                        j,
                        RenamingFig4::new(*i, 5),
                    )))
                })
                .collect();
            let base = RandomSched::over_all(&ex, seed);
            let starve_pid = pids[parts.iter().position(|p| *p == starved).unwrap()];
            let mut sched = Starve::new(base, vec![(starve_pid, 2000)]);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
            let mut names = Vec::new();
            for (slot, pid) in parts.iter().zip(&pids) {
                match ex.status(*pid).decision() {
                    Some(v) => names.push(v.as_int().unwrap()),
                    None => assert_eq!(*slot, starved, "non-starved {slot} undecided, seed {seed}"),
                }
            }
            assert!(names.len() >= j - 1, "seed {seed}: too few deciders");
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "seed {seed}: duplicate names {names:?}");
            assert!(names.iter().all(|n| *n >= 1 && *n <= (j + 1) as i64), "seed {seed}: {names:?}");
        }
    }

    #[test]
    fn fig3_no_failures_all_decide() {
        let j = 3;
        for seed in 0..10 {
            let parts = [1usize, 2, 3];
            let mut ex = Executor::new();
            let pids: Vec<Pid> = parts
                .iter()
                .map(|i| {
                    ex.add_process(Box::new(RenamingFig3::new(*i, 4, j, RenamingFig4::new(*i, 4))))
                })
                .collect();
            let mut sched = RandomSched::over_all(&ex, seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
            for p in &pids {
                assert!(ex.status(*p).decision().is_some(), "{p} undecided, seed {seed}");
            }
        }
    }

    /// The counterexample motivating atomic scans (module docs): the same
    /// algorithm with a one-register-per-step collect can exceed j+k−1 in a
    /// k-concurrent run — a participant finalizes mid-collect and a fresh
    /// arrival's suggestion is read later in the same collect, inflating the
    /// rank past k.
    #[derive(Clone, Hash, Debug)]
    struct CollectFig4 {
        me: usize,
        m: usize,
        name: i64,
        cursor: usize,
        seen: Vec<Value>,
        suggested: bool,
    }

    impl CollectFig4 {
        fn new(me: usize, m: usize) -> CollectFig4 {
            CollectFig4 { me, m, name: 1, cursor: 0, seen: Vec::new(), suggested: false }
        }
    }

    impl Process for CollectFig4 {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            if !self.suggested {
                let rec = Value::tuple([
                    Value::Int(self.me as i64),
                    Value::Int(self.name),
                    Value::Bool(true),
                ]);
                ctx.write(suggest_key(self.me), rec);
                self.suggested = true;
                self.cursor = 0;
                self.seen.clear();
                return Status::Running;
            }
            if self.cursor < self.m {
                self.seen.push(ctx.read(suggest_key(self.cursor)));
                self.cursor += 1;
                return Status::Running;
            }
            let seen: Vec<Suggestion> = self.seen.iter().filter_map(decode).collect();
            let conflict = seen.iter().any(|s| s.id != self.me && s.name == self.name);
            if conflict {
                let mut trying: Vec<usize> = seen.iter().filter(|s| s.trying).map(|s| s.id).collect();
                trying.sort_unstable();
                let r = trying.iter().position(|id| *id == self.me).map_or(1, |p| p + 1);
                let others: Vec<i64> =
                    seen.iter().filter(|s| s.id != self.me).map(|s| s.name).collect();
                let mut count = 0;
                let mut cand = 0;
                while count < r {
                    cand += 1;
                    if !others.contains(&cand) {
                        count += 1;
                    }
                }
                self.name = cand;
                self.suggested = false;
                return Status::Running;
            }
            ctx.write(
                suggest_key(self.me),
                Value::tuple([Value::Int(self.me as i64), Value::Int(self.name), Value::Bool(false)]),
            );
            Status::Decided(Value::Int(self.name))
        }
    }

    #[test]
    fn collect_scan_breaks_the_bound() {
        // j = 3 participants at concurrency 2 must stay within j+k−1 = 4 —
        // the snapshot version does (test above); the collect version leaks
        // name 5 on some schedule.
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut collect_violates = false;
        for seed in 0..200_000u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut slots: Vec<usize> = (0..4).collect();
            slots.shuffle(&mut rng);
            let parts = &slots[..3];
            let mut ex = Executor::new();
            let pids: Vec<Pid> =
                parts.iter().map(|i| ex.add_process(Box::new(CollectFig4::new(*i, 4)))).collect();
            let mut arrival = pids.clone();
            arrival.shuffle(&mut rng);
            let mut sched = KConcurrent::with_seed(arrival, [], 2, seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 100_000);
            for p in &pids {
                if let Some(n) = ex.status(*p).decision().and_then(Value::as_int) {
                    if n > 4 {
                        collect_violates = true;
                    }
                }
            }
            if collect_violates {
                break;
            }
        }
        assert!(
            collect_violates,
            "expected the collect-based scan to leak past j+k−1 on some schedule"
        );
    }

    #[test]
    fn solo_participant_takes_name_1() {
        let names = run_fig4(4, &[2], 1, 0);
        assert_eq!(names, vec![1]);
    }
}
