//! Theorem 9: solving any k-concurrently solvable task with `¬Ωk` in EFD.
//!
//! Given an algorithm `A` that solves a task `T` in all *k-concurrent* runs
//! (a restricted algorithm, §2.2), [`theorem9_system`] assembles the EFD
//! system of Theorem 9: every C-process is a [`KcsSimC`] simulator and every
//! S-process a [`KcsSimS`], jointly simulating a k-concurrent run of `A` on
//! `n` codes, with each simulated round agreed through leader-based consensus
//! whose liveness comes from the `→Ωk` advice (equivalent to `¬Ωk`, \[28\]).
//! The C-side is wait-free: a C-process decides as soon as the agreed
//! sequence shows its own code's decision, and the agreed sequence advances
//! on S-process steps alone.
//!
//! Two stock instantiations of `A` cover the paper's headline corollaries:
//!
//! * [`RenamingBuilder`] — `A` = Figure 4, the k-concurrent
//!   `(j, j+k−1)`-renaming algorithm ⇒ **Theorem 16**: `(j, j+k−1)`-renaming
//!   is solvable with `¬Ωk`; at `k = 1` this is strong renaming from `Ω`
//!   (Corollary 13).
//! * [`AdoptingTaskBuilder`] — `A` = the Appendix-A universal automaton with
//!   a task whose `choose_output` adopts an already-published output when one
//!   exists (the agreement family). For such tasks the automaton is
//!   k-concurrently correct for `T` = k-set agreement: at most `k` processes
//!   can be simultaneously undecided, and a decision is published in the same
//!   atomic step that decides, so at most `k` "blind" deciders introduce
//!   values ⇒ at most `k` distinct outputs. With `k = 1` it solves *every*
//!   task (Proposition 1 + Theorem 10's class-1).
//!
//! [`ksa_system`] assembles the other reference system, the §4.2 k-set
//! agreement algorithm itself, and [`ksa_run`] is the fixed-seed run of it
//! that `wfa-cli ksa` executes and the E13–E18 pins measure.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use wfa_algorithms::one_concurrent::OneConcurrentSolver;
use wfa_algorithms::renaming::RenamingFig4;
use wfa_algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa_fd::detectors::FdGen;
use wfa_fd::environment::Environment;
use wfa_kernel::process::DynProcess;
use wfa_kernel::sched::RandomSched;
use wfa_kernel::value::Value;
use wfa_tasks::task::Task;

use crate::code::{CodeBuilder, RegisterSimCode};
use crate::harness::{CsProcs, EfdRun, Inert};
use crate::sim::{KcsSimC, KcsSimS};

/// Builder for Figure-4 renaming codes (`A` of Theorem 16).
#[derive(Clone, Copy, Hash, Debug)]
pub struct RenamingBuilder {
    /// Total name board size (the `m` of the Figure-4 automaton).
    pub m: usize,
}

impl CodeBuilder for RenamingBuilder {
    type Code = RegisterSimCode<RenamingFig4>;

    fn build(&self, idx: usize, _input: &Value) -> Self::Code {
        RegisterSimCode::new(idx, RenamingFig4::new(idx, self.m))
    }
}

/// Builder for Appendix-A universal-solver codes over an adopting task.
#[derive(Clone)]
pub struct AdoptingTaskBuilder {
    task: Arc<dyn Task>,
}

impl AdoptingTaskBuilder {
    /// Codes solving `task` (whose `choose_output` must adopt existing
    /// outputs, as the agreement family does).
    pub fn new(task: Arc<dyn Task>) -> AdoptingTaskBuilder {
        AdoptingTaskBuilder { task }
    }
}

impl Hash for AdoptingTaskBuilder {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Builders are immutable configuration; the task name identifies it.
        self.task.name().hash(state);
    }
}

impl std::fmt::Debug for AdoptingTaskBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdoptingTaskBuilder({})", self.task.name())
    }
}

impl CodeBuilder for AdoptingTaskBuilder {
    type Code = RegisterSimCode<OneConcurrentSolver>;

    fn build(&self, idx: usize, input: &Value) -> Self::Code {
        RegisterSimCode::new(idx, OneConcurrentSolver::new(idx, self.task.clone(), input.clone()))
    }
}

/// Assembles the Theorem-9 EFD system: `n` C-simulators (one per input slot;
/// `⊥` slots get [`Inert`]) and `n` S-processes, simulating `A` (given by
/// `builder`) at concurrency `k`.
///
/// Run it under the harness with a `→Ωk` detector.
///
/// # Panics
///
/// Panics if `k == 0` or `inputs.len() != n`.
pub fn theorem9_system<B>(
    n: usize,
    k: usize,
    inputs: &[Value],
    builder: B,
) -> CsProcs
where
    B: CodeBuilder + Clone + Hash + 'static,
{
    assert!(k >= 1, "concurrency level must be positive");
    assert_eq!(inputs.len(), n, "one input slot per C-process");
    let c: Vec<Box<dyn DynProcess>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v.is_unit() {
                Box::new(Inert) as Box<dyn DynProcess>
            } else {
                Box::new(KcsSimC::new(i, n, n, n, k, v.clone(), builder.clone()))
                    as Box<dyn DynProcess>
            }
        })
        .collect();
    let s: Vec<Box<dyn DynProcess>> = (0..n)
        .map(|q| Box::new(KcsSimS::new(q, n, n, n, k, builder.clone())) as Box<dyn DynProcess>)
        .collect();
    (c, s)
}

/// Assembles the §4.2 k-set agreement system: C-process `i` runs
/// [`SetAgreementC`] on `inputs[i]` (a `⊥` slot gets [`Inert`]) and each of
/// the `n` S-processes runs the [`SetAgreementS`] advice automaton serving
/// `n` C-processes at agreement level `k`.
///
/// Run it under the harness with a `→Ωk` detector.
pub fn ksa_system(n: usize, k: usize, inputs: &[Value]) -> CsProcs {
    let c: Vec<Box<dyn DynProcess>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v.is_unit() {
                Box::new(Inert) as Box<dyn DynProcess>
            } else {
                Box::new(SetAgreementC::new(i, k as u32, v.clone())) as Box<dyn DynProcess>
            }
        })
        .collect();
    let s: Vec<Box<dyn DynProcess>> = (0..n)
        .map(|q| {
            Box::new(SetAgreementS::new(q as u32, n as u32, n, k as u32)) as Box<dyn DynProcess>
        })
        .collect();
    (c, s)
}

/// The `wfa-cli ksa` run: [`ksa_system`] over inputs `0..n`, a failure
/// pattern of at most `crashes` S-crashes (capped at `n − 1`) sampled from
/// `seed` before `stab`, a `→Ωk` detector stabilising at `stab`, and the
/// fair schedule seeded `seed ^ 0xc11`. Callers attach metrics and a
/// backend, then run until decided.
///
/// # Panics
///
/// Panics unless `1 ≤ k ≤ n`.
pub fn ksa_run(n: usize, k: usize, stab: u64, crashes: usize, seed: u64) -> (EfdRun, RandomSched) {
    let pattern = Environment::up_to(n, crashes.min(n - 1)).sample(seed, stab.max(1));
    let fd = FdGen::vector_omega_k(pattern, k, stab, seed);
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let (c, s) = ksa_system(n, k, &inputs);
    let run = EfdRun::new(c, s, fd);
    let sched = run.fair_sched(seed ^ 0xc11);
    (run, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{EfdRun, RunReport};
    use wfa_fd::detectors::FdGen;
    use wfa_fd::pattern::FailurePattern;
    use wfa_kernel::sched::Starve;
    use wfa_kernel::value::Pid;
    use wfa_tasks::agreement::SetAgreement;
    use wfa_tasks::renaming::Renaming;
    use wfa_tasks::task::Task;

    fn run_theorem9<B: CodeBuilder + Clone + Hash + 'static>(
        n: usize,
        k: usize,
        inputs: Vec<Value>,
        builder: B,
        pattern: FailurePattern,
        seed: u64,
        stops: Vec<(Pid, u64)>,
    ) -> (Vec<Value>, RunReport) {
        let (c, s) = theorem9_system(n, k, &inputs, builder);
        let fd = FdGen::vector_omega_k(pattern, k, 150, seed);
        let mut run = EfdRun::new(c, s, fd);
        let base = run.fair_sched(seed ^ 0xbeef);
        let mut sched = Starve::new(base, stops);
        let stop = run.run(&mut sched, 6_000_000);
        let out = run.output_vector();
        let report = RunReport::evaluate(&run, &SetAgreement::new(n, k), &inputs, stop);
        (out, report)
    }

    #[test]
    fn solves_k_set_agreement_with_advice() {
        for seed in 0..3 {
            let n = 3;
            let k = 2;
            let task = SetAgreement::new(n, k);
            let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            let (out, _) = run_theorem9(
                n,
                k,
                inputs.clone(),
                AdoptingTaskBuilder::new(Arc::new(task.clone())),
                FailurePattern::failure_free(n),
                seed,
                vec![],
            );
            assert!(out.iter().all(|v| !v.is_unit()), "undecided: {out:?}");
            task.validate(&inputs, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn k_set_agreement_wait_free_with_crashes() {
        let n = 3;
        let k = 2;
        for seed in 0..2 {
            let task = SetAgreement::new(n, k);
            let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            let pattern = FailurePattern::with_crashes(n, &[(1, 60)]);
            // C2 stops early; C0, C1 must still decide.
            let (out, _) = run_theorem9(
                n,
                k,
                inputs.clone(),
                AdoptingTaskBuilder::new(Arc::new(task.clone())),
                pattern,
                seed,
                vec![(Pid(2), 25)],
            );
            assert!(!out[0].is_unit() && !out[1].is_unit(), "undecided: {out:?}");
            task.validate(&inputs, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn theorem16_renaming_with_advice() {
        // (j, j+k−1)-renaming with ¬Ωk: n = j+1 processes, j participants.
        let n = 4;
        let j = 3;
        let k = 2;
        for seed in 0..2 {
            let mut inputs: Vec<Value> = (0..n).map(|i| Value::Int(1000 + i as i64)).collect();
            inputs[1] = Value::Unit; // one spectator: j = 3 participants
            let (out, _) = run_theorem9(
                n,
                k,
                inputs.clone(),
                RenamingBuilder { m: n },
                FailurePattern::failure_free(n),
                seed,
                vec![],
            );
            let task = Renaming::new(n, j, j + k - 1);
            task.validate(&inputs, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for (i, v) in out.iter().enumerate() {
                assert_eq!(v.is_unit(), inputs[i].is_unit(), "decided ↔ participated: {out:?}");
            }
        }
    }

    #[test]
    fn corollary13_strong_renaming_with_omega() {
        // k = 1 (Ω): strong renaming — names within 1..=j.
        let n = 3;
        let j = 2;
        for seed in 0..2 {
            let mut inputs: Vec<Value> = (0..n).map(|i| Value::Int(1000 + i as i64)).collect();
            inputs[0] = Value::Unit;
            let (out, _) = run_theorem9(
                n,
                1,
                inputs.clone(),
                RenamingBuilder { m: n },
                FailurePattern::failure_free(n),
                seed,
                vec![],
            );
            let task = Renaming::strong(n, j);
            task.validate(&inputs, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(out.iter().filter(|v| !v.is_unit()).count() == j);
        }
    }
}
