//! Experiment E10 — §2.3: EFD solvability vs. classical solvability.
//!
//! * Proposition 3: an EFD solution also solves the task classically —
//!   *personified* runs (C-process `i` stops exactly when S-process `i`
//!   crashes) are a subset of fair runs, so our k-set agreement solver must
//!   keep working when we impose personification.
//! * The §2.3 counterexample detector `D` ("output q0 if q0 is correct,
//!   else q1"): classically it solves consensus among {p0, p1} in E_2, but
//!   in EFD it does not — we exhibit the classical solution working in
//!   personified runs and the EFD gap (C-processes alive, advice pointing
//!   forever at crashed S-processes, no decision) in fair runs. A finite
//!   run cannot *prove* unsolvability, but it shows precisely the behaviour
//!   the proposition's proof describes, with safety intact.

use wfa::core::harness::{EfdRun, RunReport};
use wfa::core::solver::ksa_system;
use wfa::fd::detectors::FdGen;
use wfa::fd::pattern::FailurePattern;
use wfa::kernel::sched::{Starve, StopReason};
use wfa::kernel::value::{Pid, Value};
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::task::Task;

/// Proposition 3: the EFD solver under personified runs (C_i frozen at
/// S_i's crash time) still satisfies the task, and every C-process whose
/// S-counterpart is correct decides.
#[test]
fn e10_personified_runs_inherit_the_solution() {
    for seed in 0..8u64 {
        let n = 4;
        let k = 2;
        let crashes = [(1usize, 50u64), (3, 90)];
        let pattern = FailurePattern::with_crashes(n, &crashes);
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let (c, s) = ksa_system(n, k, &inputs);
        let fd = FdGen::vector_omega_k(pattern, k, 150, seed);
        let mut run = EfdRun::new(c, s, fd);
        // Personification: freeze C_i exactly when S_i crashes.
        let stops: Vec<(Pid, u64)> = crashes.iter().map(|(q, t)| (Pid(*q), *t)).collect();
        let base = run.fair_sched(seed);
        let mut sched = Starve::new(base, stops);
        let stop = run.run(&mut sched, 400_000);
        let task = SetAgreement::new(n, k);
        let report = RunReport::evaluate(&run, &task, &inputs, stop);
        report.assert_safe();
        for i in [0usize, 2] {
            assert!(
                !report.output[i].is_unit(),
                "seed {seed}: correct-personified C{i} undecided"
            );
        }
    }
}

/// The §2.3 counterexample detector: "outputs q1 if q1 is correct and
/// outputs q2 if q1 is faulty" (0-indexed: 1 and 2).
fn d_23(f: &FailurePattern, _q: usize, _t: u64) -> Value {
    Value::Int(if f.is_correct(1) { 1 } else { 2 })
}

/// An S-process treating the §2.3 detector output as a (static) Ω leader:
/// runs consensus-instance ballots whenever `D` currently names it.
/// Equivalent to the k = 1 advice automaton with a 1-vector detector view.
fn wrap_d23(v: Value) -> Value {
    Value::tuple([v])
}

/// Classical solvability: in personified runs, the §2.3 detector drives the
/// leader-based solver to a decision among the *surviving* pair — because a
/// faulty named leader entails the corresponding C-process is also frozen.
#[test]
fn e10_classical_consensus_with_d23() {
    for (seed, crashes) in [(1u64, vec![]), (2, vec![(1usize, 30u64)]), (3, vec![(0, 30)])] {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &crashes);
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let (c, s) = ksa_system(n, 1, &inputs);
        // D outputs a single S-index; the k=1 automaton expects a 1-vector.
        let mut fd = FdGen::by_pattern(pattern.clone(), "D§2.3", d_23);
        // Wrap outputs: run manually so we can adapt the value shape.
        let mut run = EfdRun::new(c, s, FdGen::trivial(pattern.clone()));
        let stops: Vec<(Pid, u64)> = crashes.iter().map(|(q, t)| (Pid(*q), *t)).collect();
        let mut sched = Starve::new(run.fair_sched(seed), stops.clone());
        // Manual loop: supply wrapped D outputs to S-processes.
        use wfa::kernel::sched::Scheduler;
        for _ in 0..400_000u64 {
            let Some(pid) = sched.next(&run.executor) else { break };
            let now = run.executor.clock();
            match run.roles.sidx(pid) {
                Some(q) => {
                    if !pattern.is_alive(q, now) {
                        continue;
                    }
                    let v = wrap_d23(fd.output(q, now));
                    run.executor.step(pid, Some(&v));
                }
                None => {
                    run.executor.step(pid, None);
                }
            }
        }
        let task = SetAgreement::new(n, 1);
        let out = run.output_vector();
        task.validate(&inputs, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Classical guarantee: every personified-correct C-process decides.
        let stopped: Vec<usize> = crashes.iter().map(|(q, _)| *q).collect();
        for i in 0..n {
            if !stopped.contains(&i) {
                assert!(!out[i].is_unit(), "seed {seed}: classical C{i} undecided: {out:?}");
            }
        }
    }
}

/// The EFD gap: with q1 and q2 crashed but every C-process alive (allowed
/// in EFD, impossible in personified runs), `D` names the dead q2 forever —
/// no live leader, no decision — while safety still holds. This is the
/// operational content of "the converse of Proposition 3 is not true": in
/// the classical model this pattern freezes p1 and p2 too, so the guarantee
/// is vacuous there; in EFD the live C-processes are stranded.
#[test]
fn e10_efd_gap_with_d23() {
    let n = 3;
    let pattern = FailurePattern::with_crashes(n, &[(1usize, 10u64), (2, 10)]);
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let (c, s) = ksa_system(n, 1, &inputs);
    let mut fd = FdGen::by_pattern(pattern.clone(), "D§2.3", d_23);
    let mut run = EfdRun::new(c, s, FdGen::trivial(pattern.clone()));
    let mut sched = run.fair_sched(9);
    use wfa::kernel::sched::Scheduler;
    let mut slots = 0u64;
    while slots < 300_000 {
        let Some(pid) = sched.next(&run.executor) else { break };
        let now = run.executor.clock();
        slots += 1;
        match run.roles.sidx(pid) {
            Some(q) => {
                if !pattern.is_alive(q, now) {
                    continue;
                }
                let v = wrap_d23(fd.output(q, now));
                run.executor.step(pid, Some(&v));
            }
            None => {
                run.executor.step(pid, None);
            }
        }
    }
    let out = run.output_vector();
    // No C-process can decide: the only advice ever given points at the
    // crashed q0, so no ballots run and no decision register is written.
    assert!(out.iter().all(Value::is_unit), "EFD gap closed unexpectedly: {out:?}");
    // …but safety was never at risk.
    let task = SetAgreement::new(n, 1);
    assert!(task.validate(&inputs, &out).is_ok());
    let _ = StopReason::BudgetExhausted;
}
