//! Experiment E5 — Theorem 9: every k-concurrently solvable task is solvable
//! with `¬Ωk` in EFD, wait-free.
//!
//! Full wait-freedom ensembles through the harness: random failure patterns
//! in E_{n−1}, adversarial C-process stops at random times, random fair
//! schedules — every surviving C-process must decide and every output vector
//! must satisfy Δ. Instantiated for the agreement family (universal adopting
//! codes) and renaming (Figure-4 codes, Theorem 16).

use std::sync::Arc;

use wfa::core::harness::{wait_freedom_ensemble, EnsembleConfig, SystemFactory};
use wfa::core::solver::{theorem9_system, AdoptingTaskBuilder, RenamingBuilder};
use wfa::fd::detectors::FdGen;
use wfa::kernel::value::Value;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

#[test]
fn e5_k_set_agreement_ensembles() {
    for (n, k) in [(3usize, 1usize), (3, 2), (4, 2)] {
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, k));
        let builder = AdoptingTaskBuilder::new(task.clone());
        let f = move |input: &[Value], _fd: FdGen| theorem9_system(n, k, input, builder.clone());
        let sf: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget: 8_000_000, stab: 120, runs: 3 };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            sf,
            (n * 1000 + k) as u64,
        )
        .unwrap_or_else(|v| panic!("k-set ensemble (n={n}, k={k}) violated: {v:?}"));
    }
}

#[test]
fn e5_renaming_ensembles() {
    // (j, j+k−1)-renaming with ¬Ωk (Theorem 16): j = n−1 participants.
    for (n, k) in [(3usize, 1usize), (4, 2)] {
        let j = n - 1;
        let task: Arc<dyn Task> = Arc::new(Renaming::new(n, j, j + k - 1));
        let f = move |input: &[Value], _fd: FdGen| {
            theorem9_system(n, k, input, RenamingBuilder { m: n })
        };
        let sf: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget: 10_000_000, stab: 120, runs: 3 };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            sf,
            (n * 7000 + k) as u64,
        )
        .unwrap_or_else(|v| panic!("renaming ensemble (n={n}, k={k}) violated: {v:?}"));
    }
}

/// Runs a Theorem-9 system on shared memory the way the `figure2_shm`
/// benchmark does (→Ω2 stabilising at 100 over a sampled pattern with at
/// most one crash; the fair schedule seeded `seed ^ 0xc11`; 64-slot chunks
/// until every participant has decided) and returns the slots used, the
/// output vector and the register file's content fingerprint.
fn figure2_run(
    procs: wfa::core::harness::CsProcs,
    inputs: &[Value],
    seed: u64,
) -> (u64, Vec<Value>, String) {
    use wfa::core::harness::EfdRun;
    use wfa::fd::environment::Environment;
    use wfa::kernel::value::Pid;
    let pattern = Environment::up_to(inputs.len(), 1).sample(seed, 100);
    let fd = FdGen::vector_omega_k(pattern, 2, 100, seed);
    let (c, s) = procs;
    let mut run = EfdRun::new(c, s, fd);
    let participants: Vec<Pid> =
        (0..inputs.len()).filter(|i| !inputs[*i].is_unit()).map(Pid).collect();
    let mut sched = run.fair_sched(seed ^ 0xc11);
    let mut slots = 0;
    while !run.executor.all_decided(participants.iter().copied()) {
        assert!(slots < 10_000_000, "undecided after {slots} slots");
        run.run(&mut sched, 64);
        slots += 64;
    }
    let fp = format!("{:x}", run.executor.memory().content_fingerprint());
    (slots, run.output_vector(), fp)
}

/// The Figure-2 engine's register contents, pinned: ksa (n = 3, k = 2)
/// through adopting codes and (2,3)-renaming through Figure-4 codes with the
/// idle slot at `seed % 3`, each at two seeds. Every ballot, board write and
/// decision the engine makes lands in the content fingerprint, so any change
/// to what the engine writes shows here.
#[test]
fn e5_figure2_register_contents_are_pinned() {
    let (n, k) = (3usize, 2usize);
    let ksa_pins = [
        (1u64, 2432, [1, 1, 1], "e4cee97633686ddd"),
        (7919, 2496, [1, 1, 1], "eb442b0f05e1a220"),
    ];
    for (seed, slots, out, fp) in ksa_pins {
        let task = SetAgreement::new(n, k);
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let procs = theorem9_system(n, k, &inputs, AdoptingTaskBuilder::new(Arc::new(task)));
        let out: Vec<Value> = out.into_iter().map(Value::Int).collect();
        let got = figure2_run(procs, &inputs, seed);
        assert_eq!(got, (slots, out, fp.to_string()), "ksa seed {seed}");
    }
    let renaming_pins = [
        (1u64, 576, [Value::Int(2), Value::Unit, Value::Int(1)], "c30ab0fec87486a8"),
        (7919, 576, [Value::Int(2), Value::Int(3), Value::Unit], "a5baff6b01f930f2"),
    ];
    for (seed, slots, out, fp) in renaming_pins {
        let idle = (seed % n as u64) as usize;
        let inputs: Vec<Value> = (0..n)
            .map(|i| if i == idle { Value::Unit } else { Value::Int(1000 + i as i64) })
            .collect();
        let procs = theorem9_system(n, k, &inputs, RenamingBuilder { m: n });
        let got = figure2_run(procs, &inputs, seed);
        assert_eq!(got, (slots, out.to_vec(), fp.to_string()), "renaming seed {seed}");
    }
}
