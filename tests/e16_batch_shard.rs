//! Experiment E16 — sharding equivalence.
//!
//! Register-space sharding splits the ABD backend into independent replica
//! clusters under one pinned guarantee: **it does not change semantics**.
//! A sharded run must consume the same schedule slots and decide the same
//! values as the unsharded and shared-memory runs for every seed — only
//! the message economy may differ. This suite sweeps `shards ∈ {1, 2, 4}`
//! over the ksa and renaming pipelines. (The test names keep the retired
//! batch axis's `batch_shard` for continuity of the suite's history.)

use wfa::algorithms::renaming::RenamingFig4;
use wfa::algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa::core::harness::EfdRun;
use wfa::fd::detectors::FdGen;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::executor::Executor;
use wfa::kernel::process::DynProcess;
use wfa::kernel::sched::{run_schedule, KConcurrent, NullEnv};
use wfa::kernel::value::{Pid, Value};
use wfa::net::abd::{sharded_backend, AbdBackend};
use wfa::net::config::{NetConfig, ShardMap};

const SHARDS: [usize; 3] = [1, 2, 4];

/// Backend for one matrix cell: `shards` groups of `nodes` replicas each,
/// with the CLI's seed derivation.
fn cell_backend(nodes: usize, shards: usize, seed: u64) -> Box<dyn MemoryBackend> {
    let cfg = NetConfig::new(nodes, seed ^ 0x7e7);
    if shards > 1 {
        Box::new(sharded_backend(&cfg, &ShardMap::new(shards, nodes)))
    } else {
        Box::new(AbdBackend::new(cfg))
    }
}

/// The CLI's default ksa run (n=4, k=2, stab=200) over an optional backend;
/// returns `(slots, decisions, degradations)`.
fn ksa_run(seed: u64, backend: Option<Box<dyn MemoryBackend>>) -> (Option<u64>, Vec<Value>, usize) {
    let (n, k, stab) = (4usize, 2u32, 200u64);
    let pattern = wfa::fd::environment::Environment::up_to(n, 1).sample(seed, stab);
    let fd = FdGen::vector_omega_k(pattern, k as usize, stab, seed);
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let c: Vec<Box<dyn DynProcess>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| Box::new(SetAgreementC::new(i, k, v.clone())) as Box<dyn DynProcess>)
        .collect();
    let s: Vec<Box<dyn DynProcess>> = (0..n)
        .map(|q| Box::new(SetAgreementS::new(q as u32, n as u32, n, k)) as Box<dyn DynProcess>)
        .collect();
    let mut run = EfdRun::new(c, s, fd);
    if let Some(b) = backend {
        run = run.with_backend(b);
    }
    let mut sched = run.fair_sched(seed ^ 0xc11);
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let outputs = run.executor.output_vector();
    let degradations = run.executor.degradations().len();
    (slots, outputs, degradations)
}

/// A j=3 renaming ensemble under a seeded 2-concurrent scheduler; returns
/// the decided names per participant.
fn rename_run(seed: u64, backend: Option<Box<dyn MemoryBackend>>) -> Vec<Option<Value>> {
    let (j, m) = (3usize, 4usize);
    let mut ex = Executor::new();
    if let Some(b) = backend {
        ex.set_backend(b);
    }
    let pids: Vec<Pid> =
        (0..j).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, m)))).collect();
    let mut sched = KConcurrent::with_seed(pids.clone(), [], 2, seed);
    run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000);
    pids.iter().map(|p| ex.status(*p).decision().cloned()).collect()
}

#[test]
fn e16_ksa_decides_identically_across_the_batch_shard_matrix() {
    for seed in [7u64, 19] {
        let (slots, outputs, _) = ksa_run(seed, None);
        assert!(slots.is_some(), "shm baseline must decide (seed {seed})");
        for shards in SHARDS {
            let (s2, o2, degr) = ksa_run(seed, Some(cell_backend(4, shards, seed)));
            assert_eq!(
                (s2, &o2),
                (slots, &outputs),
                "seed {seed} shards {shards}: slots/decisions must match shm"
            );
            assert_eq!(degr, 0, "healthy network must not degrade");
        }
    }
}

#[test]
fn e16_renaming_decides_identically_across_the_batch_shard_matrix() {
    for seed in [3u64, 12] {
        let baseline = rename_run(seed, None);
        assert!(
            baseline.iter().any(Option::is_some),
            "someone must acquire a name (seed {seed})"
        );
        for shards in SHARDS {
            let got = rename_run(seed, Some(cell_backend(3, shards, seed)));
            assert_eq!(got, baseline, "seed {seed} shards {shards}: names must match shm");
        }
    }
}
