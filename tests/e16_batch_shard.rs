//! Experiment E16 — sharding equivalence.
//!
//! Register-space sharding splits the ABD backend into independent replica
//! clusters under one pinned guarantee: **it does not change semantics**.
//! A sharded run must consume the same schedule slots and decide the same
//! values as the unsharded and shared-memory runs for every seed — only
//! the message economy may differ. This suite sweeps `shards ∈ {1, 2, 4}`
//! over the ksa and renaming pipelines. (The test names keep the retired
//! batch axis's `batch_shard` for continuity of the suite's history.)

use wfa::algorithms::renaming::rename_run;
use wfa::core::solver;
use wfa::faults::backend::BackendSpec;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::executor::Executor;
use wfa::kernel::value::Value;
use wfa::net::config::NetConfig;

const SHARDS: [usize; 3] = [1, 2, 4];

/// Backend for one matrix cell: `shards` groups of `nodes` replicas each,
/// built from the run seed as the CLI's `--shards` builds it.
fn cell_backend(nodes: usize, shards: usize, seed: u64) -> Box<dyn MemoryBackend> {
    BackendSpec::Net { cfg: NetConfig::new(nodes, 0), shards }.build(seed, &[])
}

/// The `wfa-cli ksa` run (n=4, k=2, stab=200, crashes=1) over an optional
/// backend; returns `(slots, decisions, degradations)`.
fn ksa_run(seed: u64, backend: Option<Box<dyn MemoryBackend>>) -> (Option<u64>, Vec<Value>, usize) {
    let (mut run, mut sched) = solver::ksa_run(4, 2, 200, 1, seed);
    if let Some(b) = backend {
        run = run.with_backend(b);
    }
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let outputs = run.executor.output_vector();
    let degradations = run.executor.degradations().len();
    (slots, outputs, degradations)
}

/// The `wfa-cli rename` run at j=3, k=2 over an optional backend; returns
/// the decided names per participant.
fn rename_names(seed: u64, backend: Option<Box<dyn MemoryBackend>>) -> Vec<Option<Value>> {
    let mut ex = Executor::new();
    if let Some(b) = backend {
        ex.set_backend(b);
    }
    let pids = rename_run(&mut ex, 3, 4, 2, seed);
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
        let baseline = rename_names(seed, None);
        assert!(
            baseline.iter().any(Option::is_some),
            "someone must acquire a name (seed {seed})"
        );
        for shards in SHARDS {
            let got = rename_names(seed, Some(cell_backend(3, shards, seed)));
            assert_eq!(got, baseline, "seed {seed} shards {shards}: names must match shm");
        }
    }
}
