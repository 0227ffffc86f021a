//! # wfa-bench — benchmark harness
//!
//! One Criterion bench per experiment family (see `EXPERIMENTS.md` for the
//! experiment ↔ bench mapping). The benches measure the *shapes* the theory
//! predicts — how decision latency scales with n, k and advice stabilization
//! time, what the simulation layers cost, and where renaming's
//! advice-vs-baseline namespace crossover falls — not absolute wall-clock
//! numbers (the substrate is a deterministic simulator, not the authors'
//! testbed; there was none: the paper is pure theory).
//!
//! Shared run drivers live here so benches and integration tests measure
//! the same code paths.

use wfa::core::harness::EfdRun;
use wfa::fd::detectors::FdGen;
use wfa::fd::pattern::FailurePattern;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::process::DynProcess;
use wfa::kernel::value::Value;
use wfa::faults::backend::BackendSpec;
use wfa::obs::metrics::MetricsHandle;
use wfa::algorithms::set_agreement::{SetAgreementC, SetAgreementS};

pub mod gossip;
pub mod throughput;

pub use wfa;

/// Builds and runs EFD k-set agreement to completion; returns consumed
/// schedule slots.
///
/// # Panics
///
/// Panics if some C-process fails to decide within the budget.
pub fn run_ksa(n: usize, k: usize, stab: u64, seed: u64) -> u64 {
    run_ksa_observed(n, k, stab, seed, &MetricsHandle::disabled())
}

/// [`run_ksa`] with metrics flowing into `obs` — the same driver the
/// observability determinism suite pins exact counter values against, and
/// the baseline for measuring the enabled-registry overhead.
///
/// # Panics
///
/// Panics if some C-process fails to decide within the budget.
pub fn run_ksa_observed(n: usize, k: usize, stab: u64, seed: u64, obs: &MetricsHandle) -> u64 {
    run_ksa_backend(n, k, stab, seed, obs, 0)
}

/// [`run_ksa_observed`] over the ABD quorum-replicated register backend
/// with `nodes` replicas (`0`: plain shared memory) — the driver behind the
/// `net/*` bench family and the shm-vs-net overhead numbers in
/// `BENCH_net.json`. Builds through [`BackendSpec`] like the CLI's
/// `--backend net`, so fixed-seed runs decide identically on both
/// substrates.
///
/// # Panics
///
/// Panics if some C-process fails to decide within the budget.
pub fn run_ksa_backend(
    n: usize,
    k: usize,
    stab: u64,
    seed: u64,
    obs: &MetricsHandle,
    nodes: usize,
) -> u64 {
    let spec = if nodes > 0 { BackendSpec::net(nodes) } else { BackendSpec::Shm };
    run_ksa_with(n, k, stab, seed, obs, spec.build(seed, &[]))
}

/// [`run_ksa_backend`] over an arbitrary pre-built [`MemoryBackend`] — the
/// seam the B10 throughput driver uses to push the same pipeline over
/// batched and sharded backends.
///
/// # Panics
///
/// Panics if some C-process fails to decide within the budget.
pub fn run_ksa_with(
    n: usize,
    k: usize,
    stab: u64,
    seed: u64,
    obs: &MetricsHandle,
    backend: Box<dyn MemoryBackend>,
) -> u64 {
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let c: Vec<Box<dyn DynProcess>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| Box::new(SetAgreementC::new(i, k as u32, v.clone())) as Box<dyn DynProcess>)
        .collect();
    let s: Vec<Box<dyn DynProcess>> = (0..n)
        .map(|q| Box::new(SetAgreementS::new(q as u32, n as u32, n, k as u32)) as Box<dyn DynProcess>)
        .collect();
    let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k, stab, seed);
    let mut run = EfdRun::new(c, s, fd).with_metrics(obs.clone()).with_backend(backend);
    let mut sched = run.fair_sched(seed ^ 0xb5);
    run.run_until_decided(&mut sched, 5_000_000)
        .expect("undecided C-processes in bench run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn shm_and_net_drivers_agree_on_slots() {
        for seed in 1..4 {
            let shm = run_ksa(4, 2, 50, seed);
            let net = run_ksa_backend(4, 2, 50, seed, &MetricsHandle::disabled(), 4);
            assert_eq!(shm, net, "seed {seed}: the emulation must not change the schedule");
        }
    }

    /// Times `f` `samples` times and returns `(median, min, max, variance)`
    /// in ns (variance is the unbiased sample variance, ns²).
    fn time_ns(samples: usize, mut f: impl FnMut()) -> (f64, f64, f64, f64) {
        let mut xs: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (xs.len() as f64 - 1.0).max(1.0);
        (xs[xs.len() / 2], xs[0], xs[xs.len() - 1], var)
    }

    /// Regenerates `BENCH_net.json` at the repository root:
    /// `cargo test -p wfa-bench --release emit_bench_net -- --ignored --nocapture`
    #[test]
    #[ignore = "writes BENCH_net.json; run explicitly to regenerate it"]
    fn emit_bench_net() {
        const SAMPLES: usize = 15;
        let row = |id: &str, (med, min, max, var): (f64, f64, f64, f64)| {
            format!(
                "      {{\"id\": \"{id}\", \"median_ns\": {med:.1}, \"min_ns\": {min:.1}, \
                 \"max_ns\": {max:.1}, \"variance_ns2\": {var:.1}, \"samples\": {SAMPLES}}}"
            )
        };
        let ksa = |nodes: usize| {
            let mut seed = 0u64;
            time_ns(SAMPLES, || {
                seed += 1;
                run_ksa_backend(4, 2, 50, seed, &MetricsHandle::disabled(), nodes);
            })
        };
        let ksa8 = |nodes: usize| {
            let mut seed = 0u64;
            time_ns(SAMPLES, || {
                seed += 1;
                run_ksa_backend(8, 2, 50, seed, &MetricsHandle::disabled(), nodes);
            })
        };
        let (shm4, net4) = (ksa(0), ksa(4));
        let (shm8, net8) = (ksa8(0), ksa8(8));
        let (r3, r5, r9) = (ksa(3), ksa(5), ksa(9));
        let rows = [
            row("net/ksa_n4/shm", shm4),
            row("net/ksa_n4/abd_nodes4", net4),
            row("net/ksa_n8/shm", shm8),
            row("net/ksa_n8/abd_nodes8", net8),
            row("net/ksa_replicas/abd_nodes3", r3),
            row("net/ksa_replicas/abd_nodes5", r5),
            row("net/ksa_replicas/abd_nodes9", r9),
        ]
        .join(",\n");
        let text = format!(
            "{{\n  \"description\": \"Shared-memory vs. ABD quorum-replicated register backend \
             on the fixed-shape EFD k-set agreement driver (run_ksa_backend; stab=50, medians \
             over {SAMPLES} seeded runs). Regenerate: cargo test -p wfa-bench --release \
             emit_bench_net -- --ignored --nocapture. Criterion version of the same \
             measurements: cargo bench -p wfa-bench --bench net. Methodology: DESIGN.md \
             section 9.\",\n  \
             \"date\": \"2026-08-05\",\n  \
             \"host\": {{\n    \"cores\": {cores},\n    \"note\": \"Per-row variance_ns2 is \
             the unbiased sample variance of the wall-clock samples; with few cores exposed \
             it runs high, and ratios are more stable than absolute numbers. Schedule-slot \
             equality between the substrates is exact and pinned by tests/e14_net.rs, so \
             every ratio below is pure per-operation emulation cost (2 phases x nodes \
             replicas x 2 message legs per register op).\"\n  }},\n  \
             \"results\": [\n{rows}\n  ],\n  \
             \"overhead_median\": {{\n    \
             \"ksa_n4_abd4_vs_shm\": {o4:.2},\n    \
             \"ksa_n8_abd8_vs_shm\": {o8:.2},\n    \
             \"ksa_n4_abd9_vs_abd3\": {o93:.2}\n  }},\n  \
             \"notes\": [\n    \
             \"The ABD backend multiplies per-op cost, not schedule length: fixed-seed runs \
             consume identical slots and decide identical values on both substrates.\",\n    \
             \"Overhead grows with replica count (4*nodes messages per op plus per-replica \
             BTreeMap bookkeeping), roughly linearly from 3 to 9 replicas.\",\n    \
             \"Message counters for the canonical run are pinned exactly in tests/e14_net.rs: \
             292 ops -> 4672 messages at 4 replicas, zero drops on the healthy network.\"\n  \
             ]\n}}\n",
            cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
            o4 = net4.0 / shm4.0,
            o8 = net8.0 / shm8.0,
            o93 = r9.0 / r3.0,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        std::fs::write(path, &text).expect("writing BENCH_net.json");
        println!("{text}");
        println!("wrote {path}");
    }
}
