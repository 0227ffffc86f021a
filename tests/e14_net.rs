//! Experiment E14 — the message-passing backend's emulation contract.
//!
//! ABD register emulation [ABD, JACM 1995] promises that a majority-correct
//! message-passing system implements atomic registers, so every
//! shared-memory algorithm runs over it *unchanged and unchanged in
//! behaviour*. This suite pins that promise for the `wfa-net` backend:
//!
//! 1. **Exact traffic** — the fixed-seed `ksa` run produces exact,
//!    hard-coded message and quorum counters on top of the unchanged E13
//!    kernel counters (any drift in the ABD protocol's phase structure
//!    shows up here first).
//! 2. **Observational equivalence** — fixed-seed ksa and renaming runs
//!    decide the same values over the net backend as over shared memory.
//! 3. **Determinism** — exports repeat byte for byte, and the `ksa-net`
//!    fault-sweep report and snapshot are pinned by digest.

use wfa::algorithms::renaming::rename_run;
use wfa::core::solver;
use wfa::faults::backend::BackendSpec;
use wfa::kernel::executor::Executor;
use wfa::kernel::value::Value;
use wfa::obs::export::{to_chrome, to_jsonl};
use wfa::obs::metrics::MetricsHandle;

/// The `wfa-cli ksa` default run (n=4, k=2, stab=200, seed=7), optionally
/// over the ABD backend as `--backend net` builds it.
fn ksa_run(obs: &MetricsHandle, net: bool) -> (Option<u64>, Vec<Value>, u64) {
    ksa_shaped(obs, 4, 200, net)
}

/// The `wfa-cli ksa` run of `n` processes with a detector that stabilises
/// at `stab` (k=2, crashes=1, seed=7), optionally over `n` ABD replicas.
/// Returns the slots used, the output vector and the run fingerprint.
fn ksa_shaped(
    obs: &MetricsHandle,
    n: usize,
    stab: u64,
    net: bool,
) -> (Option<u64>, Vec<Value>, u64) {
    let seed = 7;
    let (run, mut sched) = solver::ksa_run(n, 2, stab, 1, seed);
    let mut run = run.with_metrics(obs.clone());
    if net {
        run = run.with_backend(BackendSpec::net(n).build(seed, &[]));
    }
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let outputs = run.executor.output_vector();
    (slots, outputs, run.executor.fingerprint())
}

#[test]
fn e14_fixed_seed_net_ksa_has_exact_counters() {
    let obs = MetricsHandle::counters();
    let (slots, _, fp) = ksa_run(&obs, true);
    assert_eq!(slots, Some(320), "the net backend must not change the schedule");
    // The run fingerprint hashes every replica's tagged store, the network
    // clock, message counter and FIFO marks: any drift in what the protocol
    // sends, delays or stores moves it, even where no counter does.
    assert_eq!(fp, 0xb4cb_3869_bb32_a066, "run fingerprint {fp:#x}");
    let snap = obs.snapshot().expect("metrics enabled");
    // The E13 kernel pins, unchanged: the backend is observationally
    // transparent to the algorithm.
    let kernel = [
        ("schedule_slots", 320),
        ("effective_steps", 292),
        ("op_reads", 273),
        ("op_writes", 19),
        ("decisions", 4),
        ("fd_queries", 158),
    ];
    // The new pins: every register op is a two-phase majority protocol over
    // 4 replicas, request and reply legs — 16 messages per op, none lost on
    // the healthy network.
    let net = [
        ("net_quorum_reads", 273),
        ("net_quorum_writes", 19),
        ("net_msgs_sent", 4672),
        ("net_msgs_delivered", 4672),
        ("net_msgs_dropped", 0),
        ("net_retransmits", 0),
    ];
    for (name, want) in kernel.iter().chain(&net) {
        assert_eq!(snap.counter(name), Some(*want), "counter {name}");
    }
    // Traffic conservation: quorum ops mirror the kernel's op counters, and
    // each op costs 2 phases × 4 replicas × 2 legs.
    assert_eq!(snap.counter("net_quorum_reads"), snap.counter("op_reads"));
    assert_eq!(snap.counter("net_quorum_writes"), snap.counter("op_writes"));
    assert_eq!(
        snap.counter("net_msgs_sent").unwrap(),
        16 * (snap.counter("op_reads").unwrap() + snap.counter("op_writes").unwrap())
    );
    // Quorum latency is observed per op into its histogram.
    let (_, buckets) =
        snap.hists.iter().find(|(n, _)| n == "quorum_latency").expect("quorum_latency hist");
    let observed: u64 = buckets.iter().map(|(_, c)| c).sum();
    assert_eq!(observed, 273 + 19);
}

#[test]
fn e14_net_and_shm_ksa_decide_identically() {
    let (slots_shm, out_shm, _) = ksa_run(&MetricsHandle::disabled(), false);
    let (slots_net, out_net, _) = ksa_run(&MetricsHandle::disabled(), true);
    assert_eq!(out_shm, out_net, "ABD emulation must be observationally equivalent");
    assert_eq!(slots_shm, slots_net);
}

#[test]
fn e14_net_and_shm_renaming_decide_identically() {
    // The `wfa-cli rename` shape: j = 3 parties under seeded k-concurrent
    // schedules, per-process decisions compared pointwise.
    let (j, m) = (3usize, 4usize);
    let decide = |net: bool, k: usize, seed: u64| -> Vec<Option<Value>> {
        let mut ex = Executor::new();
        if net {
            ex.set_backend(BackendSpec::net(j).build(seed, &[]));
        }
        let pids = rename_run(&mut ex, j, m, k, seed);
        pids.iter().map(|p| ex.status(*p).decision().cloned()).collect()
    };
    for k in 1..=j {
        for seed in 0..8 {
            let shm = decide(false, k, seed);
            let net = decide(true, k, seed);
            assert_eq!(shm, net, "k={k} seed={seed}");
            assert!(shm.iter().any(Option::is_some), "k={k} seed={seed}: nobody decided");
        }
    }
}

#[test]
fn e14_abd8_ksa_and_renaming_fingerprints_are_pinned() {
    // The benchmark's ABD shapes: ksa with n = 8 over 8 replicas (detector
    // stabilising at 50), and Figure-4 renaming (j = 4 of m = 5, 2-concurrent)
    // over 8 replicas. Pinned slots, outputs and fingerprints catch a change
    // to the message path that leaves every decision alone.
    let obs = MetricsHandle::counters();
    let (slots, out, fp) = ksa_shaped(&obs, 8, 50, true);
    assert_eq!(slots, Some(448), "ksa slots");
    let mut want = vec![Value::Int(1); 8];
    want.resize(16, Value::Unit); // the S-processes output nothing
    assert_eq!(out, want, "ksa outputs");
    assert_eq!(fp, 0x4806_79fd_0d37_772d, "ksa run fingerprint {fp:#x}");
    let snap = obs.snapshot().expect("metrics enabled");
    assert_eq!(snap.counter("net_msgs_sent"), Some(13024), "ksa messages");

    let (j, m, k, seed) = (4usize, 5usize, 2usize, 7u64);
    let mut ex = Executor::new();
    ex.set_backend(BackendSpec::net(8).build(seed, &[]));
    let pids = rename_run(&mut ex, j, m, k, seed);
    let names: Vec<Option<Value>> =
        pids.iter().map(|p| ex.status(*p).decision().cloned()).collect();
    assert_eq!(ex.clock(), 18, "renaming slots");
    let want: Vec<Option<Value>> = [2, 1, 4, 3].into_iter().map(|n| Some(Value::Int(n))).collect();
    assert_eq!(names, want, "renaming decisions");
    let fp = ex.fingerprint();
    assert_eq!(fp, 0x8041_0d63_2f99_2157, "renaming run fingerprint {fp:#x}");
}

#[test]
fn e14_net_exports_are_byte_deterministic() {
    let export = |_: u32| {
        let obs = MetricsHandle::with_events(4096);
        ksa_run(&obs, true).0.expect("fixed-seed net run decides");
        let snap = obs.snapshot().expect("metrics enabled");
        let events = obs.events();
        (to_jsonl(&snap, &events), to_chrome(&events), events)
    };
    let (jsonl_a, chrome_a, events) = export(0);
    let (jsonl_b, chrome_b, _) = export(1);
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be byte-deterministic");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-deterministic");
    // The net backend contributes its span kinds to the stream.
    assert!(jsonl_a.contains("quorum_op"), "quorum_op spans missing from export");
    assert!(jsonl_a.contains("\"channel\""), "channel events missing from export");
    assert!(!events.is_empty());
}

#[test]
fn e14_net_sweep_is_pinned() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    let mut config = SweepConfig::new("ksa-net");
    config.depth = 1;
    config.seeds_per_plan = 1;
    config.shrink = false;
    let r = sweep(&config);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (30, 1, 29, 29, 0));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0x641a_f31f_5994_d42d, 0xb0cd_3ff1_0d1f_8255), "{digests:#x?}");
    // The swept plans actually exercised the network.
    assert!(r.metrics.counter("net_msgs_sent").unwrap_or(0) > 0);
    assert!(r.metrics.counter("net_quorum_reads").unwrap_or(0) > 0);
    // Majority-safe network faults must not break the algorithm.
    assert!(
        r.violations.is_empty(),
        "{:?}",
        r.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}
