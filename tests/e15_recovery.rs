//! Experiment E15 — replica crash/recovery and graceful quorum-loss
//! degradation.
//!
//! PR 5 gives the ABD backend a replica failure model: replicas crash
//! (volatile or durable store) and recover behind a deterministic re-sync
//! barrier, quorum ops retransmit with seeded backoff, and when the
//! retransmission horizon expires the backend degrades with a typed
//! `Degradation` instead of panicking. This suite pins the dynamics:
//!
//! 1. **Exact recovery traffic** — a fixed-seed ksa run with one replica
//!    crash/recover pair produces exact crash/recovery/re-sync counters and
//!    a `replica_resync` span, and still decides the shared-memory values.
//! 2. **Graceful degradation** — a majority-breaking partition yields
//!    structured `quorum-lost` degradations on the default path (no panic);
//!    the run still terminates on the linearized view.
//! 3. **Determinism** — recovery exports repeat byte for byte, and the
//!    `ksa-net-reorder` sweep report and snapshot are pinned by digest.

use wfa::core::solver;
use wfa::faults::backend::BackendSpec;
use wfa::kernel::backend::Resolution;
use wfa::kernel::value::Value;
use wfa::net::config::{Durability, NetConfig, NetFault};
use wfa::obs::export::to_jsonl;
use wfa::obs::metrics::MetricsHandle;

/// The `wfa-cli ksa` default run (n=4, k=2, stab=200, seed=7) over an
/// optional ABD backend configuration (`None` = shared memory). Returns the
/// slot count, the decisions, and the degradations the executor drained.
fn ksa_run(
    obs: &MetricsHandle,
    net: Option<NetConfig>,
) -> (Option<u64>, Vec<Value>, usize) {
    let (slots, outputs, degradations, _) = ksa_run_lifecycle(obs, net);
    (slots, outputs, degradations)
}

/// [`ksa_run`] plus the resolved-degradation stream the executor drained —
/// the closing half of the degrade → recover lifecycle.
fn ksa_run_lifecycle(
    obs: &MetricsHandle,
    net: Option<NetConfig>,
) -> (Option<u64>, Vec<Value>, usize, Vec<Resolution>) {
    let seed = 7;
    let (run, mut sched) = solver::ksa_run(4, 2, 200, 1, seed);
    let mut run = run.with_metrics(obs.clone());
    if let Some(cfg) = net {
        run = run.with_backend(BackendSpec::Net { cfg, shards: 1 }.build(seed, &[]));
    }
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let outputs = run.executor.output_vector();
    let degradations = run.executor.degradations().len();
    let resolutions = run.executor.resolutions().to_vec();
    (slots, outputs, degradations, resolutions)
}

/// The CLI's `--backend net` config for the default ksa run: 4 healthy
/// replicas, seeded from the run seed when the backend is built.
fn net_cfg() -> NetConfig {
    NetConfig::new(4, 0)
}

/// One replica crashes mid-run and recovers later; with 4 replicas the
/// remaining 3 still form the quorum, so no op ever stalls.
fn crash_recover_cfg(durability: Durability) -> NetConfig {
    let mut cfg = net_cfg();
    cfg.durability = durability;
    cfg.faults = vec![
        NetFault::CrashReplica { at: 50, node: 2 },
        NetFault::RecoverReplica { at: 90, node: 2 },
    ];
    cfg
}

#[test]
fn e15_fixed_seed_crash_recover_run_has_exact_counters() {
    let obs = MetricsHandle::counters();
    let (slots, out, degradations) = ksa_run(&obs, Some(crash_recover_cfg(Durability::Volatile)));
    let (_, out_shm, _) = ksa_run(&MetricsHandle::disabled(), None);
    // The failure is absorbed: same schedule, same decisions, no
    // degradation — 3 of 4 replicas are still a majority throughout.
    assert_eq!(slots, Some(320), "a minority crash must not change the schedule");
    assert_eq!(out, out_shm, "a minority crash must not change any decision");
    assert_eq!(degradations, 0, "no quorum was ever lost");
    let snap = obs.snapshot().expect("metrics enabled");
    // The recovery pins: one crash, one recovery, one re-sync barrier. The
    // re-sync queries all 3 peers over the dedicated sync channels (request
    // + reply legs: 6 messages); the 7 drops are the requests addressed to
    // replica 2 while it was down. No op stalled, so nothing retransmitted.
    let pins = [
        ("net_replica_crashes", 1),
        ("net_replica_recoveries", 1),
        ("net_replica_resyncs", 1),
        ("net_resync_msgs", 6),
        ("net_quorum_lost", 0),
        ("net_msgs_dropped", 7),
        ("net_retransmits", 0),
        ("decisions", 4),
    ];
    for (name, want) in pins {
        assert_eq!(snap.counter(name), Some(want), "counter {name}");
    }
    // Quorum ops still mirror the kernel's op counters one-to-one.
    assert_eq!(snap.counter("net_quorum_reads"), snap.counter("op_reads"));
    assert_eq!(snap.counter("net_quorum_writes"), snap.counter("op_writes"));
}

#[test]
fn e15_durable_and_volatile_recoveries_agree_on_decisions() {
    // The durability policy decides what survives the crash (and how much
    // the re-sync has to move), never what the run decides. PrefixDurable
    // lands in between: the crashed store keeps only a prefix of its writes
    // (a torn suffix is drawn at crash time), and the re-sync barrier audits
    // the stale remainder before the replica serves again.
    let (_, out_shm, _) = ksa_run(&MetricsHandle::disabled(), None);
    for durability in [
        Durability::Volatile,
        Durability::Durable,
        Durability::PrefixDurable(1),
        Durability::PrefixDurable(8),
    ] {
        let obs = MetricsHandle::counters();
        let (slots, out, degradations) = ksa_run(&obs, Some(crash_recover_cfg(durability)));
        assert_eq!(slots, Some(320), "{durability:?}");
        assert_eq!(out, out_shm, "{durability:?}");
        assert_eq!(degradations, 0, "{durability:?}");
        let snap = obs.snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("net_replica_resyncs"), Some(1), "{durability:?}");
    }
}

#[test]
fn e15_majority_loss_degrades_without_panicking() {
    // Partition a majority (3 of 4) away forever: every quorum op anchored
    // after the partition exhausts its retransmission horizon. The default
    // path raises typed degradations and keeps serving the linearized view
    // — the run terminates and decides the shared-memory values.
    let mut cfg = net_cfg();
    cfg.faults = vec![NetFault::Partition { at: 0, nodes: vec![0, 1, 2] }];
    let obs = MetricsHandle::counters();
    let (slots, out, degradations) = ksa_run(&obs, Some(cfg));
    let (_, out_shm, _) = ksa_run(&MetricsHandle::disabled(), None);
    assert!(slots.is_some(), "the degraded run must still terminate");
    assert_eq!(out, out_shm, "the view keeps serving shm semantics");
    assert!(degradations > 0, "quorum loss must surface as degradations");
    let snap = obs.snapshot().expect("metrics enabled");
    assert_eq!(
        snap.counter("net_quorum_lost"),
        Some(degradations as u64),
        "every degradation is counted"
    );
    assert!(snap.counter("net_retransmits").unwrap_or(0) > 0, "the backend retried first");
}

#[test]
fn e15_crash_recover_run_has_no_false_recovery_samples() {
    // The crash@50/recover@90 run never loses its quorum, so the
    // degradation lifecycle must stay entirely empty: no spell ever opens,
    // hence nothing ever resolves and the MTTR histogram records nothing.
    // A sample appearing here would be a fabricated recovery.
    let obs = MetricsHandle::counters();
    let (slots, _, degradations, resolutions) =
        ksa_run_lifecycle(&obs, Some(crash_recover_cfg(Durability::Volatile)));
    assert_eq!(slots, Some(320));
    assert_eq!(degradations, 0);
    assert!(resolutions.is_empty(), "no spell opened, none may close: {resolutions:?}");
    let snap = obs.snapshot().expect("metrics enabled");
    assert_eq!(snap.counter("net_degradations_resolved"), Some(0));
    assert!(
        !snap.hists.iter().any(|(name, buckets)| name == "time_to_recovery"
            && buckets.iter().any(|(_, count)| *count > 0)),
        "the MTTR histogram must be empty"
    );
}

#[test]
fn e15_healed_majority_partition_yields_a_pinned_recovery() {
    // Degrade *and* recover: a majority-breaking partition opens a
    // quorum-lost spell (the circuit breaker trips), the heal lets the
    // half-open probe succeed, and the breaker closes with a `Resolution`
    // whose span is pinned — tick-exact, repeatable, and equal to
    // the MTTR sample the histogram records.
    let mut cfg = net_cfg();
    cfg.faults =
        vec![NetFault::Partition { at: 0, nodes: vec![0, 1, 2] }, NetFault::Heal { at: 2_000 }];
    let obs = MetricsHandle::counters();
    let (slots, out, degradations, resolutions) = ksa_run_lifecycle(&obs, Some(cfg));
    let (_, out_shm, _) = ksa_run(&MetricsHandle::disabled(), None);
    assert_eq!(slots, Some(320), "the healed run still decides on schedule");
    assert_eq!(out, out_shm, "degraded service still serves the linearized view");
    assert!(degradations > 0, "the partition must trip the breaker first");
    let snap = obs.snapshot().expect("metrics enabled");
    assert_eq!(
        snap.counter("net_degradations_resolved"),
        Some(resolutions.len() as u64),
        "every resolution is counted"
    );
    let r = resolutions.first().expect("the heal must close the spell");
    assert_eq!(
        (r.degrade_tick, r.resolve_tick, r.time_to_recovery()),
        (75, 2_007, 1_932),
        "the recovery span is pinned"
    );
    for r in &resolutions {
        assert!(r.degrade_tick < r.resolve_tick, "spells have positive extent: {r}");
        assert!(r.resolve_tick >= 2_000, "nothing can resolve before the heal: {r}");
    }
}

#[test]
fn e15_recovery_exports_are_byte_deterministic() {
    let export = |_: u32| {
        let obs = MetricsHandle::with_events(4096);
        ksa_run(&obs, Some(crash_recover_cfg(Durability::Volatile)));
        let snap = obs.snapshot().expect("metrics enabled");
        to_jsonl(&snap, &obs.events())
    };
    let (a, b) = (export(0), export(1));
    assert_eq!(a, b, "JSONL export must be byte-deterministic");
    assert!(a.contains("replica_resync"), "the re-sync span must be exported");
}

#[test]
fn e15_reorder_sweep_is_pinned() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    let mut config = SweepConfig::new("ksa-net-reorder");
    config.depth = 1;
    config.seeds_per_plan = 1;
    config.shrink = false;
    let r = sweep(&config);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (30, 1, 29, 29, 0));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0x02df_d5ef_9649_5724, 0x0e57_bcc6_fa8c_2799), "{digests:#x?}");
    // The menu's crash/recover pairs were actually exercised — and over
    // non-FIFO channels the majority-safe plans still never degrade.
    assert!(r.metrics.counter("net_replica_crashes").unwrap_or(0) > 0);
    assert!(r.metrics.counter("net_replica_resyncs").unwrap_or(0) > 0);
    assert!(
        r.violations.is_empty(),
        "{:?}",
        r.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}
