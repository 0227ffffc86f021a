//! Experiment E17 — corruption-hardened ABD and dominance-pruned search.
//!
//! PR 7 arms the ABD backend against byte-level damage and makes deep fault
//! sweeps tractable. This suite pins the acceptance criteria:
//!
//! 1. **Corruption equivalence** — ksa and renaming decide byte-identical
//!    values under `CorruptMessage` windows, both plan windows that damage
//!    every message and whole-run windows with a stride that damage every
//!    k-th one: every damaged message is detected by its splitmix64
//!    digest, quarantined (dropped before delivery, counted) and recovered
//!    by retransmission, so the linearized view is provably unaffected.
//! 2. **Quarantine accounting** — every detected corruption is quarantined
//!    (the two counters always agree) and healthy runs see zero of either.
//! 3. **Pruned deep sweeps** — the dominance-pruned ksa-net sweep reports
//!    its pruning stats (plans generated/pruned/run), prunes a nonzero
//!    share at depth ≥ 2, finds exactly the violations the unpruned sweep
//!    finds, and its report and snapshot are pinned by digest.
//! 4. **Forward compatibility** — replaying an artifact that names a fault
//!    variant this build does not know fails loudly instead of silently
//!    dropping the fault.

use wfa::algorithms::renaming::rename_run;
use wfa::faults::backend::BackendSpec;
use wfa::faults::prelude::{FaultPlan, Json, Scenario, Violation, ViolationKind};
use wfa::faults::run::{run_plan, run_plan_observed};
use wfa::kernel::backend::DegradationKind;
use wfa::kernel::executor::Executor;
use wfa::kernel::value::Value;
use wfa::net::config::{NetConfig, NetFault};
use wfa::obs::metrics::MetricsHandle;

#[test]
fn e17_ksa_decisions_survive_corruption_byte_identically() {
    // A corruption window on each link in turn (ksa-net plans), and the
    // scenario's own whole-run windows of stride 5 on every link
    // (ksa-net-corrupt, clean plan): outputs and schedules must be
    // byte-identical to the fault-free net run.
    let plain = Scenario::ksa_net();
    let corrupt = Scenario::ksa_net_corrupt();
    for seed in [3u64, 7, 9] {
        let base = run_plan(&plain, &FaultPlan::clean(), seed);
        assert!(base.violations.is_empty(), "seed {seed}: clean baseline");
        for node in 0..plain.backend.nodes() {
            let plan = FaultPlan::clean().corrupt_link(node, 0, plain.stab);
            let got = run_plan(&plain, &plan, seed);
            assert_eq!(got.report.output, base.report.output, "seed {seed} node {node}");
            assert_eq!(got.schedule, base.schedule, "seed {seed} node {node}");
            assert!(got.violations.is_empty(), "seed {seed} node {node}: quarantine recovers");
        }
        let strided = run_plan(&corrupt, &FaultPlan::clean(), seed);
        assert_eq!(strided.report.output, base.report.output, "seed {seed}: every 5th");
        assert_eq!(strided.schedule, base.schedule, "seed {seed}: every 5th");
        assert!(strided.violations.is_empty(), "seed {seed}: every 5th recovers");
    }
}

#[test]
fn e17_renaming_decisions_survive_corruption_byte_identically() {
    // The j=3 renaming ensemble from E16 under two corruption windows at
    // once: a permanent one on node 0 plus whole-run windows of stride 3
    // on every replica.
    let names = |seed: u64, net: Option<NetConfig>| -> Vec<Option<Value>> {
        let mut ex = Executor::new();
        if let Some(cfg) = net {
            ex.set_backend(BackendSpec::Net { cfg, shards: 1 }.build(seed, &[]));
        }
        let pids = rename_run(&mut ex, 3, 4, 2, seed);
        pids.iter().map(|p| ex.status(*p).decision().cloned()).collect()
    };
    for seed in [3u64, 12] {
        let baseline = names(seed, None);
        assert!(baseline.iter().any(Option::is_some), "seed {seed}: someone decides");
        let clean_net = names(seed, Some(NetConfig::new(3, 0)));
        assert_eq!(clean_net, baseline, "seed {seed}: healthy net matches shm");
        let mut cfg = NetConfig::new(3, 0);
        cfg.faults = (0..3)
            .map(|node| NetFault::CorruptMessage { at: 0, until: u64::MAX, node, every: 3 })
            .collect();
        cfg.faults.push(NetFault::CorruptMessage { at: 0, until: 10_000, node: 0, every: 1 });
        let damaged = names(seed, Some(cfg));
        assert_eq!(damaged, baseline, "seed {seed}: corruption must not move any name");
    }
}

#[test]
fn e17_every_detected_corruption_is_quarantined() {
    let corrupt = Scenario::ksa_net_corrupt();
    let obs = MetricsHandle::counters();
    let outcome = run_plan_observed(&corrupt, &FaultPlan::clean(), 7, &obs);
    assert!(outcome.violations.is_empty());
    let snap = obs.snapshot().expect("metrics enabled");
    let detected = snap.counter("net_corrupt_msgs_detected").unwrap_or(0);
    let quarantined = snap.counter("net_corrupt_msgs_quarantined").unwrap_or(0);
    assert!(detected > 0, "every 5th message must be damaged");
    assert_eq!(detected, quarantined, "detection and quarantine are one act");
    // Quarantine is counted as corruption loss, not as an ordinary drop —
    // the two ledgers stay separate. (No retransmission is even needed
    // here: with 4 replicas, the surviving majority answers every probe.)
    assert_eq!(snap.counter("net_msgs_dropped"), Some(0));

    // Healthy runs never see either counter move.
    let obs = MetricsHandle::counters();
    run_plan_observed(&Scenario::ksa_net(), &FaultPlan::clean(), 7, &obs);
    let snap = obs.snapshot().expect("metrics enabled");
    assert_eq!(snap.counter("net_corrupt_msgs_detected"), Some(0));
    assert_eq!(snap.counter("net_corrupt_msgs_quarantined"), Some(0));
}

#[test]
fn e17_pruned_sweep_reports_stats_and_preserves_violations() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    let report_for = |prune: bool| {
        let mut config = SweepConfig::new("ksa-net");
        config.depth = 2;
        config.seeds_per_plan = 1;
        config.shrink = false;
        config.prune = prune;
        sweep(&config)
    };
    let (full, pruned) = (report_for(false), report_for(true));
    // The depth-2 menu has double-loss windows that exhaust the
    // retransmission horizon: both sweeps find the same typed quorum-loss
    // violations, byte for byte, but the pruned sweep runs fewer plans.
    assert_eq!(full.plans_pruned, 0);
    assert_eq!(full.plans_run, full.plans);
    assert!(pruned.plans_pruned > 0, "depth-2 ksa-net must prune");
    assert_eq!(pruned.plans_run + pruned.plans_pruned, pruned.plans);
    assert_eq!(pruned.plans, full.plans, "pruning never changes enumeration");
    let kinds = |r: &wfa::faults::prelude::SweepReport| {
        r.violations.iter().map(|v| v.to_json().to_string()).collect::<Vec<_>>()
    };
    assert_eq!(kinds(&pruned), kinds(&full), "pruning must not change the violation list");
    assert!(!full.violations.is_empty(), "double-loss windows do break marginal quorums");
    // The stats land in the canonical report and the sweep metrics.
    let json = pruned.to_json().to_string();
    for needle in ["\"plans_pruned\":", "\"plans_run\":"] {
        assert!(json.contains(needle), "report must carry {needle}");
    }
    assert_eq!(
        pruned.metrics.counter("sweep_plans_pruned"),
        Some(pruned.plans_pruned as u64)
    );
    assert_eq!(pruned.metrics.counter("sweep_plans_run"), Some(pruned.plans_run as u64));
}

#[test]
fn e17_pruned_sweep_is_pinned() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    let mut config = SweepConfig::new("ksa-net");
    config.depth = 2;
    config.seeds_per_plan = 1;
    config.shrink = false;
    config.prune = true;
    // The pruned report and metrics are pinned: every prune decision is
    // fixed by the descending-size evaluation order.
    let r = &sweep(&config);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (433, 30, 403, 403, 12));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0x062a_e461_6ed5_58fa, 0x9511_7299_8811_6a6a), "{digests:#x?}");
}

#[test]
fn e17_unknown_fault_artifacts_refuse_to_replay() {
    // A violation artifact written by a future build that knows more fault
    // variants must fail parsing (and thus `faults replay`) loudly.
    let sc = Scenario::ksa_net();
    let plan = FaultPlan::clean().drop_link(0, 0, sc.stab).drop_link(1, 0, sc.stab);
    let outcome = run_plan(&sc, &plan, 3);
    let v = outcome.violations.first().expect("double loss breaks the quorum");
    let good = v.to_json().to_string();
    let parse = |text: &str| Json::parse(text).map_err(|e| e.to_string()).and_then(|j| Violation::from_json(&j));
    let roundtrip = parse(&good).expect("own artifacts replay");
    assert!(matches!(
        roundtrip.kind,
        ViolationKind::Degraded { class: DegradationKind::QuorumLost, .. }
    ));
    let bad = good.replace("\"drop\"", "\"gamma-ray\"");
    let err = parse(&bad).expect_err("unknown variants must not parse");
    for needle in ["unknown net fault type `gamma-ray`", "newer version", "refusing"] {
        assert!(err.contains(needle), "error {err:?} must mention {needle:?}");
    }
}
