//! Experiment E18 — the gossip backend's anti-entropy contract.
//!
//! The delta-CRDT substrate (`wfa-gossip`) serves register ops locally at
//! each key's home replica — zero messages on the op path — and propagates
//! freshness through periodic digest/delta exchange rounds. This suite pins
//! that contract:
//!
//! 1. **Exact traffic** — the fixed-seed `ksa` run produces exact,
//!    hard-coded round/delta/digest counters on top of the unchanged E13
//!    kernel counters, with *zero* messages attributable to ops and far
//!    fewer total messages than ABD's 16-per-op quorum economy.
//! 2. **Observational equivalence** — fixed-seed ksa and renaming runs
//!    decide the same values over gossip as over shared memory (key-homed
//!    ops make fault-free runs identical, not merely equivalent).
//! 3. **Convergence** — after every non-total partition plan heals (and
//!    after crash/recover churn), all live replicas reach the same join
//!    within a bounded number of anti-entropy rounds, and every replica
//!    state is exactly the causal replay of its delivered deltas.
//! 4. **Exact churn counters** — one crash/recover fault plan is pinned to
//!    exact fixed-seed counters through the fault harness.
//! 5. **Thread-count invariance** — exports and the gossip fault-sweep
//!    snapshots are byte-identical across worker counts.

use wfa::algorithms::renaming::RenamingFig4;
use wfa::algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa::core::harness::EfdRun;
use wfa::fd::detectors::FdGen;
use wfa::gossip::backend::GossipBackend;
use wfa::gossip::config::GossipConfig;
use wfa::kernel::backend::{DegradationKind, MemoryBackend};
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::prelude::{run_schedule, KConcurrent, NullEnv};
use wfa::kernel::process::DynProcess;
use wfa::kernel::value::{Pid, Value};
use wfa::net::config::{NetConfig, NetFault};
use wfa::obs::export::{to_chrome, to_jsonl};
use wfa::obs::metrics::MetricsHandle;

/// The `wfa-cli ksa` default run (n=4, k=2, stab=200, seed=7), optionally
/// over the gossip backend with the CLI's `--backend gossip` seed
/// derivation.
fn ksa_run(obs: &MetricsHandle, gossip: bool) -> (Option<u64>, Vec<Value>, u64) {
    let (n, k, stab, seed) = (4usize, 2u32, 200u64, 7u64);
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
    let mut run = EfdRun::new(c, s, fd).with_metrics(obs.clone());
    if gossip {
        run = run.with_backend(Box::new(GossipBackend::new(GossipConfig::new(n, seed ^ 0x7e7))));
    }
    let mut sched = run.fair_sched(seed ^ 0xc11);
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let outputs = run.executor.output_vector();
    (slots, outputs, run.executor.fingerprint())
}

#[test]
fn e18_fixed_seed_gossip_ksa_has_exact_counters() {
    let obs = MetricsHandle::counters();
    let (slots, _, fp) = ksa_run(&obs, true);
    assert_eq!(slots, Some(320), "the gossip backend must not change the schedule");
    // The run fingerprint hashes every replica's slots and causal context,
    // the delta log, the per-peer buffers and the network state: any drift
    // in what an exchange ships or merges moves it.
    assert_eq!(fp, 0x27da_407d_d87b_cdc4, "run fingerprint {fp:#x}");
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
    // The new pins: one anti-entropy round per effective op (interval 1),
    // every delta sent exactly once and applied exactly once, quiescent
    // pairs settled by digest comparison, acked deltas garbage-collected.
    let gossip = [
        ("net_gossip_rounds", 292),
        ("net_gossip_deltas_sent", 57),
        ("net_gossip_deltas_applied", 57),
        ("net_gossip_digest_hits", 1112),
        ("net_gossip_gc_dots", 228),
        ("net_gossip_stale_reads", 0),
        ("net_msgs_sent", 2448),
        ("net_msgs_delivered", 2448),
        ("net_msgs_dropped", 0),
        ("net_quorum_lost", 0),
    ];
    for (name, want) in kernel.iter().chain(&gossip) {
        assert_eq!(snap.counter(name), Some(*want), "counter {name}");
    }
    // Zero messages on the op path: every message is anti-entropy traffic
    // (a round sweeps n pairs at ≤ 4 legs each), and the whole run costs
    // barely half of ABD's 16-per-op quorum economy (4672 messages on this
    // exact run).
    let msgs = snap.counter("net_msgs_sent").unwrap();
    let rounds = snap.counter("net_gossip_rounds").unwrap();
    assert!(msgs <= 4 * 4 * rounds, "more than 4n legs per round: {msgs}/{rounds}");
    assert!(msgs < 4672, "gossip must undercut ABD's message economy");
    // No quorum machinery ran at all.
    assert_eq!(snap.counter("net_quorum_reads"), Some(0));
    assert_eq!(snap.counter("net_quorum_writes"), Some(0));
}

#[test]
fn e18_gossip_and_shm_ksa_decide_identically() {
    let (slots_shm, out_shm, _) = ksa_run(&MetricsHandle::disabled(), false);
    let (slots_gsp, out_gsp, _) = ksa_run(&MetricsHandle::disabled(), true);
    assert_eq!(out_shm, out_gsp, "key-homed gossip must be observationally identical");
    assert_eq!(slots_shm, slots_gsp);
}

#[test]
fn e18_gossip_and_shm_renaming_decide_identically() {
    // The `wfa-cli rename` shape: j = 3 parties under seeded k-concurrent
    // schedules, per-process decisions compared pointwise.
    let (j, m) = (3usize, 4usize);
    let decide = |gossip: bool, k: usize, seed: u64| -> Vec<Option<Value>> {
        let mut ex = Executor::new();
        if gossip {
            ex.set_backend(Box::new(GossipBackend::new(GossipConfig::new(j, seed ^ 0x7e7))));
        }
        let pids: Vec<Pid> =
            (0..j).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, m)))).collect();
        let mut sched = KConcurrent::with_seed(pids.clone(), [], k, seed);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000);
        pids.iter().map(|p| ex.status(*p).decision().cloned()).collect()
    };
    for k in 1..=j {
        for seed in 0..8 {
            let shm = decide(false, k, seed);
            let gsp = decide(true, k, seed);
            assert_eq!(shm, gsp, "k={k} seed={seed}");
            assert!(shm.iter().any(Option::is_some), "k={k} seed={seed}: nobody decided");
        }
    }
}

/// Drives a deterministic op mix over `g`: interleaved writes and reads on
/// keys spread across every home replica, until the net clock passes
/// `until_tick`.
fn drive_ops(g: &mut GossipBackend, until_tick: u64) {
    let keys: Vec<RegKey> = (0..8u32).map(|i| RegKey::new(11).at(0, i)).collect();
    let mut t = 0u64;
    while g.runtime().now() < until_tick {
        let key = keys[(t % keys.len() as u64) as usize];
        if t.is_multiple_of(3) {
            g.write(Pid((t % 4) as usize), t, key, Value::Int(t as i64));
        } else {
            g.read(Pid((t % 4) as usize), t, key);
        }
        t += 1;
    }
}

#[test]
fn e18_every_non_total_partition_plan_converges_after_the_heal() {
    // Partition plans that never isolate the whole cluster: after the heal,
    // the cluster converges within 3n anti-entropy rounds and every replica
    // state is the causal replay of the deltas its context admits.
    let n = 4usize;
    let plans: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![3], vec![0, 1], vec![1, 2, 3]];
    for isolated in plans {
        let mut net = NetConfig::new(n, 7 ^ 0x7e7);
        net.faults = vec![
            NetFault::Partition { at: 0, nodes: isolated.clone() },
            NetFault::Heal { at: 600 },
        ];
        let mut g = GossipBackend::new(GossipConfig { net, ..GossipConfig::new(n, 7 ^ 0x7e7) });
        drive_ops(&mut g, 700); // ops through the partition and past the heal
        let rounds = g
            .run_rounds_until_converged(3 * n as u64)
            .unwrap_or_else(|| panic!("partition {isolated:?} did not converge after the heal"));
        assert!(rounds <= 3 * n as u64);
        assert!(g.converged());
        assert!(g.causal_ok(), "partition {isolated:?}: replica state is not a causal replay");
    }
}

#[test]
fn e18_churn_plans_converge_after_recovery() {
    // Crash/recover churn: the recovered replica self-heals its own-origin
    // deltas from the write-ahead log and anti-entropy restores the rest.
    let n = 4usize;
    for node in 0..n {
        let mut net = NetConfig::new(n, 7 ^ 0x7e7);
        net.faults = vec![
            NetFault::CrashReplica { at: 120, node },
            NetFault::RecoverReplica { at: 500, node },
        ];
        let mut g = GossipBackend::new(GossipConfig { net, ..GossipConfig::new(n, 7 ^ 0x7e7) });
        drive_ops(&mut g, 700);
        let rounds = g
            .run_rounds_until_converged(3 * n as u64)
            .unwrap_or_else(|| panic!("churn at node {node} did not converge after recovery"));
        assert!(rounds <= 3 * n as u64);
        assert!(g.causal_ok(), "churn at node {node}: replica state is not a causal replay");
    }
}

#[test]
fn e18_churn_plan_counters_are_pinned() {
    // One crash/recover fault plan through the fault harness, pinned to
    // exact fixed-seed counters: any drift in the gossip protocol's round
    // structure, delta economy, or staleness accounting shows up here.
    use wfa::faults::prelude::{FaultPlan, Scenario};
    use wfa::faults::run::run_plan_observed;
    let sc = Scenario::by_name("ksa-net-gossip").expect("catalog name");
    let plan = FaultPlan::clean().crash_replica(1, 40).recover_replica(1, 400);
    let obs = MetricsHandle::counters();
    let outcome = run_plan_observed(&sc, &plan, 3, &obs);
    assert!(outcome.report.verdict.is_ok(), "stale advice must never break Δ");
    assert!(outcome.violations.is_empty(), "this mild churn stays under the horizon");
    let snap = obs.snapshot().expect("metrics enabled");
    let pins = [
        ("net_gossip_rounds", 256u64),
        ("net_gossip_deltas_sent", 60),
        ("net_gossip_deltas_applied", 60),
        ("net_gossip_digest_hits", 905),
        ("net_gossip_gc_dots", 240),
        ("net_gossip_stale_reads", 0),
        ("net_replica_crashes", 1),
        ("net_replica_recoveries", 1),
        ("net_msgs_sent", 2042),
        ("net_msgs_delivered", 2040),
        ("net_msgs_dropped", 2),
        // No stale spell ever opens under this mild churn, so the
        // degradation lifecycle must stay empty end to end — a nonzero
        // count here is a fabricated recovery.
        ("net_degradations_resolved", 0),
    ];
    for (name, want) in pins {
        assert_eq!(snap.counter(name), Some(want), "counter {name}");
    }
}

/// The preferred home replica of `RegKey::new(11).at(0, i)` — the key
/// family [`drive_ops`] cycles over.
fn home_of(i: u32, n: usize) -> usize {
    RegKey::new(11).at(0, i).shard_index(n)
}

#[test]
fn e18_stranded_home_opens_and_closes_a_pinned_stale_spell() {
    // The composed stale-advice scenario the chaos soak draws: partition a
    // home so fresh deltas jam inside it, crash it (the jammed deltas are
    // now unreachable), heal the fabric, and let the fallback serve stale
    // advice past the horizon. The spell must open (AdviceStale), then
    // close at the first fresh read after recovery — with tick-exact,
    // thread-invariant `degrade_tick`/`resolve_tick`/MTTR pins.
    let n = 4usize;
    // Pick the home of key index 0 so the jammed writes are on the cycle.
    let h = home_of(0, n);
    let mut net = NetConfig::new(n, 7 ^ 0x7e7);
    net.faults = vec![
        NetFault::Partition { at: 40, nodes: vec![h] },
        NetFault::CrashReplica { at: 400, node: h },
        NetFault::Heal { at: 401 },
        NetFault::RecoverReplica { at: 1_200, node: h },
    ];
    let mut g = GossipBackend::new(GossipConfig { net, ..GossipConfig::new(n, 7 ^ 0x7e7) });
    drive_ops(&mut g, 1_600);
    let degraded = g.drain_degradations();
    assert!(!degraded.is_empty(), "the stranded home must degrade past the horizon");
    assert!(degraded.iter().all(|d| d.kind == DegradationKind::AdviceStale));
    // Two spells, both resolved, tick-exact. The first closes *mid-crash*:
    // the op mix keeps writing the stranded keys, and the first such write
    // lands at the fallback, whose advice is thereby fresh again. The
    // second opens at the recovery tick itself — the home serves again but
    // lags behind the writes it slept through — and closes once
    // anti-entropy catches it up.
    let resolved = g.drain_resolutions();
    let spans: Vec<(u64, u64, u64)> =
        resolved.iter().map(|r| (r.degrade_tick, r.resolve_tick, r.time_to_recovery())).collect();
    assert_eq!(
        spans,
        vec![(476, 675, 199), (1_200, 1_386, 186)],
        "the stale spells' spans are pinned"
    );
    assert!(resolved.iter().all(|r| r.kind == DegradationKind::AdviceStale));
    // The cluster still converges and replays causally after the churn.
    assert!(g.run_rounds_until_converged(3 * n as u64).is_some());
    assert!(g.causal_ok());
}

#[test]
fn e18_gossip_exports_are_byte_deterministic() {
    let export = |_: u32| {
        let obs = MetricsHandle::with_events(4096);
        ksa_run(&obs, true).0.expect("fixed-seed gossip run decides");
        let snap = obs.snapshot().expect("metrics enabled");
        let events = obs.events();
        (to_jsonl(&snap, &events), to_chrome(&events), events)
    };
    let (jsonl_a, chrome_a, events) = export(0);
    let (jsonl_b, chrome_b, _) = export(1);
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be byte-deterministic");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-deterministic");
    // The gossip backend contributes its span kind to the stream.
    assert!(jsonl_a.contains("anti_entropy"), "anti_entropy spans missing from export");
    assert!(!events.is_empty());
}

#[test]
fn e18_gossip_sweeps_are_thread_count_invariant() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    for scenario in ["ksa-net-gossip", "rename-net-gossip"] {
        let report_for = |threads: usize| {
            let mut config = SweepConfig::new(scenario);
            config.depth = 1;
            config.seeds_per_plan = 1;
            config.shrink = false;
            config.threads = Some(threads);
            sweep(&config)
        };
        let (r1, r8) = (report_for(1), report_for(8));
        assert_eq!(r1.to_json().to_string(), r8.to_json().to_string(), "{scenario}");
        assert_eq!(
            r1.metrics.to_json().to_string(),
            r8.metrics.to_json().to_string(),
            "{scenario}"
        );
        // The swept plans actually exercised the substrate, and gossip
        // scenarios never dominance-prune (loss is not monotone there).
        assert!(r1.metrics.counter("net_gossip_rounds").unwrap_or(0) > 0, "{scenario}");
        assert!(r1.metrics.counter("net_msgs_sent").unwrap_or(0) > 0, "{scenario}");
        assert_eq!(r1.metrics.counter("sweep_plans_pruned"), Some(0), "{scenario}");
        // Majority-safe fault plans may surface stale advice but never a
        // task violation: every non-staleness violation kind is absent.
        for v in &r1.violations {
            assert!(
                matches!(
                    v.kind,
                    wfa::faults::violation::ViolationKind::Degraded {
                        class: DegradationKind::AdviceStale,
                        ..
                    }
                ),
                "{scenario}: unexpected violation {v}"
            );
        }
    }
}
