//! Experiment E13 — the observability subsystem's determinism contract.
//!
//! The `wfa-obs` registry claims three properties, all load-bearing for the
//! rest of the tree:
//!
//! 1. **Zero when off** — a disabled handle records nothing and changes no
//!    behaviour.
//! 2. **Exact when on** — a fixed-seed run produces *exact*, hard-coded
//!    counter values (any drift in the kernel's step accounting shows up
//!    here first).
//! 3. **Pinned and repeatable** — the fault sweep's canonical report and
//!    snapshot are pinned by digest, and every exporter byte-stream
//!    repeats; the sweep and the model-check explorer are each one
//!    sequential pass.

use wfa::algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa::core::harness::EfdRun;
use wfa::fd::detectors::FdGen;
use wfa::kernel::executor::Executor;
use wfa::kernel::process::DynProcess;
use wfa::kernel::value::{Pid, Value};
use wfa::modelcheck::explorer::{Explorer, Limits};
use wfa::obs::export::{to_chrome, to_jsonl};
use wfa::obs::json::Json;
use wfa::obs::metrics::{MetricsHandle, Snapshot};
use wfa::obs::span::timeline;
use wfa_algorithms::renaming::RenamingFig4;

/// The `wfa-cli ksa` default run (n=4, k=2, stab=200, seed=7) with metrics.
fn ksa_run(obs: &MetricsHandle) -> Option<u64> {
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
    let mut sched = run.fair_sched(seed ^ 0xc11);
    run.run_until_decided(&mut sched, 5_000_000)
}

#[test]
fn e13_disabled_handle_records_nothing() {
    let obs = MetricsHandle::disabled();
    let slots = ksa_run(&obs);
    assert!(slots.is_some(), "the run itself must still decide");
    assert!(obs.snapshot().is_none());
    assert!(obs.events().is_empty());
    assert_eq!(obs.events_dropped(), 0);
    assert!(!obs.is_enabled());
}

#[test]
fn e13_fixed_seed_ksa_has_exact_counters() {
    let obs = MetricsHandle::counters();
    let slots = ksa_run(&obs).expect("fixed-seed run decides");
    assert_eq!(slots, 320);
    let snap = obs.snapshot().expect("metrics enabled");
    let exact = [
        ("schedule_slots", 320),
        ("effective_steps", 292),
        ("null_steps", 0),
        ("crash_skips", 28),
        ("op_reads", 273),
        ("op_writes", 19),
        ("op_snapshots", 0),
        ("op_none", 0),
        ("decisions", 4),
        ("fd_queries", 158),
        ("advice_writes", 1),
        ("advice_reads", 4),
    ];
    for (name, want) in exact {
        assert_eq!(snap.counter(name), Some(want), "counter {name}");
    }
    // Slot conservation: every schedule slot is an effective step, a null
    // step, or a crash skip.
    assert_eq!(
        snap.counter("schedule_slots").unwrap(),
        snap.counter("effective_steps").unwrap()
            + snap.counter("null_steps").unwrap()
            + snap.counter("crash_skips").unwrap()
    );
    // Op kinds partition the effective steps.
    assert_eq!(
        snap.counter("effective_steps").unwrap(),
        snap.counter("op_reads").unwrap()
            + snap.counter("op_writes").unwrap()
            + snap.counter("op_snapshots").unwrap()
            + snap.counter("op_none").unwrap()
    );
}

#[test]
fn e13_event_exports_are_deterministic_and_valid() {
    let export = |_: u32| {
        let obs = MetricsHandle::with_events(4096);
        ksa_run(&obs).expect("fixed-seed run decides");
        let snap = obs.snapshot().expect("metrics enabled");
        let events = obs.events();
        assert!(!events.is_empty());
        (to_jsonl(&snap, &events), to_chrome(&events), events, snap)
    };
    let (jsonl_a, chrome_a, events, snap) = export(0);
    let (jsonl_b, chrome_b, _, _) = export(1);
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be byte-deterministic");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-deterministic");
    // The Chrome export is one valid JSON document with a traceEvents array.
    let parsed = Json::parse(&chrome_a).expect("chrome export parses");
    let n_events = parsed.get("traceEvents").and_then(Json::arr).expect("traceEvents").len();
    assert_eq!(n_events, events.len());
    // Every JSONL line parses; the first roundtrips to the live snapshot.
    let mut lines = jsonl_a.lines();
    let head = Json::parse(lines.next().expect("snapshot line")).expect("snapshot parses");
    assert_eq!(Snapshot::from_json(&head).expect("snapshot shape"), snap);
    for line in lines {
        Json::parse(line).expect("event line parses");
    }
    // The timeline renders one row per process (4 C + 4 S).
    let tl = timeline(&events, 8);
    assert_eq!(tl.lines().count(), 8);
    assert!(tl.contains('D'), "decide steps must render as D:\n{tl}");
}

#[test]
fn e13_sweep_snapshot_is_pinned() {
    use wfa::faults::prelude::{sweep, SweepConfig};
    let mut config = SweepConfig::new("fragile-commit");
    config.depth = 1;
    config.seeds_per_plan = 2;
    config.shrink = false;
    let r = sweep(&config);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (17, 0, 17, 34, 2));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0xac8e_cbed_ba4a_0ff2, 0x327a_fb67_758e_67cb), "{digests:#x?}");
    let s = &r.metrics;
    assert!(s.counter("sweep_jobs").unwrap_or(0) > 0);
    assert!(s.counter("plan_cost").is_none(), "plan_cost is a histogram, not a counter");
    assert!(s.hists.iter().any(|(n, b)| n == "plan_cost" && !b.is_empty()));
}

#[test]
fn e13_explorer_snapshot_is_exact_and_repeatable() {
    // The `wfa-cli obs --source explore` instance: two Figure-4 renaming
    // automata, explored exhaustively.
    let snapshot = || {
        let mut ex = Executor::new();
        let pids: Vec<Pid> =
            (0..2).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, 4)))).collect();
        let obs = MetricsHandle::counters();
        let check = |_: &Executor| None;
        Explorer::new(pids, &check, Limits::default()).with_metrics(obs.clone()).run(&ex);
        obs.snapshot().unwrap()
    };
    let (a, b) = (snapshot(), snapshot());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    assert_eq!(a.counter("explorer_states"), Some(56));
    // Sleep sets skip 15 successors that full expansion would count as
    // dedupe hits (26); the states do not move.
    assert_eq!(a.counter("explorer_dedupe_hits"), Some(11));
}

#[test]
fn e13_snapshot_roundtrips_and_diffs() {
    let obs = MetricsHandle::counters();
    ksa_run(&obs).expect("fixed-seed run decides");
    let snap = obs.snapshot().expect("metrics enabled");
    let back = Snapshot::from_json(&snap.to_json()).expect("roundtrip");
    assert_eq!(snap, back);
    assert!(snap.diff(&back).is_empty());
    let empty = MetricsHandle::counters().snapshot().unwrap();
    let d = snap.diff(&empty);
    assert!(d.iter().any(|(n, a, b)| n == "schedule_slots" && *a == 320 && *b == 0), "{d:?}");
}
