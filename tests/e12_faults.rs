//! Experiment E12 — adversarial fault injection, end to end.
//!
//! Acceptance criteria for the fault-injection layer:
//!
//! * the bounded plan search sweeps the paper's algorithms (adopt-commit,
//!   renaming) without finding violations, and its canonical report and
//!   metrics are pinned by digest — a report is a pure function of the
//!   sweep's inputs;
//! * the planted-bug fixture (`fragile-commit`) yields structured
//!   violations that shrink, survive a JSON round-trip, and reproduce when
//!   replayed from the serialized artifact alone;
//! * a panicking safety check inside the model-check explorer produces a
//!   *partial* report with [`ExploreReport::aborted`] populated instead of
//!   tearing the process down.

use wfa::faults::prelude::*;
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::process::{Process, Status, StepCtx};
use wfa::kernel::value::Value;
use wfa::modelcheck::explorer::{explore_all, Limits};

fn sweep_report(scenario: &str, depth: usize) -> SweepReport {
    let mut config = SweepConfig::new(scenario);
    config.depth = depth;
    config.seeds_per_plan = 1;
    sweep(&config)
}

#[test]
fn adopt_commit_sweep_is_clean_and_pinned() {
    let r = sweep_report("adopt-commit", 2);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (138, 0, 138, 138, 0));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0xd04c_ded3_6702_bdbe, 0x0e0f_64be_498c_c1ee), "{digests:#x?}");
    let json = r.to_json().to_string();
    assert!(json.contains("\"violations\":[]"), "adopt-commit must survive the sweep: {json}");
}

#[test]
fn renaming_sweep_is_clean_and_pinned() {
    let r = sweep_report("renaming", 1);
    let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
    assert_eq!(counts, (21, 0, 21, 21, 0));
    let digests = (r.to_json().digest(), r.metrics.to_json().digest());
    assert_eq!(digests, (0x207b_859d_ec85_a766, 0xc5d2_77ca_0c0c_c1bb), "{digests:#x?}");
    let json = r.to_json().to_string();
    assert!(json.contains("\"violations\":[]"), "renaming must survive the sweep: {json}");
}

#[test]
fn fragile_commit_violations_shrink_roundtrip_and_replay() {
    let mut config = SweepConfig::new("fragile-commit");
    config.depth = 1;
    config.seeds_per_plan = 2;
    let report = sweep(&config);
    assert!(!report.violations.is_empty(), "the planted bug must be found");

    for v in report.violations.iter().take(4) {
        // Shrinking happened inside the sweep: the certificate is no longer
        // than what the recorder captured.
        assert!(v.schedule.len() <= v.original_len, "{v}");

        // The serialized artifact carries everything needed to reproduce.
        let json = v.to_json().to_string();
        let back = Violation::from_json(&Json::parse(&json).expect("artifact parses"))
            .expect("artifact deserializes");
        assert_eq!(&back, v, "JSON round-trip must be lossless");

        let verdict = replay(&back).expect("replay runs");
        assert!(verdict.reproduced, "stored schedule must still violate: {}", verdict.detail);
    }
}

#[test]
fn wait_freedom_violations_replay_from_the_artifact() {
    let sc = Scenario::by_name("wait-for-all").expect("catalog scenario");
    let plan = FaultPlan::clean().stop_c(0, 0);
    let outcome = run_plan(&sc, &plan, 7);
    let v = outcome
        .violations
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::WaitFreedom { .. }))
        .expect("stopping one party must starve the others");
    let json = v.to_json().to_string();
    let back = Violation::from_json(&Json::parse(&json).expect("artifact parses"))
        .expect("artifact deserializes");
    let verdict = replay(&back).expect("replay runs");
    assert!(verdict.reproduced, "{}", verdict.detail);
}

/// Increments a shared counter `left` times (one memory operation per
/// step: read, then write), then decides its final read.
#[derive(Clone, Hash)]
struct Counter {
    left: u32,
    val: i64,
    reading: bool,
}

impl Process for Counter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let k = RegKey::new(7);
        if self.reading {
            self.val = ctx.read(k).as_int().unwrap_or(0);
            self.reading = false;
            if self.left == 0 {
                return Status::Decided(Value::Int(self.val));
            }
        } else {
            ctx.write(k, Value::Int(self.val + 1));
            self.left -= 1;
            self.reading = true;
        }
        Status::Running
    }
}

fn counters() -> Executor {
    let mut ex = Executor::new();
    ex.add_process(Box::new(Counter { left: 2, val: 0, reading: true }));
    ex.add_process(Box::new(Counter { left: 2, val: 0, reading: true }));
    ex
}

#[test]
fn panicking_safety_check_yields_a_partial_report() {
    let check = |ex: &Executor| -> Option<String> {
        if ex.pids().any(|p| !ex.status(p).is_running()) {
            panic!("e12: safety check exploded");
        }
        None
    };
    let report = explore_all(&counters(), &check, Limits::default());
    let (fp, payload) = report.aborted.clone().expect("the panic must be caught and reported");
    assert!(payload.contains("safety check exploded"), "payload: {payload}");
    assert_ne!(fp, 0, "the abort is attributed to a concrete state");
    // The rest of the space was still swept: partial results, not a crash.
    assert!(report.states > 2, "{report:?}");
    assert!(!report.fully_verified());
}

