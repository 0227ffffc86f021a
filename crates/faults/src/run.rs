//! Evaluating one fault plan against one scenario — and replaying the
//! resulting artifacts.
//!
//! [`run_plan`] is the single execution path every caller shares (sweeps,
//! shrinking, the CLI replayer): seed → inputs, plan → failure pattern and
//! fault wrapper, recorded schedule → violations. Because every ingredient
//! is deterministic, [`replay`] can re-execute a serialized
//! [`Violation`] from its JSON artifact alone and report whether it still
//! reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use wfa_core::harness::{EfdRun, RunReport};
use wfa_fd::pattern::FailurePattern;
use wfa_kernel::backend::DegradationKind;
use wfa_kernel::sched::{Record, Replay, Starve};
use wfa_kernel::value::Pid;
use wfa_obs::metrics::{HistKind, MetricsHandle};

use crate::fdwrap::FaultyFdGen;
use crate::plan::FaultPlan;
use crate::scenario::Scenario;
use crate::violation::{answered_label, Violation, ViolationKind};

/// Everything one plan evaluation produced.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The run report (inputs, outputs, Δ-verdict, step counts).
    pub report: RunReport,
    /// The full recorded schedule.
    pub schedule: Vec<Pid>,
    /// The violations found (unshrunk; empty on a clean pass).
    pub violations: Vec<Violation>,
}

/// The deterministic participant set: the first `max_participants` C-indices.
pub fn participants(sc: &Scenario) -> Vec<bool> {
    let max_p = sc.task.max_participants().min(sc.n);
    (0..sc.task.arity()).map(|i| i < max_p).collect()
}

/// The deterministic input vector for `seed`.
pub fn inputs_for(sc: &Scenario, seed: u64) -> Vec<wfa_kernel::value::Value> {
    let mut rng = SmallRng::seed_from_u64(seed);
    sc.task.sample_inputs(&participants(sc), &mut rng)
}

/// Assembles the faulted run for `(plan, seed)`.
///
/// # Panics
///
/// Panics if the plan crashes every S-process — the EFD model requires at
/// least one correct one, and [`crate::sweep::PlanSearch`] never emits such
/// plans; hitting this is a caller bug, not a finding.
pub fn build_run(
    sc: &Scenario,
    plan: &FaultPlan,
    seed: u64,
) -> (EfdRun<FaultyFdGen>, Vec<wfa_kernel::value::Value>) {
    let input = inputs_for(sc, seed);
    let crashed: Vec<usize> = plan.crashes.iter().map(|(q, _)| *q).collect();
    assert!(
        (0..sc.n).any(|q| !crashed.contains(&q)),
        "fault plan crashes all {n} S-processes; the model needs a correct one",
        n = sc.n
    );
    let pattern = FailurePattern::with_crashes(sc.n, &plan.crashes);
    let inner = (sc.mk_fd)(pattern, sc.stab, seed);
    let (c_procs, s_procs) = (sc.factory)(&input, inner.clone());
    let fd = FaultyFdGen::new(inner, plan);
    // The scenario's substrate, seeded from the run seed exactly as the
    // CLI seeds it, so a violation artifact replays the identical network.
    let backend = sc.backend.build(seed, &plan.net_faults);
    (EfdRun::new(c_procs, s_procs, fd).with_backend(backend), input)
}

/// Evaluates one plan: runs the faulted system under a seeded fair schedule
/// with the plan's `Starve` stops, records the schedule, and checks safety
/// always and wait-freedom when the plan is eventually clean.
pub fn run_plan(sc: &Scenario, plan: &FaultPlan, seed: u64) -> PlanOutcome {
    run_plan_observed(sc, plan, seed, &MetricsHandle::disabled())
}

/// [`run_plan`] with observability: kernel and harness counters flow into
/// `obs` through the run's executor, and the recorded schedule length is
/// observed into the `plan_cost` histogram.
pub fn run_plan_observed(
    sc: &Scenario,
    plan: &FaultPlan,
    seed: u64,
    obs: &MetricsHandle,
) -> PlanOutcome {
    let (run, input) = build_run(sc, plan, seed);
    let mut run = run.with_metrics(obs.clone());
    let stops: Vec<(Pid, u64)> = plan.stops.iter().map(|(i, t)| (run.roles.c(*i), *t)).collect();
    let base = run.fair_sched(seed ^ 0xdead);
    let mut sched = Record::new(Starve::new(base, stops));
    // Chunked run with early exit once every C-process the adversary lets
    // run has decided — keeps recorded schedules (and thus violation
    // artifacts) short instead of always exhausting the budget.
    let parts = participants(sc);
    let stopped_c: Vec<usize> = plan.stops.iter().map(|(i, _)| *i).collect();
    let expected: Vec<Pid> = parts
        .iter()
        .enumerate()
        .filter(|(i, p)| **p && !stopped_c.contains(i))
        .map(|(i, _)| run.roles.c(i))
        .collect();
    let chunk = 64;
    let mut used = 0;
    let mut stop = wfa_kernel::sched::StopReason::BudgetExhausted;
    while used < sc.budget {
        let step = chunk.min(sc.budget - used);
        stop = run.run(&mut sched, step);
        used += step;
        let undecided = run.undecided();
        if expected.iter().all(|p| !undecided.contains(p)) {
            break;
        }
    }
    let report = RunReport::evaluate(&run, sc.task.as_ref(), &input, stop);
    let schedule = sched.into_log();
    obs.observe(HistKind::PlanCost, schedule.len() as u64);

    let mut violations = Vec::new();
    let mk = |kind: ViolationKind| Violation {
        scenario: sc.name.clone(),
        seed,
        plan: plan.clone(),
        kind,
        schedule: schedule.iter().map(|p| p.0).collect(),
        original_len: schedule.len(),
    };
    // Degradations the backend raised through the seam — quorum loss from
    // ABD, stale advice from gossip — become first-class, replayable
    // violations instead of panic isolation. Only the first is recorded —
    // every later one is the same degraded spell re-probing (a long run
    // would otherwise drown the report).
    if let Some(d) = run.executor.degradations().first() {
        violations.push(mk(ViolationKind::Degraded {
            class: d.kind,
            op: d.op.clone(),
            tick: d.tick,
            answered: d.answered,
            needed: d.needed,
            shard: d.shard,
        }));
    }
    if let Err(e) = report.validate() {
        violations.push(mk(ViolationKind::Safety { reason: e.violation.reason.clone() }));
    }
    if plan.preserves_liveness() {
        for (i, part) in parts.iter().enumerate() {
            if *part && !stopped_c.contains(&i) && report.output[i].is_unit() {
                violations.push(mk(ViolationKind::WaitFreedom {
                    process: i,
                    steps: report.c_steps[i],
                }));
            }
        }
    }
    PlanOutcome { report, schedule, violations }
}

/// Re-executes `(plan, seed)` under a fixed schedule and reports the result.
pub fn replay_report(sc: &Scenario, plan: &FaultPlan, seed: u64, schedule: &[Pid]) -> RunReport {
    let (mut run, input) = build_run(sc, plan, seed);
    let mut sched = Replay::new(schedule.to_vec());
    let stop = run.run(&mut sched, schedule.len() as u64 + 1);
    RunReport::evaluate(&run, sc.task.as_ref(), &input, stop)
}

/// The result of replaying a serialized violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayVerdict {
    /// `true` iff the artifact still reproduces its violation.
    pub reproduced: bool,
    /// Human-readable evidence (the re-observed reason / starver / payload).
    pub detail: String,
}

/// Replays a [`Violation`] artifact from scratch.
///
/// * `Safety` — re-runs the stored schedule and re-validates Δ.
/// * `WaitFreedom` — re-runs the full plan (schedules below the budget
///   starve trivially, so the stored schedule alone cannot certify it).
/// * `Degraded` — re-runs the full plan and matches the first raised
///   degradation's `(class, op, tick)`.
/// * `Panic` — re-runs the full plan under `catch_unwind`.
///
/// # Errors
///
/// Returns an error if the scenario name is unknown.
pub fn replay(v: &Violation) -> Result<ReplayVerdict, String> {
    let sc = Scenario::by_name(&v.scenario)
        .ok_or_else(|| format!("unknown scenario `{}`", v.scenario))?;
    Ok(match &v.kind {
        ViolationKind::Safety { reason } => {
            let report = replay_report(&sc, &v.plan, v.seed, &v.schedule_pids());
            match report.validate() {
                Err(e) => ReplayVerdict {
                    reproduced: e.violation.reason == *reason,
                    detail: format!("re-observed: {}", e.violation.reason),
                },
                Ok(()) => {
                    ReplayVerdict { reproduced: false, detail: "run validated cleanly".into() }
                }
            }
        }
        ViolationKind::WaitFreedom { process, .. } => {
            let outcome = run_plan(&sc, &v.plan, v.seed);
            let hit = outcome.violations.iter().find_map(|w| match &w.kind {
                ViolationKind::WaitFreedom { process: p, steps } if p == process => Some(*steps),
                _ => None,
            });
            match hit {
                Some(steps) => ReplayVerdict {
                    reproduced: true,
                    detail: format!("C{process} starved again after {steps} steps"),
                },
                None => ReplayVerdict {
                    reproduced: false,
                    detail: format!("C{process} decided this time"),
                },
            }
        }
        ViolationKind::Degraded { class, op, tick, .. } => {
            let outcome = run_plan(&sc, &v.plan, v.seed);
            let hit = outcome.violations.iter().find_map(|w| match &w.kind {
                ViolationKind::Degraded { class: c, op: o, tick: t, answered, needed, .. }
                    if c == class && o == op && t == tick =>
                {
                    Some((*answered, *needed))
                }
                _ => None,
            });
            let (again, loss) = match class {
                DegradationKind::QuorumLost => ("quorum lost", "quorum loss"),
                DegradationKind::AdviceStale => ("advice stale", "staleness"),
            };
            match hit {
                Some((answered, needed)) => ReplayVerdict {
                    reproduced: true,
                    detail: format!(
                        "{again} again: op={op} tick={tick} {}={answered}/{needed}",
                        answered_label(*class)
                    ),
                },
                None => ReplayVerdict {
                    reproduced: false,
                    detail: format!("no {op} {loss} at tick {tick} this time"),
                },
            }
        }
        ViolationKind::Panic { .. } => {
            let result = catch_unwind(AssertUnwindSafe(|| run_plan(&sc, &v.plan, v.seed)));
            match result {
                Err(payload) => ReplayVerdict {
                    reproduced: true,
                    detail: format!("panicked again: {}", payload_string(payload.as_ref())),
                },
                Ok(_) => ReplayVerdict { reproduced: false, detail: "no panic this time".into() },
            }
        }
    })
}

/// Stringifies a `catch_unwind` payload (panics carry `&str` or `String`).
pub fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSpec;

    fn quorum_lost(kind: &ViolationKind) -> bool {
        matches!(kind, ViolationKind::Degraded { class: DegradationKind::QuorumLost, .. })
    }

    #[test]
    fn clean_plans_pass_canonical_scenarios() {
        for name in ["adopt-commit", "ksa", "renaming", "wait-for-all"] {
            let sc = Scenario::by_name(name).unwrap();
            let outcome = run_plan(&sc, &FaultPlan::clean(), 5);
            assert!(
                outcome.violations.is_empty(),
                "{name}: {:?}",
                outcome.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
            assert!(outcome.report.verdict.is_ok());
        }
    }

    #[test]
    fn run_plan_is_deterministic() {
        let sc = Scenario::fragile_commit();
        let plan = FaultPlan::clean().stop_c(2, 0);
        let a = run_plan(&sc, &plan, 11);
        let b = run_plan(&sc, &plan, 11);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.report.output, b.report.output);
    }

    #[test]
    fn fragile_commit_violates_under_some_seed() {
        let sc = Scenario::fragile_commit();
        let found = (0..40).any(|seed| {
            !run_plan(&sc, &FaultPlan::clean(), seed).violations.is_empty()
        });
        assert!(found, "no seed in 0..40 exposed the fragile commit race");
    }

    #[test]
    fn replayed_schedule_reproduces_the_report() {
        let sc = Scenario::fragile_commit();
        for seed in 0..40 {
            let outcome = run_plan(&sc, &FaultPlan::clean(), seed);
            if outcome.violations.is_empty() {
                continue;
            }
            let replayed = replay_report(&sc, &FaultPlan::clean(), seed, &outcome.schedule);
            assert_eq!(replayed.output, outcome.report.output, "seed {seed}");
            assert_eq!(replayed.verdict, outcome.report.verdict, "seed {seed}");
            return;
        }
        panic!("no violating seed found");
    }

    #[test]
    fn crash_plans_keep_ksa_wait_free() {
        // Crashing S-processes (≤ n−1 of them) probes the algorithm under
        // the patterns its detector is specified for: no violations.
        let sc = Scenario::ksa();
        for (q, t) in [(0usize, 0u64), (1, 25), (2, 80)] {
            let outcome = run_plan(&sc, &FaultPlan::clean().crash_s(q, t), 3);
            assert!(
                outcome.violations.is_empty(),
                "crash({q}@{t}): {:?}",
                outcome.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn clean_and_minority_fault_plans_pass_over_the_net_backend() {
        // The net-backed ksa scenario decides like the shm one under the
        // clean plan and under majority-safe network faults (one replica
        // partitioned away, a bounded drop window: quorums stay reachable).
        let sc = Scenario::ksa_net();
        for plan in [
            FaultPlan::clean(),
            FaultPlan::clean().partition(vec![0], sc.stab),
            FaultPlan::clean().drop_link(1, 0, sc.stab),
            FaultPlan::clean().partition(vec![2], 0).heal(sc.stab),
        ] {
            assert!(plan.net_majority_safe(sc.backend.nodes()), "{}", plan.describe());
            let outcome = run_plan(&sc, &plan, 5);
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                plan.describe(),
                outcome.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
            assert!(outcome.report.verdict.is_ok());
        }
    }

    #[test]
    fn net_and_shm_ksa_agree_on_outputs() {
        let shm = run_plan(&Scenario::ksa(), &FaultPlan::clean(), 9);
        let net = run_plan(&Scenario::ksa_net(), &FaultPlan::clean(), 9);
        assert_eq!(shm.report.output, net.report.output);
        assert_eq!(shm.schedule, net.schedule);
    }

    #[test]
    fn corrupted_scenario_reproduces_clean_outcomes() {
        // Corruption plus quarantine is a message-economy change only: with
        // every damaged message detected, dropped before delivery and later
        // retransmitted, `ksa-net-corrupt` must decide the same values on
        // the same schedules as `ksa-net` for every plan and seed — the
        // linearized decisions are provably unaffected by corruption.
        let plain = Scenario::ksa_net();
        let corrupt = Scenario::ksa_net_corrupt();
        assert!(matches!(&corrupt.backend, BackendSpec::Net { cfg, .. } if cfg.corrupt_every == 5));
        for plan in [
            FaultPlan::clean(),
            FaultPlan::clean().corrupt_link(1, 0, plain.stab),
            FaultPlan::clean().drop_link(0, 0, plain.stab),
        ] {
            for seed in [3, 9] {
                let a = run_plan(&plain, &plan, seed);
                let b = run_plan(&corrupt, &plan, seed);
                assert_eq!(a.report.output, b.report.output, "{}", plan.describe());
                assert_eq!(a.schedule, b.schedule, "{}", plan.describe());
                // Safety and wait-freedom verdicts are identical; quorum
                // loss is monotone in message loss — the periodic knob can
                // push a plan-marginal quorum past the horizon (an *extra*
                // degradation) but can never make one disappear.
                let lost = |o: &PlanOutcome| o.violations.iter().any(|v| quorum_lost(&v.kind));
                if lost(&a) {
                    assert!(lost(&b), "{}", plan.describe());
                }
                let rest = |o: &PlanOutcome| {
                    o.violations
                        .iter()
                        .filter(|v| !quorum_lost(&v.kind))
                        .map(|v| v.kind.clone())
                        .collect::<Vec<_>>()
                };
                assert_eq!(rest(&a), rest(&b), "{}", plan.describe());
            }
        }
    }

    #[test]
    fn corruption_window_plans_stay_clean_over_the_net() {
        // A corruption window behaves like a drop window at the protocol
        // level: majority-safe, quorum ops retransmit past it, no
        // violations, same decisions as shm.
        let sc = Scenario::ksa_net();
        let plan = FaultPlan::clean().corrupt_link(0, 0, sc.stab);
        let net = run_plan(&sc, &plan, 9);
        assert!(
            net.violations.is_empty(),
            "{:?}",
            net.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        let shm = run_plan(&Scenario::ksa(), &FaultPlan::clean(), 9);
        assert_eq!(shm.report.output, net.report.output);
        assert_eq!(shm.schedule, net.schedule);
    }

    #[test]
    fn sharded_scenario_decides_like_shm() {
        let shm = run_plan(&Scenario::ksa(), &FaultPlan::clean(), 9);
        let sharded = run_plan(&Scenario::ksa_net_shard(), &FaultPlan::clean(), 9);
        assert!(sharded.violations.is_empty());
        assert_eq!(shm.report.output, sharded.report.output);
        assert_eq!(shm.schedule, sharded.schedule);
    }

    #[test]
    fn sharded_quorum_loss_carries_the_group_tag_and_replays() {
        // Plan faults replicate per group, so a majority-breaking partition
        // strands whichever group the first stranded op routes to; the
        // violation names that group and the artifact round-trips + replays.
        let sc = Scenario::ksa_net_shard();
        let plan = FaultPlan::clean().partition(vec![0, 1], 0);
        let outcome = run_plan(&sc, &plan, 3);
        let v = outcome
            .violations
            .iter()
            .find(|w| quorum_lost(&w.kind))
            .expect("quorum ops must degrade under a majority-breaking partition")
            .clone();
        let ViolationKind::Degraded { shard, .. } = &v.kind else {
            unreachable!();
        };
        assert!(
            matches!(sc.backend, BackendSpec::Net { shards, .. } if *shard < shards),
            "shard tag {shard} out of range"
        );
        let text = v.to_json().to_string();
        let parsed = Violation::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, v);
        let verdict = replay(&parsed).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
    }

    #[test]
    fn majority_breaking_partition_yields_replayable_violation() {
        // The PR's acceptance shape: a plan that partitions a majority away
        // forever exceeds the ABD precondition; the stranded quorum op is a
        // typed `QuorumLost` violation (no panic on the default path) whose
        // artifact round-trips through JSON and replays.
        let sc = Scenario::ksa_net();
        let plan = FaultPlan::clean().partition(vec![0, 1], 0);
        assert!(!plan.net_majority_safe(sc.backend.nodes()));
        let outcome = run_plan(&sc, &plan, 3);
        let v = outcome
            .violations
            .iter()
            .find(|w| quorum_lost(&w.kind))
            .expect("quorum ops must degrade under a majority-breaking partition")
            .clone();
        match &v.kind {
            ViolationKind::Degraded { op, answered, needed, .. } => {
                assert_eq!(op, "write", "the first stranded quorum op is a register write");
                assert_eq!((*answered, *needed), (1, 2), "only the minority side answered");
            }
            other => panic!("expected quorum-lost violation, got {other}"),
        }
        // The degraded run still terminates: the view serves every op, so
        // the schedule is recorded and the outcome replayable.
        assert!(!v.schedule.is_empty());
        let text = v.to_json().to_string();
        let parsed =
            Violation::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, v);
        let verdict = replay(&parsed).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
        assert!(verdict.detail.contains("quorum lost again"), "{}", verdict.detail);
    }

    #[test]
    fn replica_crash_recovery_plans_stay_clean() {
        // A crash/recover pair inside the recovery horizon is majority-safe
        // and the run completes without degradations — the dynamics the
        // static credit in `net_majority_safe` predicts.
        let sc = Scenario::ksa_net();
        let plan = FaultPlan::clean().crash_replica(2, 10).recover_replica(2, 30);
        assert!(plan.net_majority_safe(sc.backend.nodes()));
        let outcome = run_plan(&sc, &plan, 5);
        assert!(
            outcome.violations.is_empty(),
            "{}: {:?}",
            plan.describe(),
            outcome.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(outcome.report.verdict.is_ok());
    }

    #[test]
    fn non_fifo_scenario_decides_like_the_fifo_one() {
        // ABD is reordering-tolerant: the non-FIFO scenario validates and
        // decides the same outputs as shm ksa under the clean plan.
        let shm = run_plan(&Scenario::ksa(), &FaultPlan::clean(), 9);
        let net = run_plan(&Scenario::ksa_net_reorder(), &FaultPlan::clean(), 9);
        assert_eq!(shm.report.output, net.report.output);
        assert_eq!(shm.schedule, net.schedule);
        assert!(net.violations.is_empty());
    }

    #[test]
    fn gossip_and_shm_ksa_agree_on_outputs() {
        // Key-homed ops make the fault-free gossip run observationally
        // identical to shared memory: same decisions, same schedule, no
        // violations.
        let shm = run_plan(&Scenario::ksa(), &FaultPlan::clean(), 9);
        let gsp = run_plan(&Scenario::ksa_net_gossip(), &FaultPlan::clean(), 9);
        assert!(
            gsp.violations.is_empty(),
            "{:?}",
            gsp.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(shm.report.output, gsp.report.output);
        assert_eq!(shm.schedule, gsp.schedule);
    }

    #[test]
    fn gossip_renaming_decides_like_shm() {
        let shm = run_plan(&Scenario::renaming(), &FaultPlan::clean(), 5);
        let gsp = run_plan(&Scenario::rename_net_gossip(), &FaultPlan::clean(), 5);
        assert!(gsp.violations.is_empty());
        assert_eq!(shm.report.output, gsp.report.output);
        assert_eq!(shm.schedule, gsp.schedule);
    }

    #[test]
    fn starved_gossip_replica_yields_replayable_advice_stale_violation() {
        // One replica is partitioned from round one and crashes for good
        // mid-run: deltas it minted never propagated, so once `home_of`
        // probes past it the fallback replica serves genuinely stale values
        // and — after the crashed-home horizon — a typed `AdviceStale`
        // violation whose artifact round-trips through JSON and replays.
        // Safety holds: stale advice delays, it never lies, so staleness is
        // the *only* violation and the Δ-verdict stays ok.
        let sc = Scenario::ksa_net_gossip();
        let plan = FaultPlan::clean().partition(vec![0], 0).crash_replica(0, 400);
        let outcome = run_plan(&sc, &plan, 3);
        let v = outcome
            .violations
            .iter()
            .find(|w| {
                matches!(w.kind, ViolationKind::Degraded { class: DegradationKind::AdviceStale, .. })
            })
            .expect("an unhealed partition must starve some home past the horizon")
            .clone();
        match &v.kind {
            ViolationKind::Degraded { op, answered, needed, .. } => {
                assert_eq!(op, "read");
                assert!(answered > needed, "dry rounds beyond the horizon: {}", v.kind);
            }
            other => panic!("expected advice-stale violation, got {other}"),
        }
        assert_eq!(outcome.violations.len(), 1, "staleness must be the only violation");
        assert!(outcome.report.verdict.is_ok());
        let text = v.to_json().to_string();
        let parsed = Violation::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, v);
        let verdict = replay(&parsed).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
        assert!(verdict.detail.contains("advice stale again"), "{}", verdict.detail);
    }

    #[test]
    #[should_panic(expected = "crashes all")]
    fn crashing_every_s_process_is_rejected() {
        let sc = Scenario::ksa();
        let plan = FaultPlan::clean().crash_s(0, 0).crash_s(1, 0).crash_s(2, 0);
        let _ = build_run(&sc, &plan, 1);
    }
}
