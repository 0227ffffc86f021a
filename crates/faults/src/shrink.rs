//! Greedy violation shrinking.
//!
//! Safety violations shrink their *schedule*: decisions are final, so "the
//! output vector leaves Δ" is monotone in the schedule prefix — once a
//! prefix produces a violating set of decisions, every extension of it does
//! too. That makes an exact binary search for the minimal violating prefix
//! sound; a greedy chunk-removal pass (a light ddmin) then deletes interior
//! slots the violation never needed. Each candidate is certified by a full
//! deterministic replay, so a shrunk artifact is *still a real run*, never
//! an approximation.
//!
//! Every other kind shrinks its *plan* with one greedy loop: drop one plan
//! component, re-run, and keep the drop if the run still shows the
//! violation. What "still shows" means is the kind's predicate:
//!
//! * wait-freedom — the same process still starves under a plan that
//!   restores advice (any truncated schedule starves trivially, so the
//!   schedule cannot be shrunk); the schedule is re-recorded;
//! * quorum loss / stale advice — the run still raises that degradation;
//!   its `(op, tick)` and schedule are refreshed from the final plan so the
//!   artifact replays against what it stores;
//! * panic — the run still panics under `catch_unwind`, the same criterion
//!   [`crate::run::replay`] certifies; the payload is re-recorded.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wfa_kernel::value::Pid;

use crate::plan::FaultPlan;
use crate::run::{payload_string, replay_report, run_plan};
use crate::scenario::Scenario;
use crate::violation::{Violation, ViolationKind};

/// Replay budget for one shrink (schedule candidates tried).
const MAX_REPLAYS: usize = 200;

/// Shrinks `v` in place as far as the replay budget allows; returns the
/// number of replays spent.
pub fn shrink(v: &mut Violation) -> usize {
    let Some(sc) = Scenario::by_name(&v.scenario) else {
        return 0;
    };
    match v.kind.clone() {
        ViolationKind::Safety { reason } => shrink_schedule(&sc, v, &reason),
        ViolationKind::WaitFreedom { process, .. } => shrink_starvation(&sc, v, process),
        ViolationKind::Panic { .. } => shrink_panic(&sc, v),
        ViolationKind::QuorumLost { .. } => shrink_degradation(&sc, v, false),
        ViolationKind::AdviceStale { .. } => shrink_degradation(&sc, v, true),
    }
}

/// `true` iff replaying `schedule` still yields a safety violation with the
/// same reason.
fn still_violates(sc: &Scenario, v: &Violation, reason: &str, schedule: &[Pid]) -> bool {
    replay_report(sc, &v.plan, v.seed, schedule)
        .validate()
        .err()
        .is_some_and(|e| e.violation.reason == reason)
}

fn shrink_schedule(sc: &Scenario, v: &mut Violation, reason: &str) -> usize {
    let mut replays = 0;
    let full = v.schedule_pids();
    // Phase 1: binary-search the minimal violating prefix (sound because
    // the violation is monotone in the prefix — decisions are final).
    let (mut lo, mut hi) = (0usize, full.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        replays += 1;
        if still_violates(sc, v, reason, &full[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut best: Vec<Pid> = full[..hi].to_vec();
    // Phase 2: greedy interior chunk removal, halving the chunk size.
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && replays < MAX_REPLAYS {
        let mut start = 0;
        while start < best.len() && replays < MAX_REPLAYS {
            let end = (start + chunk).min(best.len());
            let candidate: Vec<Pid> =
                best[..start].iter().chain(&best[end..]).copied().collect();
            replays += 1;
            if still_violates(sc, v, reason, &candidate) {
                best = candidate; // keep `start`: the next chunk shifted in
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    v.schedule = best.iter().map(|p| p.0).collect();
    replays
}

/// Every plan one component smaller than `plan`, in the order the shrinker
/// tries them: network faults, crashes, stops, then detector faults.
fn single_drops(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut drops = Vec::new();
    macro_rules! drop_each {
        ($($field:ident),*) => {$(
            for idx in 0..plan.$field.len() {
                let mut candidate = plan.clone();
                candidate.$field.remove(idx);
                drops.push(candidate);
            }
        )*};
    }
    drop_each!(net_faults, crashes, stops, fd_faults);
    drops
}

/// The greedy plan shrinker: keeps the first single-component drop after
/// which `still` re-observes the violation, and restarts from the smaller
/// plan until no drop keeps it or the replay budget is spent. Each call of
/// `still` is one replay. Returns the replays spent and what `still`
/// reported for the final plan (`None` if nothing could be dropped).
fn shrink_plan<T>(
    plan: &mut FaultPlan,
    mut still: impl FnMut(&FaultPlan) -> Option<T>,
) -> (usize, Option<T>) {
    let mut replays = 0;
    let mut last = None;
    loop {
        let hit = single_drops(plan).into_iter().find_map(|candidate| {
            replays += 1;
            still(&candidate).map(|w| (candidate, w))
        });
        let Some((smaller, w)) = hit else {
            return (replays, last);
        };
        *plan = smaller;
        last = Some(w);
        if replays >= MAX_REPLAYS {
            return (replays, last);
        }
    }
}

/// Shrinks a wait-freedom violation's plan, keeping each drop that still
/// starves `process` and re-recording the schedule from the final plan.
fn shrink_starvation(sc: &Scenario, v: &mut Violation, process: usize) -> usize {
    let seed = v.seed;
    let (replays, schedule) = shrink_plan(&mut v.plan, |plan| {
        // Only plans that restore advice can certify starvation. A drop that
        // flips the run into a *panic* (e.g. removing the heal that kept a
        // partition majority-safe) is a different violation, not a smaller
        // starvation.
        if !plan.preserves_liveness() {
            return None;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(sc, plan, seed))).ok()?;
        outcome
            .violations
            .iter()
            .any(|w| {
                matches!(&w.kind, ViolationKind::WaitFreedom { process: p, .. } if *p == process)
            })
            .then_some(outcome.schedule)
    });
    if let Some(schedule) = schedule {
        v.schedule = schedule.iter().map(|p| p.0).collect();
    }
    replays
}

/// Shrinks a panic violation's plan, keeping each drop after which the run
/// still panics (the [`crate::run::replay`] criterion for panic artifacts).
/// The payload is re-recorded from the final plan so the artifact documents
/// the panic it actually replays.
fn shrink_panic(sc: &Scenario, v: &mut Violation) -> usize {
    let seed = v.seed;
    let (replays, payload) = shrink_plan(&mut v.plan, |plan| {
        catch_unwind(AssertUnwindSafe(|| run_plan(sc, plan, seed)))
            .err()
            .map(|payload| payload_string(payload.as_ref()))
    });
    if let Some(payload) = payload {
        v.kind = ViolationKind::Panic { payload };
    }
    replays
}

/// Shrinks a degradation's plan, keeping each drop after which the run
/// still degrades — a stranded quorum op (`stale = false`) or a
/// stale-advice report (`stale = true`). The recorded kind and schedule are
/// refreshed from the final plan (dropping an unrelated fault can shift the
/// tick the horizon expires at).
fn shrink_degradation(sc: &Scenario, v: &mut Violation, stale: bool) -> usize {
    let seed = v.seed;
    let (replays, hit) = shrink_plan(&mut v.plan, |plan| {
        let outcome = run_plan(sc, plan, seed);
        let kind = outcome.violations.into_iter().map(|w| w.kind).find(|k| match k {
            ViolationKind::QuorumLost { .. } => !stale,
            ViolationKind::AdviceStale { .. } => stale,
            _ => false,
        })?;
        Some((kind, outcome.schedule))
    });
    if let Some((kind, schedule)) = hit {
        v.kind = kind;
        v.schedule = schedule.iter().map(|p| p.0).collect();
    }
    replays
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use wfa_kernel::memory::RegKey;
    use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
    use wfa_kernel::value::Value;

    use super::*;
    use crate::run::replay;
    use crate::scenario::AdviceIdle;

    fn first_fragile_violation() -> Violation {
        let sc = Scenario::fragile_commit();
        for seed in 0..60 {
            let outcome = run_plan(&sc, &FaultPlan::clean(), seed);
            if let Some(v) = outcome.violations.into_iter().next() {
                return v;
            }
        }
        panic!("no violating seed in 0..60");
    }

    #[test]
    fn shrunk_safety_schedule_is_shorter_and_still_replays() {
        let mut v = first_fragile_violation();
        let before = v.schedule.len();
        let replays = shrink(&mut v);
        assert!(replays > 0);
        assert!(v.schedule.len() < before, "{} -> {}", before, v.schedule.len());
        assert_eq!(v.original_len, before);
        let verdict = replay(&v).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let (mut a, mut b) = (first_fragile_violation(), first_fragile_violation());
        shrink(&mut a);
        shrink(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn minimal_prefix_is_exact() {
        // One slot fewer than the shrunk prefix must not violate (the
        // binary search certifies minimality before chunk removal; after
        // chunk removal, dropping the *last* slot must break it).
        let mut v = first_fragile_violation();
        let reason = match &v.kind {
            ViolationKind::Safety { reason } => reason.clone(),
            other => panic!("expected safety violation, got {other}"),
        };
        shrink(&mut v);
        let sc = Scenario::by_name(&v.scenario).unwrap();
        let pids = v.schedule_pids();
        assert!(still_violates(&sc, &v, &reason, &pids));
        assert!(!still_violates(&sc, &v, &reason, &pids[..pids.len() - 1]));
    }

    #[test]
    fn quorum_lost_shrink_drops_irrelevant_faults() {
        // A majority-breaking partition degrades quorum ops; the crash and
        // the sample loss riding along have nothing to do with it and must
        // be shrunk away. The partition itself must survive.
        let sc = Scenario::ksa_net();
        let plan = FaultPlan::clean().partition(vec![0, 1], 0).crash_s(2, 5).lose(0, 2);
        let outcome = run_plan(&sc, &plan, 3);
        let mut v = outcome
            .violations
            .into_iter()
            .find(|w| matches!(w.kind, ViolationKind::QuorumLost { .. }))
            .expect("majority-breaking partition must degrade a quorum op");
        let replays = shrink(&mut v);
        assert!(replays > 0);
        assert!(v.plan.crashes.is_empty(), "irrelevant crash survived: {}", v.plan.describe());
        assert!(v.plan.fd_faults.is_empty(), "irrelevant loss survived: {}", v.plan.describe());
        assert_eq!(v.plan.net_faults.len(), 1, "{}", v.plan.describe());
        assert!(
            matches!(v.kind, ViolationKind::QuorumLost { .. }),
            "shrink changed the kind: {}",
            v.kind
        );
        let verdict = replay(&v).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
    }

    /// A party that publishes, then panics once it has found party 0's slot
    /// empty 50 times: only plans that starve party 0 panic.
    #[derive(Clone, Hash, Debug)]
    struct Impatient {
        me: usize,
        wrote: bool,
        polls: u32,
    }

    impl Process for Impatient {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            let slot = |p: usize| RegKey::idx(14, 0, p as u32, 0, 0);
            if !self.wrote {
                self.wrote = true;
                ctx.write(slot(self.me), Value::Int(self.me as i64));
                return Status::Running;
            }
            if self.me == 0 || !ctx.read(slot(0)).is_unit() {
                return Status::Decided(Value::tuple([Value::Bool(true), Value::Int(0)]));
            }
            self.polls += 1;
            assert!(self.polls < 50, "party {} gave up waiting for party 0", self.me);
            Status::Running
        }
    }

    #[test]
    fn panic_shrink_keeps_only_the_fault_the_panic_needs() {
        let mut sc = Scenario::wait_for_all();
        sc.name = "impatient".into();
        sc.factory = Arc::new(|input: &[Value], _fd| {
            let party = |me| Box::new(Impatient { me, wrote: false, polls: 0 }) as Box<dyn DynProcess>;
            let idle = |_| Box::new(AdviceIdle) as Box<dyn DynProcess>;
            ((0..input.len()).map(party).collect(), (0..input.len()).map(idle).collect())
        });
        let panics = |plan: &FaultPlan| {
            let run = catch_unwind(AssertUnwindSafe(|| run_plan(&sc, plan, 7)));
            run.err().map(|p| payload_string(p.as_ref()))
        };
        assert!(panics(&FaultPlan::clean()).is_none(), "a fair run lets party 0 publish");
        let plan = FaultPlan::clean().crash_s(2, 5).stop_c(0, 0).lose(1, 2);
        let payload = panics(&plan).expect("starving party 0 must panic the others");
        let mut v = Violation {
            scenario: sc.name.clone(),
            seed: 7,
            plan,
            kind: ViolationKind::Panic { payload },
            schedule: Vec::new(),
            original_len: 0,
        };
        let replays = shrink_panic(&sc, &mut v);
        assert!(replays > 0);
        assert_eq!(v.plan, FaultPlan::clean().stop_c(0, 0), "{}", v.plan.describe());
        let ViolationKind::Panic { payload } = &v.kind else {
            panic!("shrink changed the kind: {}", v.kind);
        };
        assert!(payload.contains("gave up waiting for party 0"), "{payload}");
        assert!(panics(&v.plan).is_some(), "the shrunk plan must still panic");
    }

    #[test]
    fn wait_freedom_shrink_drops_irrelevant_faults() {
        // Stop C0 forever — under wait-for-all the *other* parties starve —
        // and also crash an S-process that has nothing to do with it: the
        // crash must be shrunk away, the load-bearing stop must survive.
        let sc = Scenario::wait_for_all();
        let plan = FaultPlan::clean().stop_c(0, 0).crash_s(2, 5);
        let outcome = run_plan(&sc, &plan, 7);
        let mut v = outcome
            .violations
            .into_iter()
            .find(|v| matches!(&v.kind, ViolationKind::WaitFreedom { .. }))
            .expect("stopping C0 must starve the wait-for-all parties");
        shrink(&mut v);
        assert!(v.plan.crashes.is_empty(), "irrelevant crash survived: {}", v.plan.describe());
        assert_eq!(v.plan.stops, vec![(0, 0)]);
    }
}
