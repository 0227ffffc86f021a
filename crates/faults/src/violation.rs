//! Structured, replayable violation reports.
//!
//! A [`Violation`] is what a fault sweep emits instead of panicking: the
//! scenario name, the seed, the [`FaultPlan`], the (possibly shrunk)
//! violating schedule and a typed [`ViolationKind`]. The artifact is
//! self-contained — `Violation::from_json` plus [`crate::run::replay`]
//! re-executes the exact run from nothing but the JSON text.

use wfa_kernel::backend::DegradationKind;
use wfa_kernel::value::Pid;

use crate::json::Json;
use crate::plan::FaultPlan;

/// What went wrong in a faulted run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// The output vector left Δ.
    Safety {
        /// The task's complaint.
        reason: String,
    },
    /// A non-stopped participant never decided although the plan was
    /// eventually clean.
    WaitFreedom {
        /// The starving C-process index.
        process: usize,
        /// Steps it took before the budget ran out.
        steps: u64,
    },
    /// The run panicked (a torn automaton, a buggy predicate); the payload
    /// is the captured panic message.
    Panic {
        /// The panic payload, stringified.
        payload: String,
    },
    /// A backend degraded instead of serving its failure model's promise,
    /// and the run kept going on the weaker service; the sweep surfaces
    /// the first such report. Two classes exist:
    ///
    /// * `quorum-lost` — a quorum operation exhausted its retransmission
    ///   horizon (the adversary broke the ABD majority assumption for too
    ///   long);
    /// * `advice-stale` — a gossip read served advice older than the
    ///   global join while its replica had gone past the staleness horizon
    ///   without a completed anti-entropy exchange. Advice is stale, never
    ///   wrong.
    Degraded {
        /// Which degradation class the backend raised.
        class: DegradationKind,
        /// The degraded protocol phase (`read`, `write-store`, …).
        op: String,
        /// The network tick at which the horizon expired.
        tick: u64,
        /// Replicas that answered the final round (quorum loss), or
        /// anti-entropy rounds the serving replica had gone dry (stale
        /// advice).
        answered: usize,
        /// The quorum size that was required, or the staleness horizon
        /// that was exceeded.
        needed: usize,
        /// The replica group (shard) that degraded — `0` for unsharded
        /// backends; under a sharded backend only this group's key range
        /// degraded.
        shard: usize,
    },
}

/// What a degradation class's `answered` field counts: replies for quorum
/// loss, dry anti-entropy rounds for stale advice.
pub(crate) fn answered_label(class: DegradationKind) -> &'static str {
    match class {
        DegradationKind::QuorumLost => "answered",
        DegradationKind::AdviceStale => "dry",
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Safety { reason } => write!(f, "safety: {reason}"),
            ViolationKind::WaitFreedom { process, steps } => {
                write!(f, "wait-freedom: C{process} starved after {steps} steps")
            }
            ViolationKind::Panic { payload } => write!(f, "panic: {payload}"),
            ViolationKind::Degraded { class, op, tick, answered, needed, shard } => write!(
                f,
                "{}: op={op} tick={tick} {}={answered}/{needed} shard={shard}",
                class.name(),
                answered_label(*class)
            ),
        }
    }
}

/// A replayable fault-injection violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The canonical scenario name ([`crate::scenario::Scenario::by_name`]).
    pub scenario: String,
    /// The run seed (determines inputs, detector noise and base schedule).
    pub seed: u64,
    /// The fault plan in force.
    pub plan: FaultPlan,
    /// What went wrong.
    pub kind: ViolationKind,
    /// The violating schedule (pids), shrunk where possible; empty for
    /// panics (the run tore before a schedule could be certified).
    pub schedule: Vec<usize>,
    /// Schedule length before shrinking (`= schedule.len()` if unshrunk).
    pub original_len: usize,
}

impl Violation {
    /// The schedule as kernel pids.
    pub fn schedule_pids(&self) -> Vec<Pid> {
        self.schedule.iter().map(|p| Pid(*p)).collect()
    }

    /// Serializes the violation.
    pub fn to_json(&self) -> Json {
        let kind = match &self.kind {
            ViolationKind::Safety { reason } => Json::Obj(vec![
                ("type".into(), Json::Str("safety".into())),
                ("reason".into(), Json::Str(reason.clone())),
            ]),
            ViolationKind::WaitFreedom { process, steps } => Json::Obj(vec![
                ("type".into(), Json::Str("wait-freedom".into())),
                ("process".into(), Json::Num(*process as u64)),
                ("steps".into(), Json::Num(*steps)),
            ]),
            ViolationKind::Panic { payload } => Json::Obj(vec![
                ("type".into(), Json::Str("panic".into())),
                ("payload".into(), Json::Str(payload.clone())),
            ]),
            ViolationKind::Degraded { class, op, tick, answered, needed, shard } => Json::Obj(vec![
                ("type".into(), Json::Str(class.name().into())),
                ("op".into(), Json::Str(op.clone())),
                ("tick".into(), Json::Num(*tick)),
                ("answered".into(), Json::Num(*answered as u64)),
                ("needed".into(), Json::Num(*needed as u64)),
                ("shard".into(), Json::Num(*shard as u64)),
            ]),
        };
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("seed".into(), Json::Num(self.seed)),
            ("kind".into(), kind),
            ("plan".into(), self.plan.to_json()),
            (
                "schedule".into(),
                Json::Arr(self.schedule.iter().map(|p| Json::Num(*p as u64)).collect()),
            ),
            ("original_len".into(), Json::Num(self.original_len as u64)),
        ])
    }

    /// Deserializes a violation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Violation, String> {
        let kind_obj = v.get("kind").ok_or("violation: missing kind")?;
        let kind = match kind_obj.get("type").and_then(Json::str) {
            Some("safety") => ViolationKind::Safety {
                reason: kind_obj
                    .get("reason")
                    .and_then(Json::str)
                    .ok_or("violation: missing reason")?
                    .to_string(),
            },
            Some("wait-freedom") => ViolationKind::WaitFreedom {
                process: kind_obj
                    .get("process")
                    .and_then(Json::num)
                    .ok_or("violation: missing process")? as usize,
                steps: kind_obj.get("steps").and_then(Json::num).unwrap_or(0),
            },
            Some("panic") => ViolationKind::Panic {
                payload: kind_obj
                    .get("payload")
                    .and_then(Json::str)
                    .ok_or("violation: missing payload")?
                    .to_string(),
            },
            Some(name @ ("quorum-lost" | "advice-stale")) => ViolationKind::Degraded {
                class: if name == "quorum-lost" {
                    DegradationKind::QuorumLost
                } else {
                    DegradationKind::AdviceStale
                },
                op: kind_obj
                    .get("op")
                    .and_then(Json::str)
                    .ok_or("violation: missing op")?
                    .to_string(),
                tick: kind_obj.get("tick").and_then(Json::num).ok_or("violation: missing tick")?,
                answered: kind_obj.get("answered").and_then(Json::num).unwrap_or(0) as usize,
                needed: kind_obj
                    .get("needed")
                    .and_then(Json::num)
                    .ok_or("violation: missing needed")? as usize,
                // Pre-shard artifacts lack the field; they were unsharded.
                shard: kind_obj.get("shard").and_then(Json::num).unwrap_or(0) as usize,
            },
            other => return Err(format!("violation: unknown kind {other:?}")),
        };
        let schedule = v
            .get("schedule")
            .and_then(Json::arr)
            .ok_or("violation: missing schedule")?
            .iter()
            .map(|j| j.num().map(|n| n as usize).ok_or("violation: bad schedule entry"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Violation {
            scenario: v
                .get("scenario")
                .and_then(Json::str)
                .ok_or("violation: missing scenario")?
                .to_string(),
            seed: v.get("seed").and_then(Json::num).ok_or("violation: missing seed")?,
            plan: FaultPlan::from_json(v.get("plan").ok_or("violation: missing plan")?)?,
            kind,
            original_len: v
                .get("original_len")
                .and_then(Json::num)
                .map(|n| n as usize)
                .unwrap_or(schedule.len()),
            schedule,
        })
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seed {} plan `{}`: {} (schedule {} steps, shrunk from {})",
            self.scenario,
            self.seed,
            self.plan.describe(),
            self.kind,
            self.schedule.len(),
            self.original_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Violation {
        Violation {
            scenario: "fragile-commit".into(),
            seed: 424242,
            plan: FaultPlan::clean().crash_s(1, 7).delay_advice(3).clear_at(60),
            kind: ViolationKind::Safety { reason: "party 0 committed 0 but party 1 carries 1".into() },
            schedule: vec![0, 1, 0, 2, 1],
            original_len: 400,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        for kind in [
            ViolationKind::Safety { reason: "split \"brain\"".into() },
            ViolationKind::WaitFreedom { process: 2, steps: 17 },
            ViolationKind::Panic { payload: "index out of bounds".into() },
            ViolationKind::Degraded {
                class: DegradationKind::QuorumLost,
                op: "write-store".into(),
                tick: 72,
                answered: 1,
                needed: 2,
                shard: 3,
            },
            ViolationKind::Degraded {
                class: DegradationKind::AdviceStale,
                op: "read".into(),
                tick: 144,
                answered: 7,
                needed: 4,
                shard: 0,
            },
        ] {
            let mut v = sample();
            v.kind = kind;
            let text = v.to_json().to_string();
            assert_eq!(Violation::from_json(&Json::parse(&text).unwrap()).unwrap(), v);
        }
    }

    #[test]
    fn legacy_quorum_lost_artifacts_parse_as_unsharded() {
        let mut v = sample();
        v.kind = ViolationKind::Degraded {
            class: DegradationKind::QuorumLost,
            op: "read".into(),
            tick: 9,
            answered: 1,
            needed: 2,
            shard: 0,
        };
        // Pre-shard writers never emitted the field; dropping it from the
        // serialized artifact must deserialize to shard 0, not an error.
        let text = v.to_json().to_string().replace(",\"shard\":0", "");
        assert!(!text.contains("shard"), "field not stripped: {text}");
        assert_eq!(Violation::from_json(&Json::parse(&text).unwrap()).unwrap(), v);
    }

    #[test]
    fn degradation_json_bytes_are_pinned() {
        // Both classes share one variant; their artifacts must keep the
        // per-class `type` tag and the same keys in the same order.
        let mut v = Violation {
            scenario: "ksa-net".into(),
            seed: 3,
            plan: FaultPlan::clean().partition(vec![0, 1], 0),
            kind: ViolationKind::Degraded {
                class: DegradationKind::QuorumLost,
                op: "write-store".into(),
                tick: 72,
                answered: 1,
                needed: 2,
                shard: 3,
            },
            schedule: vec![0, 1, 2],
            original_len: 9,
        };
        assert_eq!(
            v.to_json().to_string(),
            r#"{"scenario":"ksa-net","seed":3,"kind":{"type":"quorum-lost","op":"write-store","tick":72,"answered":1,"needed":2,"shard":3},"plan":{"crashes":[],"stops":[],"fd_faults":[],"advice_delay":0,"clear_after":null,"net_faults":[{"type":"partition","at":0,"nodes":[0,1]}]},"schedule":[0,1,2],"original_len":9}"#
        );
        assert_eq!(v.kind.to_string(), "quorum-lost: op=write-store tick=72 answered=1/2 shard=3");
        v.scenario = "ksa-net-gossip".into();
        v.plan = FaultPlan::clean().partition(vec![0], 0).crash_replica(0, 400);
        v.kind = ViolationKind::Degraded {
            class: DegradationKind::AdviceStale,
            op: "read".into(),
            tick: 144,
            answered: 7,
            needed: 4,
            shard: 0,
        };
        assert_eq!(
            v.to_json().to_string(),
            r#"{"scenario":"ksa-net-gossip","seed":3,"kind":{"type":"advice-stale","op":"read","tick":144,"answered":7,"needed":4,"shard":0},"plan":{"crashes":[],"stops":[],"fd_faults":[],"advice_delay":0,"clear_after":null,"net_faults":[{"type":"partition","at":0,"nodes":[0]},{"type":"crash-replica","at":400,"node":0}]},"schedule":[0,1,2],"original_len":9}"#
        );
        assert_eq!(v.kind.to_string(), "advice-stale: op=read tick=144 dry=7/4 shard=0");
    }

    #[test]
    fn display_names_the_essentials() {
        let s = sample().to_string();
        for needle in ["fragile-commit", "424242", "crash(1@7)", "safety", "shrunk from 400"] {
            assert!(s.contains(needle), "{s} missing {needle}");
        }
    }
}
