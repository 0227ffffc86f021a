//! Adversarial fault plans.
//!
//! A [`FaultPlan`] is a declarative description of everything an adversary
//! does to one EFD run beyond scheduling: crash S-processes at chosen times,
//! starve C-processes, corrupt failure-detector samples (lose them or serve
//! stale duplicates) and delay the visibility of advice. Plans compose via a
//! builder DSL, serialize to JSON for replayable violation artifacts, and
//! are enumerated systematically by [`crate::sweep::PlanSearch`] instead of
//! being sampled at random.
//!
//! Fault semantics are purely deterministic — a plan plus a seed fully
//! determines a run — which is what makes violations replayable and sweep
//! reports pure functions of their inputs.

use wfa_net::config::{majority_safe, NetFault};

use crate::json::Json;

/// A deterministic corruption of one S-process's failure-detector samples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FdFault {
    /// Every `period`-th query from S-process `q` is *lost*: the module
    /// answers `⊥` instead of the sampled value.
    Lose {
        /// The afflicted S-process.
        q: usize,
        /// Loss period (1 = every query is lost).
        period: u64,
    },
    /// S-process `q`'s module refreshes its sample only every `period`-th
    /// query and serves the *stale duplicate* in between — the lazy-module
    /// behavior real detector implementations exhibit under load.
    Freeze {
        /// The afflicted S-process.
        q: usize,
        /// Refresh period (1 = behaves normally).
        period: u64,
    },
}

impl FdFault {
    /// The afflicted S-process.
    pub fn q(&self) -> usize {
        match self {
            FdFault::Lose { q, .. } | FdFault::Freeze { q, .. } => *q,
        }
    }

    fn to_json(&self) -> Json {
        let (kind, q, period) = match self {
            FdFault::Lose { q, period } => ("lose", *q, *period),
            FdFault::Freeze { q, period } => ("freeze", *q, *period),
        };
        Json::Obj(vec![
            ("kind".into(), Json::Str(kind.into())),
            ("q".into(), Json::Num(q as u64)),
            ("period".into(), Json::Num(period)),
        ])
    }

    fn from_json(v: &Json) -> Result<FdFault, String> {
        let kind = v.get("kind").and_then(Json::str).ok_or("fd fault: missing kind")?;
        let q = v.get("q").and_then(Json::num).ok_or("fd fault: missing q")? as usize;
        let period = v.get("period").and_then(Json::num).ok_or("fd fault: missing period")?;
        match kind {
            "lose" => Ok(FdFault::Lose { q, period }),
            "freeze" => Ok(FdFault::Freeze { q, period }),
            other => Err(format!("fd fault: unknown kind `{other}`")),
        }
    }
}

/// A composed adversarial fault plan for one EFD run.
///
/// # Examples
///
/// ```
/// use wfa_faults::plan::FaultPlan;
///
/// let plan = FaultPlan::clean()
///     .crash_s(1, 40)        // S1 crashes at time 40
///     .stop_c(0, 25)         // the adversary freezes C0 at time 25
///     .lose(0, 3)            // every 3rd sample of S0's module is lost
///     .delay_advice(50)      // no advice visible before time 50
///     .clear_at(200);        // all FD corruption ends at time 200
/// assert!(plan.preserves_liveness());
/// assert_eq!(plan, FaultPlan::from_json(&plan.to_json()).unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// S-process crash injections `(q, time)`, merged into the run's failure
    /// pattern before the detector is built (so the detector remains honest
    /// for the *faulty* pattern — crashes probe the algorithm, not the spec).
    pub crashes: Vec<(usize, u64)>,
    /// C-process stop injections `(i, time)` for the `Starve` adversary.
    pub stops: Vec<(usize, u64)>,
    /// Failure-detector sample corruptions.
    pub fd_faults: Vec<FdFault>,
    /// Queries before this time answer `⊥` — delayed advice visibility.
    pub advice_delay: u64,
    /// If set, *all* FD corruption (faults and advice delay) ends at this
    /// time; plans without it may legitimately destroy liveness, so
    /// wait-freedom is only asserted for eventually-clean plans.
    pub clear_after: Option<u64>,
    /// Network faults (partition/heal/drop windows and replica
    /// crash/recover events on the network's logical clock), applied only
    /// when the scenario runs over the message-passing backend and ignored
    /// on shared memory. Majority-breaking combinations exceed the ABD
    /// model's assumption: quorum operations stall through the
    /// retransmission horizon and the backend then raises a typed
    /// `QuorumLost` degradation, which the sweep converts into a replayable
    /// [`crate::violation::Violation`].
    pub net_faults: Vec<NetFault>,
}

impl FaultPlan {
    /// The empty plan: no faults at all.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Crashes S-process `q` at `time`.
    pub fn crash_s(mut self, q: usize, time: u64) -> FaultPlan {
        self.crashes.push((q, time));
        self
    }

    /// Stops C-process `i` at `time` (the `Starve` adversary).
    pub fn stop_c(mut self, i: usize, time: u64) -> FaultPlan {
        self.stops.push((i, time));
        self
    }

    /// Loses every `period`-th sample of S-process `q`.
    pub fn lose(mut self, q: usize, period: u64) -> FaultPlan {
        assert!(period > 0, "loss period must be positive");
        self.fd_faults.push(FdFault::Lose { q, period });
        self
    }

    /// Freezes S-process `q`'s module to refresh only every `period`-th
    /// query (stale duplicates in between).
    pub fn freeze(mut self, q: usize, period: u64) -> FaultPlan {
        assert!(period > 0, "freeze period must be positive");
        self.fd_faults.push(FdFault::Freeze { q, period });
        self
    }

    /// Hides all advice before `time`.
    pub fn delay_advice(mut self, time: u64) -> FaultPlan {
        self.advice_delay = time;
        self
    }

    /// Ends all FD corruption at `time`.
    pub fn clear_at(mut self, time: u64) -> FaultPlan {
        self.clear_after = Some(time);
        self
    }

    /// Partitions replica `nodes` away from the rest at network tick `at`.
    pub fn partition(mut self, nodes: Vec<usize>, at: u64) -> FaultPlan {
        self.net_faults.push(NetFault::Partition { at, nodes });
        self
    }

    /// Heals every partition at network tick `at`.
    pub fn heal(mut self, at: u64) -> FaultPlan {
        self.net_faults.push(NetFault::Heal { at });
        self
    }

    /// Drops all traffic to/from replica `node` during `at..until`.
    pub fn drop_link(mut self, node: usize, at: u64, until: u64) -> FaultPlan {
        assert!(until > at, "drop window must be non-empty");
        self.net_faults.push(NetFault::Drop { at, until, node });
        self
    }

    /// Corrupts all traffic to/from replica `node` during `at..until`; the
    /// checksum layer detects and quarantines the damaged messages, so the
    /// window behaves like a drop window at the protocol level (quorum ops
    /// retransmit past it) without ever delivering a corrupted payload.
    pub fn corrupt_link(mut self, node: usize, at: u64, until: u64) -> FaultPlan {
        assert!(until > at, "corruption window must be non-empty");
        self.net_faults.push(NetFault::CorruptMessage { at, until, node, every: 1 });
        self
    }

    /// Crashes replica `node` at network tick `at` (volatile stores are
    /// wiped; the replica's links go dark like a partition of one).
    pub fn crash_replica(mut self, node: usize, at: u64) -> FaultPlan {
        self.net_faults.push(NetFault::CrashReplica { at, node });
        self
    }

    /// Recovers replica `node` at network tick `at`; it re-syncs from a
    /// majority before serving again.
    pub fn recover_replica(mut self, node: usize, at: u64) -> FaultPlan {
        self.net_faults.push(NetFault::RecoverReplica { at, node });
        self
    }

    /// The ABD precondition: `true` iff every partition or replica-crash
    /// window in the plan leaves a strict majority of the `nodes` replicas
    /// reachable, where heals and recoveries landing inside the
    /// retransmission horizon are statically credited (the stalled op's
    /// later rounds reach the restored replicas). Plans failing this are
    /// still runnable — they are the adversary exceeding the model, and
    /// quorum operations are *expected* to degrade (a typed `QuorumLost`
    /// outcome, replayable as a violation).
    pub fn net_majority_safe(&self, nodes: usize) -> bool {
        majority_safe(&self.net_faults, nodes)
    }

    /// `true` iff the plan's FD corruption provably ends, so wait-freedom
    /// may still be asserted. Crash and stop injections never void the
    /// check (the harness already excludes stopped/crashed processes);
    /// unbounded sample corruption does.
    pub fn preserves_liveness(&self) -> bool {
        (self.fd_faults.is_empty() && self.advice_delay == 0) || self.clear_after.is_some()
    }

    /// `true` iff the plan injects no faults whatsoever.
    pub fn is_clean(&self) -> bool {
        self.crashes.is_empty()
            && self.stops.is_empty()
            && self.fd_faults.is_empty()
            && self.advice_delay == 0
            && self.net_faults.is_empty()
    }

    /// A short human-readable summary, e.g. `crash(1@40) stop(0@25) lose(0/3)`.
    pub fn describe(&self) -> String {
        if self.is_clean() {
            return "clean".to_string();
        }
        let mut parts = Vec::new();
        for (q, t) in &self.crashes {
            parts.push(format!("crash({q}@{t})"));
        }
        for (i, t) in &self.stops {
            parts.push(format!("stop({i}@{t})"));
        }
        for f in &self.fd_faults {
            parts.push(match f {
                FdFault::Lose { q, period } => format!("lose({q}/{period})"),
                FdFault::Freeze { q, period } => format!("freeze({q}/{period})"),
            });
        }
        for f in &self.net_faults {
            parts.push(f.describe());
        }
        if self.advice_delay > 0 {
            parts.push(format!("delay({})", self.advice_delay));
        }
        if let Some(c) = self.clear_after {
            parts.push(format!("clear@{c}"));
        }
        parts.join(" ")
    }

    /// Serializes the plan.
    pub fn to_json(&self) -> Json {
        let pairs = |xs: &[(usize, u64)]| {
            Json::Arr(
                xs.iter()
                    .map(|(a, b)| Json::Arr(vec![Json::Num(*a as u64), Json::Num(*b)]))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("crashes".into(), pairs(&self.crashes)),
            ("stops".into(), pairs(&self.stops)),
            ("fd_faults".into(), Json::Arr(self.fd_faults.iter().map(FdFault::to_json).collect())),
            ("advice_delay".into(), Json::Num(self.advice_delay)),
            ("clear_after".into(), self.clear_after.map_or(Json::Null, Json::Num)),
            (
                "net_faults".into(),
                Json::Arr(self.net_faults.iter().map(NetFault::to_json).collect()),
            ),
        ])
    }

    /// Deserializes a plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let pairs = |key: &str| -> Result<Vec<(usize, u64)>, String> {
            v.get(key)
                .and_then(Json::arr)
                .ok_or_else(|| format!("plan: missing {key}"))?
                .iter()
                .map(|p| {
                    let items = p.arr().filter(|a| a.len() == 2).ok_or("plan: bad pair")?;
                    Ok((
                        items[0].num().ok_or("plan: bad pair")? as usize,
                        items[1].num().ok_or("plan: bad pair")?,
                    ))
                })
                .collect()
        };
        let fd_faults = v
            .get("fd_faults")
            .and_then(Json::arr)
            .ok_or("plan: missing fd_faults")?
            .iter()
            .map(FdFault::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let clear_after = match v.get("clear_after") {
            Some(Json::Null) | None => None,
            Some(j) => Some(j.num().ok_or("plan: bad clear_after")?),
        };
        // Absent in artifacts written before the net backend existed.
        let net_faults = match v.get("net_faults").and_then(Json::arr) {
            Some(xs) => xs.iter().map(NetFault::from_json).collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(FaultPlan {
            crashes: pairs("crashes")?,
            stops: pairs("stops")?,
            fd_faults,
            advice_delay: v.get("advice_delay").and_then(Json::num).unwrap_or(0),
            clear_after,
            net_faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_clean_and_live() {
        let p = FaultPlan::clean();
        assert!(p.is_clean());
        assert!(p.preserves_liveness());
        assert_eq!(p.describe(), "clean");
    }

    #[test]
    fn unbounded_fd_faults_void_liveness() {
        assert!(!FaultPlan::clean().lose(0, 2).preserves_liveness());
        assert!(!FaultPlan::clean().delay_advice(10).preserves_liveness());
        assert!(FaultPlan::clean().lose(0, 2).clear_at(100).preserves_liveness());
        assert!(FaultPlan::clean().delay_advice(10).clear_at(100).preserves_liveness());
        // Pure crash/stop plans keep the wait-freedom obligation.
        assert!(FaultPlan::clean().crash_s(0, 5).stop_c(1, 3).preserves_liveness());
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let p = FaultPlan::clean()
            .crash_s(2, 17)
            .crash_s(0, 0)
            .stop_c(1, 99)
            .lose(0, 3)
            .freeze(2, 5)
            .delay_advice(40)
            .clear_at(123);
        let back = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        // And without clear_after.
        let q = FaultPlan::clean().crash_s(1, 1);
        assert_eq!(q, FaultPlan::from_json(&q.to_json()).unwrap());
    }

    #[test]
    fn net_faults_roundtrip_and_describe() {
        let p = FaultPlan::clean()
            .partition(vec![0, 2], 9)
            .heal(30)
            .drop_link(1, 2, 8)
            .corrupt_link(0, 4, 12);
        assert!(!p.is_clean());
        assert_eq!(p, FaultPlan::from_json(&p.to_json()).unwrap());
        let d = p.describe();
        for needle in ["partition(0+2@9)", "heal(@30)", "drop(1@2..8)", "corrupt(0@4..12)"] {
            assert!(d.contains(needle), "{d} missing {needle}");
        }
        // Artifacts written before the net backend existed parse to no
        // net faults.
        let mut old = FaultPlan::clean().crash_s(1, 4).to_json();
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "net_faults");
        }
        assert_eq!(FaultPlan::from_json(&old).unwrap().net_faults, Vec::new());
    }

    #[test]
    fn unknown_net_fault_variants_fail_plan_parsing() {
        // A plan artifact from a newer version must refuse to parse rather
        // than silently replay with the unrecognized fault dropped.
        let mut j = FaultPlan::clean().drop_link(1, 2, 8).to_json();
        let text = j.to_string().replace("\"drop\"", "\"gamma-ray\"");
        j = Json::parse(&text).unwrap();
        let err = FaultPlan::from_json(&j).unwrap_err();
        for needle in ["unknown net fault type `gamma-ray`", "newer version", "refusing"] {
            assert!(err.contains(needle), "{err} missing {needle}");
        }
    }

    #[test]
    fn majority_predicate_gates_partitions() {
        // 1 of 3 partitioned away: majority {1, 2} survives.
        assert!(FaultPlan::clean().partition(vec![0], 5).net_majority_safe(3));
        // 2 of 3 partitioned away forever: the precondition fails.
        assert!(!FaultPlan::clean().partition(vec![0, 1], 5).net_majority_safe(3));
        // A heal inside the retransmission horizon is credited: stalled
        // ops retransmit past it and complete.
        assert!(FaultPlan::clean().partition(vec![0, 1], 5).heal(9).net_majority_safe(3));
        // A heal beyond the horizon is not.
        let ph = wfa_net::config::NetConfig::new(3, 0).retransmission_horizon();
        assert!(!FaultPlan::clean()
            .partition(vec![0, 1], 5)
            .heal(5 + ph + 1)
            .net_majority_safe(3));
        // A healed minority partition stays safe.
        assert!(FaultPlan::clean().partition(vec![0], 5).heal(9).net_majority_safe(3));
    }

    #[test]
    fn majority_predicate_credits_timely_recoveries() {
        let rh = wfa_net::config::NetConfig::new(3, 0).recovery_horizon();
        // A minority crash is always safe; a majority crash needs every
        // crashed replica to recover inside the recovery horizon.
        assert!(FaultPlan::clean().crash_replica(2, 0).net_majority_safe(3));
        let dead = FaultPlan::clean().crash_replica(0, 0).crash_replica(1, 0);
        assert!(!dead.clone().net_majority_safe(3));
        assert!(dead
            .clone()
            .recover_replica(0, rh)
            .recover_replica(1, rh)
            .net_majority_safe(3));
        assert!(!dead
            .recover_replica(0, rh + 1)
            .recover_replica(1, rh + 1)
            .net_majority_safe(3));
    }

    #[test]
    fn describe_lists_all_components() {
        let p = FaultPlan::clean().crash_s(1, 40).lose(0, 3).delay_advice(50).clear_at(200);
        let d = p.describe();
        for needle in ["crash(1@40)", "lose(0/3)", "delay(50)", "clear@200"] {
            assert!(d.contains(needle), "{d} missing {needle}");
        }
    }
}
