//! The metrics registry: counters, log-scale histograms, snapshots.
//!
//! # Determinism discipline
//!
//! Every metric depends only on the run's inputs (seeds, plans, limits) —
//! never on the host or wall clock — so a **canonical snapshot**
//! ([`MetricsHandle::snapshot`]) serializes to the same bytes for the same
//! inputs (CI runs each source twice and diffs the exports). A new metric
//! must keep that property; wall-clock timings belong in the benchmark,
//! not here.
//!
//! # Cost when disabled
//!
//! [`MetricsHandle`] is an `Option<Arc<Registry>>`; the disabled handle is
//! `None`, so every recording call is a single branch and the kernel's step
//! loop pays nothing when observability is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::span::{EventRing, ObsEvent};

/// Every counter the workspace records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // the names are the documentation; see `name()`
pub enum Counter {
    /// Schedule slots consumed by `run_schedule` (steps + crash skips).
    ScheduleSlots,
    /// Effective steps (a running process actually stepped).
    EffectiveSteps,
    /// Null steps (the scheduled process had decided or halted).
    NullSteps,
    /// Slots consumed by crashed processes.
    CrashSkips,
    /// Steps whose memory operation was a read.
    OpReads,
    /// Steps whose memory operation was a write.
    OpWrites,
    /// Steps whose memory operation was an atomic snapshot.
    OpSnapshots,
    /// Steps with no memory operation.
    OpNone,
    /// Decide steps.
    Decisions,
    /// Failure-detector queries answered by the harness.
    FdQueries,
    /// Advice values written to shared advice variables.
    AdviceWrites,
    /// Advice values successfully read from shared advice variables.
    AdviceReads,
    /// Simulated steps applied by a simulation engine (Figure 2 / BG).
    SimulatedSteps,
    /// Consensus rounds resolved (ballot decided).
    ConsensusRounds,
    /// Consensus rounds aborted to a higher ballot.
    ConsensusAborts,
    /// Safe-agreement instances resolved (BG simulation rounds).
    SafeAgreementRounds,
    /// Distinct states the explorer visited.
    ExplorerStates,
    /// Visited-set hits (a state reached again via another schedule).
    ExplorerDedupeHits,
    /// `(plan, seed)` jobs evaluated by fault sweeps.
    SweepJobs,
    /// Violations found by fault sweeps.
    SweepViolations,
    /// Replays spent shrinking violations.
    ShrinkReplays,
    /// Messages sent by the simulated network runtime (requests + replies).
    NetMsgsSent,
    /// Messages delivered to a node's mailbox.
    NetMsgsDelivered,
    /// Messages dropped by links (partitions, crashed replicas, drop windows).
    NetMsgsDropped,
    /// Broadcast rounds re-sent after an incomplete quorum.
    NetRetransmits,
    /// Quorum-replicated register reads completed.
    NetQuorumReads,
    /// Quorum-replicated register writes completed.
    NetQuorumWrites,
    /// Replica crash events applied (volatile replicas lose their store).
    NetReplicaCrashes,
    /// Replicas restored to service after a completed re-sync.
    NetReplicaRecoveries,
    /// Re-sync attempts by recovering replicas (includes failed pulls).
    NetReplicaResyncs,
    /// Messages carried by the replica-to-replica re-sync protocol
    /// (also counted in `net_msgs_sent`/`net_msgs_delivered`).
    NetResyncMsgs,
    /// Phase-2 write-backs skipped. No ABD read skips its write-back, so
    /// this reads 0; it keeps its slot in the canonical snapshot layout.
    NetReadbackSkips,
    /// Quorum operations that exhausted their retransmission horizon and
    /// degraded to the linearized local view.
    NetQuorumLost,
    /// Degraded spells that closed: a circuit breaker's half-open probe
    /// found its quorum again, or a stale gossip replica's reads returned
    /// inside the staleness horizon (each emits one `Resolution`).
    NetDegradationsResolved,
    /// Messages sent by replica group (shard) 0 — subset of `net_msgs_sent`.
    NetShard0Msgs,
    /// Messages sent by replica group (shard) 1.
    NetShard1Msgs,
    /// Messages sent by replica group (shard) 2.
    NetShard2Msgs,
    /// Messages sent by replica group (shard) 3 — groups beyond the fourth
    /// fold into this counter.
    NetShard3Msgs,
    /// Messages whose checksum failed verification at arrival (in-flight
    /// corruption detected by the splitmix64 digest).
    NetCorruptMsgsDetected,
    /// Corrupt messages quarantined instead of delivered (retransmission
    /// recovers them; today every detected corruption is quarantined).
    NetCorruptMsgsQuarantined,
    /// Registers wiped by a partial flush on a `PrefixDurable` replica
    /// crash (the torn write-behind suffix).
    NetPartialFlushRegisters,
    /// Anti-entropy rounds run by the gossip backend (each round is one
    /// seeded circulant sweep of pairwise digest exchanges).
    NetGossipRounds,
    /// Lattice deltas shipped between gossip replicas (one per delta record
    /// carried by an exchange's payload messages).
    NetGossipDeltasSent,
    /// Lattice deltas that were *fresh* at the receiver and advanced its
    /// causal context (duplicates are received but not counted here).
    NetGossipDeltasApplied,
    /// Anti-entropy exchanges whose Merkle root digests matched — quiescent
    /// peers that synchronized in two messages with no delta payload.
    NetGossipDigestHits,
    /// Buffered delta dots garbage-collected after a peer's causal context
    /// acknowledged them.
    NetGossipGcDots,
    /// Gossip reads that returned a value older than the global join (the
    /// local replica had not yet merged the latest write).
    NetGossipStaleReads,
    /// Fault plans enumerated by the bounded plan search before pruning.
    SweepPlansGenerated,
    /// Fault plans skipped by dominance pruning / the plan budget.
    SweepPlansPruned,
    /// Fault plans actually evaluated by the sweep.
    SweepPlansRun,
}

/// All counters, in canonical export order.
pub const COUNTERS: [Counter; 50] = [
    Counter::ScheduleSlots,
    Counter::EffectiveSteps,
    Counter::NullSteps,
    Counter::CrashSkips,
    Counter::OpReads,
    Counter::OpWrites,
    Counter::OpSnapshots,
    Counter::OpNone,
    Counter::Decisions,
    Counter::FdQueries,
    Counter::AdviceWrites,
    Counter::AdviceReads,
    Counter::SimulatedSteps,
    Counter::ConsensusRounds,
    Counter::ConsensusAborts,
    Counter::SafeAgreementRounds,
    Counter::ExplorerStates,
    Counter::ExplorerDedupeHits,
    Counter::SweepJobs,
    Counter::SweepViolations,
    Counter::ShrinkReplays,
    Counter::NetMsgsSent,
    Counter::NetMsgsDelivered,
    Counter::NetMsgsDropped,
    Counter::NetRetransmits,
    Counter::NetQuorumReads,
    Counter::NetQuorumWrites,
    Counter::NetReplicaCrashes,
    Counter::NetReplicaRecoveries,
    Counter::NetReplicaResyncs,
    Counter::NetResyncMsgs,
    Counter::NetReadbackSkips,
    Counter::NetQuorumLost,
    Counter::NetDegradationsResolved,
    Counter::NetShard0Msgs,
    Counter::NetShard1Msgs,
    Counter::NetShard2Msgs,
    Counter::NetShard3Msgs,
    Counter::NetCorruptMsgsDetected,
    Counter::NetCorruptMsgsQuarantined,
    Counter::NetPartialFlushRegisters,
    Counter::NetGossipRounds,
    Counter::NetGossipDeltasSent,
    Counter::NetGossipDeltasApplied,
    Counter::NetGossipDigestHits,
    Counter::NetGossipGcDots,
    Counter::NetGossipStaleReads,
    Counter::SweepPlansGenerated,
    Counter::SweepPlansPruned,
    Counter::SweepPlansRun,
];

impl Counter {
    /// Stable snake_case name used in snapshots and exports.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::ScheduleSlots => "schedule_slots",
            Counter::EffectiveSteps => "effective_steps",
            Counter::NullSteps => "null_steps",
            Counter::CrashSkips => "crash_skips",
            Counter::OpReads => "op_reads",
            Counter::OpWrites => "op_writes",
            Counter::OpSnapshots => "op_snapshots",
            Counter::OpNone => "op_none",
            Counter::Decisions => "decisions",
            Counter::FdQueries => "fd_queries",
            Counter::AdviceWrites => "advice_writes",
            Counter::AdviceReads => "advice_reads",
            Counter::SimulatedSteps => "simulated_steps",
            Counter::ConsensusRounds => "consensus_rounds",
            Counter::ConsensusAborts => "consensus_aborts",
            Counter::SafeAgreementRounds => "safe_agreement_rounds",
            Counter::ExplorerStates => "explorer_states",
            Counter::ExplorerDedupeHits => "explorer_dedupe_hits",
            Counter::SweepJobs => "sweep_jobs",
            Counter::SweepViolations => "sweep_violations",
            Counter::ShrinkReplays => "shrink_replays",
            Counter::NetMsgsSent => "net_msgs_sent",
            Counter::NetMsgsDelivered => "net_msgs_delivered",
            Counter::NetMsgsDropped => "net_msgs_dropped",
            Counter::NetRetransmits => "net_retransmits",
            Counter::NetQuorumReads => "net_quorum_reads",
            Counter::NetQuorumWrites => "net_quorum_writes",
            Counter::NetReplicaCrashes => "net_replica_crashes",
            Counter::NetReplicaRecoveries => "net_replica_recoveries",
            Counter::NetReplicaResyncs => "net_replica_resyncs",
            Counter::NetResyncMsgs => "net_resync_msgs",
            Counter::NetReadbackSkips => "net_readback_skips",
            Counter::NetQuorumLost => "net_quorum_lost",
            Counter::NetDegradationsResolved => "net_degradations_resolved",
            Counter::NetShard0Msgs => "net_shard0_msgs",
            Counter::NetShard1Msgs => "net_shard1_msgs",
            Counter::NetShard2Msgs => "net_shard2_msgs",
            Counter::NetShard3Msgs => "net_shard3_msgs",
            Counter::NetCorruptMsgsDetected => "net_corrupt_msgs_detected",
            Counter::NetCorruptMsgsQuarantined => "net_corrupt_msgs_quarantined",
            Counter::NetPartialFlushRegisters => "net_partial_flush_registers",
            Counter::NetGossipRounds => "net_gossip_rounds",
            Counter::NetGossipDeltasSent => "net_gossip_deltas_sent",
            Counter::NetGossipDeltasApplied => "net_gossip_deltas_applied",
            Counter::NetGossipDigestHits => "net_gossip_digest_hits",
            Counter::NetGossipGcDots => "net_gossip_gc_dots",
            Counter::NetGossipStaleReads => "net_gossip_stale_reads",
            Counter::SweepPlansGenerated => "sweep_plans_generated",
            Counter::SweepPlansPruned => "sweep_plans_pruned",
            Counter::SweepPlansRun => "sweep_plans_run",
        }
    }

    /// The per-shard message counter for replica group `shard`; groups
    /// beyond the fourth fold into `net_shard3_msgs`.
    pub fn shard_msgs(shard: usize) -> Counter {
        match shard {
            0 => Counter::NetShard0Msgs,
            1 => Counter::NetShard1Msgs,
            2 => Counter::NetShard2Msgs,
            _ => Counter::NetShard3Msgs,
        }
    }

    /// The counter's slot in [`COUNTERS`] (declaration order is export
    /// order; a unit test pins that they agree).
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }
}

/// Log-scale (base-2 bucket) histograms the workspace records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HistKind {
    /// Recorded schedule length of each fault-sweep job (per-plan cost).
    PlanCost,
    /// Simulated-network latency (delivery time minus send time) of each
    /// completed quorum operation.
    QuorumLatency,
    /// Backend ticks each degraded spell lasted, observed at its
    /// resolution — the MTTR distribution soak reports aggregate.
    TimeToRecovery,
}

/// All histograms, in canonical export order.
pub const HISTS: [HistKind; 3] = [
    HistKind::PlanCost,
    HistKind::QuorumLatency,
    HistKind::TimeToRecovery,
];

/// Buckets per histogram: bucket `i` holds values whose bit length is `i`
/// (bucket 0 is exactly the value 0), so the largest `u64` lands in 64.
pub const HIST_BUCKETS: usize = 65;

impl HistKind {
    /// Stable snake_case name used in snapshots and exports.
    pub fn name(&self) -> &'static str {
        match self {
            HistKind::PlanCost => "plan_cost",
            HistKind::QuorumLatency => "quorum_latency",
            HistKind::TimeToRecovery => "time_to_recovery",
        }
    }

    /// The histogram's slot in [`HISTS`].
    fn index(&self) -> usize {
        *self as usize
    }
}

/// The log2 bucket of a value.
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive lower bound of bucket `i` (for display).
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Shared recording state: lock-free counters and histograms, plus an
/// optional mutex-guarded event ring.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; COUNTERS.len()],
    hists: Vec<[AtomicU64; HIST_BUCKETS]>,
    /// `false` for counters-only registries, whose ring retains nothing:
    /// `record` then returns before taking the lock.
    keeps_events: bool,
    events: Mutex<EventRing>,
}

impl Registry {
    fn new(event_cap: usize) -> Registry {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: (0..HISTS.len()).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
            keeps_events: event_cap > 0,
            events: Mutex::new(EventRing::new(event_cap)),
        }
    }
}

/// A cheaply clonable, possibly-disabled reference to a [`Registry`].
///
/// The default handle is disabled: every recording method is a single
/// `Option` branch. Enabled handles share one registry per `Arc`, so a
/// handle threaded through an `EfdRun` and its executor accumulates into
/// one place.
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<Arc<Registry>>);

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "MetricsHandle(disabled)"),
            Some(_) => write!(f, "MetricsHandle(enabled)"),
        }
    }
}

impl MetricsHandle {
    /// The zero-cost disabled handle.
    pub const fn disabled() -> MetricsHandle {
        MetricsHandle(None)
    }

    /// A fresh registry recording counters and histograms only (no events) —
    /// what a fault sweep records into.
    pub fn counters() -> MetricsHandle {
        MetricsHandle(Some(Arc::new(Registry::new(0))))
    }

    /// A fresh registry that also records up to `event_cap` events in a
    /// bounded ring.
    pub fn with_events(event_cap: usize) -> MetricsHandle {
        MetricsHandle(Some(Arc::new(Registry::new(event_cap))))
    }

    /// `true` iff both handles record into the same registry (or both are
    /// disabled).
    pub(crate) fn same_registry(&self, other: &MetricsHandle) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// `true` iff the registry retains events (`false` when disabled).
    pub(crate) fn keeps_events(&self) -> bool {
        self.0.as_ref().is_some_and(|r| r.keeps_events)
    }

    /// `true` iff recording is on.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1 to `c`.
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to `c`.
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.0 {
            r.counters[c.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `value` into histogram `h`.
    pub fn observe(&self, h: HistKind, value: u64) {
        if let Some(r) = &self.0 {
            r.hists[h.index()][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an event (no-op when disabled or the ring capacity is 0).
    pub fn record(&self, ev: ObsEvent) {
        if let Some(r) = self.0.as_ref().filter(|r| r.keeps_events) {
            let mut ring = r.events.lock().expect("event ring lock");
            ring.push(ev);
        }
    }

    /// The current value of `c` (0 when disabled), counting what this
    /// thread's live recording context has buffered (see [`crate::local`]).
    pub fn get(&self, c: Counter) -> u64 {
        crate::local::flush();
        match &self.0 {
            Some(r) => r.counters[c.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// The retained events in stable `(time, pid, seq)` order (empty when
    /// disabled).
    pub fn events(&self) -> Vec<ObsEvent> {
        match &self.0 {
            Some(r) => r.events.lock().expect("event ring lock").sorted(),
            None => Vec::new(),
        }
    }

    /// Events evicted by the ring bound.
    pub fn events_dropped(&self) -> u64 {
        match &self.0 {
            Some(r) => r.events.lock().expect("event ring lock").dropped(),
            None => 0,
        }
    }

    /// The canonical snapshot; `None` when disabled. Like [`Self::get`], it
    /// counts what this thread's live recording context has buffered.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let r = self.0.as_ref()?;
        crate::local::flush();
        let counters = COUNTERS
            .iter()
            .map(|c| (c.name().to_string(), r.counters[c.index()].load(Ordering::Relaxed)))
            .collect();
        let hists = HISTS
            .iter()
            .map(|h| {
                let buckets = r.hists[h.index()]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u64, n))
                    })
                    .collect();
                (h.name().to_string(), buckets)
            })
            .collect();
        Some(Snapshot { counters, hists })
    }
}

/// A point-in-time copy of a registry: counter values (every declared
/// counter, zeros included, in canonical order) and the nonzero histogram
/// buckets. The fixed shape is what makes snapshots byte-comparable.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` in canonical counter order.
    pub counters: Vec<(String, u64)>,
    /// `(name, [(bucket, count)...])` in canonical histogram order; only
    /// nonzero buckets appear.
    pub hists: Vec<(String, Vec<(u64, u64)>)>,
}

impl Snapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Adds every counter and bucket of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, buckets) in &other.hists {
            match self.hists.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    for (b, c) in buckets {
                        match mine.iter_mut().find(|(mb, _)| mb == b) {
                            Some((_, mc)) => *mc += c,
                            None => {
                                mine.push((*b, *c));
                                mine.sort_unstable();
                            }
                        }
                    }
                }
                None => self.hists.push((name.clone(), buckets.clone())),
            }
        }
    }

    /// Metrics whose values differ: `(name, self_value, other_value)`.
    /// Counters absent from one side compare as 0; histogram buckets diff
    /// individually as `name[bucket]`, so two snapshots are equal exactly
    /// when this is empty (`obs diff` exits nonzero on *any* drift, not just
    /// counter drift).
    pub fn diff(&self, other: &Snapshot) -> Vec<(String, u64, u64)> {
        let mut names: Vec<&String> = self.counters.iter().map(|(n, _)| n).collect();
        for (n, _) in &other.counters {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        let mut out: Vec<(String, u64, u64)> = names
            .into_iter()
            .filter_map(|n| {
                let a = self.counter(n).unwrap_or(0);
                let b = other.counter(n).unwrap_or(0);
                (a != b).then(|| (n.clone(), a, b))
            })
            .collect();
        let bucket = |snap: &Snapshot, name: &str, b: u64| -> u64 {
            snap.hists
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, buckets)| buckets.iter().find(|(bi, _)| *bi == b))
                .map_or(0, |(_, c)| *c)
        };
        let mut hist_names: Vec<&String> = self.hists.iter().map(|(n, _)| n).collect();
        for (n, _) in &other.hists {
            if !hist_names.contains(&n) {
                hist_names.push(n);
            }
        }
        for name in hist_names {
            let mut buckets: Vec<u64> = Vec::new();
            for snap in [self, other] {
                if let Some((_, bs)) = snap.hists.iter().find(|(n, _)| n == name) {
                    for (b, _) in bs {
                        if !buckets.contains(b) {
                            buckets.push(*b);
                        }
                    }
                }
            }
            buckets.sort_unstable();
            for b in buckets {
                let (a, o) = (bucket(self, name, b), bucket(other, name, b));
                if a != o {
                    out.push((format!("{name}[{b}]"), a, o));
                }
            }
        }
        out
    }

    /// Canonical serialization (key order is declaration order, so equal
    /// snapshots serialize to equal bytes).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters.iter().map(|(n, v)| (n.clone(), Json::Num(*v))).collect(),
                ),
            ),
            (
                "hists".into(),
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|(n, buckets)| {
                            (
                                n.clone(),
                                Json::Arr(
                                    buckets
                                        .iter()
                                        .map(|(b, c)| {
                                            Json::Arr(vec![Json::Num(*b), Json::Num(*c)])
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a snapshot serialized by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape mismatch.
    pub fn from_json(json: &Json) -> Result<Snapshot, String> {
        let counters_obj = json.get("counters").ok_or("snapshot lacks `counters`")?;
        let Json::Obj(fields) = counters_obj else {
            return Err("`counters` is not an object".into());
        };
        let mut counters = Vec::new();
        for (name, v) in fields {
            let n = v.num().ok_or_else(|| format!("counter `{name}` is not a number"))?;
            counters.push((name.clone(), n));
        }
        let mut hists = Vec::new();
        if let Some(Json::Obj(hfields)) = json.get("hists") {
            for (name, v) in hfields {
                let arr = v.arr().ok_or_else(|| format!("hist `{name}` is not an array"))?;
                let mut buckets = Vec::new();
                for pair in arr {
                    let p = pair.arr().filter(|p| p.len() == 2).ok_or("bad bucket pair")?;
                    buckets.push((
                        p[0].num().ok_or("bucket index is not a number")?,
                        p[1].num().ok_or("bucket count is not a number")?,
                    ));
                }
                hists.push((name.clone(), buckets));
            }
        }
        Ok(Snapshot { counters, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{seq, EventKind, Op};

    #[test]
    fn disabled_handle_records_nothing() {
        let h = MetricsHandle::disabled();
        h.bump(Counter::EffectiveSteps);
        h.observe(HistKind::PlanCost, 42);
        h.record(ObsEvent { time: 0, pid: 0, seq: 0, kind: EventKind::FdQuery });
        assert!(h.snapshot().is_none());
        assert!(h.events().is_empty());
        assert_eq!(h.get(Counter::EffectiveSteps), 0);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let h = MetricsHandle::counters();
        h.bump(Counter::FdQueries);
        h.add(Counter::FdQueries, 2);
        h.observe(HistKind::PlanCost, 0);
        h.observe(HistKind::PlanCost, 5);
        h.observe(HistKind::PlanCost, 7);
        let s = h.snapshot().expect("enabled");
        assert_eq!(s.counter("fd_queries"), Some(3));
        assert_eq!(s.counter("effective_steps"), Some(0));
        let (_, buckets) = &s.hists[0];
        // 0 → bucket 0; 5 and 7 → bucket 3 (values 4..8).
        assert_eq!(buckets, &vec![(0, 1), (3, 2)]);
    }

    #[test]
    fn indices_follow_declaration_order() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} is out of place in COUNTERS", c.name());
        }
        for (i, h) in HISTS.iter().enumerate() {
            assert_eq!(*h as usize, i, "{} is out of place in HISTS", h.name());
        }
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = MetricsHandle::counters();
        h.add(Counter::SweepJobs, 17);
        h.observe(HistKind::PlanCost, 130);
        let s = h.snapshot().unwrap();
        let parsed = Snapshot::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn merge_and_diff() {
        let a = MetricsHandle::counters();
        a.add(Counter::SweepJobs, 2);
        a.observe(HistKind::PlanCost, 3);
        let b = MetricsHandle::counters();
        b.add(Counter::SweepJobs, 5);
        b.bump(Counter::SweepViolations);
        b.observe(HistKind::PlanCost, 3);
        b.observe(HistKind::PlanCost, 100);
        let mut m = a.snapshot().unwrap();
        m.merge(&b.snapshot().unwrap());
        assert_eq!(m.counter("sweep_jobs"), Some(7));
        assert_eq!(m.counter("sweep_violations"), Some(1));
        let (_, buckets) = m.hists.iter().find(|(n, _)| n == "plan_cost").unwrap();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 3);

        let d = a.snapshot().unwrap().diff(&b.snapshot().unwrap());
        assert!(d.iter().any(|(n, x, y)| n == "sweep_jobs" && *x == 2 && *y == 5));
        assert!(a.snapshot().unwrap().diff(&a.snapshot().unwrap()).is_empty());
    }

    #[test]
    fn events_sort_by_stable_key() {
        let h = MetricsHandle::with_events(8);
        h.record(ObsEvent { time: 3, pid: 1, seq: seq::STEP, kind: EventKind::Step { op: Op::None, decided: false } });
        h.record(ObsEvent { time: 3, pid: 1, seq: seq::FD_QUERY, kind: EventKind::FdQuery });
        h.record(ObsEvent { time: 1, pid: 0, seq: seq::STEP, kind: EventKind::Step { op: Op::None, decided: true } });
        let evs = h.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].time, 1);
        assert_eq!(evs[1].kind, EventKind::FdQuery);
    }
}
