//! ABD-style quorum-replicated MWMR register emulation.
//!
//! Implements the kernel's [`MemoryBackend`] interface over the simulated
//! network: each replica holds a timestamped copy of every register, and
//! each logical operation is the classic two-phase majority protocol
//! [Attiya, Bar-Noy, Dolev, JACM 1995; multi-writer à la Lynch-Shvartsman]:
//!
//! * **read(key)** — phase 1 queries a majority for their `(tag, value)`
//!   and picks the maximum tag; phase 2 writes that pair back to a majority
//!   (the read must be ordered after the write it observed before
//!   returning).
//! * **write(key, v)** — phase 1 queries a majority for the maximum tag
//!   `(ts, _)`; phase 2 stores `((ts+1, writer), v)` at a majority.
//!
//! Tags are `(sequence, writer pid)` pairs ordered lexicographically, which
//! makes concurrent writers' tags unique and totally ordered. Any two
//! majorities intersect, so every phase-1 query sees the globally latest
//! completed write — that is the whole linearizability argument, and it
//! holds under message loss, corruption (quarantined like loss),
//! reordering (non-FIFO mode) and minority partitions.
//!
//! Because the kernel invokes one operation per schedule step and the
//! emulation completes it within the step, operations are sequential; the
//! emulation is then *observationally identical* to `SharedMemory` (each
//! read returns the last value written), which is what lets every algorithm
//! in the tree run unchanged over the network — and what the cross-backend
//! equivalence tests pin.
//!
//! **Replica failure.** [`crate::config::NetFault::CrashReplica`] and
//! [`crate::config::NetFault::RecoverReplica`] events crash and revive
//! individual replicas; a crashed replica's links are cut at the same
//! send+arrival points as partitions, and under
//! [`Durability::Volatile`] its store is wiped. A recovered replica refuses
//! to serve quorum rounds until a deterministic *re-sync* completes: it
//! pulls the `(tag, value)` state of every key from `quorum() − 1` peers
//! (its own copy completes the majority) over dedicated sync channels and
//! max-merges per key — after which any quorum intersecting it sees state
//! at least as fresh as every completed write, restoring the intersection
//! argument. The backend interleaves this maintenance between a stalled
//! operation's retransmission rounds, which is what makes recoveries that
//! land inside the horizon *creditable* in static plan analysis.
//!
//! **Quorum loss.** When a fault plan cuts a majority away for longer than
//! the exponential-backoff retransmission horizon, the operation cannot
//! complete; instead of panicking, the backend raises a typed, structured
//! [`Degradation`] through the [`MemoryBackend`] seam and serves the op
//! from its linearized view. While degraded, each op probes with a single
//! round (no retransmission schedule — keeping degraded runs cheap); the
//! first probe that finds a quorum ends the spell, and subsequent reads
//! lazily repair replica state that trails the view (write-back under a
//! fresh tag).

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use wfa_kernel::backend::{Degradation, DegradationKind, MemoryBackend, Resolution, ShardedBackend};
use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::value::{Pid, Value};
use wfa_obs::local as obs_local;
use wfa_obs::metrics::{Counter, HistKind};
use wfa_obs::span::{seq, EventKind, SpanKind};

use crate::config::{Durability, NetConfig, ShardMap};
use crate::retry::Breaker;
use crate::runtime::NetRuntime;
use crate::windows::ReplicaEvent;

/// A write tag: `(sequence number, writer pid)`, ordered lexicographically.
/// The derived `Ord` is exactly the ABD tag order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct Tag(u64, u64);

/// One replica's register store: tagged copies in a dense slot vector
/// indexed by the backend-wide register directory (`AbdBackend::dir`).
/// Registers are a small fixed set, so slot indexing replaces the per-op
/// tree walk of the former `BTreeMap` store on the hot path.
#[derive(Clone, Debug, Default)]
struct Store {
    slots: Vec<Option<(Tag, Value)>>,
}

impl Store {
    fn get(&self, kx: usize) -> Option<&(Tag, Value)> {
        self.slots.get(kx).and_then(Option::as_ref)
    }

    /// Installs `(tag, val)` at slot `kx` iff it beats the current copy
    /// (store requests are idempotent and ordered by tag, so duplicates and
    /// stale retransmissions are harmless).
    fn put_max(&mut self, kx: usize, tag: Tag, val: &Value) {
        if self.slots.len() <= kx {
            self.slots.resize(kx + 1, None);
        }
        match &self.slots[kx] {
            Some((t, _)) if *t >= tag => {}
            _ => self.slots[kx] = Some((tag, val.clone())),
        }
    }

    /// Wipes every copy (a volatile replica crash).
    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }

    /// Wipes the last `torn` occupied slots — the highest-indexed
    /// registers, i.e. the most recently interned ones: the write-behind
    /// suffix a partial flush never persisted. What survives is a *prefix*
    /// of the store's first-use order. Returns how many copies were lost.
    fn truncate_suffix(&mut self, torn: usize) -> usize {
        let mut wiped = 0;
        for s in self.slots.iter_mut().rev() {
            if wiped == torn {
                break;
            }
            if s.is_some() {
                *s = None;
                wiped += 1;
            }
        }
        wiped
    }

    /// `true` iff no slot holds a copy.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Number of slots holding a copy.
    fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Per-phase scratch buffers: where a phase leaves its quorum and its
/// delivered set for the op that ran it. Not state — every phase clears
/// them before use, no op reads them after the next phase starts, and they
/// are left out of the fingerprint. A clone starts empty. They exist so a
/// warm backend runs a healthy phase without allocating.
#[derive(Debug, Default)]
struct PhaseScratch {
    /// The current round's replies, `(arrival, node)` sorted by arrival.
    acks: Vec<(u64, usize)>,
    /// The replicas that accepted the current retransmission round.
    accepted: Vec<usize>,
    /// The completed phase's quorum, in reply order.
    quorum: Vec<usize>,
    /// Every replica that accepted the phase's request in any round.
    delivered: Vec<usize>,
}

impl Clone for PhaseScratch {
    fn clone(&self) -> PhaseScratch {
        PhaseScratch::default()
    }
}

/// The quorum-replicated register file. Drop-in [`MemoryBackend`]:
/// `Executor::set_backend(Box::new(AbdBackend::new(cfg)))` reroutes every
/// register operation of a run through the network.
#[derive(Clone, Debug)]
pub struct AbdBackend {
    net: NetRuntime,
    replicas: Vec<Store>,
    /// The register directory: maps each key ever addressed to its dense
    /// slot index, shared by every replica (a register occupies the same
    /// slot cluster-wide). Interning order is the op sequence's first-use
    /// order; fingerprints iterate this map so they stay key-canonical.
    dir: BTreeMap<RegKey, usize>,
    /// The linearized contents — what each operation's outcome agreed to.
    /// Serves [`MemoryBackend::view`]. Its remaining readers inside the
    /// backend are degraded reads (served from it), degraded writes
    /// (carried only by it), the lazy repair after a spell (which writes
    /// its value back to a quorum), and the debug self-check that a quorum
    /// read agrees with it while no spell ever happened.
    view: SharedMemory,
    /// Next unprocessed entry of the runtime's crash/recover timeline
    /// ([`crate::windows::FaultWindows::replica_events`]), which
    /// `maintain` applies once, in order.
    cursor: usize,
    /// Tick from which replica `n` serves quorum rounds: `0` from birth,
    /// `u64::MAX` barred (crashed, or recovered but awaiting re-sync), else
    /// the completion tick of its re-sync pull.
    serving_from: Vec<u64>,
    /// Replica recovered but its re-sync pull has not yet succeeded — the
    /// pull is retried at every maintenance point.
    unsynced: Vec<bool>,
    /// The per-shard circuit breaker. Open while a quorum-lost spell is in
    /// progress: ops serve the view and probe with a single half-open round
    /// until one finds a majority again, which closes it.
    breaker: Breaker,
    /// The tick at which the current spell's first degradation was raised —
    /// the anchor of the `time_to_recovery` sample emitted when the breaker
    /// closes. Observation-only: excluded from the fingerprint.
    spell_since: Option<u64>,
    /// Any spell ever happened — gates the lazy read repair and disarms
    /// the replicas-match-view self-check.
    ever_degraded: bool,
    /// Degradations raised but not yet drained by the executor. An
    /// observation stream like the trace: excluded from the fingerprint.
    pending: Vec<Degradation>,
    /// Resolutions (spell-closing edges) not yet drained by the executor.
    /// Observation stream, excluded from the fingerprint like `pending`.
    resolved: Vec<Resolution>,
    /// The last phase's quorum and delivered set (not state: excluded from
    /// the fingerprint).
    scratch: PhaseScratch,
}

impl AbdBackend {
    /// A backend over a fresh network with empty replicas.
    pub fn new(cfg: NetConfig) -> AbdBackend {
        let nodes = cfg.nodes;
        AbdBackend {
            net: NetRuntime::new(cfg),
            replicas: vec![Store::default(); nodes],
            dir: BTreeMap::new(),
            view: SharedMemory::new(),
            cursor: 0,
            serving_from: vec![0; nodes],
            unsynced: vec![false; nodes],
            breaker: Breaker::default(),
            spell_since: None,
            ever_degraded: false,
            pending: Vec::new(),
            resolved: Vec::new(),
            scratch: PhaseScratch::default(),
        }
    }

    /// The underlying network runtime (for inspection in tests/CLI).
    pub fn runtime(&self) -> &NetRuntime {
        &self.net
    }

    /// Applies every crash/recover event at or before tick `upto` and
    /// retries outstanding re-sync pulls. Called between an operation's
    /// retransmission rounds — a recovery landing while an op is stalled
    /// re-syncs mid-op and serves the later rounds, which is exactly what
    /// the static plan analysis credits via
    /// [`NetConfig::recovery_horizon`]. Fault-free runs take the empty
    /// fast path and send nothing.
    fn maintain(&mut self, upto: u64) {
        let pending = self.net.windows().replica_events().len();
        if self.cursor >= pending && !self.unsynced.iter().any(|u| *u) {
            return;
        }
        while let Some(&ReplicaEvent { at, node, crash }) =
            self.net.windows().replica_events().get(self.cursor).filter(|e| e.at <= upto)
        {
            self.cursor += 1;
            if crash {
                obs_local::bump(Counter::NetReplicaCrashes);
                self.serving_from[node] = u64::MAX;
                self.unsynced[node] = false;
                match self.net.config().durability {
                    // Volatile stores do not survive the crash.
                    Durability::Volatile => self.replicas[node].clear(),
                    Durability::Durable => {}
                    // Partial flush: tear off a seeded number (at most the
                    // flush horizon) of the most recently first-written
                    // registers — the suffix that never reached stable
                    // storage. The draw is a pure function of
                    // (seed, node, crash tick), so replays agree on it.
                    Durability::PrefixDurable(horizon) => {
                        let draw = crate::runtime::mix(
                            self.net.config().seed
                                ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                ^ at.wrapping_mul(0x517c_c1b7_2722_0a95),
                        );
                        let torn = (draw % (horizon + 1)) as usize;
                        let wiped = self.replicas[node].truncate_suffix(torn);
                        obs_local::add(Counter::NetPartialFlushRegisters, wiped as u64);
                    }
                }
            } else {
                obs_local::bump(Counter::NetReplicaRecoveries);
                self.unsynced[node] = true;
            }
        }
        // Re-sync pulls run under the `RetryPolicy::unbounded()` regime: no
        // budget and no extra backoff — maintenance points *are* the
        // schedule, and a missed pull simply waits for the next one.
        for node in 0..self.net.config().nodes {
            if self.unsynced[node] {
                self.resync(node, upto);
            }
        }
    }

    /// One re-sync attempt for recovered replica `node`, anchored at tick
    /// `at`: pull the tagged state of `quorum() − 1` peers and max-merge it
    /// per key, after which any majority through `node` again intersects
    /// every completed write. On success the replica serves from the pull's
    /// completion tick; on failure it stays barred for the next attempt.
    fn resync(&mut self, node: usize, at: u64) {
        let Some((peers, done)) = self.net.sync_round(node, at, &self.serving_from) else {
            return;
        };
        // Per-register timestamp audit against the pulled quorum−1 peers:
        // establish each slot's maximum peer tag, then repair every local
        // copy that is absent or trails it. Under `PrefixDurable` the
        // trailing copies are exactly the torn write-behind suffix (plus
        // writes missed while down); the repair happens *before*
        // `serving_from` is set, so a partially-flushed replica never acks
        // a quorum round while holding a stale suffix.
        let mut peak: BTreeMap<usize, (Tag, Value)> = BTreeMap::new();
        for p in &peers {
            for (kx, s) in self.replicas[*p].slots.iter().enumerate() {
                if let Some((t, v)) = s {
                    match peak.get(&kx) {
                        Some((pt, _)) if *pt >= *t => {}
                        _ => {
                            peak.insert(kx, (*t, v.clone()));
                        }
                    }
                }
            }
        }
        for (kx, (tag, val)) in &peak {
            self.replicas[node].put_max(*kx, *tag, val);
        }
        debug_assert!(
            peak.iter().all(|(kx, (t, _))| matches!(
                self.replicas[node].get(*kx),
                Some((lt, _)) if lt >= t
            )),
            "re-sync audit left replica {node} with a stale register"
        );
        self.serving_from[node] = done;
        self.unsynced[node] = false;
        obs_local::bump(Counter::NetReplicaResyncs);
        obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::ReplicaResync, dur: done - at });
    }

    /// Runs one protocol phase: broadcast rounds on the exponential-backoff
    /// schedule, with replica maintenance interleaved before each round,
    /// until a majority replies. Returns the completion tick, and leaves
    /// the quorum (in reply order) in `scratch.quorum` and the replicas
    /// that accepted the request in any round in `scratch.delivered`.
    ///
    /// # Errors
    ///
    /// When the retransmission horizon expires without a quorum the phase
    /// records a typed [`Degradation`] (kernel time `time`), enters the
    /// degraded spell, and returns `Err`. While degraded, phases probe with
    /// a single round; the first quorum found ends the spell.
    fn phase(&mut self, op: &str, key: RegKey, me: Pid, time: u64) -> Result<u64, ()> {
        let need = self.net.config().quorum();
        let start = self.net.now();
        // An open breaker caps the schedule at a single half-open probe.
        let policy = self.net.retry().with_budget(self.breaker.budget(self.net.config().max_rounds));
        let mut answered = 0;
        for round in 0..=policy.budget {
            if round > 0 {
                obs_local::bump(Counter::NetRetransmits);
            }
            let sent = policy.send_tick(start, round);
            self.maintain(sent);
            let scratch = &mut self.scratch;
            if round == 0 {
                // The first round's accepted set is the delivered set so far.
                self.net.round(sent, &self.serving_from, &mut scratch.acks, &mut scratch.delivered);
            } else {
                self.net.round(sent, &self.serving_from, &mut scratch.acks, &mut scratch.accepted);
                for node in &scratch.accepted {
                    if !scratch.delivered.contains(node) {
                        scratch.delivered.push(*node);
                    }
                }
            }
            if scratch.acks.len() >= need {
                let completion = scratch.acks[need - 1].0;
                scratch.quorum.clear();
                scratch.quorum.extend(scratch.acks[..need].iter().map(|(_, n)| *n));
                self.net.advance_to(completion);
                if self.breaker.close() {
                    // The half-open probe found its quorum: the spell is
                    // over. Emit the resolved edge with its MTTR sample.
                    let since = self.spell_since.take().unwrap_or(completion);
                    let ttr = completion.saturating_sub(since);
                    obs_local::bump(Counter::NetDegradationsResolved);
                    obs_local::observe(HistKind::TimeToRecovery, ttr);
                    obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::DegradedSpell, dur: ttr });
                    self.resolved.push(Resolution {
                        kind: DegradationKind::QuorumLost,
                        key,
                        pid: me,
                        time,
                        degrade_tick: since,
                        resolve_tick: completion,
                        shard: self.net.config().shard,
                    });
                }
                return Ok(completion);
            }
            answered = scratch.acks.len();
        }
        let horizon = policy.exhaustion_horizon(start);
        self.net.advance_to(horizon);
        obs_local::bump(Counter::NetQuorumLost);
        self.pending.push(Degradation {
            kind: DegradationKind::QuorumLost,
            op: op.to_string(),
            key,
            pid: me,
            time,
            tick: horizon,
            answered,
            needed: need,
            nodes: self.net.config().nodes,
            shard: self.net.config().shard,
        });
        if self.spell_since.is_none() {
            self.spell_since = Some(horizon);
        }
        self.breaker.trip();
        self.ever_degraded = true;
        Err(())
    }

    /// The dense slot index of `key`, interning it on first use.
    fn key_index(&mut self, key: RegKey) -> usize {
        let next = self.dir.len();
        *self.dir.entry(key).or_insert(next)
    }

    /// The maximum `(tag, value)` pair at slot `kx` across the quorum
    /// (`(Tag::default(), ⊥)` when no quorum member has a copy).
    fn collect_max(&self, quorum: &[usize], kx: usize) -> (Tag, Value) {
        quorum
            .iter()
            .filter_map(|n| self.replicas[*n].get(kx))
            .max_by_key(|(t, _)| *t)
            .cloned()
            .unwrap_or((Tag::default(), Value::Unit))
    }

    /// Stores `(tag, val)` at slot `kx` of every replica the last phase
    /// delivered to, keeping the per-replica maximum. A replica that crashed
    /// after accepting the request mid-phase lost the copy and is skipped.
    fn apply(&mut self, kx: usize, tag: Tag, val: &Value) {
        for n in &self.scratch.delivered {
            if self.serving_from[*n] == u64::MAX {
                continue;
            }
            self.replicas[*n].put_max(kx, tag, val);
        }
    }
}

/// Builds a register-space-sharded backend from `map`: one independent
/// [`AbdBackend`] cluster per replica group (each with its own quorum,
/// channels, delay stream, and crash/recovery state, derived from `base` by
/// [`ShardMap::config_for`]), routed per-op by `RegKey::shard_index` in the
/// kernel's [`ShardedBackend`] seam — shm callers are untouched.
pub fn sharded_backend(base: &NetConfig, map: &ShardMap) -> ShardedBackend {
    ShardedBackend::new(
        map.configs(base)
            .into_iter()
            .map(|cfg| Box::new(AbdBackend::new(cfg)) as Box<dyn MemoryBackend>)
            .collect(),
    )
}

impl MemoryBackend for AbdBackend {
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
        let kx = self.key_index(key);
        let start = self.net.now();
        // Phase 1: query a majority for the latest tagged copy.
        if self.phase("read", key, me, now).is_err() {
            // Degraded: the view is the linearized truth; serve it.
            return self.view.peek(key);
        }
        let (mut tag, mut val) = self.collect_max(&self.scratch.quorum, kx);
        // Lazy repair after a degraded spell: writes served while degraded
        // reached only the view, so a quorum value that trails it is
        // converged by writing the view's value back under a fresh tag.
        let repaired = self.ever_degraded && val != self.view.peek(key);
        if repaired {
            tag = Tag(tag.0 + 1, me.0 as u64);
            val = self.view.peek(key);
        }
        // Phase 2: write the observed pair back so the read is ordered
        // after the write it saw.
        let Ok(done) = self.phase("read-back", key, me, now) else {
            return self.view.peek(key);
        };
        self.apply(kx, tag, &val);
        obs_local::bump(Counter::NetQuorumReads);
        obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::QuorumOp, dur: done - start });
        obs_local::observe(HistKind::QuorumLatency, done - start);
        // Sequential ops ⇒ the quorum value is the linearized value (only
        // guaranteed while no spell ever interposed view-only writes).
        debug_assert!(
            self.ever_degraded || val == self.view.peek(key),
            "ABD read diverged from the linearized view"
        );
        val
    }

    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
        let kx = self.key_index(key);
        let start = self.net.now();
        // Phase 1: learn the maximum tag a majority has seen.
        if self.phase("write", key, me, now).is_err() {
            self.view.write(key, val); // degraded: the view carries the write
            return;
        }
        let (Tag(ts, _), _) = self.collect_max(&self.scratch.quorum, kx);
        let tag = Tag(ts + 1, me.0 as u64);
        // Phase 2: store the new tagged value at (at least) a majority.
        let Ok(done) = self.phase("write-store", key, me, now) else {
            self.view.write(key, val);
            return;
        };
        self.apply(kx, tag, &val);
        obs_local::bump(Counter::NetQuorumWrites);
        obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::QuorumOp, dur: done - start });
        obs_local::observe(HistKind::QuorumLatency, done - start);
        self.view.write(key, val);
    }

    fn view(&self) -> &SharedMemory {
        &self.view
    }

    fn drain_degradations(&mut self) -> Vec<Degradation> {
        std::mem::take(&mut self.pending)
    }

    fn drain_resolutions(&mut self) -> Vec<Resolution> {
        std::mem::take(&mut self.resolved)
    }

    fn clock(&self) -> Option<u64> {
        Some(self.net.now())
    }

    /// Whether a quorum-lost spell is open (the circuit breaker is open).
    fn is_degraded(&self) -> bool {
        self.breaker.is_open()
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.view.fingerprint(&mut h);
        self.net.hash(&mut h);
        // Iterating the directory keeps store hashing key-canonical (the
        // interning order itself is not behaviour-affecting).
        for store in &self.replicas {
            store.occupied().hash(&mut h);
            for (k, kx) in &self.dir {
                if let Some((t, v)) = store.get(*kx) {
                    k.hash(&mut h);
                    t.hash(&mut h);
                    v.hash(&mut h);
                }
            }
        }
        // Replica-failure machine state (`pending`, `resolved` and
        // `spell_since` are observation streams, like the trace, and
        // `scratch` holds per-phase buffers — all deliberately excluded).
        self.cursor.hash(&mut h);
        self.serving_from.hash(&mut h);
        self.unsynced.hash(&mut h);
        self.breaker.is_open().hash(&mut h);
        self.ever_degraded.hash(&mut h);
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        format!("abd(n={})", self.net.config().nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetFault;
    use wfa_obs::metrics::MetricsHandle;

    fn backend(nodes: usize, seed: u64) -> AbdBackend {
        AbdBackend::new(NetConfig::new(nodes, seed))
    }

    #[test]
    fn reads_see_the_latest_write_like_shared_memory() {
        let mut abd = backend(5, 7);
        let mut shm = SharedMemory::new();
        let keys = [RegKey::new(1), RegKey::new(1).at(0, 3), RegKey::new(2).at(1, 1)];
        for i in 0..60u64 {
            let key = keys[(i % 3) as usize];
            if i % 4 == 0 {
                let v = Value::Int(i as i64);
                abd.write(Pid((i % 5) as usize), i, key, v.clone());
                shm.write(key, v);
            } else {
                assert_eq!(abd.read(Pid((i % 5) as usize), i, key), shm.peek(key), "op {i}");
            }
        }
        assert_eq!(abd.view().content_fingerprint(), shm.content_fingerprint());
    }

    #[test]
    fn tags_grow_and_order_writers() {
        let mut abd = backend(3, 1);
        let key = RegKey::new(0);
        abd.write(Pid(0), 0, key, Value::Int(1));
        abd.write(Pid(2), 1, key, Value::Int(2));
        let (tag, val) = abd.collect_max(&[0, 1, 2], abd.dir[&key]);
        assert_eq!(tag, Tag(2, 2));
        assert_eq!(val, Value::Int(2));
    }

    #[test]
    fn unwritten_registers_read_bottom() {
        let mut abd = backend(3, 9);
        assert_eq!(abd.read(Pid(0), 0, RegKey::new(9)), Value::Unit);
    }

    #[test]
    fn operations_survive_a_minority_partition() {
        let cfg = NetConfig::new(5, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![3, 4] });
        let mut abd = AbdBackend::new(cfg);
        let key = RegKey::new(4);
        abd.write(Pid(1), 0, key, Value::Int(77));
        assert_eq!(abd.read(Pid(0), 1, key), Value::Int(77));
        // The isolated replicas never saw the write.
        assert!(abd.replicas[3].is_empty() && abd.replicas[4].is_empty());
    }

    #[test]
    fn majority_partition_degrades_to_a_typed_outcome() {
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1] });
        let mut abd = AbdBackend::new(cfg);
        abd.write(Pid(0), 5, RegKey::new(0), Value::Int(1));
        // The write was served from the view and a structured degradation
        // raised through the seam instead of a panic.
        assert!(abd.is_degraded());
        assert_eq!(abd.view().peek(RegKey::new(0)), Value::Int(1));
        let raised = abd.drain_degradations();
        assert_eq!(raised.len(), 1);
        let d = &raised[0];
        assert_eq!((d.op.as_str(), d.pid, d.time), ("write", Pid(0), 5));
        assert_eq!((d.answered, d.needed, d.nodes), (1, 2, 3), "only replica 2 answered");
        assert!(d.to_string().starts_with("quorum-lost: op=write"), "got {d}");
        assert!(abd.drain_degradations().is_empty(), "drain empties the stream");
        // Degraded reads serve the view.
        assert_eq!(abd.read(Pid(1), 6, RegKey::new(0)), Value::Int(1));
    }

    #[test]
    fn degraded_spell_ends_and_reads_repair_the_replicas() {
        // Majority cut until far past the retransmission horizon: the
        // first write degrades, follow-up ops probe (one round each) until
        // the heal lands, and the first post-heal read lazily converges
        // the replicas to the view.
        let obs = MetricsHandle::counters();
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1] })
            .with_fault(NetFault::Heal { at: 100 });
        let mut abd = AbdBackend::new(cfg);
        let key = RegKey::new(0);
        {
            let _g = obs_local::enter(&obs, 0, 0);
            abd.write(Pid(0), 0, key, Value::Int(1));
            assert!(abd.is_degraded());
            let mut reads = 0;
            while abd.is_degraded() {
                assert_eq!(abd.read(Pid(1), 1, key), Value::Int(1), "view serves the spell");
                reads += 1;
                assert!(reads < 32, "probe never found the healed majority");
            }
        }
        assert!(!abd.drain_degradations().is_empty());
        // The breaker-closing probe emitted exactly one resolved edge,
        // with an MTTR sample spanning the whole spell.
        let resolved = abd.drain_resolutions();
        assert_eq!(resolved.len(), 1, "one spell, one resolution");
        let r = &resolved[0];
        assert_eq!(r.kind, DegradationKind::QuorumLost);
        assert!(r.degrade_tick < r.resolve_tick, "the spell has positive extent");
        assert!(r.resolve_tick >= 100, "only the heal can close the spell");
        assert_eq!(r.time_to_recovery(), r.resolve_tick - r.degrade_tick);
        assert!(abd.drain_resolutions().is_empty(), "drain empties the stream");
        assert_eq!(obs.get(Counter::NetDegradationsResolved), 1);
        let snap = obs.snapshot().unwrap();
        assert!(snap.hists.iter().any(|(n, b)| n == "time_to_recovery" && !b.is_empty()));
        // The repair wrote the view's value back under a fresh tag.
        let (tag, val) = abd.collect_max(&[0, 1, 2], abd.dir[&key]);
        assert_eq!((val, tag.1), (Value::Int(1), 1), "repaired under the reader's tag");
        assert_eq!(abd.read(Pid(0), 2, key), Value::Int(1));
    }

    #[test]
    fn crashed_replica_resyncs_before_serving_again() {
        let obs = MetricsHandle::counters();
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::CrashReplica { at: 1, node: 2 })
            .with_fault(NetFault::RecoverReplica { at: 40, node: 2 });
        let mut abd = AbdBackend::new(cfg);
        let key = RegKey::new(0);
        {
            let _g = obs_local::enter(&obs, 0, 0);
            abd.write(Pid(0), 0, key, Value::Int(7)); // replica 2 already down
            while abd.runtime().now() < 40 {
                abd.read(Pid(1), 1, key); // advance past the recovery
            }
            abd.write(Pid(0), 2, key, Value::Int(9)); // maintain() re-syncs first
            assert_eq!(abd.read(Pid(1), 3, key), Value::Int(9));
        }
        assert!(abd.drain_degradations().is_empty(), "minority crash never degrades");
        assert_eq!(obs.get(Counter::NetReplicaCrashes), 1);
        assert_eq!(obs.get(Counter::NetReplicaRecoveries), 1);
        assert_eq!(obs.get(Counter::NetReplicaResyncs), 1);
        assert!(obs.get(Counter::NetResyncMsgs) >= 4, "pull = 2 peers × req+rep");
        // The re-sync restored the wiped store from the surviving majority.
        assert!(!abd.replicas[2].is_empty(), "re-sync restored the wiped store");
    }

    #[test]
    fn durable_replicas_keep_their_store_across_a_crash() {
        let crash_then = |durability: Durability| {
            let mut cfg = NetConfig::new(3, 7)
                .with_fault(NetFault::CrashReplica { at: 30, node: 2 });
            cfg.durability = durability;
            let mut abd = AbdBackend::new(cfg);
            let key = RegKey::new(0);
            abd.write(Pid(0), 0, key, Value::Int(5));
            while abd.runtime().now() <= 30 {
                abd.read(Pid(1), 1, key); // cross the crash tick
            }
            abd.read(Pid(1), 2, key); // a maintenance point past the crash
            abd.dir.get(&key).and_then(|kx| abd.replicas[2].get(*kx)).cloned()
        };
        assert_eq!(crash_then(Durability::Volatile), None, "volatile stores are wiped");
        assert!(crash_then(Durability::Durable).is_some(), "durable stores survive");
        // A zero flush horizon tears nothing: prefix-durability degenerates
        // to full durability.
        assert!(crash_then(Durability::PrefixDurable(0)).is_some());
    }

    #[test]
    fn prefix_durable_crash_tears_the_write_behind_suffix() {
        let obs = MetricsHandle::counters();
        let horizon = 8; // below the key count, so a prefix must survive
        let mut cfg = NetConfig::new(3, 7).with_fault(NetFault::CrashReplica { at: 200, node: 2 });
        cfg.durability = Durability::PrefixDurable(horizon);
        let mut abd = AbdBackend::new(cfg);
        let keys: Vec<RegKey> = (0..12u32).map(|a| RegKey::new(0).at(0, a)).collect();
        let wiped = {
            let _g = obs_local::enter(&obs, 0, 0);
            for (i, key) in keys.iter().enumerate() {
                abd.write(Pid(0), i as u64, *key, Value::Int(i as i64));
            }
            let before = abd.replicas[2].occupied();
            assert_eq!(before, keys.len(), "healthy rounds reached every replica");
            while abd.runtime().now() <= 200 {
                abd.read(Pid(1), 99, keys[0]); // cross the crash tick
            }
            abd.read(Pid(1), 100, keys[0]); // a maintenance point past it
            before - abd.replicas[2].occupied()
        };
        assert!(wiped > 0, "the seeded draw must tear a nonempty suffix");
        assert!(wiped < keys.len(), "but keep a nonempty prefix");
        assert_eq!(obs.get(Counter::NetPartialFlushRegisters), wiped as u64);
        // What survives is a *prefix* of the interning order: every
        // occupied slot sits below every wiped one.
        let slots = &abd.replicas[2].slots;
        let cut = keys.len() - wiped;
        assert!(slots[..cut].iter().all(Option::is_some), "prefix survives");
        assert!(slots[cut..].iter().all(Option::is_none), "suffix is torn");
    }

    #[test]
    fn prefix_durable_resync_repairs_the_stale_suffix_before_serving() {
        let mut cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::CrashReplica { at: 200, node: 2 })
            .with_fault(NetFault::RecoverReplica { at: 260, node: 2 });
        cfg.durability = Durability::PrefixDurable(64);
        let mut abd = AbdBackend::new(cfg);
        let keys: Vec<RegKey> = (0..12u32).map(|a| RegKey::new(0).at(0, a)).collect();
        for (i, key) in keys.iter().enumerate() {
            abd.write(Pid(0), i as u64, *key, Value::Int(i as i64));
        }
        while abd.runtime().now() <= 260 {
            abd.read(Pid(1), 99, keys[0]); // cross crash and recovery
        }
        abd.read(Pid(1), 100, keys[0]); // maintenance re-syncs replica 2
        assert!(abd.drain_degradations().is_empty(), "minority crash never degrades");
        assert_ne!(abd.serving_from[2], u64::MAX, "the re-sync completed");
        // The per-register audit repaired the torn suffix from the peers:
        // replica 2 now dominates the peer maximum on every register.
        for key in &keys {
            let kx = abd.dir[key];
            let (peer_tag, peer_val) = abd.collect_max(&[0, 1], kx);
            let (t, v) = abd.replicas[2].get(kx).expect("no register left stale");
            assert!(*t >= peer_tag, "slot {kx} still trails the peers");
            if *t == peer_tag {
                assert_eq!(v, &peer_val);
            }
        }
    }

    #[test]
    fn degradations_carry_their_shard_tag() {
        let mut cfg =
            NetConfig::new(3, 7).with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1] });
        cfg.shard = 2;
        let mut abd = AbdBackend::new(cfg);
        abd.write(Pid(0), 5, RegKey::new(0), Value::Int(1));
        let raised = abd.drain_degradations();
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].shard, 2);
        assert!(raised[0].to_string().ends_with("shard=2"), "got {}", raised[0]);
    }

    #[test]
    fn quorum_loss_in_one_shard_leaves_the_others_serving() {
        // Group 1's majority is cut; group 0 is healthy. Built directly
        // (not via `sharded_backend`) because `ShardMap::config_for`
        // replicates faults across groups and this test needs asymmetry.
        let obs = MetricsHandle::counters();
        let shards = 2;
        let healthy_cfg = {
            let mut c = NetConfig::new(3, 11);
            c.shard = 0;
            c
        };
        let faulted_cfg = {
            let mut c =
                NetConfig::new(3, 11).with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1] });
            c.shard = 1;
            c
        };
        let mut sharded = ShardedBackend::new(vec![
            Box::new(AbdBackend::new(healthy_cfg)) as Box<dyn MemoryBackend>,
            Box::new(AbdBackend::new(faulted_cfg)) as Box<dyn MemoryBackend>,
        ]);
        let mut key_for: Vec<Option<RegKey>> = vec![None; shards];
        for a in 0..64u32 {
            let k = RegKey::new(0).at(0, a);
            key_for[k.shard_index(shards)].get_or_insert(k);
        }
        let (k0, k1) = (key_for[0].unwrap(), key_for[1].unwrap());
        {
            let _g = obs_local::enter(&obs, 0, 0);
            sharded.write(Pid(0), 0, k1, Value::Int(10)); // degrades group 1
            sharded.write(Pid(0), 1, k0, Value::Int(20)); // group 0 unaffected
            assert_eq!(sharded.read(Pid(1), 2, k1), Value::Int(10), "degraded group serves its view");
            assert_eq!(sharded.read(Pid(1), 3, k0), Value::Int(20));
        }
        // Only group 1's key range degraded, and every raised degradation
        // names it (the degraded group's later probes may raise more).
        assert!(obs.get(Counter::NetQuorumLost) >= 1);
        let drained = sharded.drain_degradations();
        assert!(!drained.is_empty());
        assert!(drained.iter().all(|d| d.shard == 1), "only group 1 degrades: {drained:?}");
        // Group 0 kept paying (and completing) real quorum rounds.
        assert!(obs.get(Counter::NetShard0Msgs) > 0);
    }

    #[test]
    fn recovery_during_a_stalled_op_completes_it() {
        // Both minority replicas crash at 0 and recover inside the
        // recovery horizon: the stalled write's maintenance re-syncs them
        // between rounds and a later round finds its quorum — the exact
        // dynamics the static plan credit relies on.
        let rh = NetConfig::new(3, 7).recovery_horizon();
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::CrashReplica { at: 0, node: 0 })
            .with_fault(NetFault::CrashReplica { at: 0, node: 1 })
            .with_fault(NetFault::RecoverReplica { at: rh, node: 0 })
            .with_fault(NetFault::RecoverReplica { at: rh, node: 1 });
        let mut abd = AbdBackend::new(cfg);
        let key = RegKey::new(0);
        abd.write(Pid(0), 0, key, Value::Int(3));
        assert!(!abd.is_degraded());
        assert!(abd.drain_degradations().is_empty(), "credited recovery must not degrade");
        assert_eq!(abd.read(Pid(1), 1, key), Value::Int(3));
    }

    #[test]
    fn backend_is_deterministic_and_forks() {
        let run = |ops: usize| {
            let mut abd = backend(5, 11);
            for i in 0..ops as u64 {
                abd.write(Pid(0), i, RegKey::new(0).at(0, (i % 4) as u32), Value::Int(i as i64));
            }
            let mut h = std::collections::hash_map::DefaultHasher::new();
            MemoryBackend::fingerprint(&abd, &mut h);
            h.finish()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));

        // Forking: a cloned backend evolves independently.
        let mut a = backend(3, 2);
        a.write(Pid(0), 0, RegKey::new(0), Value::Int(1));
        let mut b: Box<dyn MemoryBackend> = a.clone_backend();
        b.write(Pid(1), 1, RegKey::new(0), Value::Int(2));
        assert_eq!(a.read(Pid(0), 2, RegKey::new(0)), Value::Int(1));
        assert_eq!(b.read(Pid(0), 2, RegKey::new(0)), Value::Int(2));
    }

    #[test]
    fn counters_cover_the_message_flow() {
        let obs = MetricsHandle::counters();
        let mut abd = backend(3, 5);
        {
            let _g = obs_local::enter(&obs, 0, 0);
            abd.write(Pid(0), 0, RegKey::new(0), Value::Int(4));
            abd.read(Pid(1), 1, RegKey::new(0));
        }
        assert_eq!(obs.get(Counter::NetQuorumWrites), 1);
        assert_eq!(obs.get(Counter::NetQuorumReads), 1);
        // 2 ops × 2 phases × 3 replicas × request+reply = 24 messages.
        assert_eq!(obs.get(Counter::NetMsgsSent), 24);
        assert_eq!(obs.get(Counter::NetMsgsDelivered), 24);
        // Unsharded traffic is attributed to replica group 0.
        assert_eq!(obs.get(Counter::NetShard0Msgs), 24);
        let snap = obs.snapshot().unwrap();
        assert!(snap.hists.iter().any(|(n, b)| n == "quorum_latency" && !b.is_empty()));
    }

    #[test]
    fn sharded_backend_routes_disjoint_groups() {
        let obs = MetricsHandle::counters();
        let map = ShardMap::new(2, 3);
        let mut sharded = sharded_backend(&NetConfig::new(6, 11), &map);
        let keys: Vec<RegKey> = (0..16u32).map(|a| RegKey::new(1).at(0, a)).collect();
        {
            let _g = obs_local::enter(&obs, 0, 0);
            for (i, key) in keys.iter().enumerate() {
                sharded.write(Pid(0), i as u64, *key, Value::Int(i as i64));
            }
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(sharded.read(Pid(1), 99, *key), Value::Int(i as i64));
            }
        }
        // Both groups carried traffic, attributed to their own counters,
        // and the totals add up.
        let (s0, s1) = (obs.get(Counter::NetShard0Msgs), obs.get(Counter::NetShard1Msgs));
        assert!(s0 > 0 && s1 > 0, "a 16-key population reaches both groups");
        assert_eq!(s0 + s1, obs.get(Counter::NetMsgsSent));
        // Each op pays a 3-replica round (12 msgs/op), not a 6-replica one.
        assert_eq!(obs.get(Counter::NetMsgsSent), 32 * 12);
    }
}
