//! The gossip register backend: delta-CRDT anti-entropy over the simulated
//! network.
//!
//! Implements the kernel's [`MemoryBackend`] interface as an
//! *eventually-consistent* advice substrate — the third backend after
//! in-process `SharedMemory` and the ABD quorum emulation:
//!
//! * **write(key, v)** — minted as a delta (a globally-sequenced lattice
//!   [`Entry`] tagged with a [`Dot`]) at the key's *home replica*
//!   (`key.shard_index(nodes)`, falling past crashed nodes), merged locally,
//!   and owed to every peer through per-peer delta buffers. **Zero
//!   messages** at op time.
//! * **read(key)** — the home replica's local join. **Zero quorum
//!   round-trips**: no message is sent on the op path; freshness comes from
//!   the anti-entropy rounds running between ops.
//!
//! **Anti-entropy.** Every [`GossipConfig::interval`] ops the backend runs
//! one round: a seeded circulant sweep where replica `i` exchanges with
//! `(i + offset) % n` (every third round pins `offset = 1`, so a ring —
//! which propagates every delta hop-by-hop in at most `n` ring rounds —
//! recurs on a bounded schedule; the other rounds draw the offset from the
//! splitmix stream for mixing). One exchange is up to four messages over
//! [`NetRuntime::peer_send`]:
//!
//! 1. `i → p`: Merkle digest root + causal context (version vector).
//! 2. `p → i`: the same back. Equal roots and contexts — the quiescent
//!    case — end the exchange here: two messages, O(1), regardless of how
//!    many registers exist (`net_gossip_digest_hits`).
//! 3. `i → p`: the buffered deltas `p`'s context lacks.
//! 4. `p → i`: the converse batch, doubling as the ack that lets `i` GC its
//!    buffer (`net_gossip_gc_dots`).
//!
//! Context receipt is the only GC evidence, so a dropped leg merely leaves
//! buffers intact for the next round — at-least-once delivery composed with
//! idempotent joins needs nothing stronger. Every fault the runtime models
//! (partitions, drops, crash windows, corruption quarantine) applies to
//! exchange messages exactly as to quorum traffic.
//!
//! **Staleness, typed.** A read that returns a value behind the global join
//! is *stale advice* — counted, and escalated to a structured
//! [`DegradationKind::AdviceStale`] (never a panic) once the serving
//! replica has gone more than [`GossipConfig::stale_horizon`] rounds
//! without a successful exchange, or the key's preferred home has been
//! crashed for that long. Advice is stale, never wrong: the substrate is
//! correct for the monotone advice/FD register class, and a runtime guard
//! refuses the one non-monotone transition the kernel's registers allow —
//! erasing a register by writing `⊥` over a value — unless
//! [`GossipConfig::allow_nonmonotone`] (CLI `--gossip-unsafe`) accepts it.
//!
//! **Crash and recovery.** Under a non-`Durable` [`Durability`] a crashed
//! replica loses its store and context (the gossip store has no
//! partial-flush model — the mint log is write-ahead, so
//! `PrefixDurable` wipes like `Volatile`). On recovery it self-heals its
//! own-origin deltas from the log and the peers' buffers are refilled with
//! everything they hold, so anti-entropy restores the rest; deltas whose
//! origin crashed before any exchange stay unreachable until that origin
//! recovers — reads of those keys degrade (stale), they never lie.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use wfa_kernel::backend::{Degradation, DegradationKind, MemoryBackend, Resolution};
use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::value::{Pid, Value};
use wfa_net::config::{Durability, NetFault};
use wfa_net::retry::probe_healthy;
use wfa_net::runtime::{mix, NetRuntime};
use wfa_obs::local as obs_local;
use wfa_obs::metrics::{Counter, HistKind};
use wfa_obs::span::{seq, EventKind, SpanKind};

use crate::config::GossipConfig;
use crate::store::{DeltaRec, Dot, Entry, ReplicaStore};

/// Salt for the per-round partner-offset draw.
const OFFSET_SALT: u64 = 0xa24b_aed4_963e_e407;

/// The delta-CRDT anti-entropy register file. Drop-in [`MemoryBackend`]:
/// `Executor::set_backend(Box::new(GossipBackend::new(cfg)))` serves every
/// register operation from replica-local joins, with anti-entropy rounds
/// interleaved between ops.
#[derive(Clone, Debug)]
pub struct GossipBackend {
    cfg: GossipConfig,
    net: NetRuntime,
    /// The register directory: key → dense slot index, cluster-wide (same
    /// interning discipline as the ABD backend).
    dir: BTreeMap<RegKey, usize>,
    /// Per-replica delta-states.
    replicas: Vec<ReplicaStore>,
    /// Per-replica cached Merkle digest root and the slot count it was built
    /// over; `None` once a fresh merge or a crash wipe changes the replica's
    /// slots. A real replica keeps its root current the same way. Derived
    /// from `replicas`: excluded from the fingerprint.
    roots: Vec<Option<(usize, u64)>>,
    /// The write-ahead delta log: every delta ever minted, in mint order.
    /// Durable by definition (it is the write path's record), it feeds
    /// recovery self-heals and crash-refills of peer buffers.
    log: Vec<DeltaRec>,
    /// Next dot index to mint per origin (lives here, not in the replica,
    /// so a wiped replica never forks its mint order).
    next_dot: Vec<u64>,
    /// Global write sequence: stamps entries so every register lattice is a
    /// chain and the global join equals the linearized contents.
    wseq: u64,
    /// `buf[r][p]`: log indices replica `r` owes peer `p`, in merge order
    /// (per-origin contiguous). Filled on every fresh merge at `r`
    /// (transitive fan-out — what makes ring rounds propagate hop-by-hop),
    /// trimmed only by delivered-context evidence.
    buf: Vec<Vec<Vec<usize>>>,
    /// Anti-entropy rounds run so far.
    rounds: u64,
    /// Ops since the last round (compared against the interval).
    ops_since_round: u64,
    /// Round number of each replica's last completed exchange half.
    last_success: Vec<u64>,
    /// The crash/recover timeline `(tick, node, is_crash)` sorted by tick,
    /// processed once in order by `maintain` (the ABD discipline).
    events: Vec<(u64, usize, bool)>,
    /// Next unprocessed entry of `events`.
    cursor: usize,
    /// Replica is currently crashed (its exchanges are skipped and
    /// `home_of` probes past it).
    crashed: Vec<bool>,
    /// Round count at each replica's most recent crash (drives the
    /// crashed-home staleness horizon).
    crash_round: Vec<u64>,
    /// Rate limit: the round in which each replica last raised an
    /// `AdviceStale` degradation (one per replica per round).
    last_degraded_round: Vec<u64>,
    /// Per *preferred* home: the tick at which the current stale-advice
    /// spell for keys homed there first degraded, `None` when healthy. The
    /// anchor of the MTTR sample emitted when a read of such a key comes
    /// back fresh (or its lag drops back under the horizon).
    /// Observation-only: excluded from the fingerprint.
    stale_since: Vec<Option<u64>>,
    /// The global join — equal to the linearized contents because writes
    /// are globally sequenced. Serves [`MemoryBackend::view`] and the
    /// staleness comparison.
    view: SharedMemory,
    /// Degradations raised but not yet drained. An observation stream:
    /// excluded from the fingerprint.
    pending: Vec<Degradation>,
    /// Resolutions (spell-closing edges) not yet drained. An observation
    /// stream like `pending`: excluded from the fingerprint.
    resolved: Vec<Resolution>,
}

impl GossipBackend {
    /// A backend over a fresh network with empty replicas.
    pub fn new(cfg: GossipConfig) -> GossipBackend {
        let mut events: Vec<(u64, usize, bool)> = cfg
            .net
            .faults
            .iter()
            .filter_map(|f| match f {
                NetFault::CrashReplica { at, node } => Some((*at, *node, true)),
                NetFault::RecoverReplica { at, node } => Some((*at, *node, false)),
                _ => None,
            })
            .collect();
        events.sort_by_key(|e| e.0);
        let n = cfg.net.nodes;
        GossipBackend {
            net: NetRuntime::new(cfg.net.clone()),
            cfg,
            dir: BTreeMap::new(),
            replicas: (0..n).map(|_| ReplicaStore::new(n)).collect(),
            roots: vec![None; n],
            log: Vec::new(),
            next_dot: vec![0; n],
            wseq: 0,
            buf: vec![vec![Vec::new(); n]; n],
            rounds: 0,
            ops_since_round: 0,
            last_success: vec![0; n],
            events,
            cursor: 0,
            crashed: vec![false; n],
            crash_round: vec![0; n],
            last_degraded_round: vec![u64::MAX; n],
            stale_since: vec![None; n],
            view: SharedMemory::new(),
            pending: Vec::new(),
            resolved: Vec::new(),
        }
    }

    /// The configuration this backend replays.
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// The underlying network runtime (for inspection in tests/CLI).
    pub fn runtime(&self) -> &NetRuntime {
        &self.net
    }

    /// Anti-entropy rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Messages sent on the simulated network so far.
    pub fn messages_sent(&self) -> u64 {
        self.net.messages_sent()
    }

    /// The global join of every minted delta — identical to the linearized
    /// register contents (an alias of [`MemoryBackend::view`] under the
    /// oracle's name).
    pub fn global_join(&self) -> &SharedMemory {
        &self.view
    }

    /// Total log indices still parked in per-peer delta buffers (the GC
    /// oracle: a converged, acked cluster owes nothing).
    pub fn buffered_dots(&self) -> usize {
        self.buf.iter().flatten().map(Vec::len).sum()
    }

    /// Replica count.
    fn nodes(&self) -> usize {
        self.cfg.net.nodes
    }

    /// The dense slot index of `key`, interning it on first use. Interning
    /// resizes every replica's slot array, so stores stay directly
    /// comparable (the convergence oracle relies on uniform lengths).
    fn key_index(&mut self, key: RegKey) -> usize {
        let next = self.dir.len();
        let kx = *self.dir.entry(key).or_insert(next);
        let len = self.dir.len();
        for r in &mut self.replicas {
            r.ensure_slots(len);
        }
        kx
    }

    /// The replica serving `key`: its pure-routed home
    /// (`key.shard_index(nodes)`), probing linearly past crashed replicas.
    /// Falls back to the preferred home if every replica is down.
    fn home_of(&self, key: RegKey) -> usize {
        probe_healthy(key.shard_index(self.nodes()), self.nodes(), |r| !self.crashed[r])
    }

    /// Merges log record `idx` into replica `r`; on a fresh merge, fans the
    /// index out into every peer buffer (transitive propagation). Returns
    /// whether the merge was fresh.
    fn merge_at(&mut self, r: usize, idx: usize) -> bool {
        let rec = self.log[idx].clone();
        if !self.replicas[r].merge(&rec) {
            return false;
        }
        self.roots[r] = None;
        for q in 0..self.nodes() {
            if q != r && !self.buf[r][q].contains(&idx) {
                self.buf[r][q].push(idx);
            }
        }
        true
    }

    /// Drops from `buf[holder][peer]` every record `peer`'s delivered
    /// context `acked` already covers — the ack-driven GC.
    fn gc(&mut self, holder: usize, peer: usize, acked: &[u64]) {
        let log = &self.log;
        let b = &mut self.buf[holder][peer];
        let before = b.len();
        b.retain(|idx| log[*idx].dot.index > acked[log[*idx].dot.origin]);
        obs_local::add(Counter::NetGossipGcDots, (before - b.len()) as u64);
    }

    /// Applies every crash/recover event at or before tick `upto` (the ABD
    /// maintenance discipline: latest-event-wins timelines, processed once,
    /// in order). Fault-free runs take the empty fast path.
    fn maintain(&mut self, upto: u64) {
        while self.cursor < self.events.len() && self.events[self.cursor].0 <= upto {
            let (_, node, is_crash) = self.events[self.cursor];
            self.cursor += 1;
            if is_crash {
                obs_local::bump(Counter::NetReplicaCrashes);
                self.crashed[node] = true;
                self.crash_round[node] = self.rounds;
                if self.cfg.net.durability != Durability::Durable {
                    // The store and context die with the process; what it
                    // owed peers is forgotten with it.
                    self.replicas[node].wipe();
                    self.roots[node] = None;
                    for q in 0..self.nodes() {
                        self.buf[node][q].clear();
                    }
                }
            } else {
                obs_local::bump(Counter::NetReplicaRecoveries);
                self.crashed[node] = false;
                if self.cfg.net.durability != Durability::Durable {
                    self.heal_from_log(node);
                }
            }
        }
    }

    /// Post-recovery repair of a wiped replica from the write-ahead log:
    /// re-merge the replica's own-origin deltas (contiguous from 1, so the
    /// merges are legal), which also re-owes them to every peer via the
    /// fan-out; then rebuild each live peer's buffer toward it with
    /// everything that peer holds, restoring the buffer invariant the wipe
    /// broke (peers may have GC'd against the context that died). The
    /// rebuild replaces the buffer rather than appending: entries that
    /// survived from before the crash sit at the front, and exchanges ship
    /// in buffer order, so appending would let a later-minted dot travel
    /// ahead of an earlier one and break per-origin contiguity at the
    /// receiver. Log order *is* mint order, so a fresh rebuild keeps every
    /// origin's range contiguous. (The old buffer is a subset of the
    /// rebuild: buffered records are always merged-at-holder.)
    fn heal_from_log(&mut self, node: usize) {
        let own: Vec<usize> =
            (0..self.log.len()).filter(|i| self.log[*i].dot.origin == node).collect();
        for idx in own {
            self.merge_at(node, idx);
        }
        for r in 0..self.nodes() {
            if r == node {
                continue;
            }
            self.buf[r][node] = (0..self.log.len())
                .filter(|&idx| {
                    let d = self.log[idx].dot;
                    d.index <= self.replicas[r].seen(d.origin)
                })
                .collect();
        }
    }

    /// Replica `r`'s digest root over `slots` registers, rebuilt only if its
    /// slots changed or the directory grew since the last build.
    fn digest_root(&mut self, r: usize, slots: usize) -> u64 {
        match self.roots[r] {
            Some((built, root)) if built == slots => root,
            _ => {
                let root = self.replicas[r].digest_tree(slots).root();
                self.roots[r] = Some((slots, root));
                root
            }
        }
    }

    /// Counts the op against the interval and runs an anti-entropy round
    /// when it is due.
    fn maybe_round(&mut self) {
        self.ops_since_round += 1;
        if self.ops_since_round >= self.cfg.interval {
            self.ops_since_round = 0;
            self.round();
        }
    }

    /// One anti-entropy round: a circulant sweep at a seeded offset (ring
    /// offset pinned every third round — the bounded-convergence schedule).
    /// Public so oracles and benches can drive rounds without ops.
    pub fn round(&mut self) {
        self.rounds += 1;
        obs_local::bump(Counter::NetGossipRounds);
        let n = self.nodes();
        if n < 2 {
            // A singleton cluster is trivially in sync with itself.
            self.last_success[0] = self.rounds;
            return;
        }
        let offset = if self.rounds.is_multiple_of(3) {
            1
        } else {
            1 + (mix(self.cfg.net.seed ^ self.rounds.wrapping_mul(OFFSET_SALT)) % (n as u64 - 1))
                as usize
        };
        let start = self.net.now();
        for i in 0..n {
            let p = (i + offset) % n;
            if self.crashed[i] || self.crashed[p] {
                continue; // a dead endpoint cannot time out what it never started
            }
            self.exchange(i, p);
        }
        let dur = self.net.now() - start;
        obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::AntiEntropy, dur });
    }

    /// One pairwise exchange `i ↔ p` (see the module docs for the four
    /// legs). Returns whether it ran to completion; any dropped leg leaves
    /// buffers intact and charges the timeout window to the clock.
    fn exchange(&mut self, i: usize, p: usize) -> bool {
        let anchor = self.net.now();
        let horizon = anchor + self.cfg.net.round_span();
        let slots = self.dir.len();
        // Leg 1, i → p: digest root + causal context.
        let ctx_i = self.replicas[i].ctx.clone();
        let root_i = self.digest_root(i, slots);
        let Some(t1) = self.net.peer_send(i, p, false, anchor) else {
            self.net.advance_to(horizon);
            return false;
        };
        // i's delivered context is GC evidence at p.
        self.gc(p, i, &ctx_i);
        // Leg 2, p → i: the same back.
        let ctx_p = self.replicas[p].ctx.clone();
        let root_p = self.digest_root(p, slots);
        let Some(t2) = self.net.peer_send(p, i, true, t1) else {
            self.net.advance_to(horizon.max(self.net.now()));
            return false;
        };
        self.gc(i, p, &ctx_p);
        if root_i == root_p && ctx_i == ctx_p {
            // Quiescent: two messages settled it, whatever the register count.
            obs_local::bump(Counter::NetGossipDigestHits);
            self.last_success[i] = self.rounds;
            self.last_success[p] = self.rounds;
            self.net.advance_to(t2.max(self.net.now()));
            return true;
        }
        // Leg 3, i → p: the buffered deltas p's context lacks.
        let send_i: Vec<usize> = self.buf[i][p]
            .iter()
            .copied()
            .filter(|idx| self.log[*idx].dot.index > ctx_p[self.log[*idx].dot.origin])
            .collect();
        let Some(t3) = self.net.peer_send(i, p, false, t2) else {
            self.net.advance_to(horizon.max(self.net.now()));
            return false;
        };
        obs_local::add(Counter::NetGossipDeltasSent, send_i.len() as u64);
        for idx in send_i {
            if self.merge_at(p, idx) {
                obs_local::bump(Counter::NetGossipDeltasApplied);
            }
        }
        self.last_success[p] = self.rounds;
        // Leg 4, p → i: the converse batch plus p's post-merge context — the
        // ack that lets i GC what leg 3 shipped.
        let send_p: Vec<usize> = self.buf[p][i]
            .iter()
            .copied()
            .filter(|idx| self.log[*idx].dot.index > ctx_i[self.log[*idx].dot.origin])
            .collect();
        let Some(t4) = self.net.peer_send(p, i, true, t3) else {
            self.net.advance_to(horizon.max(self.net.now()));
            return false;
        };
        obs_local::add(Counter::NetGossipDeltasSent, send_p.len() as u64);
        for idx in send_p {
            if self.merge_at(i, idx) {
                obs_local::bump(Counter::NetGossipDeltasApplied);
            }
        }
        let acked = self.replicas[p].ctx.clone();
        self.gc(i, p, &acked);
        self.last_success[i] = self.rounds;
        self.net.advance_to(t4.max(self.net.now()));
        true
    }

    /// Convergence oracle: every live replica holds the same delta-state
    /// (slots *and* context — quiescence as the digest exchange defines
    /// it). Vacuously true with at most one live replica.
    pub fn converged(&self) -> bool {
        let live: Vec<usize> = (0..self.nodes()).filter(|r| !self.crashed[*r]).collect();
        live.windows(2).all(|w| self.replicas[w[0]] == self.replicas[w[1]])
    }

    /// Causal-delivery oracle: each replica's store is exactly the replay
    /// of its causal context's log prefix — contexts never over- or
    /// under-claim what was merged.
    pub fn causal_ok(&self) -> bool {
        (0..self.nodes()).all(|r| {
            let mut replay = ReplicaStore::new(self.nodes());
            replay.ensure_slots(self.dir.len());
            for rec in &self.log {
                if rec.dot.index <= self.replicas[r].seen(rec.dot.origin) {
                    replay.merge(rec);
                }
            }
            replay == self.replicas[r]
        })
    }

    /// Drives anti-entropy rounds until [`GossipBackend::converged`], up to
    /// `max` rounds. Returns how many were needed, or `None` if the cluster
    /// failed to converge within the budget (e.g. an unhealed partition).
    pub fn run_rounds_until_converged(&mut self, max: u64) -> Option<u64> {
        for k in 0..=max {
            self.maintain(self.net.now());
            if self.converged() {
                return Some(k);
            }
            if k < max {
                self.round();
            }
        }
        None
    }
}

impl MemoryBackend for GossipBackend {
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
        self.maintain(self.net.now());
        self.maybe_round();
        self.maintain(self.net.now());
        let kx = self.key_index(key);
        let home = self.home_of(key);
        let val = self.replicas[home]
            .slots
            .get(kx)
            .and_then(Option::as_ref)
            .map_or(Value::Unit, |e| e.val.clone());
        let truth = self.view.peek(key);
        // How long has freshness been out of reach? Two clocks: rounds
        // since the serving replica's last completed exchange (partition
        // starvation), and rounds since the key's preferred home crashed
        // (its unpropagated deltas are unreachable until it recovers).
        let preferred = key.shard_index(self.nodes());
        let dry = self.rounds.saturating_sub(self.last_success[home]);
        let crashed_dry = if self.crashed[preferred] {
            self.rounds.saturating_sub(self.crash_round[preferred])
        } else {
            0
        };
        let lag = dry.max(crashed_dry);
        if val != truth {
            obs_local::bump(Counter::NetGossipStaleReads);
            if lag > self.cfg.stale_horizon {
                if self.stale_since[preferred].is_none() {
                    self.stale_since[preferred] = Some(self.net.now());
                }
                if self.last_degraded_round[home] != self.rounds {
                    self.last_degraded_round[home] = self.rounds;
                    obs_local::bump(Counter::NetQuorumLost);
                    self.pending.push(Degradation {
                        kind: DegradationKind::AdviceStale,
                        op: "read".to_string(),
                        key,
                        pid: me,
                        time: now,
                        tick: self.net.now(),
                        answered: lag.min(usize::MAX as u64) as usize,
                        needed: self.cfg.stale_horizon.min(usize::MAX as u64) as usize,
                        nodes: self.nodes(),
                        shard: self.cfg.net.shard,
                    });
                }
                return val;
            }
        }
        // Fresh again, or the lag dropped back under the horizon: a spell
        // for this key's preferred home closes here. The check is at the
        // read site (not at exchange success) because a crashed home's
        // spell is served by a fallback whose exchanges stay healthy — only
        // a read can witness that the advice is usable again.
        if let Some(since) = self.stale_since[preferred].take() {
            let tick = self.net.now();
            let ttr = tick.saturating_sub(since);
            obs_local::bump(Counter::NetDegradationsResolved);
            obs_local::observe(HistKind::TimeToRecovery, ttr);
            obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::DegradedSpell, dur: ttr });
            self.resolved.push(Resolution {
                kind: DegradationKind::AdviceStale,
                key,
                pid: me,
                time: now,
                degrade_tick: since,
                resolve_tick: tick,
                shard: self.cfg.net.shard,
            });
        }
        val
    }

    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
        self.maintain(self.net.now());
        self.maybe_round();
        self.maintain(self.net.now());
        if val.is_unit() && !self.view.peek(key).is_unit() && !self.cfg.allow_nonmonotone {
            panic!(
                "gossip: non-monotone register program: erasing key=[{}:{},{}] \
                 (pid={} time={now}) by writing ⊥ over a value — a transition no join \
                 can propagate. The gossip substrate serves the monotone advice/FD \
                 register class; pass --gossip-unsafe to accept erasures (they reach \
                 the view but do not gossip).",
                key.ns, key.ix[0], key.ix[1], me.0,
            );
        }
        let kx = self.key_index(key);
        let home = self.home_of(key);
        self.wseq += 1;
        self.next_dot[home] += 1;
        self.log.push(DeltaRec {
            dot: Dot { origin: home, index: self.next_dot[home] },
            slot: kx,
            entry: Entry { seq: self.wseq, writer: me.0 as u32, val: val.clone() },
        });
        let idx = self.log.len() - 1;
        self.merge_at(home, idx);
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

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.view.fingerprint(&mut h);
        self.net.hash(&mut h);
        self.cfg.interval.hash(&mut h);
        self.cfg.stale_horizon.hash(&mut h);
        self.cfg.allow_nonmonotone.hash(&mut h);
        // Key-canonical slot hashing (the BTreeMap iterates in key order);
        // contexts, buffers and the log follow in replica/index order.
        for (k, kx) in &self.dir {
            k.hash(&mut h);
            for r in &self.replicas {
                r.slots.get(*kx).hash(&mut h);
            }
        }
        for r in &self.replicas {
            r.ctx.hash(&mut h);
        }
        self.log.hash(&mut h);
        self.buf.hash(&mut h);
        self.next_dot.hash(&mut h);
        self.wseq.hash(&mut h);
        self.rounds.hash(&mut h);
        self.ops_since_round.hash(&mut h);
        self.last_success.hash(&mut h);
        self.cursor.hash(&mut h);
        self.crashed.hash(&mut h);
        self.crash_round.hash(&mut h);
        self.last_degraded_round.hash(&mut h);
        // `pending`, `resolved` and `stale_since` are observation streams and
        // `roots` is derived from the replicas — deliberately excluded.
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        format!("gossip(n={})", self.nodes())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_obs::metrics::MetricsHandle;

    fn backend(nodes: usize, seed: u64) -> GossipBackend {
        GossipBackend::new(GossipConfig::new(nodes, seed))
    }

    /// A key whose pure routing homes it at replica `node` of `n`.
    fn key_homed_at(node: usize, n: usize) -> RegKey {
        (0..256u32)
            .map(|a| RegKey::new(0).at(0, a))
            .find(|k| k.shard_index(n) == node)
            .expect("256 candidates cover every home")
    }

    #[test]
    fn clean_runs_read_exactly_like_shared_memory() {
        // Key-homed ops: the replica serving a key is the replica its
        // writes land on, so fault-free runs are never stale — the gossip
        // backend is observationally identical to SharedMemory.
        let mut g = backend(4, 7);
        let mut shm = SharedMemory::new();
        let keys = [RegKey::new(1), RegKey::new(1).at(0, 3), RegKey::new(2).at(1, 1)];
        for i in 0..80u64 {
            let key = keys[(i % 3) as usize];
            if i % 4 == 0 {
                let v = Value::Int(i as i64);
                g.write(Pid((i % 5) as usize), i, key, v.clone());
                shm.write(key, v);
            } else {
                assert_eq!(g.read(Pid((i % 5) as usize), i, key), shm.peek(key), "op {i}");
            }
        }
        assert_eq!(g.view().content_fingerprint(), shm.content_fingerprint());
        assert!(g.drain_degradations().is_empty());
    }

    #[test]
    fn ops_send_zero_messages_on_their_own_path() {
        // With the interval pushed out of reach, no round ever runs — and
        // the op path itself is message-free: every read is a local join,
        // every write a local merge. (The ABD backend pays 16 messages per
        // op at n = 4.)
        let obs = MetricsHandle::counters();
        let mut g = GossipBackend::new(GossipConfig::new(4, 7).with_interval(u64::MAX));
        {
            let _g = obs_local::enter(&obs, 0, 0);
            for i in 0..50u64 {
                let key = key_homed_at((i % 4) as usize, 4);
                g.write(Pid(0), i, key, Value::Int(i as i64));
                assert_eq!(g.read(Pid(1), i, key), Value::Int(i as i64));
            }
        }
        assert_eq!(obs.get(Counter::NetMsgsSent), 0, "zero quorum round-trips");
        assert_eq!(obs.get(Counter::NetGossipRounds), 0);
    }

    #[test]
    fn quiescent_exchanges_are_two_messages_whatever_the_register_count() {
        let obs = MetricsHandle::counters();
        let mut g = GossipBackend::new(GossipConfig::new(4, 7).with_interval(u64::MAX));
        for i in 0..32u64 {
            g.write(Pid(0), i, RegKey::new(0).at(0, i as u32), Value::Int(i as i64));
        }
        {
            let _g = obs_local::enter(&obs, 0, 0);
            assert!(g.run_rounds_until_converged(64).is_some(), "healthy cluster converges");
            let converged_msgs = obs.get(Counter::NetMsgsSent);
            let converged_hits = obs.get(Counter::NetGossipDigestHits);
            // One more round on the converged cluster: every exchange is a
            // digest hit — 2 messages each, independent of the 32 registers.
            g.round();
            assert_eq!(obs.get(Counter::NetMsgsSent) - converged_msgs, 2 * 4);
            assert_eq!(obs.get(Counter::NetGossipDigestHits) - converged_hits, 4);
        }
        assert!(g.causal_ok());
    }

    #[test]
    fn convergence_is_bounded_and_buffers_drain() {
        let obs = MetricsHandle::counters();
        let mut g = GossipBackend::new(GossipConfig::new(5, 11).with_interval(u64::MAX));
        for i in 0..40u64 {
            g.write(Pid((i % 5) as usize), i, RegKey::new(1).at(0, (i % 13) as u32), Value::Int(i as i64));
        }
        assert!(!g.converged(), "five homes hold disjoint fresh deltas");
        let rounds = {
            let _g = obs_local::enter(&obs, 0, 0);
            g.run_rounds_until_converged(3 * 5).expect("ring schedule bounds convergence")
        };
        assert!(rounds <= 15, "within 3n rounds, got {rounds}");
        assert!(g.causal_ok());
        // Convergence + acked contexts drain every per-peer buffer (one
        // extra quiescent round delivers the final acks).
        g.round();
        g.round();
        assert_eq!(g.buffered_dots(), 0, "ack-driven GC leaves nothing parked");
        assert!(obs.get(Counter::NetGossipGcDots) > 0);
        assert!(obs.get(Counter::NetGossipDeltasApplied) > 0);
    }

    #[test]
    fn partitioned_replicas_converge_after_the_heal() {
        let mut cfg = GossipConfig::new(4, 7).with_interval(u64::MAX);
        cfg.net = cfg
            .net
            .with_fault(NetFault::Partition { at: 0, nodes: vec![2, 3] })
            .with_fault(NetFault::Heal { at: 2_000 });
        let mut g = GossipBackend::new(cfg);
        for i in 0..16u64 {
            g.write(Pid(0), i, RegKey::new(0).at(0, i as u32), Value::Int(i as i64));
        }
        // Rounds during the partition cannot converge the cut pair; the
        // failed exchanges' timeouts advance the clock toward the heal.
        assert!(g.run_rounds_until_converged(8).is_none() || g.net.now() >= 2_000);
        while g.net.now() < 2_000 {
            g.round();
        }
        assert!(g.run_rounds_until_converged(3 * 4).is_some(), "healed cluster converges");
        assert!(g.causal_ok());
    }

    #[test]
    fn stale_reads_degrade_typed_after_the_horizon() {
        // The key's home is partitioned from round one and crashes for
        // good: its fresh delta is unreachable, so reads served by the
        // fallback replica stay stale — counted at first, escalated to a
        // typed AdviceStale (never a panic) once the crashed-home horizon
        // passes, at most one per replica per round.
        let n = 3;
        let key = key_homed_at(0, n);
        let mut cfg = GossipConfig::new(n, 7);
        cfg.net = cfg
            .net
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0] })
            .with_fault(NetFault::CrashReplica { at: 40, node: 0 });
        let mut g = GossipBackend::new(cfg);
        let obs = MetricsHandle::counters();
        let _guard = obs_local::enter(&obs, 0, 0);
        g.write(Pid(0), 0, key, Value::Int(9)); // lands at home 0, never propagates
        let mut degraded = Vec::new();
        for i in 1..40u64 {
            let v = g.read(Pid(1), i, key);
            assert_eq!(v, Value::Unit, "fallback replica never saw the write");
            degraded.extend(g.drain_degradations());
        }
        assert!(obs.get(Counter::NetGossipStaleReads) > 0);
        assert!(!degraded.is_empty(), "the horizon must have expired");
        let d = &degraded[0];
        assert_eq!(d.kind, DegradationKind::AdviceStale);
        assert_eq!((d.op.as_str(), d.key, d.nodes), ("read", key, n));
        assert!(d.answered > d.needed, "lag beyond the horizon: {d}");
        assert!(d.to_string().starts_with("advice-stale: op=read"), "got {d}");
        // Rate limit: strictly fewer degradations than stale reads.
        assert!((degraded.len() as u64) < obs.get(Counter::NetGossipStaleReads));
    }

    #[test]
    fn crashed_home_self_heals_from_the_log_on_recovery() {
        let n = 3;
        let key = key_homed_at(0, n);
        let mut cfg = GossipConfig::new(n, 7);
        cfg.net = cfg
            .net
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0] })
            .with_fault(NetFault::CrashReplica { at: 40, node: 0 })
            .with_fault(NetFault::RecoverReplica { at: 400, node: 0 })
            .with_fault(NetFault::Heal { at: 400 });
        let mut g = GossipBackend::new(cfg);
        g.write(Pid(0), 0, key, Value::Int(9));
        while g.runtime().now() < 400 {
            g.read(Pid(1), 1, key); // rounds advance the clock through the churn
        }
        assert!(!g.drain_degradations().is_empty(), "the churn degraded the key's advice");
        // Recovery re-merged the wiped home's own-origin deltas from the
        // write-ahead log: the preferred home serves fresh again.
        assert_eq!(g.read(Pid(1), 2, key), Value::Int(9));
        // The first fresh read after the heal is the spell's resolved edge
        // (it may land inside the churn loop's final iteration, whose round
        // carries the clock across the recovery tick).
        let resolved = g.drain_resolutions();
        assert_eq!(resolved.len(), 1, "one spell, one resolution");
        let r = &resolved[0];
        assert_eq!((r.kind, r.key), (DegradationKind::AdviceStale, key));
        assert!(r.degrade_tick < r.resolve_tick, "the spell has positive extent");
        assert_eq!(r.time_to_recovery(), r.resolve_tick - r.degrade_tick);
        assert!(g.drain_resolutions().is_empty(), "drain empties the stream");
        assert!(g.run_rounds_until_converged(3 * 3).is_some());
        assert!(g.causal_ok());
    }

    /// Every cached digest root equals a fresh rebuild of its replica's
    /// tree over the slot count it was cached for.
    fn assert_roots_fresh(g: &GossipBackend, op: u64) {
        for (r, cached) in g.roots.iter().enumerate() {
            if let Some((slots, root)) = *cached {
                assert_eq!(root, g.replicas[r].digest_tree(slots).root(), "replica {r} after op {op}");
            }
        }
    }

    /// A seeded read/write mix at interval 1 (one round per op) until the
    /// clock passes `until`, checking every cached root after each op.
    fn ops_with_fresh_roots(g: &mut GossipBackend, until: u64) {
        let mut op = 0u64;
        while g.runtime().now() < until {
            let key = RegKey::new(2).at(0, (mix(op) % 12) as u32);
            let me = Pid((op % 4) as usize);
            if op % 3 == 0 {
                g.write(me, op, key, Value::Int(op as i64 + 1));
            } else {
                g.read(me, op, key);
            }
            assert_roots_fresh(g, op);
            op += 1;
        }
        for _ in 0..3 * g.nodes() {
            g.round();
            assert_roots_fresh(g, op);
        }
        assert!(g.converged(), "the cluster heals");
        assert!(g.causal_ok());
        assert!(g.roots.iter().all(Option::is_some), "exchanges ran on the cached roots");
    }

    #[test]
    fn cached_roots_survive_crash_recover_churn() {
        // Volatile replicas: each crash wipes a store (and must drop its
        // cached root), each recovery heals it from the log.
        let mut cfg = GossipConfig::new(4, 7).with_interval(1);
        cfg.net = cfg
            .net
            .with_fault(NetFault::CrashReplica { at: 50, node: 1 })
            .with_fault(NetFault::RecoverReplica { at: 300, node: 1 })
            .with_fault(NetFault::CrashReplica { at: 400, node: 3 })
            .with_fault(NetFault::CrashReplica { at: 450, node: 1 })
            .with_fault(NetFault::RecoverReplica { at: 700, node: 3 })
            .with_fault(NetFault::RecoverReplica { at: 800, node: 1 });
        let obs = MetricsHandle::counters();
        let _guard = obs_local::enter(&obs, 0, 0);
        let mut g = GossipBackend::new(cfg);
        ops_with_fresh_roots(&mut g, 1_000);
        assert_eq!(obs.get(Counter::NetReplicaCrashes), 3);
        assert!(obs.get(Counter::NetGossipDigestHits) > 0);
    }

    #[test]
    fn cached_roots_survive_partition_and_heal() {
        let mut cfg = GossipConfig::new(4, 7).with_interval(1);
        cfg.net = cfg
            .net
            .with_fault(NetFault::Partition { at: 0, nodes: vec![2, 3] })
            .with_fault(NetFault::Heal { at: 2_000 });
        let obs = MetricsHandle::counters();
        let _guard = obs_local::enter(&obs, 0, 0);
        let mut g = GossipBackend::new(cfg);
        ops_with_fresh_roots(&mut g, 2_500);
        assert!(obs.get(Counter::NetMsgsDropped) > 0, "the partition cut exchanges");
        assert!(obs.get(Counter::NetGossipDigestHits) > 0);
    }

    /// Drives a seeded stream of `ops` register ops (4 pids, 24 keys, one
    /// write in four) straight at `g`, then runs anti-entropy rounds with
    /// ops stopped until every live replica holds the same delta-state.
    /// Returns the messages sent and rounds run while the stream ran, and
    /// the rounds stabilization took (`None`: not within 3n).
    fn stream_then_stabilize(
        g: &mut GossipBackend,
        ops: u64,
        seed: u64,
    ) -> (u64, u64, Option<u64>) {
        let obs = MetricsHandle::counters();
        let _guard = obs_local::enter(&obs, 0, 0);
        for op in 0..ops {
            let r = mix(seed ^ op);
            let key = RegKey::new(9).at(0, ((r >> 8) % 24) as u32);
            if r & 3 == 0 {
                g.write(Pid((op % 4) as usize), op, key, Value::Int((r >> 32) as i64));
            } else {
                g.read(Pid((op % 4) as usize), op, key);
            }
        }
        let (msgs, rounds) = (obs.get(Counter::NetMsgsSent), obs.get(Counter::NetGossipRounds));
        (msgs, rounds, g.run_rounds_until_converged(3 * g.nodes() as u64))
    }

    #[test]
    fn slower_cadence_sends_fewer_messages_and_still_stabilizes() {
        let cell = |interval| {
            let mut g = GossipBackend::new(GossipConfig::new(4, 7).with_interval(interval));
            stream_then_stabilize(&mut g, 2_000, 7)
        };
        let ((fast_msgs, fast_rounds, fast), (slow_msgs, slow_rounds, slow)) = (cell(1), cell(16));
        // Fewer rounds → fewer messages; the backlog the stream leaves
        // behind still drains within the 3n stabilization budget.
        assert!(slow_rounds < fast_rounds, "slow {slow_rounds} vs fast {fast_rounds} rounds");
        assert!(slow_msgs < fast_msgs, "slow {slow_msgs} vs fast {fast_msgs} messages");
        assert!(fast.is_some(), "interval 1 must stabilize within 3n");
        assert!(slow.is_some(), "interval 16 must stabilize within 3n");
    }

    #[test]
    fn streams_stabilize_after_partition_and_after_churn() {
        let partition =
            [NetFault::Partition { at: 0, nodes: vec![0] }, NetFault::Heal { at: 600 }];
        let churn = [
            NetFault::CrashReplica { at: 120, node: 0 },
            NetFault::RecoverReplica { at: 600, node: 0 },
        ];
        for (plan, faults) in [("partition", &partition), ("churn", &churn)] {
            for n in [4usize, 8] {
                let mut cfg = GossipConfig::new(n, 7).with_interval(1);
                cfg.net.faults = faults.to_vec();
                let mut g = GossipBackend::new(cfg);
                let (_, _, stabilized) = stream_then_stabilize(&mut g, 2_000, 7);
                assert!(g.runtime().now() > 600, "{plan} n={n}: the stream outlasts the fault");
                assert!(stabilized.is_some(), "{plan} n={n} failed to stabilize within 3n");
                assert!(g.causal_ok(), "{plan} n={n}: replica state is not a causal replay");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gossip: non-monotone register program")]
    fn erasure_is_refused_without_the_unsafe_gate() {
        let mut g = backend(3, 7);
        let key = RegKey::new(0);
        g.write(Pid(0), 0, key, Value::Int(1));
        g.write(Pid(0), 1, key, Value::Unit); // erases a value — not a join
    }

    #[test]
    fn the_unsafe_gate_accepts_erasures() {
        let mut cfg = GossipConfig::new(3, 7);
        cfg.allow_nonmonotone = true;
        let mut g = GossipBackend::new(cfg);
        let key = RegKey::new(0);
        g.write(Pid(0), 0, key, Value::Int(1));
        g.write(Pid(0), 1, key, Value::Unit);
        assert_eq!(g.read(Pid(1), 2, key), Value::Unit, "the erasure wins the seq chain");
    }

    #[test]
    fn backend_is_deterministic_and_forks() {
        let run = |ops: usize| {
            let mut g = backend(4, 11);
            for i in 0..ops as u64 {
                g.write(Pid(0), i, RegKey::new(0).at(0, (i % 4) as u32), Value::Int(i as i64));
            }
            let mut h = std::collections::hash_map::DefaultHasher::new();
            MemoryBackend::fingerprint(&g, &mut h);
            h.finish()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
        let mut a = backend(3, 2);
        a.write(Pid(0), 0, RegKey::new(0), Value::Int(1));
        let mut b: Box<dyn MemoryBackend> = a.clone_backend();
        b.write(Pid(1), 1, RegKey::new(0), Value::Int(2));
        assert_eq!(a.read(Pid(0), 2, RegKey::new(0)), Value::Int(1));
        assert_eq!(b.read(Pid(0), 2, RegKey::new(0)), Value::Int(2));
        assert_eq!(b.label(), "gossip(n=3)");
    }

    #[test]
    fn the_oracle_surface_is_reachable_through_the_seam() {
        let mut boxed: Box<dyn MemoryBackend> = Box::new(backend(3, 7));
        boxed.write(Pid(0), 0, RegKey::new(0), Value::Int(5));
        let g = boxed
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<GossipBackend>())
            .expect("the gossip backend exposes its oracles");
        assert!(g.run_rounds_until_converged(9).is_some());
        assert!(g.causal_ok());
    }
}
