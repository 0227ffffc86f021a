//! The register-file seam.
//!
//! The model's processes see an addressed file of atomic MWMR registers
//! through [`crate::process::StepCtx`], which routes every
//! `read`/`write`/`snapshot` through one [`MemoryBackend`]. The in-process
//! [`SharedMemory`] — the base model of §2.1 — is itself a backend and the
//! executor's default. Any other linearizable register implementation
//! (`wfa-net`'s ABD quorum emulation, `wfa-gossip`'s anti-entropy
//! substrate) plugs in without changing a single automaton, as long as it
//! makes each operation appear atomic at some point inside the step.
//!
//! Contract, in order of importance:
//!
//! 1. **Linearizability** — each operation takes effect atomically between
//!    its invocation and its return. Because the kernel invokes at most one
//!    operation per schedule step and the backend completes it before the
//!    step returns, operations are sequential; a correct backend therefore
//!    behaves exactly like [`SharedMemory`] at the interface, and runs over
//!    any backend produce the *same outputs* as shared-memory runs under the
//!    same schedule.
//! 2. **Determinism** — the backend must be a pure function of its
//!    construction inputs and the operation sequence (no wall clock, no OS
//!    randomness), so runs stay replayable.
//! 3. **Fingerprint coverage** — [`MemoryBackend::fingerprint`] must cover
//!    all state that affects future behaviour, mirroring what `Clone`
//!    copies, so forked runs dedupe correctly in the model checker.

use std::fmt;
use std::hash::Hasher;

use crate::memory::{RegKey, SharedMemory};
use crate::value::{Pid, Value};

/// What flavour of weakened service a [`Degradation`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DegradationKind {
    /// A quorum operation exhausted its retransmission horizon (majority of
    /// replicas unreachable) and was served from the linearized view — the
    /// ABD backend's degradation, and the default for artifacts written
    /// before the kind discriminator existed.
    #[default]
    QuorumLost,
    /// An eventually-consistent read returned a value older than the global
    /// join while its replica had gone too many anti-entropy rounds without
    /// a successful exchange — the gossip backend's degradation. Advice is
    /// stale, never wrong: healing lets the replica re-converge.
    AdviceStale,
}

impl DegradationKind {
    /// Stable name used in displays and JSON encodings.
    pub fn name(&self) -> &'static str {
        match self {
            DegradationKind::QuorumLost => "quorum-lost",
            DegradationKind::AdviceStale => "advice-stale",
        }
    }
}

/// A structured, typed degradation raised by a backend that could not
/// complete an operation within its failure model's preconditions and fell
/// back to a weaker substrate instead of panicking.
///
/// Two producers exist today. The `wfa-net` ABD emulation raises
/// [`DegradationKind::QuorumLost`] when a quorum operation exhausts its
/// retransmission horizon (majority of replicas unreachable) and falls back
/// to serving the linearized view. The `wfa-gossip` anti-entropy backend
/// raises [`DegradationKind::AdviceStale`] when a partitioned replica keeps
/// serving reads that lag the global join past its staleness horizon. The
/// executor drains them after every step — they are *observations*, excluded
/// from fingerprints like the metrics — and the faults harness promotes the
/// first one per run to a replayable Violation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Degradation {
    /// What flavour of degradation this is.
    pub kind: DegradationKind,
    /// The protocol phase that stalled (e.g. `"read"`, `"write-store"`).
    pub op: String,
    /// The register the operation addressed.
    pub key: RegKey,
    /// The process the operation was performed on behalf of.
    pub pid: Pid,
    /// The kernel's logical time when the operation was invoked.
    pub time: u64,
    /// The backend's internal clock (network tick) when the horizon expired.
    pub tick: u64,
    /// Replicas that answered before the horizon expired.
    pub answered: usize,
    /// Replicas a quorum required.
    pub needed: usize,
    /// Total replicas in the cluster.
    pub nodes: usize,
    /// The replica group (shard) whose quorum was lost. `0` for unsharded
    /// backends; under a [`ShardedBackend`] only this group's key range is
    /// degraded — sibling groups keep serving quorum operations.
    pub shard: usize,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `answered/needed` read per kind: replies vs quorum size for
        // quorum-lost, dry anti-entropy rounds vs staleness horizon for
        // advice-stale.
        write!(
            f,
            "{}: op={} key=[{}:{},{}] pid={} time={} tick={} answered={}/{} of {} nodes shard={}",
            self.kind.name(),
            self.op,
            self.key.ns,
            self.key.ix[0],
            self.key.ix[1],
            self.pid.0,
            self.time,
            self.tick,
            self.answered,
            self.needed,
            self.nodes,
            self.shard
        )
    }
}

/// The closing half of a degradation's lifecycle: the backend recovered the
/// service it had degraded. Every [`Degradation`] spell eventually gets at
/// most one matching `Resolution` — raised when the ABD circuit breaker's
/// half-open probe finds a quorum again, or when a gossip replica's reads
/// drop back inside the staleness horizon. Like degradations, resolutions
/// are *observations*: drained by the executor after every step, excluded
/// from fingerprints, and surfaced as `recoveries` in reports so soak runs
/// can print MTTR (mean time to recovery) per fault class.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Resolution {
    /// Which degradation flavour this resolves.
    pub kind: DegradationKind,
    /// The register whose operation observed the recovery.
    pub key: RegKey,
    /// The process whose operation observed the recovery.
    pub pid: Pid,
    /// The kernel's logical time when the recovery was observed.
    pub time: u64,
    /// The backend tick the degraded spell opened (its first degradation).
    pub degrade_tick: u64,
    /// The backend tick the spell closed (the successful probe completed).
    pub resolve_tick: u64,
    /// The replica group that recovered (`0` for unsharded backends).
    pub shard: usize,
}

impl Resolution {
    /// Backend ticks the degraded spell lasted — the MTTR sample this
    /// resolution contributes to the `time_to_recovery` histogram.
    pub fn time_to_recovery(&self) -> u64 {
        self.resolve_tick.saturating_sub(self.degrade_tick)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} resolved: key=[{}:{},{}] pid={} time={} ticks {}..{} (ttr={}) shard={}",
            self.kind.name(),
            self.key.ns,
            self.key.ix[0],
            self.key.ix[1],
            self.pid.0,
            self.time,
            self.degrade_tick,
            self.resolve_tick,
            self.time_to_recovery(),
            self.shard
        )
    }
}

/// A substrate for the shared register file.
///
/// Object-safe; the executor stores `Box<dyn MemoryBackend>` and the box is
/// `Clone`/`Debug`/`Default` via [`MemoryBackend::clone_backend`],
/// [`MemoryBackend::label`] and [`SharedMemory`] (the same pattern as
/// `DynProcess`).
pub trait MemoryBackend {
    /// Performs an atomic read of `key` on behalf of `me` at logical time
    /// `now`.
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value;

    /// Performs an atomic write of `val` to `key` on behalf of `me` at
    /// logical time `now`.
    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value);

    /// The linearized register contents, for verifiers and displays (the
    /// backend analogue of [`crate::executor::Executor::memory`]).
    fn view(&self) -> &SharedMemory;

    /// Hashes all behaviour-affecting backend state (see module docs).
    fn fingerprint(&self, h: &mut dyn Hasher);

    /// Clones the backend behind the trait object.
    fn clone_backend(&self) -> Box<dyn MemoryBackend>;

    /// Human-readable label for debug displays.
    fn label(&self) -> String {
        "backend".to_string()
    }

    /// Drains the structured [`Degradation`]s raised since the last call.
    ///
    /// Backends that never degrade (the default) return nothing. The
    /// executor calls this after every effective step; drained
    /// degradations are observations and must **not** be covered by
    /// [`MemoryBackend::fingerprint`].
    fn drain_degradations(&mut self) -> Vec<Degradation> {
        Vec::new()
    }

    /// Drains the [`Resolution`]s recorded since the last call — the
    /// degradation-resolved edges closing spells opened by
    /// [`MemoryBackend::drain_degradations`]. Same discipline: observations
    /// only, never covered by [`MemoryBackend::fingerprint`]; backends that
    /// never degrade (the default) return nothing.
    fn drain_resolutions(&mut self) -> Vec<Resolution> {
        Vec::new()
    }

    /// The backend's own clock (its network tick), for harnesses that pace
    /// an op stream by backend time. `None` — the default — means the
    /// backend has no clock; the caller counts ops instead.
    fn clock(&self) -> Option<u64> {
        None
    }

    /// Whether a degraded spell is open right now: a degradation was
    /// drained and its resolution has not happened yet. Backends that never
    /// degrade, or that close each spell within the op that raised it,
    /// return `false` (the default).
    fn is_degraded(&self) -> bool {
        false
    }

    /// `true` iff operations on distinct keys commute: applying two
    /// operations by different processes in either order leaves the same
    /// backend state and returns the same values whenever they touch
    /// different keys or both only read. The model checker relies on it to
    /// skip interleavings it has proved equivalent. `false` — the default —
    /// is always safe; a backend whose operations share state beyond their
    /// key (a simulated network, replica clocks) must keep it.
    fn ops_commute_by_key(&self) -> bool {
        false
    }

    /// Concrete-type escape hatch for backends that expose run oracles
    /// beyond the register interface. Its remaining callers are the chaos
    /// soak's gossip quiescence oracles (convergence and causal replay),
    /// a gossip unit test, the E18 convergence tests, and the benchmark's
    /// timing decorator, which reads gossip rounds through it. `None` — the
    /// default — means the backend has no such surface; harnesses must
    /// treat it as opaque.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable variant of [`MemoryBackend::as_any`], for oracles that drive
    /// the backend (e.g. running anti-entropy rounds to quiescence).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

impl Clone for Box<dyn MemoryBackend> {
    fn clone(&self) -> Self {
        self.clone_backend()
    }
}

impl std::fmt::Debug for Box<dyn MemoryBackend> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryBackend({})", self.label())
    }
}

impl Default for Box<dyn MemoryBackend> {
    fn default() -> Self {
        Box::new(SharedMemory::new())
    }
}

/// The base model as a backend: every operation is atomic by construction,
/// so who performs it and when does not matter, and the register file is
/// its own linearized view.
impl MemoryBackend for SharedMemory {
    fn read(&mut self, _me: Pid, _now: u64, key: RegKey) -> Value {
        self.peek(key)
    }

    fn write(&mut self, _me: Pid, _now: u64, key: RegKey, val: Value) {
        SharedMemory::write(self, key, val);
    }

    fn view(&self) -> &SharedMemory {
        self
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        SharedMemory::fingerprint(self, &mut h);
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        "shm".to_string()
    }

    /// Each cell is its own register.
    fn ops_commute_by_key(&self) -> bool {
        true
    }
}

/// A register-space-sharding router: partitions the register file across
/// independent [`MemoryBackend`] groups so each group's cost (replica
/// traffic, quorum size, crash state) is paid only by the keys routed to it.
///
/// Routing is [`RegKey::shard_index`] — a pure function of the key — so a
/// register always lives in exactly one group and each group's substrate
/// linearizes its own disjoint key set. Sequential composition of
/// linearizable disjoint register files is itself linearizable, so the
/// router satisfies the [`MemoryBackend`] contract whenever every group
/// does. The combined [`ShardedBackend::view`] mirrors every write, keeping
/// verifier/display behaviour identical to a single-group backend.
pub struct ShardedBackend {
    shards: Vec<Box<dyn MemoryBackend>>,
    view: SharedMemory,
}

impl ShardedBackend {
    /// Wraps `shards` backend groups (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Box<dyn MemoryBackend>>) -> ShardedBackend {
        assert!(!shards.is_empty(), "a sharded backend needs at least one group");
        ShardedBackend { shards, view: SharedMemory::new() }
    }

    /// The group backend `key` routes to (for tests and displays).
    pub fn shard_of(&self, key: RegKey) -> usize {
        key.shard_index(self.shards.len())
    }
}

impl Clone for ShardedBackend {
    fn clone(&self) -> ShardedBackend {
        ShardedBackend { shards: self.shards.clone(), view: self.view.clone() }
    }
}

impl MemoryBackend for ShardedBackend {
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
        let s = key.shard_index(self.shards.len());
        let val = self.shards[s].read(me, now, key);
        debug_assert_eq!(
            val,
            self.view.peek(key),
            "shard {s} diverged from the combined view on {key:?}"
        );
        val
    }

    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
        let s = key.shard_index(self.shards.len());
        self.shards[s].write(me, now, key, val.clone());
        self.view.write(key, val);
    }

    fn view(&self) -> &SharedMemory {
        &self.view
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        use std::hash::Hash;
        self.shards.len().hash(&mut h);
        self.view.fingerprint(&mut h);
        for shard in &self.shards {
            shard.fingerprint(h);
        }
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        let inner: Vec<String> = self.shards.iter().map(|s| s.label()).collect();
        format!("sharded[{}]", inner.join("+"))
    }

    fn drain_degradations(&mut self) -> Vec<Degradation> {
        // Group-index order keeps the drained sequence deterministic.
        self.shards.iter_mut().flat_map(|s| s.drain_degradations()).collect()
    }

    fn drain_resolutions(&mut self) -> Vec<Resolution> {
        // Same group-index order as the degradations they close.
        self.shards.iter_mut().flat_map(|s| s.drain_resolutions()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_backend_clones_and_debugs() {
        let mut b: Box<dyn MemoryBackend> = Box::default();
        b.write(Pid(0), 0, RegKey::new(1), Value::Int(9));
        let c = b.clone();
        assert_eq!(c.view().peek(RegKey::new(1)), Value::Int(9));
        assert_eq!(format!("{c:?}"), "MemoryBackend(shm)");
    }

    #[test]
    fn sharded_shared_memory_matches_shared_memory() {
        let mut sharded = ShardedBackend::new((0..4).map(|_| Box::default()).collect());
        let mut direct = SharedMemory::new();
        let keys: Vec<RegKey> =
            (0..32u32).map(|a| RegKey::new((a % 3) as u16).at(0, a).at(2, a / 5)).collect();
        for (i, k) in keys.iter().enumerate() {
            sharded.write(Pid(0), i as u64, *k, Value::Int(i as i64));
            direct.write(*k, Value::Int(i as i64));
        }
        for k in &keys {
            assert_eq!(sharded.read(Pid(1), 99, *k), direct.peek(*k));
            assert_eq!(sharded.view().peek(*k), direct.peek(*k));
        }
        // Each key lives in exactly the group its pure routing names.
        for k in &keys {
            assert_eq!(sharded.shard_of(*k), k.shard_index(4));
        }
        // The clone is independent.
        let mut forked = sharded.clone_backend();
        forked.write(Pid(0), 100, keys[0], Value::Int(-1));
        assert_eq!(forked.view().peek(keys[0]), Value::Int(-1));
        assert_eq!(sharded.view().peek(keys[0]), Value::Int(0));
    }

    /// A shared memory that raises a shard-tagged degradation on every write
    /// (and a matching resolution on every read), used to pin the
    /// cross-shard drain order for both lifecycle halves.
    #[derive(Clone, Debug)]
    struct Degrading {
        mem: SharedMemory,
        shard: usize,
        raised: Vec<Degradation>,
        resolved: Vec<Resolution>,
    }

    impl Degrading {
        fn new(shard: usize) -> Degrading {
            Degrading { mem: SharedMemory::new(), shard, raised: Vec::new(), resolved: Vec::new() }
        }
    }

    impl MemoryBackend for Degrading {
        fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
            self.resolved.push(Resolution {
                kind: DegradationKind::QuorumLost,
                key,
                pid: me,
                time: now,
                degrade_tick: now,
                resolve_tick: now + 5,
                shard: self.shard,
            });
            self.mem.peek(key)
        }

        fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
            self.mem.write(key, val);
            self.raised.push(Degradation {
                kind: DegradationKind::QuorumLost,
                op: "write".to_string(),
                key,
                pid: me,
                time: now,
                tick: now,
                answered: 0,
                needed: 1,
                nodes: 1,
                shard: self.shard,
            });
        }

        fn view(&self) -> &SharedMemory {
            &self.mem
        }

        fn fingerprint(&self, mut h: &mut dyn Hasher) {
            self.mem.fingerprint(&mut h);
        }

        fn clone_backend(&self) -> Box<dyn MemoryBackend> {
            Box::new(self.clone())
        }

        fn drain_degradations(&mut self) -> Vec<Degradation> {
            std::mem::take(&mut self.raised)
        }

        fn drain_resolutions(&mut self) -> Vec<Resolution> {
            std::mem::take(&mut self.resolved)
        }
    }

    #[test]
    fn sharded_drain_order_is_shard_index_order() {
        let shards = 3;
        let mut b =
            ShardedBackend::new((0..shards).map(|s| Box::new(Degrading::new(s)) as _).collect());
        // Find one key per group, then write them in *reverse* group order so
        // wall-time order disagrees with group order.
        let mut key_for: Vec<Option<RegKey>> = vec![None; shards];
        for a in 0..64u32 {
            let k = RegKey::new(0).at(0, a);
            key_for[k.shard_index(shards)].get_or_insert(k);
        }
        for (t, s) in (0..shards).rev().enumerate() {
            let k = key_for[s].expect("every group gets a key");
            b.write(Pid(0), t as u64, k, Value::Int(s as i64));
        }
        let drained = b.drain_degradations();
        assert_eq!(drained.len(), shards);
        // The drained sequence is ordered by shard index, not by the time
        // the degradations were raised.
        let order: Vec<usize> = drained.iter().map(|d| d.shard).collect();
        assert_eq!(order, vec![0, 1, 2], "drain must be in shard-index order");
        assert!(drained.iter().all(|d| d.shard == b.shard_of(d.key)));
        // Drained means drained: a second call returns nothing.
        assert!(b.drain_degradations().is_empty());
        // Resolutions drain in the same shard-index order, and each one
        // reports its spell length.
        for (t, s) in (0..shards).rev().enumerate() {
            let k = key_for[s].expect("every group gets a key");
            b.read(Pid(0), t as u64, k);
        }
        let resolved = b.drain_resolutions();
        assert_eq!(resolved.len(), shards);
        let order: Vec<usize> = resolved.iter().map(|r| r.shard).collect();
        assert_eq!(order, vec![0, 1, 2], "resolution drain must be in shard-index order");
        assert!(resolved.iter().all(|r| r.time_to_recovery() == 5));
        assert!(b.drain_resolutions().is_empty());
        let shown = resolved[0].to_string();
        assert!(shown.starts_with("quorum-lost resolved:"), "{shown}");
        assert!(shown.contains("ttr=5"), "{shown}");
    }

    #[test]
    fn shared_memory_backend_matches_its_inherent_api() {
        let mut b = SharedMemory::new();
        let key = RegKey::new(0).at(2, 3);
        assert_eq!(MemoryBackend::read(&mut b, Pid(1), 0, key), Value::Unit);
        MemoryBackend::write(&mut b, Pid(1), 1, key, Value::Int(7));
        assert_eq!(MemoryBackend::read(&mut b, Pid(2), 2, key), Value::Int(7));
        let mut direct = SharedMemory::new();
        direct.write(key, Value::Int(7));
        assert_eq!(b.view().peek(key), direct.peek(key));
    }

    #[test]
    fn trait_fingerprint_equals_the_inherent_one() {
        // The explorer dedupes on `Executor::fingerprint`, which hashes the
        // register file through `&mut dyn Hasher`; its pinned state counts
        // rely on that matching the inherent generic fingerprint.
        use std::collections::hash_map::DefaultHasher;
        let fp = |m: &SharedMemory, via_trait: bool| {
            let mut h = DefaultHasher::new();
            if via_trait {
                MemoryBackend::fingerprint(m, &mut h);
            } else {
                m.fingerprint(&mut h);
            }
            h.finish()
        };
        let mut m = SharedMemory::new();
        assert_eq!(fp(&m, true), fp(&m, false));
        for (i, a) in [3u32, 1, 3, 7, 1].into_iter().enumerate() {
            let key = RegKey::new(2).at(0, a);
            let val = if i == 4 { Value::Unit } else { Value::Int(i as i64) };
            MemoryBackend::write(&mut m, Pid(0), i as u64, key, val);
            MemoryBackend::read(&mut m, Pid(1), i as u64, key);
            assert_eq!(fp(&m, true), fp(&m, false), "after op {i}");
        }
    }
}
