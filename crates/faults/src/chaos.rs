//! Chaos-soak engine: deterministic long-horizon fault soaking with
//! checkpointed replay.
//!
//! Where [`crate::sweep`] *searches* small fault plans exhaustively, the
//! chaos engine *soaks*: one long run (10k+ backend ticks) per backend with
//! a seeded stream of composed faults drawn from a per-backend menu —
//! replica crash/recover pairs (under the configured durability), minority
//! partitions with heals, loss/corrupt windows, and — in storm phases —
//! heal-bounded majority partitions that are *expected* to degrade and then
//! recover. Read-only freeze windows model frozen failure detectors and
//! delayed advice uniformly across backends (on shared memory they are the
//! whole menu). Faults are pre-generated into an explicit [`NetFault`]
//! timeline before the backend is built, so a soak is a pure function of
//! its [`SoakConfig`]: same config, byte-identical [`SoakReport`].
//!
//! **Online oracles** check invariants continuously while the soak runs:
//!
//! * *model equality* — every shm/net read must equal a register-file model
//!   of the op stream (the net backend's linearized view keeps serving shm
//!   semantics even while degraded);
//! * *no fabricated reads* — a gossip read may be stale (an older value for
//!   that key, or `⊥`) but never a value nobody wrote;
//! * *quorum safety* — a `quorum-lost` degradation is a violation unless
//!   its tick falls inside the expected envelope of a closed majority
//!   partition window (read from the timeline's [`FaultWindows`]);
//! * *convergence on quiescence* + *causal replay* — after the op stream
//!   ends, the gossip cluster must converge within `3n + 8` anti-entropy
//!   rounds and every replica state must be the causal replay of its
//!   delivered deltas;
//! * *degradation lifecycle* — every degraded spell must have resolved by
//!   the end of the run; the resolutions become the report's `recoveries`
//!   array and its MTTR table.
//!
//! **Flight recorder.** Every `checkpoint_every` ops the engine snapshots
//! the whole backend + model into a bounded ring. On violation it replays
//! from the last checkpoint — not from tick 0 — and certifies that the
//! violation reproduces there ([`ReplayInfo`]). Artifacts shrink by
//! dropping whole fault windows, then freeze windows ([`shrink_soak`]),
//! while the violation keeps reproducing — the same greedy loop that
//! shrinks sweep plans in [`crate::shrink`].
//!
//! The backend is built by [`BackendSpec::build`], like every other run's,
//! and driven directly: no executor is in the loop, the op stream *is* the
//! schedule. The oracles read the backend's clock and open-spell flag
//! through the [`MemoryBackend`] seam and reach the gossip convergence
//! checks through its `as_any_mut` downcast.

use std::collections::BTreeMap;

use wfa_gossip::backend::GossipBackend;
use wfa_kernel::backend::{DegradationKind, MemoryBackend, Resolution};
use wfa_kernel::memory::RegKey;
use wfa_kernel::value::{Pid, Value};
use wfa_net::config::{Durability, NetConfig, NetFault};
use wfa_net::runtime::mix;
use wfa_net::windows::FaultWindows;
use wfa_obs::local as obs_local;
use wfa_obs::metrics::{MetricsHandle, Snapshot};

use crate::backend::BackendSpec;
use crate::json::Json;
use crate::shrink::shrink_plan;

/// Registers the soak op stream cycles over (spread across every gossip
/// home replica by `RegKey::shard_index`).
const KEYS: usize = 8;

/// Flight-recorder capacity: checkpoints kept in the ring.
const RECORDER_SLOTS: usize = 8;

/// Re-soak budget for [`shrink_soak`].
const MAX_SOAK_REPLAYS: usize = 64;

/// Ticks a gossip stale-advice window spends partitioned-but-alive before
/// the crash: long enough for a couple of ops' writes to jam at the home.
const STALE_PRE: u64 = 64;

/// How far ahead of a scheduled replica crash the gossip op stream steers
/// its writes toward keys the doomed replica homes (see [`Engine::step`]).
const STALE_APPROACH: u64 = 160;

/// Salt for fault-window draws.
const FAULT_SALT: u64 = 0x5b1c_9e3d_a770_42f1;
/// Salt for freeze-window draws.
const FREEZE_SALT: u64 = 0x93ae_4cf0_6b21_8d5b;
/// Salt for the net durability draw.
const DURABILITY_SALT: u64 = 0xc6a4_a793_5bd1_e995;

/// Which register substrate a soak drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SoakBackend {
    /// In-process `SharedMemory` (fault menu: freeze windows only).
    Shm,
    /// The ABD quorum emulation (`wfa-net`).
    Net,
    /// The delta-CRDT anti-entropy substrate (`wfa-gossip`).
    Gossip,
}

impl SoakBackend {
    /// Stable name used by the CLI and JSON encodings.
    pub fn name(&self) -> &'static str {
        match self {
            SoakBackend::Shm => "shm",
            SoakBackend::Net => "net",
            SoakBackend::Gossip => "gossip",
        }
    }

    /// Parses a CLI/JSON name.
    pub fn parse(s: &str) -> Option<SoakBackend> {
        match s {
            "shm" => Some(SoakBackend::Shm),
            "net" => Some(SoakBackend::Net),
            "gossip" => Some(SoakBackend::Gossip),
            _ => None,
        }
    }

    /// The substrate a soak over `nodes` replicas with run `seed` builds:
    /// one healthy ABD cluster whose durability policy is drawn from the
    /// seed ([`draw_durability`]), or an eager gossip cluster.
    pub(crate) fn spec(self, nodes: usize, seed: u64) -> BackendSpec {
        match self {
            SoakBackend::Shm => BackendSpec::Shm,
            SoakBackend::Net => {
                let mut cfg = NetConfig::new(nodes, 0);
                cfg.durability = draw_durability(seed);
                BackendSpec::Net { cfg, shards: 1 }
            }
            SoakBackend::Gossip => BackendSpec::gossip(nodes),
        }
    }
}

/// How dense the generated fault stream is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Intensity {
    /// Sparse minority-safe faults with long healthy gaps.
    Calm,
    /// Dense windows, including heal-bounded majority partitions (the
    /// expected-degradation class that feeds the MTTR table).
    Storm,
    /// Alternating calm and storm segments (the default).
    Mixed,
}

impl Intensity {
    /// Stable name used by the CLI and JSON encodings.
    pub fn name(&self) -> &'static str {
        match self {
            Intensity::Calm => "calm",
            Intensity::Storm => "storm",
            Intensity::Mixed => "mixed",
        }
    }

    /// Parses a CLI/JSON name.
    pub fn parse(s: &str) -> Option<Intensity> {
        match s {
            "calm" => Some(Intensity::Calm),
            "storm" => Some(Intensity::Storm),
            "mixed" => Some(Intensity::Mixed),
            _ => None,
        }
    }
}

/// Everything that determines a soak. Two equal configs produce
/// byte-identical reports on any machine — the engine is single-threaded
/// and consults no ambient state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoakConfig {
    /// The backend under soak.
    pub backend: SoakBackend,
    /// Backend-tick horizon: ops are driven until the backend clock passes
    /// it (for `shm`, one op is one tick).
    pub ticks: u64,
    /// Seed for the fault timeline, freeze windows, durability draw and
    /// the backend's own network delays.
    pub seed: u64,
    /// Fault-stream density.
    pub intensity: Intensity,
    /// Ops between flight-recorder checkpoints (`0` disables the recorder
    /// — violations then offer no resume point).
    pub checkpoint_every: u64,
    /// Replica count for net/gossip (ignored by shm). At least 3: the fault
    /// menus assume a window on one replica leaves a live majority, which
    /// fewer replicas do not have (the CLI refuses `--nodes` below 3).
    pub nodes: usize,
    /// Append one deterministic *bug* to the timeline: an unhealed
    /// majority partition at 85% of the horizon (net/gossip), or a model
    /// write skipped at 85% of the op stream (shm). Used to exercise the
    /// violation → checkpoint-replay → shrink path on demand.
    pub inject_bug: bool,
}

impl SoakConfig {
    /// The default soak for `backend`: 2000 ticks, seed 1, mixed
    /// intensity, a checkpoint every 64 ops, 4 replicas, no injected bug.
    pub fn new(backend: SoakBackend) -> SoakConfig {
        SoakConfig {
            backend,
            ticks: 2_000,
            seed: 1,
            intensity: Intensity::Mixed,
            checkpoint_every: 64,
            nodes: 4,
            inject_bug: false,
        }
    }
}

/// The pre-generated fault material for one soak: an explicit network
/// fault list (empty for shm), read-only freeze windows in backend-tick
/// space, and the optional shm model-write bug op. Artifacts carry all
/// three so a shrunken artifact replays exactly what it says.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Timeline {
    /// Timed network faults handed to the backend config.
    pub faults: Vec<NetFault>,
    /// `[start, end)` backend-tick windows during which the op stream
    /// issues only reads (frozen detectors / delayed advice).
    pub freezes: Vec<(u64, u64)>,
    /// Op index whose write skips the model (the shm injected bug).
    pub bug_op: Option<u64>,
}

/// Draws the net backend's durability policy from the soak seed — a pure
/// function, so replays agree without storing more than the seed.
pub fn draw_durability(seed: u64) -> Durability {
    let d = mix(seed ^ DURABILITY_SALT);
    match d % 3 {
        0 => Durability::Volatile,
        1 => Durability::Durable,
        _ => Durability::PrefixDurable(1 + (d >> 8) % 8),
    }
}

/// Generates the seeded fault timeline for `cfg`: serialized
/// (non-overlapping) windows from tick 60 to 80% of the horizon, each
/// drawn from the intensity-dependent menu, plus sparse freeze windows.
/// Every generated window is majority-safe except the storm menu's
/// heal-bounded majority partitions, whose degradations are *expected*
/// inside envelopes the engine derives from the timeline's partition
/// windows; gaps after those are long enough for the spell to resolve
/// before the next window opens.
pub fn timeline(cfg: &SoakConfig) -> Timeline {
    let mut tl = Timeline::default();
    let ticks = cfg.ticks;
    // Freeze windows ride every backend: three short read-only spells
    // spread across the run.
    for i in 0..3u64 {
        let d = mix(cfg.seed ^ FREEZE_SALT ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let start = ticks * (2 * i + 1) / 8 + d % (ticks / 16 + 1);
        let len = 10 + (d >> 16) % (ticks / 32 + 1);
        tl.freezes.push((start, start + len));
    }
    if cfg.backend == SoakBackend::Shm {
        if cfg.inject_bug {
            // Snapped to the next write op (the stream writes on every
            // third op) — a bug on a read op would be a no-op.
            let b = ticks * 85 / 100;
            tl.bug_op = Some(b + (3 - b % 3) % 3);
        }
        return tl;
    }
    let n = cfg.nodes;
    let quorum = n / 2 + 1;
    let gossip = cfg.backend == SoakBackend::Gossip;
    let horizon = NetConfig::new(n, cfg.seed).retransmission_horizon();
    let seg = (ticks / 6).max(1);
    let storm_at = |tick: u64| match cfg.intensity {
        Intensity::Calm => false,
        Intensity::Storm => true,
        Intensity::Mixed => (tick / seg) % 2 == 1,
    };
    let mut cursor = 60u64;
    let end = ticks * 8 / 10;
    let mut w = 0u64;
    while cursor < end {
        let d1 = mix(cfg.seed ^ FAULT_SALT ^ w.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let d2 = mix(d1);
        let d3 = mix(d2);
        let node = (d1 % n as u64) as usize;
        let storm = storm_at(cursor);
        // Gossip windows are stretched: one anti-entropy round runs per op
        // and an op spans ~25-30 backend ticks, so a downed home must stay
        // down for hundreds of ticks to cross the staleness horizon
        // (which is measured in rounds).
        let dur = if gossip {
            if storm { 380 + d2 % 160 } else { 340 + d2 % 120 }
        } else if storm {
            40 + d2 % 80
        } else {
            20 + d2 % 30
        };
        let kind = d3 % if storm { 5 } else { 4 };
        let gap = match kind {
            // A majority partition needs its spell to resolve before the
            // next window: leave at least two horizons of healthy air.
            4 => 2 * horizon + 80 + d2 % 40,
            _ if storm => 30 + d1 % 50,
            _ => 80 + d1 % 120,
        };
        match kind {
            // Gossip swaps the crash and drop menus for a *composed*
            // stale-advice window: partition the home so fresh deltas jam
            // inside it, crash it (the jammed deltas become unreachable),
            // heal the fabric so the fallback serves — stale — past the
            // horizon, then recover the home to close the spell. Each
            // window is one measurable advice-stale MTTR sample.
            0 | 2 if gossip => {
                tl.faults.push(NetFault::Partition { at: cursor, nodes: vec![node] });
                tl.faults.push(NetFault::CrashReplica { at: cursor + STALE_PRE, node });
                tl.faults.push(NetFault::Heal { at: cursor + STALE_PRE + 1 });
                tl.faults.push(NetFault::RecoverReplica { at: cursor + dur, node });
            }
            0 => {
                tl.faults.push(NetFault::CrashReplica { at: cursor, node });
                tl.faults.push(NetFault::RecoverReplica { at: cursor + dur, node });
            }
            1 => {
                tl.faults.push(NetFault::Partition { at: cursor, nodes: vec![node] });
                tl.faults.push(NetFault::Heal { at: cursor + dur });
            }
            2 => tl.faults.push(NetFault::Drop { at: cursor, until: cursor + dur, node }),
            3 => tl.faults.push(NetFault::CorruptMessage {
                at: cursor,
                until: cursor + dur,
                node,
                every: 1,
            }),
            _ => {
                // Storm only: isolate just enough replicas to break the
                // majority, heal inside the window — quorum ops degrade,
                // then the half-open probe recovers them (an MTTR sample).
                let cut: Vec<usize> =
                    (0..n - quorum + 1).map(|i| (node + i) % n).collect();
                tl.faults.push(NetFault::Partition { at: cursor, nodes: cut });
                tl.faults.push(NetFault::Heal { at: cursor + dur });
            }
        }
        cursor += dur + gap;
        w += 1;
    }
    if cfg.inject_bug {
        // The injected bug: a majority-breaking partition after the last
        // generated window, never healed. Net soaks degrade outside every
        // expected envelope; gossip soaks fail convergence-on-quiescence.
        // A long gossip window opened just before the generation cutoff
        // can heal past 85% of the horizon; the bug then opens after that
        // heal, or the heal would close it.
        let cut: Vec<usize> = (0..n - quorum + 1).collect();
        let bug = ticks * 85 / 100;
        let healed = FaultWindows::new(&tl.faults, n).partitions().last().map_or(0, |w| w.end);
        let at = if healed > bug { healed.saturating_add(1) } else { bug };
        tl.faults.push(NetFault::Partition { at, nodes: cut });
    }
    tl
}

/// Tick envelopes inside which `quorum-lost` degradations are *expected*:
/// one per majority-breaking partition window that closes, spanning
/// `[start, end + 2·horizon + 32)`. Read from the fault list alone — the
/// same windows serve generation, replay and shrinking, so an artifact's
/// faults are the single source of truth. A majority partition that never
/// closes contributes no envelope: its degradations are violations.
fn envelopes(windows: &FaultWindows, nodes: usize) -> Vec<(u64, u64)> {
    let quorum = nodes / 2 + 1;
    let slack = 2 * NetConfig::new(nodes, 0).retransmission_horizon() + 32;
    windows
        .partitions()
        .iter()
        .filter(|w| w.closed_by.is_some() && nodes - w.who.len() < quorum)
        .map(|w| (w.start, w.end + slack))
        .collect()
}

/// The register-file model the oracles compare against.
#[derive(Clone, Debug)]
struct Model {
    /// Last value written per key (shm/net equality oracle).
    vals: Vec<Value>,
    /// Every value ever written per key (gossip staleness oracle: a stale
    /// read must still be one of these, or `⊥`).
    seen: Vec<Vec<Value>>,
}

impl Model {
    fn new() -> Model {
        Model { vals: vec![Value::Unit; KEYS], seen: vec![Vec::new(); KEYS] }
    }
}

/// One checkpointable unit of soak state: the backend plus the oracle
/// model plus the op counter. Cloning it *is* taking a checkpoint.
#[derive(Clone, Debug)]
struct SoakState {
    backend: Box<dyn MemoryBackend>,
    model: Model,
    ops: u64,
}

impl SoakState {
    /// The soak clock: the backend's network tick, or the op count on a
    /// backend without a clock (shm: one op is one tick).
    fn tick(&self) -> u64 {
        self.backend.clock().unwrap_or(self.ops)
    }
}

/// The soak register for key slot `kx`.
fn reg_key(kx: usize) -> RegKey {
    RegKey::new(29).at(0, kx as u32)
}

/// An oracle violation observed during a soak.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoakViolation {
    /// Violation class: `quorum-lost`, `read-divergence`, `fabricated-read`,
    /// `gossip-divergence`, `causal-replay` or `unresolved-degradation`.
    pub kind: String,
    /// The op index at which the oracle fired.
    pub op: u64,
    /// Human-readable specifics.
    pub detail: String,
}

impl SoakViolation {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.clone())),
            ("op".into(), Json::Num(self.op)),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<SoakViolation, String> {
        Ok(SoakViolation {
            kind: v.get("kind").and_then(Json::str).ok_or("violation: missing kind")?.to_string(),
            op: v.get("op").and_then(Json::num).ok_or("violation: missing op")?,
            detail: v.get("detail").and_then(Json::str).unwrap_or("").to_string(),
        })
    }
}

/// One closed degradation spell, as surfaced in soak reports and
/// `ksa --json` (`recoveries`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Recovery {
    /// The degradation class that resolved (`quorum-lost`/`advice-stale`).
    pub class: String,
    /// The replica group that recovered.
    pub shard: usize,
    /// Backend tick the spell opened.
    pub degrade_tick: u64,
    /// Backend tick the spell closed.
    pub resolve_tick: u64,
}

impl From<&Resolution> for Recovery {
    fn from(r: &Resolution) -> Recovery {
        Recovery {
            class: r.kind.name().to_string(),
            shard: r.shard,
            degrade_tick: r.degrade_tick,
            resolve_tick: r.resolve_tick,
        }
    }
}

impl Recovery {
    /// Ticks the spell lasted.
    pub fn ttr(&self) -> u64 {
        self.resolve_tick.saturating_sub(self.degrade_tick)
    }

    /// Serializes the row (the `recoveries` array element shape).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("class".into(), Json::Str(self.class.clone())),
            ("shard".into(), Json::Num(self.shard as u64)),
            ("degrade_tick".into(), Json::Num(self.degrade_tick)),
            ("resolve_tick".into(), Json::Num(self.resolve_tick)),
        ])
    }

    /// Parses a row.
    pub fn from_json(v: &Json) -> Result<Recovery, String> {
        Ok(Recovery {
            class: v.get("class").and_then(Json::str).ok_or("recovery: missing class")?.into(),
            shard: v.get("shard").and_then(Json::num).unwrap_or(0) as usize,
            degrade_tick: v
                .get("degrade_tick")
                .and_then(Json::num)
                .ok_or("recovery: missing degrade_tick")?,
            resolve_tick: v
                .get("resolve_tick")
                .and_then(Json::num)
                .ok_or("recovery: missing resolve_tick")?,
        })
    }
}

/// Aggregated time-to-recovery per degradation class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MttrRow {
    /// Degradation class.
    pub class: String,
    /// Spells resolved.
    pub count: u64,
    /// Shortest spell, in backend ticks.
    pub min: u64,
    /// Longest spell, in backend ticks.
    pub max: u64,
    /// Sum of spell lengths (mean = total / count).
    pub total: u64,
}

/// What the flight recorder did about a violation: where the replay
/// resumed and whether the violation reproduced from there.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayInfo {
    /// Op index of the checkpoint the replay resumed from.
    pub from_op: u64,
    /// Backend tick of that checkpoint.
    pub from_tick: u64,
    /// Ops re-executed until the verdict.
    pub replayed_ops: u64,
    /// Backend ticks re-executed until the verdict.
    pub replayed_ticks: u64,
    /// Whether the replay reached the same violation kind at the same op.
    pub reproduced: bool,
}

impl ReplayInfo {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("from_op".into(), Json::Num(self.from_op)),
            ("from_tick".into(), Json::Num(self.from_tick)),
            ("replayed_ops".into(), Json::Num(self.replayed_ops)),
            ("replayed_ticks".into(), Json::Num(self.replayed_ticks)),
            ("reproduced".into(), Json::Bool(self.reproduced)),
        ])
    }

    fn from_json(v: &Json) -> Result<ReplayInfo, String> {
        Ok(ReplayInfo {
            from_op: v.get("from_op").and_then(Json::num).ok_or("replay: missing from_op")?,
            from_tick: v.get("from_tick").and_then(Json::num).unwrap_or(0),
            replayed_ops: v
                .get("replayed_ops")
                .and_then(Json::num)
                .ok_or("replay: missing replayed_ops")?,
            replayed_ticks: v.get("replayed_ticks").and_then(Json::num).unwrap_or(0),
            reproduced: v.get("reproduced").and_then(Json::bool).unwrap_or(false),
        })
    }
}

/// The soak's complete, canonical result — also the replayable artifact
/// (`faults soak --out` writes its JSON; `faults replay` re-executes it):
/// the config, the timeline it ran and the verdict.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The config the soak ran under.
    pub config: SoakConfig,
    /// The explicit fault timeline (the artifact's source of truth).
    pub timeline: Timeline,
    /// Ops the soak executed.
    pub ops: u64,
    /// The backend clock when the soak ended.
    pub final_tick: u64,
    /// The oracle verdict (`None`: a clean soak).
    pub violation: Option<SoakViolation>,
    /// Every degradation spell that closed, in resolve order.
    pub recoveries: Vec<Recovery>,
    /// Time-to-recovery aggregation per degradation class.
    pub mttr: Vec<MttrRow>,
    /// Checkpoints the flight recorder took.
    pub checkpoints: u64,
    /// The checkpoint-replay certification, when a violation fired and the
    /// recorder held a resume point.
    pub replay: Option<ReplayInfo>,
    /// The run's canonical counter snapshot (the replay pass is excluded).
    pub metrics: Snapshot,
}

impl SoakReport {
    /// Serializes the report/artifact. Key order is fixed, so equal
    /// reports are byte-identical. The net durability policy is not
    /// stored: it is drawn from the seed here (`-` off-net).
    pub fn to_json(&self) -> Json {
        let (cfg, tl) = (&self.config, &self.timeline);
        let durability = match cfg.backend {
            SoakBackend::Net => draw_durability(cfg.seed).name(),
            _ => "-",
        };
        Json::Obj(vec![
            ("command".into(), Json::Str("soak".into())),
            ("backend".into(), Json::Str(cfg.backend.name().into())),
            ("ticks".into(), Json::Num(cfg.ticks)),
            ("seed".into(), Json::Num(cfg.seed)),
            ("intensity".into(), Json::Str(cfg.intensity.name().into())),
            ("checkpoint_every".into(), Json::Num(cfg.checkpoint_every)),
            ("nodes".into(), Json::Num(cfg.nodes as u64)),
            ("inject_bug".into(), Json::Bool(cfg.inject_bug)),
            ("durability".into(), Json::Str(durability.into())),
            ("ops".into(), Json::Num(self.ops)),
            ("final_tick".into(), Json::Num(self.final_tick)),
            ("faults".into(), Json::Arr(tl.faults.iter().map(NetFault::to_json).collect())),
            (
                "freezes".into(),
                Json::Arr(
                    tl.freezes
                        .iter()
                        .map(|(a, b)| Json::Arr(vec![Json::Num(*a), Json::Num(*b)]))
                        .collect(),
                ),
            ),
            ("bug_op".into(), tl.bug_op.map_or(Json::Null, Json::Num)),
            ("violation".into(), self.violation.as_ref().map_or(Json::Null, SoakViolation::to_json)),
            ("recoveries".into(), Json::Arr(self.recoveries.iter().map(Recovery::to_json).collect())),
            (
                "mttr".into(),
                Json::Arr(
                    self.mttr
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("class".into(), Json::Str(m.class.clone())),
                                ("count".into(), Json::Num(m.count)),
                                ("min".into(), Json::Num(m.min)),
                                ("max".into(), Json::Num(m.max)),
                                ("total".into(), Json::Num(m.total)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("checkpoints".into(), Json::Num(self.checkpoints)),
            ("replay".into(), self.replay.as_ref().map_or(Json::Null, ReplayInfo::to_json)),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }

    /// Parses an artifact. Tolerant of legacy shapes: a missing
    /// `recoveries`/`mttr`/`replay` parses to empty (artifacts written
    /// before the degradation lifecycle closed still load). The
    /// `durability` field is ignored: it is a function of the seed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed required field.
    pub fn from_json(v: &Json) -> Result<SoakReport, String> {
        let need_num =
            |k: &str| v.get(k).and_then(Json::num).ok_or_else(|| format!("soak artifact: missing {k}"));
        let need_str =
            |k: &str| v.get(k).and_then(Json::str).ok_or_else(|| format!("soak artifact: missing {k}"));
        let backend = need_str("backend")?;
        let intensity = need_str("intensity")?;
        let config = SoakConfig {
            backend: SoakBackend::parse(backend)
                .ok_or_else(|| format!("soak artifact: unknown backend `{backend}`"))?,
            ticks: need_num("ticks")?,
            seed: need_num("seed")?,
            intensity: Intensity::parse(intensity)
                .ok_or_else(|| format!("soak artifact: unknown intensity `{intensity}`"))?,
            checkpoint_every: v.get("checkpoint_every").and_then(Json::num).unwrap_or(0),
            nodes: v.get("nodes").and_then(Json::num).unwrap_or(4) as usize,
            inject_bug: v.get("inject_bug").and_then(Json::bool).unwrap_or(false),
        };
        let faults = match v.get("faults").and_then(Json::arr) {
            Some(xs) => xs.iter().map(NetFault::from_json).collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let freezes = match v.get("freezes").and_then(Json::arr) {
            Some(xs) => xs
                .iter()
                .map(|p| {
                    let items = p.arr().filter(|a| a.len() == 2).ok_or("soak artifact: bad freeze")?;
                    Ok::<(u64, u64), String>((
                        items[0].num().ok_or("soak artifact: bad freeze")?,
                        items[1].num().ok_or("soak artifact: bad freeze")?,
                    ))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let violation = match v.get("violation") {
            Some(Json::Null) | None => None,
            Some(j) => Some(SoakViolation::from_json(j)?),
        };
        // Legacy artifacts predate the degradation lifecycle: no
        // `recoveries` array still parses (to none).
        let recoveries = match v.get("recoveries").and_then(Json::arr) {
            Some(xs) => xs.iter().map(Recovery::from_json).collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let replay = match v.get("replay") {
            Some(Json::Null) | None => None,
            Some(j) => Some(ReplayInfo::from_json(j)?),
        };
        let metrics = match v.get("metrics") {
            Some(j) => Snapshot::from_json(j)?,
            None => Snapshot { counters: Vec::new(), hists: Vec::new() },
        };
        Ok(SoakReport {
            config,
            timeline: Timeline { faults, freezes, bug_op: v.get("bug_op").and_then(Json::num) },
            ops: v.get("ops").and_then(Json::num).unwrap_or(0),
            final_tick: v.get("final_tick").and_then(Json::num).unwrap_or(0),
            violation,
            mttr: mttr_rows(&recoveries),
            recoveries,
            checkpoints: v.get("checkpoints").and_then(Json::num).unwrap_or(0),
            replay,
            metrics,
        })
    }

    /// Human-readable summary with the MTTR table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[soak:{}] {} ops over {} ticks (target {}), seed {}, {} intensity, {} fault(s), {} checkpoint(s)\n",
            self.config.backend.name(),
            self.ops,
            self.final_tick,
            self.config.ticks,
            self.config.seed,
            self.config.intensity.name(),
            self.timeline.faults.len(),
            self.checkpoints,
        );
        match &self.violation {
            None => out.push_str("verdict  : clean — every oracle held\n"),
            Some(v) => {
                out.push_str(&format!("verdict  : VIOLATION {} at op {} — {}\n", v.kind, v.op, v.detail));
                if let Some(r) = &self.replay {
                    out.push_str(&format!(
                        "replay   : resumed at op {} (tick {}), {} op(s) / {} tick(s) re-run, {}\n",
                        r.from_op,
                        r.from_tick,
                        r.replayed_ops,
                        r.replayed_ticks,
                        if r.reproduced { "reproduced" } else { "NOT reproduced" }
                    ));
                }
            }
        }
        if self.mttr.is_empty() {
            out.push_str("mttr     : no degradation spells (none expected, none seen)\n");
        } else {
            out.push_str("mttr     : class            count    min    max   mean (ticks)\n");
            for m in &self.mttr {
                out.push_str(&format!(
                    "           {:<16} {:>5} {:>6} {:>6} {:>6}\n",
                    m.class,
                    m.count,
                    m.min,
                    m.max,
                    m.total / m.count.max(1),
                ));
            }
        }
        out
    }
}

fn mttr_rows(rows: &[Recovery]) -> Vec<MttrRow> {
    let mut by_class: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for r in rows {
        let ttr = r.ttr();
        let e = by_class.entry(&r.class).or_insert((0, u64::MAX, 0, 0));
        e.0 += 1;
        e.1 = e.1.min(ttr);
        e.2 = e.2.max(ttr);
        e.3 += ttr;
    }
    by_class
        .into_iter()
        .map(|(class, (count, min, max, total))| MttrRow {
            class: class.to_string(),
            count,
            min,
            max,
            total,
        })
        .collect()
}

/// The gossip home replica key `kx` prefers (mirrors
/// [`GossipBackend`]'s routing).
fn home_of_key(kx: usize, nodes: usize) -> usize {
    reg_key(kx).shard_index(nodes.max(1))
}

/// The soak loop proper: pure state in, deterministic verdict out.
struct Engine<'a> {
    cfg: &'a SoakConfig,
    tl: &'a Timeline,
    envelopes: Vec<(u64, u64)>,
    /// The timeline's fault windows (gossip write steering reads the
    /// crash windows).
    windows: FaultWindows,
}

impl Engine<'_> {
    fn expected(&self, tick: u64) -> bool {
        self.envelopes.iter().any(|(a, b)| tick >= *a && tick < *b)
    }

    /// One op of the stream: a pure function of the op index and the
    /// current backend clock (freeze windows are tick-addressed, so a
    /// checkpointed clock replays them identically).
    fn step(&self, st: &mut SoakState, recoveries: &mut Vec<Resolution>) -> Result<(), SoakViolation> {
        let op = st.ops;
        let tick = st.tick();
        let frozen = self.tl.freezes.iter().any(|(a, b)| tick >= *a && tick < *b);
        let mut kx = (op % KEYS as u64) as usize;
        let mut write = op.is_multiple_of(3) && !frozen;
        if self.cfg.backend == SoakBackend::Gossip {
            let n = self.cfg.nodes;
            if let Some(node) = self
                .windows
                .crashes()
                .iter()
                .find(|w| tick < w.start && w.start <= tick + STALE_APPROACH)
                .map(|w| w.who)
            {
                // A home is about to crash (and is already partitioned, in
                // the composed window): steer fresh advice into it so the
                // crash strands those deltas and opens a measurable
                // stale-advice spell.
                let homes: Vec<usize> =
                    (0..KEYS).filter(|k| home_of_key(*k, n) == node).collect();
                if !frozen && !homes.is_empty() {
                    write = true;
                    kx = homes[(op % homes.len() as u64) as usize];
                }
            } else if write {
                // While a home is down, keep writes off its keys: a write
                // would land at the fallback and close the spell before
                // the horizon ever measures it. Reads stay on the natural
                // cycle — they are what witnesses the staleness.
                let down = |k: usize| self.windows.down(home_of_key(k, n), tick);
                for _ in 0..KEYS {
                    if !down(kx) {
                        break;
                    }
                    kx = (kx + 1) % KEYS;
                }
            }
        }
        let key = reg_key(kx);
        let pid = Pid((op % self.cfg.nodes.max(1) as u64) as usize);
        if write {
            let val = Value::Int(op as i64 + 1);
            st.backend.write(pid, op, key, val.clone());
            if self.tl.bug_op != Some(op) {
                st.model.vals[kx] = val.clone();
            }
            st.model.seen[kx].push(val);
        } else {
            let got = st.backend.read(pid, op, key);
            self.check_read(op, kx, &got, st)?;
        }
        st.ops += 1;
        self.drain(st, op, recoveries)
    }

    fn check_read(&self, op: u64, kx: usize, got: &Value, st: &SoakState) -> Result<(), SoakViolation> {
        match self.cfg.backend {
            // Linearizable substrates must serve exactly the model (the
            // net backend's degraded fallback is the linearized view, so
            // equality holds straight through quorum-lost spells).
            SoakBackend::Shm | SoakBackend::Net => {
                if *got != st.model.vals[kx] {
                    return Err(SoakViolation {
                        kind: "read-divergence".into(),
                        op,
                        detail: format!(
                            "key {kx}: read {got} but the model holds {}",
                            st.model.vals[kx]
                        ),
                    });
                }
            }
            // Gossip reads may lag, but only to values that were actually
            // written (or ⊥): anything else was fabricated.
            SoakBackend::Gossip => {
                if !got.is_unit() && !st.model.seen[kx].contains(got) {
                    return Err(SoakViolation {
                        kind: "fabricated-read".into(),
                        op,
                        detail: format!("key {kx}: read {got}, which nobody ever wrote"),
                    });
                }
            }
        }
        Ok(())
    }

    fn drain(&self, st: &mut SoakState, op: u64, recoveries: &mut Vec<Resolution>) -> Result<(), SoakViolation> {
        for d in st.backend.drain_degradations() {
            match d.kind {
                // Stale advice is typed, recoverable service — its spell
                // must close (checked at quiescence), but it is not a
                // soak violation by itself.
                DegradationKind::AdviceStale => {}
                DegradationKind::QuorumLost => {
                    if !self.expected(d.tick) {
                        return Err(SoakViolation {
                            kind: "quorum-lost".into(),
                            op,
                            detail: format!("quorum loss outside every expected envelope: {d}"),
                        });
                    }
                }
            }
        }
        recoveries.append(&mut st.backend.drain_resolutions());
        Ok(())
    }

    /// End-of-stream oracles: gossip convergence-on-quiescence and causal
    /// replay, a model read-back sweep over every key, and the degradation
    /// lifecycle (no spell may still be open).
    fn quiesce(&self, st: &mut SoakState, recoveries: &mut Vec<Resolution>) -> Result<(), SoakViolation> {
        let op = st.ops;
        if self.cfg.backend == SoakBackend::Gossip {
            let g = st
                .backend
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<GossipBackend>())
                .expect("a gossip soak drives a gossip backend");
            let budget = 3 * self.cfg.nodes as u64 + 8;
            if g.run_rounds_until_converged(budget).is_none() {
                return Err(SoakViolation {
                    kind: "gossip-divergence".into(),
                    op,
                    detail: format!("cluster failed to converge within {budget} quiescent rounds"),
                });
            }
            if !g.causal_ok() {
                return Err(SoakViolation {
                    kind: "causal-replay".into(),
                    op,
                    detail: "a replica state is not the causal replay of its delivered deltas".into(),
                });
            }
        }
        // Read-back sweep: after quiescence every backend — gossip
        // included, now that it has converged — must serve the model.
        for kx in 0..KEYS {
            let got = st.backend.read(Pid(0), op, reg_key(kx));
            if got != st.model.vals[kx] {
                return Err(SoakViolation {
                    kind: "read-divergence".into(),
                    op,
                    detail: format!(
                        "final sweep, key {kx}: read {got} but the model holds {}",
                        st.model.vals[kx]
                    ),
                });
            }
        }
        self.drain(st, op, recoveries)?;
        if st.backend.is_degraded() {
            return Err(SoakViolation {
                kind: "unresolved-degradation".into(),
                op,
                detail: "a quorum-lost spell was still open when the soak ended".into(),
            });
        }
        Ok(())
    }

    /// Drives `st` to the tick horizon (recording checkpoints when a
    /// recorder is supplied), then runs the quiescence oracles. Returns
    /// the first violation, if any.
    fn run(
        &self,
        st: &mut SoakState,
        mut recorder: Option<&mut Vec<(u64, SoakState)>>,
        recoveries: &mut Vec<Resolution>,
    ) -> Option<SoakViolation> {
        // Backstop against a backend whose clock stalls: the op stream is
        // bounded even if the tick horizon is never reached.
        let cap = self.cfg.ticks.saturating_mul(8).max(1_024);
        while st.tick() < self.cfg.ticks && st.ops < cap {
            if let Some(r) = recorder.as_deref_mut() {
                if self.cfg.checkpoint_every > 0 && st.ops.is_multiple_of(self.cfg.checkpoint_every)
                {
                    r.push((st.ops, st.clone()));
                    if r.len() > RECORDER_SLOTS {
                        r.remove(0);
                    }
                }
            }
            if let Err(v) = self.step(st, recoveries) {
                return Some(v);
            }
        }
        self.quiesce(st, recoveries).err()
    }

    /// Replays from the newest flight-recorder checkpoint and checks the
    /// violation reproduces there — the "resume from the last good
    /// checkpoint instead of tick 0" contract.
    fn certify(&self, checkpoints: &[(u64, SoakState)], v: &SoakViolation) -> Option<ReplayInfo> {
        let (from_op, snap) = checkpoints.last()?;
        let mut st = snap.clone();
        let from_tick = st.tick();
        let mut sink = Vec::new();
        let got = self.run(&mut st, None, &mut sink);
        let end_tick = st.tick();
        Some(ReplayInfo {
            from_op: *from_op,
            from_tick,
            replayed_ops: st.ops.saturating_sub(*from_op).max(1),
            replayed_ticks: end_tick.saturating_sub(from_tick),
            reproduced: got.as_ref().is_some_and(|g| g.kind == v.kind && g.op == v.op),
        })
    }
}

/// Runs one soak over an explicit [`Timeline`] — the artifact-replay and
/// shrink entry point. [`soak`] generates the timeline from the config
/// first; both produce identical reports for identical inputs.
pub fn run_soak(cfg: &SoakConfig, tl: &Timeline) -> SoakReport {
    let obs = MetricsHandle::counters();
    let windows = FaultWindows::new(&tl.faults, cfg.nodes);
    let engine = Engine { cfg, tl, envelopes: envelopes(&windows, cfg.nodes), windows };
    let backend = cfg.backend.spec(cfg.nodes, cfg.seed).build(cfg.seed, &tl.faults);
    let mut st = SoakState { backend, model: Model::new(), ops: 0 };
    let mut checkpoints: Vec<(u64, SoakState)> = Vec::new();
    let mut resolutions: Vec<Resolution> = Vec::new();
    let violation = {
        // The recording context covers the main pass only: the replay
        // certification below re-executes ops and must not double-count.
        let _g = obs_local::enter(&obs, 0, 0);
        engine.run(&mut st, Some(&mut checkpoints), &mut resolutions)
    };
    let checkpoints_taken = checkpoints.len() as u64;
    let replay = violation.as_ref().and_then(|v| engine.certify(&checkpoints, v));
    let recoveries: Vec<Recovery> = resolutions.iter().map(Recovery::from).collect();
    SoakReport {
        config: cfg.clone(),
        timeline: tl.clone(),
        ops: st.ops,
        final_tick: st.tick(),
        violation,
        mttr: mttr_rows(&recoveries),
        recoveries,
        checkpoints: checkpoints_taken,
        replay,
        metrics: obs.snapshot().expect("metrics enabled"),
    }
}

/// Runs one soak from its config: generates the seeded timeline, drives
/// the backend to the tick horizon under the online oracles, certifies any
/// violation against the flight recorder, and aggregates MTTR.
pub fn soak(cfg: &SoakConfig) -> SoakReport {
    run_soak(cfg, &timeline(cfg))
}

/// Is this JSON value a soak artifact (vs a sweep report / bare
/// violation)?
pub fn is_soak_artifact(v: &Json) -> bool {
    v.get("command").and_then(Json::str) == Some("soak")
}

/// One replay-diff row: `(field, artifact value, replay value)`.
pub type SoakDiff = Vec<(String, String, String)>;

/// Re-executes a soak artifact from scratch — the stored timeline, not a
/// regenerated one, so shrunken artifacts replay exactly what they carry —
/// and diffs the fresh verdict against the artifact field by field.
/// Returns the fresh report and the diff rows `(field, artifact, replay)`;
/// an empty diff means the artifact reproduced.
///
/// # Errors
///
/// Returns a description of the first malformed artifact field.
pub fn replay_soak(artifact: &Json) -> Result<(SoakReport, SoakDiff), String> {
    let old = SoakReport::from_json(artifact)?;
    let fresh = run_soak(&old.config, &old.timeline);
    let mut diff = Vec::new();
    let mut field = |name: &str, a: String, b: String| {
        if a != b {
            diff.push((name.to_string(), a, b));
        }
    };
    let verdict = |r: &SoakReport| match &r.violation {
        None => "clean".to_string(),
        Some(v) => v.kind.clone(),
    };
    let verdict_op = |r: &SoakReport| match &r.violation {
        None => "-".to_string(),
        Some(v) => v.op.to_string(),
    };
    field("verdict", verdict(&old), verdict(&fresh));
    field("violation-op", verdict_op(&old), verdict_op(&fresh));
    field("ops", old.ops.to_string(), fresh.ops.to_string());
    field("final-tick", old.final_tick.to_string(), fresh.final_tick.to_string());
    field("recoveries", old.recoveries.len().to_string(), fresh.recoveries.len().to_string());
    Ok((fresh, diff))
}

/// Shrinks a violating soak artifact with `shrink::shrink_plan`, the
/// greedy loop sweeps shrink with: first over whole fault windows
/// ([`FaultWindows::groups`]: a partition with its heal and a crash with
/// its recovery together, loss and corruption windows singly), then over
/// freeze windows, keeping each drop iff the re-soak still reaches the
/// same violation kind. Both passes share one
/// budget of `MAX_SOAK_REPLAYS` re-soaks. Returns the shrunken, replayable
/// report and the number of re-soaks spent. A clean report is returned
/// unchanged.
pub fn shrink_soak(report: &SoakReport) -> (SoakReport, usize) {
    let Some(v0) = &report.violation else {
        return (report.clone(), 0);
    };
    let still = |cand: &Timeline| {
        let r = run_soak(&report.config, cand);
        r.violation.as_ref().is_some_and(|v| v.kind == v0.kind).then_some(r)
    };
    let drop_windows = |tl: &Timeline| -> Vec<Timeline> {
        FaultWindows::new(&tl.faults, report.config.nodes)
            .groups()
            .into_iter()
            .map(|w| Timeline {
                faults: (0..tl.faults.len())
                    .filter(|i| !w.contains(i))
                    .map(|i| tl.faults[i].clone())
                    .collect(),
                ..tl.clone()
            })
            .collect()
    };
    let drop_freezes = |tl: &Timeline| -> Vec<Timeline> {
        (0..tl.freezes.len())
            .map(|i| {
                let mut cand = tl.clone();
                cand.freezes.remove(i);
                cand
            })
            .collect()
    };
    let mut tl = report.timeline.clone();
    let (used, by_windows) = shrink_plan(&mut tl, MAX_SOAK_REPLAYS, drop_windows, &still);
    let (more, by_freezes) = shrink_plan(&mut tl, MAX_SOAK_REPLAYS - used, drop_freezes, &still);
    (by_freezes.or(by_windows).unwrap_or_else(|| report.clone()), used + more)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_are_serialized_and_majority_safe_without_storms() {
        let mut cfg = SoakConfig::new(SoakBackend::Net);
        cfg.intensity = Intensity::Calm;
        let tl = timeline(&cfg);
        assert!(!tl.faults.is_empty(), "a 2k-tick calm soak still draws windows");
        let w = FaultWindows::new(&tl.faults, cfg.nodes);
        // Calm menus never break the majority: no expected envelopes.
        assert!(envelopes(&w, cfg.nodes).is_empty());
        assert!(wfa_net::config::majority_safe(&tl.faults, cfg.nodes));
        // Windows are serialized: in tick order, none overlaps the next.
        let mut spans: Vec<(u64, u64)> = w.partitions().iter().map(|p| (p.start, p.end)).collect();
        for link in [w.crashes(), w.drops()] {
            spans.extend(link.iter().map(|l| (l.start, l.end)));
        }
        spans.extend(w.corruptions().iter().map(|(l, _)| (l.start, l.end)));
        spans.sort_unstable();
        assert_eq!(spans.len(), w.groups().len(), "one window per drawn fault window");
        assert!(spans.windows(2).all(|p| p[0].1 < p[1].0), "windows overlap: {spans:?}");
    }

    #[test]
    fn storm_timelines_have_expected_envelopes_but_injected_bugs_do_not() {
        let mut cfg = SoakConfig::new(SoakBackend::Net);
        cfg.intensity = Intensity::Storm;
        cfg.seed = 3;
        let tl = timeline(&cfg);
        let expected = envelopes(&FaultWindows::new(&tl.faults, cfg.nodes), cfg.nodes);
        assert!(!expected.is_empty(), "storms draw heal-bounded majority partitions");
        // The injected bug is an *unhealed* majority partition — it must
        // not gain an envelope (its degradations are the violation).
        cfg.inject_bug = true;
        let bug_tl = timeline(&cfg);
        assert_eq!(bug_tl.faults.len(), tl.faults.len() + 1);
        let with_bug = envelopes(&FaultWindows::new(&bug_tl.faults, cfg.nodes), cfg.nodes);
        assert_eq!(with_bug, expected);
    }

    #[test]
    fn clean_shm_soak_is_deterministic_and_violation_free() {
        let mut cfg = SoakConfig::new(SoakBackend::Shm);
        cfg.ticks = 500;
        let (a, b) = (soak(&cfg), soak(&cfg));
        assert!(a.violation.is_none(), "{:?}", a.violation);
        assert_eq!(a.ops, cfg.ticks, "one shm op per tick");
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert!(a.checkpoints > 0);
    }

    #[test]
    fn shm_injected_bug_is_caught_and_replays_from_its_checkpoint() {
        let mut cfg = SoakConfig::new(SoakBackend::Shm);
        cfg.ticks = 600;
        cfg.checkpoint_every = 32;
        cfg.inject_bug = true;
        let r = soak(&cfg);
        let v = r.violation.as_ref().expect("the skipped model write must surface");
        assert_eq!(v.kind, "read-divergence");
        let rep = r.replay.as_ref().expect("the recorder held a resume point");
        assert!(rep.reproduced, "the violation must reproduce from the checkpoint");
        assert!(
            rep.replayed_ops * 5 < r.ops,
            "resume point too far back: {} of {} ops",
            rep.replayed_ops,
            r.ops
        );
    }

    #[test]
    fn soak_artifacts_roundtrip_and_legacy_artifacts_still_parse() {
        let mut cfg = SoakConfig::new(SoakBackend::Shm);
        cfg.ticks = 300;
        let r = soak(&cfg);
        let j = r.to_json();
        assert!(is_soak_artifact(&j));
        let back = SoakReport::from_json(&j).unwrap();
        assert_eq!(back.to_json().to_string(), j.to_string());
        // A legacy artifact without the lifecycle fields still parses.
        let text = j.to_string();
        let mut legacy = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "recoveries" && k != "mttr" && k != "replay");
        }
        let old = SoakReport::from_json(&legacy).unwrap();
        assert!(old.recoveries.is_empty());
        assert!(old.replay.is_none());
    }

    #[test]
    fn an_unhealed_quorum_loss_is_an_unresolved_degradation() {
        // A majority partition whose heal lies far past the horizon: every
        // degradation falls inside its expected envelope, so only the
        // lifecycle oracle can see that the spell never closed. It reads
        // the open spell through the boxed backend's `is_degraded`.
        let cfg = SoakConfig::new(SoakBackend::Net);
        let tl = Timeline {
            faults: vec![
                NetFault::Partition { at: 1_800, nodes: vec![0, 1] },
                NetFault::Heal { at: 1_000_000 },
            ],
            ..Timeline::default()
        };
        let r = run_soak(&cfg, &tl);
        let v = r.violation.as_ref().expect("the spell is still open at the horizon");
        assert_eq!((v.kind.as_str(), v.op), ("unresolved-degradation", 182));
        assert!(r.replay.as_ref().is_some_and(|rep| rep.reproduced));
    }

    #[test]
    fn durability_draw_is_a_pure_function_of_the_seed() {
        for seed in 0..32 {
            assert_eq!(draw_durability(seed), draw_durability(seed));
        }
        // All three policies occur within a small seed range.
        let names: std::collections::BTreeSet<&str> =
            (0..32).map(|s| draw_durability(s).name()).collect();
        assert_eq!(names.len(), 3, "{names:?}");
    }

    #[test]
    fn a_partition_replaced_before_its_heal_closes_at_the_replacement() {
        // Four nodes, quorum 3: a two-node cut breaks the majority. The
        // first cut is replaced by a minority one before the heal, so its
        // envelope ends at the replacement, not at the later heal.
        let faults = [
            NetFault::Partition { at: 100, nodes: vec![0, 1] },
            NetFault::Partition { at: 200, nodes: vec![3] },
            NetFault::Heal { at: 900 },
        ];
        let slack = 2 * NetConfig::new(4, 0).retransmission_horizon() + 32;
        assert_eq!(envelopes(&FaultWindows::new(&faults, 4), 4), vec![(100, 200 + slack)]);
    }
}
