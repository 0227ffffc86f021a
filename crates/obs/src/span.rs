//! Typed spans and events with a deterministic ordering key.
//!
//! Every observable moment of a run is an [`ObsEvent`]: what happened
//! ([`EventKind`]), when (the run's logical time), who (the pid), and a small
//! caller-supplied intra-step ordinal (`seq`). The triple
//! `(time, pid, seq)` is a *stable ordering key*: exports sort by it, so an
//! event stream serializes to the same bytes no matter which thread recorded
//! which event or in what order the recording interleaved. No wall-clock
//! time, no global sequence counter — both would make exports depend on
//! scheduling.
//!
//! [`Op`] is the **single** formatter for step memory operations in the
//! tree: the kernel's `OpKind` `Display` and space-time diagram delegate
//! here, so a read renders as `r[ns:a,b]` (and as glyph `r`) everywhere.

use std::fmt;

/// A step's shared-memory operation, as displayed. The one formatter for
/// step rendering — timelines, trace diagrams and exports all go through
/// [`Op::glyph`] / `Display`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// No memory operation this step (local computation / polling state).
    None,
    /// A single-register read of `(ns, a, b)` (namespace + first two index
    /// coordinates — what the kernel's register keys display).
    Read {
        /// Namespace discriminator.
        ns: u16,
        /// First index coordinate.
        a: u32,
        /// Second index coordinate.
        b: u32,
    },
    /// A single-register write of `(ns, a, b)`.
    Write {
        /// Namespace discriminator.
        ns: u16,
        /// First index coordinate.
        a: u32,
        /// Second index coordinate.
        b: u32,
    },
    /// An atomic snapshot of `n` registers.
    Snapshot(u16),
}

impl Op {
    /// One-character rendering for space-time diagrams.
    pub fn glyph(&self) -> char {
        match self {
            Op::None => '·',
            Op::Read { .. } => 'r',
            Op::Write { .. } => 'w',
            Op::Snapshot(_) => 's',
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::None => write!(f, "·"),
            Op::Read { ns, a, b } => write!(f, "r[{ns}:{a},{b}]"),
            Op::Write { ns, a, b } => write!(f, "w[{ns}:{a},{b}]"),
            Op::Snapshot(n) => write!(f, "s[{n}]"),
        }
    }
}

/// What a span covered (a duration in logical time, Chrome `ph:"X"`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// A whole run (schedule start to stop).
    Run,
    /// One simulated step of a code in a simulation engine.
    SimStep,
    /// One consensus round (ballot resolution).
    ConsensusRound,
    /// One `(plan, seed)` job of a fault sweep.
    SweepJob,
    /// One quorum-replicated register operation over the simulated network
    /// (duration = simulated network time spent collecting the quorums).
    QuorumOp,
    /// One message's traversal of a simulated channel (duration = link
    /// delay); attributed to the process whose operation sent it.
    Channel,
    /// One successful replica re-sync: a recovering replica pulling the
    /// max-tag register state from a majority before serving again
    /// (duration = simulated network time spent on the pull rounds).
    ReplicaResync,
    /// One anti-entropy round of the gossip backend: a seeded circulant
    /// sweep of pairwise digest/delta exchanges (duration = simulated
    /// network time the round's exchanges consumed).
    AntiEntropy,
    /// One complete degraded spell, emitted at its resolution (duration =
    /// backend ticks from the spell's first degradation to the successful
    /// probe that closed it — the MTTR sample).
    DegradedSpell,
}

impl SpanKind {
    /// Stable name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::SimStep => "sim_step",
            SpanKind::ConsensusRound => "consensus_round",
            SpanKind::SweepJob => "sweep_job",
            SpanKind::QuorumOp => "quorum_op",
            SpanKind::Channel => "channel",
            SpanKind::ReplicaResync => "replica_resync",
            SpanKind::AntiEntropy => "anti_entropy",
            SpanKind::DegradedSpell => "degraded_spell",
        }
    }
}

/// What an event was.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// An effective process step and its memory operation.
    Step {
        /// The memory operation performed.
        op: Op,
        /// `true` iff this was the process's decide step.
        decided: bool,
    },
    /// An S-process consulted its failure-detector module.
    FdQuery,
    /// A write of advice into a shared advice variable.
    AdviceWrite,
    /// A successful read of advice from a shared advice variable.
    AdviceRead,
    /// A scheduled slot was consumed by a crashed process (no step taken).
    CrashSkip,
    /// A violation was attributed to this point of the run.
    Violation,
    /// A completed span starting at the event's time and covering `dur`
    /// logical time units.
    Span {
        /// What the span covered.
        kind: SpanKind,
        /// Logical duration.
        dur: u64,
    },
}

impl EventKind {
    /// Stable name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Step { .. } => "step",
            EventKind::FdQuery => "fd_query",
            EventKind::AdviceWrite => "advice_write",
            EventKind::AdviceRead => "advice_read",
            EventKind::CrashSkip => "crash_skip",
            EventKind::Violation => "violation",
            EventKind::Span { .. } => "span",
        }
    }
}

/// Canonical intra-step `seq` ordinals. Within one `(time, pid)` slot the
/// model performs at most one of each phase, in this order; fixing the
/// ordinals (instead of a global counter) keeps the ordering key
/// deterministic under any recording interleaving.
pub mod seq {
    /// The failure-detector query happens before the step body.
    pub const FD_QUERY: u32 = 0;
    /// Advice reads/writes happen inside the step body.
    pub const ADVICE: u32 = 1;
    /// Network/quorum activity also happens inside the step body; it shares
    /// the intra-step slot with advice (the sort is stable and recording is
    /// single-threaded within a step, so insertion order disambiguates
    /// deterministically).
    pub const NET: u32 = 1;
    /// The step itself (its memory op + decide flag).
    pub const STEP: u32 = 2;
    /// Outcomes attributed after the step (violations, span ends).
    pub const OUTCOME: u32 = 3;
}

/// One recorded event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObsEvent {
    /// Logical time of the event (the run clock).
    pub time: u64,
    /// The process the event belongs to.
    pub pid: u32,
    /// Intra-step ordinal (see [`seq`]).
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
}

impl ObsEvent {
    /// The stable ordering key.
    pub fn key(&self) -> (u64, u32, u32) {
        (self.time, self.pid, self.seq)
    }
}

/// A bounded ring of [`ObsEvent`]s; oldest events are dropped first so a
/// long run keeps its most recent window (the kernel trace discipline).
#[derive(Clone, Debug, Default)]
pub struct EventRing {
    events: std::collections::VecDeque<ObsEvent>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// An empty ring retaining at most `cap` events (`0`: recording off).
    pub fn new(cap: usize) -> EventRing {
        EventRing { events: std::collections::VecDeque::new(), cap, dropped: 0 }
    }

    /// `true` iff this ring records anything at all.
    pub fn is_recording(&self) -> bool {
        self.cap > 0
    }

    /// Appends an event, evicting the oldest when full. No-op when `cap`
    /// is zero.
    pub fn push(&mut self, ev: ObsEvent) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The retained events sorted by the stable `(time, pid, seq)` key.
    pub fn sorted(&self) -> Vec<ObsEvent> {
        let mut evs: Vec<ObsEvent> = self.events.iter().copied().collect();
        evs.sort_by_key(ObsEvent::key);
        evs
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Renders the ASCII space-time diagram of an event stream: one row per
/// process, one column per [`EventKind::Step`] event (in key order), the
/// step's op glyph in the stepping process's row and `D` on decide steps.
///
/// Other event kinds are not drawn, so the column count equals the
/// effective step count of the window.
pub fn timeline(events: &[ObsEvent], n_procs: usize) -> String {
    let mut evs: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Step { .. }))
        .collect();
    evs.sort_by_key(|e| e.key());
    let mut rows = vec![String::new(); n_procs];
    for ev in &evs {
        let EventKind::Step { op, decided } = ev.kind else { unreachable!("filtered") };
        for (i, row) in rows.iter_mut().enumerate() {
            if i == ev.pid as usize {
                row.push(if decided { 'D' } else { op.glyph() });
            } else {
                row.push(' ');
            }
        }
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| format!("P{i:<2} {r}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(t: u64, p: u32, op: Op, decided: bool) -> ObsEvent {
        ObsEvent { time: t, pid: p, seq: seq::STEP, kind: EventKind::Step { op, decided } }
    }

    #[test]
    fn op_display_matches_the_kernel_contract() {
        assert_eq!(Op::None.to_string(), "·");
        assert_eq!(Op::Snapshot(5).to_string(), "s[5]");
        assert_eq!(Op::Read { ns: 3, a: 1, b: 2 }.to_string(), "r[3:1,2]");
        assert_eq!(Op::Write { ns: 9, a: 0, b: 7 }.to_string(), "w[9:0,7]");
        assert_eq!(Op::Write { ns: 1, a: 0, b: 0 }.glyph(), 'w');
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = EventRing::new(3);
        for t in 0..5 {
            ring.push(step(t, 0, Op::None, false));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.sorted()[0].time, 2);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut ring = EventRing::new(0);
        ring.push(step(0, 0, Op::None, false));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        assert!(!ring.is_recording());
    }

    #[test]
    fn sorted_uses_the_stable_key() {
        let mut ring = EventRing::new(16);
        ring.push(step(4, 1, Op::None, false));
        ring.push(ObsEvent { time: 4, pid: 1, seq: seq::FD_QUERY, kind: EventKind::FdQuery });
        ring.push(step(2, 0, Op::None, false));
        let evs = ring.sorted();
        assert_eq!(evs[0].time, 2);
        assert_eq!(evs[1].kind, EventKind::FdQuery); // seq 0 before seq 2
        assert!(matches!(evs[2].kind, EventKind::Step { .. }));
    }

    #[test]
    fn timeline_rows_align() {
        let evs = vec![
            step(0, 0, Op::Write { ns: 1, a: 0, b: 0 }, false),
            step(1, 1, Op::Read { ns: 1, a: 0, b: 0 }, false),
            step(2, 0, Op::None, true),
            ObsEvent { time: 1, pid: 1, seq: seq::FD_QUERY, kind: EventKind::FdQuery },
        ];
        let d = timeline(&evs, 2);
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('w') && lines[0].contains('D'));
        assert!(lines[1].contains('r'));
        // FdQuery events occupy no column.
        assert_eq!(lines[0].chars().count(), lines[1].chars().count());
    }
}
