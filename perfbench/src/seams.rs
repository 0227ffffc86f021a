//! Timing decorators for the program's public seams, plus the accumulators
//! they feed.
//!
//! Every per-layer time is measured from outside the program: a decorator
//! wraps one seam (`MemoryBackend`, `DynProcess`, `FdSource`), forwards every
//! call unchanged and adds the call's wall time to a global accumulator.
//! Calls into whole subsystems (`sweep`, `soak`, `Explorer::run`, ...) are
//! timed with [`timed`]. The accumulators are process-wide atomics so that a
//! decorator cloned into another thread still reports; the benchmark itself
//! runs every job on one thread.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wfa::fd::detectors::FdSource;
use wfa::fd::pattern::{FailurePattern, SIdx};
use wfa::gossip::backend::GossipBackend;
use wfa::kernel::backend::{Degradation, MemoryBackend, Resolution};
use wfa::kernel::memory::{RegKey, SharedMemory};
use wfa::kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa::kernel::value::{Pid, Value};

use crate::stats::LogHist;

/// A timed region. Each has a wall-time total and a call count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// Kernel drivers: `run_until_decided`, `run_schedule`.
    KernelRun,
    /// Steps of `wfa-algorithms` / `wfa-objects` automata.
    AlgStep,
    /// Steps of the `wfa-core` Theorem-9 simulators.
    SimStep,
    /// ABD register operations.
    Abd,
    /// Gossip register operations (exchanges included).
    Gossip,
    /// Failure-detector queries.
    Fd,
    /// `Task::validate`.
    Validate,
    /// `faults::sweep` (shrink off).
    SweepRun,
    /// `faults::shrink` on sweep violations.
    Shrink,
    /// `faults::replay` on sweep violations.
    Replay,
    /// Net soaks.
    SoakNet,
    /// Gossip soaks.
    SoakGossip,
    /// `shrink_soak`.
    SoakShrink,
    /// `replay_soak`.
    SoakReplay,
    /// Whole explorer calls (`Explorer::run`, solo-collision search).
    Explore,
    /// The explorer's safety-check closures.
    ExploreCheck,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 16;

static NANOS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];
static CALLS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];

/// Per-op latency histograms of the two replicated backends.
pub struct OpHists {
    /// ABD ops.
    pub abd: LogHist,
    /// Gossip ops that ran no anti-entropy exchange.
    pub gossip_op: LogHist,
    /// Gossip ops that ran at least one exchange.
    pub gossip_exchange: LogHist,
}

static HISTS: Mutex<OpHists> = Mutex::new(OpHists {
    abd: LogHist::new(),
    gossip_op: LogHist::new(),
    gossip_exchange: LogHist::new(),
});

/// Adds one call of `ns` nanoseconds to `span`.
pub fn add(span: Span, ns: u64) {
    NANOS[span as usize].fetch_add(ns, Ordering::Relaxed);
    CALLS[span as usize].fetch_add(1, Ordering::Relaxed);
}

/// Runs `f`, charging its wall time to `span`.
pub fn timed<T>(span: Span, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    add(span, t.elapsed().as_nanos() as u64);
    out
}

/// A copy of every accumulator.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Nanoseconds per span.
    pub nanos: [u64; SPANS],
    /// Calls per span.
    pub calls: [u64; SPANS],
}

impl Totals {
    /// Milliseconds spent in `span`.
    pub fn ms(&self, span: Span) -> f64 {
        self.nanos[span as usize] as f64 / 1e6
    }

    /// Calls of `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }
}

/// Zeroes every accumulator and histogram.
pub fn reset() {
    for i in 0..SPANS {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
    let mut h = HISTS
        .lock()
        .expect("histogram lock poisoned by a panicking job");
    *h = OpHists {
        abd: LogHist::new(),
        gossip_op: LogHist::new(),
        gossip_exchange: LogHist::new(),
    };
}

/// Reads every accumulator.
pub fn totals() -> Totals {
    let mut t = Totals::default();
    for i in 0..SPANS {
        t.nanos[i] = NANOS[i].load(Ordering::Relaxed);
        t.calls[i] = CALLS[i].load(Ordering::Relaxed);
    }
    t
}

/// Runs `f` over the op histograms.
pub fn with_hists<T>(f: impl FnOnce(&mut OpHists) -> T) -> T {
    f(&mut HISTS
        .lock()
        .expect("histogram lock poisoned by a panicking job"))
}

/// A `MemoryBackend` decorator timing every register operation. Gossip ops
/// are split by whether they ran an anti-entropy exchange, detected through
/// the backend's `rounds()` counter.
pub struct TimedBackend {
    inner: Box<dyn MemoryBackend>,
    span: Span,
}

impl TimedBackend {
    /// Wraps `inner`, charging its ops to `span` ([`Span::Abd`] or
    /// [`Span::Gossip`]).
    pub fn new(inner: Box<dyn MemoryBackend>, span: Span) -> TimedBackend {
        TimedBackend { inner, span }
    }

    fn gossip_rounds(&self) -> u64 {
        self.inner
            .as_any()
            .and_then(|a| a.downcast_ref::<GossipBackend>())
            .map_or(0, GossipBackend::rounds)
    }

    fn op<T>(&mut self, f: impl FnOnce(&mut dyn MemoryBackend) -> T) -> T {
        let rounds = if self.span == Span::Gossip {
            self.gossip_rounds()
        } else {
            0
        };
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        add(self.span, ns);
        let exchanged = self.span == Span::Gossip && self.gossip_rounds() != rounds;
        with_hists(|h| match (self.span, exchanged) {
            (Span::Gossip, true) => h.gossip_exchange.record(ns),
            (Span::Gossip, false) => h.gossip_op.record(ns),
            _ => h.abd.record(ns),
        });
        out
    }
}

impl MemoryBackend for TimedBackend {
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
        self.op(|b| b.read(me, now, key))
    }

    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
        self.op(|b| b.write(me, now, key, val))
    }

    fn view(&self) -> &SharedMemory {
        self.inner.view()
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.inner.fingerprint(h)
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(TimedBackend {
            inner: self.inner.clone_backend(),
            span: self.span,
        })
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn drain_degradations(&mut self) -> Vec<Degradation> {
        self.inner.drain_degradations()
    }

    fn drain_resolutions(&mut self) -> Vec<Resolution> {
        self.inner.drain_resolutions()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

/// A process decorator timing every step. It hashes exactly as the wrapped
/// automaton does, so run fingerprints (and explorer state counts) are
/// unchanged.
pub struct TimedProc {
    inner: Box<dyn DynProcess>,
    span: Span,
}

impl TimedProc {
    /// Wraps `inner`, charging its steps to `span`.
    pub fn boxed(inner: Box<dyn DynProcess>, span: Span) -> Box<dyn DynProcess> {
        Box::new(TimedProc { inner, span })
    }
}

impl Clone for TimedProc {
    fn clone(&self) -> TimedProc {
        TimedProc {
            inner: self.inner.clone_box(),
            span: self.span,
        }
    }
}

impl Hash for TimedProc {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.fingerprint(state);
    }
}

impl Process for TimedProc {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let t = Instant::now();
        let status = self.inner.step(ctx);
        add(self.span, t.elapsed().as_nanos() as u64);
        status
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A failure-detector decorator timing every query.
pub struct TimedFd<F: FdSource>(pub F);

impl<F: FdSource> FdSource for TimedFd<F> {
    fn output(&mut self, q: SIdx, t: u64) -> Value {
        timed(Span::Fd, || self.0.output(q, t))
    }

    fn pattern(&self) -> &FailurePattern {
        self.0.pattern()
    }

    fn stabilization(&self) -> u64 {
        self.0.stabilization()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}
