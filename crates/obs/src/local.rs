//! Thread-local recording context for instrumenting deep call sites.
//!
//! The kernel's `DynProcess` blanket impl requires automata to be
//! `Clone + Hash`, so a process cannot hold a [`MetricsHandle`] as a field
//! (handles are identity objects — hashing one would poison state
//! fingerprints). Instead the executor *installs* the current handle, time
//! and pid into a thread-local just around each `proc.step(..)` call (the
//! tracing-dispatcher pattern), and deep sites — advice automata, simulation
//! engines, the network runtimes — record through the free functions here
//! without any plumbing.
//!
//! Buffered counters: [`add`] and [`bump`] do not touch the shared registry.
//! They add into a plain per-thread array, and the array is flushed into the
//! installed context's registry — one atomic add per touched counter — when
//! the context is replaced ([`enter`]) or removed (the [`StepGuard`] drops,
//! unwinding included), and at the start of every read through a handle
//! ([`MetricsHandle::get`], [`MetricsHandle::snapshot`]). So a healthy ABD
//! step that sends 32 messages pays a handful of atomic adds instead of
//! about a hundred, every read on the recording thread still sees every
//! count, and counter sums (hence snapshots) are exactly what direct adds
//! would give. The buffer belongs to the thread, not to the handle, so
//! handles stay `Send + Sync` and threads sharing one registry still sum
//! exactly. Histograms go straight to the registry; [`event`] returns at
//! once when the installed registry retains no events.
//!
//! Determinism: the installed `(time, pid)` pair is the run's logical clock,
//! so events recorded through this module carry the same stable ordering key
//! they would with explicit plumbing. When no context is installed (the
//! executor ran without metrics, or code runs outside a step), every call is
//! a no-op.

use std::cell::{Cell, RefCell};

use crate::metrics::{Counter, HistKind, MetricsHandle, COUNTERS};
use crate::span::{EventKind, ObsEvent};

/// The hot half of the thread's recording state: plain cells with no
/// destructor, so a buffered [`add`] is a few loads and stores.
struct Pending {
    /// A context is installed.
    live: Cell<bool>,
    /// A context is installed and its registry retains events.
    events: Cell<bool>,
    /// Bit `i` is set iff `counts[i]` was added to since the last flush.
    touched: Cell<u64>,
    counts: [Cell<u64>; COUNTERS.len()],
}

const _: () = assert!(COUNTERS.len() <= u64::BITS as usize, "one `touched` bit per counter");

/// The installed context. While none is, `handle` is the last one installed,
/// kept so that re-entering it (every step of a run does) costs no
/// reference-count traffic.
struct Ctx {
    handle: MetricsHandle,
    time: u64,
    pid: u32,
}

thread_local! {
    static PENDING: Pending = const {
        Pending {
            live: Cell::new(false),
            events: Cell::new(false),
            touched: Cell::new(0),
            counts: [const { Cell::new(0) }; COUNTERS.len()],
        }
    };
    static CTX: RefCell<Ctx> =
        const { RefCell::new(Ctx { handle: MetricsHandle::disabled(), time: 0, pid: 0 }) };
}

/// Adds every pending count into `handle`, the installed context's.
/// Counts are only ever pending while a context is live.
fn flush_into(pending: &Pending, handle: &MetricsHandle) {
    let mut touched = pending.touched.replace(0);
    while touched != 0 {
        let i = touched.trailing_zeros() as usize;
        touched &= touched - 1;
        handle.add(COUNTERS[i], pending.counts[i].replace(0));
    }
}

/// Installs `(handle, time, pid)` as the thread's recording context for the
/// lifetime of the returned guard. Nested installs stack: counts recorded so
/// far go to the replaced context's handle, and dropping the guard flushes
/// this context's counts into `handle` and restores the previous one.
///
/// Call this only with an enabled handle — installing a disabled one works
/// but wastes the thread-local store/restore.
pub fn enter(handle: &MetricsHandle, time: u64, pid: u32) -> StepGuard {
    PENDING.with(|p| {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            flush_into(p, &c.handle);
            let live = p.live.get();
            // Only a live context's handle needs restoring; the one merely
            // kept from an ended context is dropped here.
            let replaced = (!c.handle.same_registry(handle))
                .then(|| std::mem::replace(&mut c.handle, handle.clone()))
                .filter(|_| live);
            p.live.set(true);
            StepGuard {
                handle: replaced,
                live,
                events: p.events.replace(handle.keeps_events()),
                time: std::mem::replace(&mut c.time, time),
                pid: std::mem::replace(&mut c.pid, pid),
            }
        })
    })
}

/// Flushes the context's buffered counts and restores the previous recording
/// context on drop.
pub struct StepGuard {
    /// The replaced live context's handle; `None` when the same registry
    /// was installed or no context was live.
    handle: Option<MetricsHandle>,
    live: bool,
    events: bool,
    time: u64,
    pid: u32,
}

impl Drop for StepGuard {
    fn drop(&mut self) {
        PENDING.with(|p| {
            CTX.with(|c| {
                let mut c = c.borrow_mut();
                flush_into(p, &c.handle);
                if let Some(h) = self.handle.take() {
                    c.handle = h;
                }
                (c.time, c.pid) = (self.time, self.pid);
                p.live.set(self.live);
                p.events.set(self.events);
            })
        });
    }
}

/// Delivers this thread's buffered counts to the installed context's
/// registry; every read through a handle calls it first.
pub(crate) fn flush() {
    // Reads from thread-local destructors find the context gone; its counts
    // were flushed when its guard dropped.
    let _ = CTX.try_with(|c| PENDING.with(|p| flush_into(p, &c.borrow().handle)));
}

/// Adds 1 to `counter` in the installed context (no-op when none).
pub fn bump(counter: Counter) {
    add(counter, 1);
}

/// Adds `n` to `counter` in the installed context (no-op when none).
pub fn add(counter: Counter, n: u64) {
    PENDING.with(|p| {
        if p.live.get() {
            let i = counter.index();
            // Wrapping, as the registry's `fetch_add` is.
            p.counts[i].set(p.counts[i].get().wrapping_add(n));
            p.touched.set(p.touched.get() | 1 << i);
        }
    });
}

/// Records `value` into histogram `h` in the installed context (no-op when
/// none).
pub fn observe(h: HistKind, value: u64) {
    if PENDING.with(|p| p.live.get()) {
        CTX.with(|c| c.borrow().handle.observe(h, value));
    }
}

/// Records an event at the installed `(time, pid)` with ordinal `seq`
/// (no-op when no context is installed or its registry retains no events).
pub fn event(seq: u32, kind: EventKind) {
    if PENDING.with(|p| p.events.get()) {
        CTX.with(|c| {
            let c = c.borrow();
            c.handle.record(ObsEvent { time: c.time, pid: c.pid, seq, kind });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::seq;

    #[test]
    fn records_into_the_installed_handle_and_restores_on_drop() {
        let h = MetricsHandle::with_events(8);
        {
            let _g = enter(&h, 7, 2);
            bump(Counter::AdviceWrites);
            event(seq::ADVICE, EventKind::AdviceWrite);
        }
        // Outside the guard: no-ops.
        bump(Counter::AdviceWrites);
        event(seq::ADVICE, EventKind::AdviceWrite);

        assert_eq!(h.get(Counter::AdviceWrites), 1);
        let evs = h.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].time, evs[0].pid, evs[0].seq), (7, 2, seq::ADVICE));
    }

    #[test]
    fn reads_inside_a_live_context_see_every_count() {
        let h = MetricsHandle::counters();
        let _g = enter(&h, 0, 0);
        bump(Counter::NetMsgsSent);
        add(Counter::NetMsgsDelivered, 4);
        assert_eq!(h.get(Counter::NetMsgsSent), 1);
        bump(Counter::NetMsgsSent);
        let s = h.snapshot().expect("enabled");
        assert_eq!(s.counter("net_msgs_sent"), Some(2));
        assert_eq!(s.counter("net_msgs_delivered"), Some(4));
        // A read through another handle flushes too, into this context's.
        bump(Counter::NetMsgsSent);
        assert_eq!(MetricsHandle::counters().get(Counter::NetMsgsSent), 0);
        assert_eq!(h.get(Counter::NetMsgsSent), 3);
    }

    #[test]
    fn nested_installs_stack() {
        let outer = MetricsHandle::counters();
        let inner = MetricsHandle::counters();
        let _g1 = enter(&outer, 1, 0);
        bump(Counter::FdQueries);
        {
            let _g2 = enter(&inner, 2, 1);
            add(Counter::FdQueries, 10);
            bump(Counter::Decisions);
        }
        add(Counter::FdQueries, 100);
        assert_eq!(inner.get(Counter::FdQueries), 10);
        assert_eq!(inner.get(Counter::Decisions), 1);
        assert_eq!(outer.get(Counter::FdQueries), 101);
        assert_eq!(outer.get(Counter::Decisions), 0);
    }

    #[test]
    fn consecutive_contexts_keep_their_counts_apart() {
        // A sweep's pattern: each job installs a fresh registry per step.
        let (a, b) = (MetricsHandle::counters(), MetricsHandle::counters());
        for h in [&a, &a, &b, &a] {
            let _g = enter(h, 0, 0);
            bump(Counter::EffectiveSteps);
        }
        assert_eq!(a.get(Counter::EffectiveSteps), 3);
        assert_eq!(b.get(Counter::EffectiveSteps), 1);
    }

    #[test]
    fn a_caught_panic_still_delivers_the_counts_before_it() {
        let h = MetricsHandle::counters();
        let caught = std::panic::catch_unwind(|| {
            let _g = enter(&h, 0, 0);
            add(Counter::SweepJobs, 3);
            panic!("inside the context");
        });
        assert!(caught.is_err());
        // Unwinding dropped the guard: the context is gone and its counts
        // reached the registry.
        bump(Counter::SweepJobs);
        assert_eq!(h.get(Counter::SweepJobs), 3);
    }

    #[test]
    fn two_threads_sharing_a_handle_give_exact_totals() {
        let h = MetricsHandle::counters();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for step in 0..1000 {
                        let _g = enter(&h, step, 0);
                        bump(Counter::NetMsgsSent);
                        add(Counter::NetMsgsDelivered, 2);
                    }
                });
            }
        });
        assert_eq!(h.get(Counter::NetMsgsSent), 2000);
        assert_eq!(h.get(Counter::NetMsgsDelivered), 4000);
    }

    #[test]
    fn a_counters_only_handle_keeps_no_events() {
        let h = MetricsHandle::counters();
        {
            let _g = enter(&h, 3, 1);
            event(seq::ADVICE, EventKind::AdviceRead);
        }
        h.record(ObsEvent { time: 4, pid: 0, seq: seq::STEP, kind: EventKind::FdQuery });
        assert!(h.events().is_empty());
        assert_eq!(h.events_dropped(), 0);
    }
}
