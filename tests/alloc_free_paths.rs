//! The healthy message path allocates nothing, and a Figure-2 run and two
//! explorations allocate pinned amounts.
//!
//! A healthy ABD read is two quorum phases over the simulated network, a
//! healthy ABD write overwrites a register every replica already holds,
//! and a quiescent gossip round is one digest exchange per replica pair.
//! All three run in every step of the replicated substrates, so all three
//! reuse buffers and register cells their owner keeps warm instead of
//! allocating per operation. This suite counts heap allocations per thread
//! with a counting global allocator and pins the steady state at zero. A
//! Theorem-9 run allocates for every value it proposes, writes and agrees
//! on; its exact count is pinned so that an allocation added to the
//! Figure-2 step shows. The explorer allocates for every state it keeps,
//! every register file a fork copies and every automaton a step copies;
//! its counts for two of the benchmark's instances are pinned so that an
//! allocation added to its per-successor path shows. It times nothing, so
//! it holds on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use wfa::core::harness::EfdRun;
use wfa::core::solver::{theorem9_system, AdoptingTaskBuilder};
use wfa::fd::detectors::FdGen;
use wfa::fd::pattern::FailurePattern;
use wfa::gossip::backend::GossipBackend;
use wfa::gossip::config::GossipConfig;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::process::{Process, Status, StepCtx};
use wfa::kernel::value::{Pid, Value};
use wfa::modelcheck::explorer::{ExploreReport, Explorer, Limits, SafetyCheck};
use wfa::net::abd::AbdBackend;
use wfa::net::config::NetConfig;
use wfa::objects::adopt_commit::AdoptCommit;
use wfa::objects::driver::{Driver, Step};
use wfa::tasks::agreement::SetAgreement;

thread_local! {
    /// Allocations made by this thread so far. A const-initialised `Cell`
    /// has no destructor and no lazy set-up, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with its arguments unchanged;
// the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn healthy_abd_reads_allocate_nothing() {
    // The benchmark's cluster size: 8 replicas, 16 messages per phase.
    let mut abd = AbdBackend::new(NetConfig::new(8, 7));
    let key = RegKey::new(3).at(0, 1);
    abd.write(Pid(0), 0, key, Value::Int(42));
    assert_eq!(abd.read(Pid(1), 1, key), Value::Int(42), "warm-up read");
    let sent = abd.runtime().messages_sent();
    let allocs = allocations(|| {
        for t in 0..100 {
            assert_eq!(abd.read(Pid(1), 2 + t, key), Value::Int(42));
        }
    });
    // Both phases ran on every read: 2 phases × 8 replicas × 2 legs.
    assert_eq!(abd.runtime().messages_sent() - sent, 100 * 32);
    assert_eq!(allocs, 0, "100 healthy ABD reads allocated");
}

#[test]
fn healthy_abd_writes_allocate_nothing() {
    // The benchmark's cluster size: 8 replicas, 16 messages per phase.
    let mut abd = AbdBackend::new(NetConfig::new(8, 7));
    let key = RegKey::new(3).at(0, 1);
    abd.write(Pid(0), 0, key, Value::Int(0));
    let sent = abd.runtime().messages_sent();
    let allocs = allocations(|| {
        for t in 1..=100 {
            abd.write(Pid(0), t, key, Value::Int(t as i64));
        }
    });
    // Both phases ran on every write: 2 phases × 8 replicas × 2 legs.
    assert_eq!(abd.runtime().messages_sent() - sent, 100 * 32);
    assert_eq!(abd.read(Pid(1), 101, key), Value::Int(100), "the last write wins");
    assert_eq!(allocs, 0, "100 healthy ABD overwrites allocated");
}

#[test]
fn quiescent_gossip_rounds_allocate_nothing() {
    let mut g = GossipBackend::new(GossipConfig::new(4, 7).with_interval(u64::MAX));
    for i in 0..16u32 {
        g.write(Pid((i % 4) as usize), i as u64, RegKey::new(0).at(0, i), Value::Int(i as i64));
    }
    assert!(g.run_rounds_until_converged(12).is_some(), "healthy cluster converges");
    // One more round builds every replica's digest root.
    g.round();
    let sent = g.messages_sent();
    let allocs = allocations(|| {
        for _ in 0..10 {
            g.round();
        }
    });
    // Every exchange was a two-message digest hit.
    assert_eq!(g.messages_sent() - sent, 10 * 4 * 2);
    assert_eq!(allocs, 0, "10 quiescent gossip rounds allocated");
}

#[test]
fn theorem9_ksa_run_allocation_count_is_pinned() {
    // One fixed-seed Theorem-9 run: ksa with n = 3, k = 2 through adopting
    // codes under →Ω2, run until every C-process has decided.
    let (n, k) = (3usize, 2usize);
    let task = SetAgreement::new(n, k);
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let (c, s) = theorem9_system(n, k, &inputs, AdoptingTaskBuilder::new(Arc::new(task)));
    let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k, 100, 1);
    let mut run = EfdRun::new(c, s, fd);
    let mut sched = run.fair_sched(1);
    let mut slots = None;
    let allocs = allocations(|| slots = run.run_until_decided(&mut sched, 10_000_000));
    assert_eq!(slots, Some(2560));
    assert_eq!(run.output_vector(), vec![Value::Int(1); n]);
    assert_eq!(allocs, 5513, "allocations of the run");
}

/// Explores every interleaving of `ex` under `check` and returns the
/// report with the allocations the search made.
fn explore_allocations(ex: &Executor, check: &SafetyCheck<'_>) -> (ExploreReport, u64) {
    let explorer = Explorer::new(ex.pids().collect(), check, Limits::default());
    let mut report = None;
    let allocs = allocations(|| report = Some(explorer.run(ex)));
    (report.expect("the search ran"), allocs)
}

/// Increments a shared counter `left` times, then decides its final read.
#[derive(Clone, Hash)]
struct RacyCounter {
    left: u32,
    val: i64,
    reading: bool,
}

impl Process for RacyCounter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let k = RegKey::new(1);
        if self.reading {
            self.val = ctx.read(k).as_int().unwrap_or(0);
            self.reading = false;
            if self.left == 0 {
                return Status::Decided(Value::Int(self.val));
            }
        } else {
            ctx.write(k, Value::Int(self.val + 1));
            self.left -= 1;
            self.reading = true;
        }
        Status::Running
    }
}

#[test]
fn three_racy_counters_exploration_allocation_count_is_pinned() {
    // The benchmark's seed-1 instance: three increments each, from start
    // values 1, 0 and 0.
    let mut ex = Executor::new();
    for p in 0..3u64 {
        let val = ((1u64 >> (8 * p)) % 100) as i64;
        ex.add_process(Box::new(RacyCounter { left: 3, val, reading: true }));
    }
    let (report, allocs) = explore_allocations(&ex, &|_| None);
    assert_eq!(report, ExploreReport { states: 66330, ..ExploreReport::default() });
    assert_eq!(allocs, 236_248, "allocations of the exploration");
}

/// Adopt-commit wrapped as a deciding process.
#[derive(Clone, Hash)]
struct AcProc(AdoptCommit);

impl Process for AcProc {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match self.0.poll(ctx) {
            Step::Pending => Status::Running,
            Step::Done(out) => {
                Status::Decided(Value::tuple([Value::Bool(out.is_commit()), out.value().clone()]))
            }
        }
    }
}

#[test]
fn adopt_commit_exploration_allocation_count_is_pinned() {
    // The benchmark's seed-1 instance: three parties with inputs 3, 4, 5,
    // checked for adopt-commit safety at every state.
    let mut ex = Executor::new();
    for p in 0..3u32 {
        let ac = AdoptCommit::new(1, 0, 3, p, Value::Int(3 + p as i64));
        ex.add_process(Box::new(AcProc(ac)));
    }
    let check = |ex: &Executor| {
        let outs: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
        let committed = outs.iter().find(|o| o.get(0).and_then(Value::as_bool) == Some(true))?;
        let cv = committed.get(1)?;
        outs.iter().find(|o| o.get(1) != Some(cv)).map(|o| format!("commit {cv} vs outcome {o}"))
    };
    let (report, allocs) = explore_allocations(&ex, &check);
    assert_eq!(report, ExploreReport { states: 7337, ..ExploreReport::default() });
    assert_eq!(allocs, 40_093, "allocations of the exploration");
}
