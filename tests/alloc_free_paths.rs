//! The healthy message path allocates nothing, and a Figure-2 run
//! allocates a pinned amount.
//!
//! A healthy ABD read is two quorum phases over the simulated network, and
//! a quiescent gossip round is one digest exchange per replica pair. Both
//! run in every step of the replicated substrates, so both reuse buffers
//! their owner keeps warm instead of allocating per round. This suite
//! counts heap allocations per thread with a counting global allocator and
//! pins the steady state at zero. A Theorem-9 run allocates for every value
//! it proposes, writes and agrees on; its exact count is pinned so that an
//! allocation added to the Figure-2 step shows. It times nothing, so it
//! holds on any host.

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
use wfa::kernel::memory::RegKey;
use wfa::kernel::value::{Pid, Value};
use wfa::net::abd::AbdBackend;
use wfa::net::config::NetConfig;
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
    assert_eq!(allocs, 7552, "allocations of the run");
}
