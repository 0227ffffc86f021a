//! Bench family B0 — kernel substrate costs.
//!
//! Register read/write throughput of the addressed shared memory, executor
//! step dispatch and fingerprinting, and the ⚖ snapshot ablation from `DESIGN.md`: the granted
//! atomic-snapshot primitive vs. the register-level double-collect
//! construction that justifies it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wfa::kernel::memory::{RegKey, SharedMemory};
use wfa::kernel::process::{Process, Status, StepCtx};
use wfa::kernel::value::{Pid, Value};
use wfa::objects::driver::Driver;
use wfa::objects::snapshot::DoubleCollect;

fn bench_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/memory");
    g.bench_function("write", |b| {
        let mut mem = SharedMemory::new();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1024;
            mem.write(RegKey::new(1).at(0, i), Value::Int(i as i64));
        });
    });
    g.bench_function("read_hit", |b| {
        let mut mem = SharedMemory::new();
        for i in 0..1024u32 {
            mem.write(RegKey::new(1).at(0, i), Value::Int(i as i64));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(mem.read(RegKey::new(1).at(0, i)));
        });
    });
    g.bench_function("read_bottom", |b| {
        let mut mem = SharedMemory::new();
        b.iter(|| black_box(mem.read(RegKey::new(2).at(0, 7))));
    });
    g.finish();
}

#[derive(Clone, Hash)]
struct Writer(u32);

impl Process for Writer {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        self.0 = self.0.wrapping_add(1);
        ctx.write(RegKey::new(3).at(0, self.0 % 64), Value::Int(self.0 as i64));
        Status::Running
    }
}

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/executor");
    g.bench_function("step_dispatch", |b| {
        let mut ex = wfa::kernel::executor::Executor::new();
        let p = ex.add_process(Box::new(Writer(0)));
        b.iter(|| {
            ex.step(p, None);
        });
    });
    g.bench_function("fingerprint_64regs", |b| {
        let mut ex = wfa::kernel::executor::Executor::new();
        let p = ex.add_process(Box::new(Writer(0)));
        for _ in 0..64 {
            ex.step(p, None);
        }
        // After the first call every slot hash is cached: this measures
        // the cached path only.
        b.iter(|| black_box(ex.fingerprint()));
    });
    g.bench_function("step_then_fingerprint", |b| {
        // What the explorer pays per child: one step marks one slot stale,
        // and the fingerprint rehashes that slot alone.
        let mut ex = wfa::kernel::executor::Executor::new();
        let pids: Vec<Pid> = (0..4).map(|i| ex.add_process(Box::new(Writer(i)))).collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % pids.len();
            ex.step(pids[i], None);
            black_box(ex.fingerprint())
        });
    });
    g.finish();
}

/// ⚖ snapshot ablation: primitive vs. double-collect over quiescent memory.
fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/snapshot");
    for regs in [4usize, 16, 64] {
        let keys: Vec<RegKey> = (0..regs as u32).map(|i| RegKey::new(4).at(0, i)).collect();
        g.bench_with_input(BenchmarkId::new("primitive", regs), &regs, |b, _| {
            let mut mem = SharedMemory::new();
            for (i, k) in keys.iter().enumerate() {
                mem.write(*k, Value::Int(i as i64));
            }
            b.iter(|| {
                let mut ctx = StepCtx::new(&mut mem, None, 0, Pid(0), 1);
                black_box(ctx.snapshot(&keys));
            });
        });
        g.bench_with_input(BenchmarkId::new("double_collect", regs), &regs, |b, _| {
            let mut mem = SharedMemory::new();
            for (i, k) in keys.iter().enumerate() {
                mem.write(*k, Value::Int(i as i64));
            }
            b.iter(|| {
                let mut d = DoubleCollect::new(keys.clone());
                loop {
                    let mut ctx = StepCtx::new(&mut mem, None, 0, Pid(0), 1);
                    if let wfa::objects::driver::Step::Done(v) = d.poll(&mut ctx) {
                        break black_box(v);
                    }
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_memory, bench_executor, bench_snapshot);
criterion_main!(benches);
