//! Bench family B3 — renaming: advice vs. the wait-free baseline
//! (experiments E7/E8, Theorems 15–16).
//!
//! The same Figure-4 automaton serves as both contender and baseline: run
//! k-concurrently it uses names `≤ j+k−1`; run unrestricted (`k = j`) it is
//! the classic `(j, 2j−1)` wait-free algorithm. The bench sweeps `(j, k)`,
//! measuring steps-to-completion and the *observed maximum name* — the
//! namespace crossover is the paper's headline: advice (small `k`) beats the
//! baseline's `2j−1` exactly until `k = j`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wfa::kernel::executor::Executor;
use wfa::kernel::sched::{run_schedule, NullEnv};
use wfa::kernel::value::{Pid, Value};
use wfa::algorithms::moir_anderson::MoirAnderson;
use wfa::algorithms::renaming::{rename_run, RenamingFig3, RenamingFig4};

/// Runs `j` Figure-4 participants (of `m`) at concurrency `k`; returns
/// (schedule slots, max name).
fn run_fig4(m: usize, j: usize, k: usize, seed: u64) -> (u64, i64) {
    let mut ex = Executor::new();
    let max_name = rename_run(&mut ex, j, m, k, seed)
        .iter()
        .map(|p| ex.status(*p).decision().and_then(Value::as_int).expect("decided"))
        .max()
        .unwrap();
    (ex.clock(), max_name)
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("renaming/fig4");
    for j in [3usize, 5, 8] {
        let m = j + 1;
        for k in [1usize, 2, j] {
            let id = format!("j{j}_k{k}");
            g.bench_with_input(BenchmarkId::from_parameter(&id), &(j, k), |b, &(j, k)| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    black_box(run_fig4(m, j, k, seed));
                });
            });
            let max_over_seeds =
                (0..40).map(|s| run_fig4(m, j, k, s).1).max().unwrap();
            let label = if k == j { " (wait-free baseline)" } else { "" };
            eprintln!(
                "renaming j={j} k={k}{label}: bound {} | max observed name {max_over_seeds}",
                j + k - 1
            );
        }
    }
    g.finish();
}

/// E7: the Figure-3 gate (1-resilient strong-ish renaming).
fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("renaming/fig3_gate");
    g.sample_size(10);
    for j in [3usize, 4] {
        let m = j + 2;
        g.bench_with_input(BenchmarkId::from_parameter(j), &j, |b, &j| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut ex = Executor::new();
                let pids: Vec<Pid> = (0..j)
                    .map(|i| {
                        ex.add_process(Box::new(RenamingFig3::new(
                            i,
                            m,
                            j,
                            RenamingFig4::new(i, m),
                        )))
                    })
                    .collect();
                let mut sched =
                    wfa::kernel::sched::RandomSched::new(pids.clone(), seed);
                run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000);
                black_box(ex.clock())
            });
        });
    }
    g.finish();
}

/// Moir-Anderson splitter-grid baseline: steps and namespace vs Figure 4.
fn bench_moir_anderson(c: &mut Criterion) {
    let mut g = c.benchmark_group("renaming/baselines");
    for j in [3usize, 5, 8] {
        g.bench_with_input(BenchmarkId::new("moir_anderson", j), &j, |b, &j| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut ex = Executor::new();
                let pids: Vec<Pid> =
                    (0..j).map(|i| ex.add_process(Box::new(MoirAnderson::new(i, j)))).collect();
                let mut sched = wfa::kernel::sched::RandomSched::new(pids.clone(), seed);
                run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
                black_box(ex.clock())
            });
        });
        g.bench_with_input(BenchmarkId::new("fig4", j), &j, |b, &j| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_fig4(j + 1, j, j, seed));
            });
        });
        let mut ma_max = 0i64;
        for seed in 0..40u64 {
            let mut ex = Executor::new();
            let pids: Vec<Pid> =
                (0..j).map(|i| ex.add_process(Box::new(MoirAnderson::new(i, j)))).collect();
            let mut sched = wfa::kernel::sched::RandomSched::new(pids.clone(), seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 2_000_000);
            for p in &pids {
                ma_max = ma_max.max(ex.status(*p).decision().and_then(Value::as_int).unwrap());
            }
        }
        eprintln!(
            "baselines j={j}: Moir-Anderson bound {} (observed max {ma_max}) vs Figure-4 bound {}",
            MoirAnderson::namespace(j),
            2 * j - 1
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fig4, bench_fig3, bench_moir_anderson);
criterion_main!(benches);
