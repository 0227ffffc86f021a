//! Bench family B-E4 — the Figure-1 extraction.
//!
//! Measures how long (in real schedule slots) the corridor exploration takes
//! to *stabilize* its emulated `¬Ω1` output on excluding the detector's
//! stable leader — the extraction latency of Theorem 8 — as a function of
//! the detector's own stabilization time. Predicted shape: extraction
//! latency tracks detector stabilization plus a near-constant exploration
//! overhead (the branch enumeration up to the first never-deciding run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wfa::core::reduction::{emulated_key, AsimBuilders, ReductionS};
use wfa::fd::detectors::FdGen;
use wfa::fd::pattern::FailurePattern;
use wfa::kernel::executor::Executor;
use wfa::kernel::sched::{RandomSched, Scheduler};
use wfa::kernel::value::Value;

/// Runs the extraction until every live process's emulated output has been
/// stable for `window` slots; returns the slot count at stabilization.
fn extraction_latency(stab: u64, seed: u64) -> u64 {
    let n = 3;
    let window = 30_000u64;
    let inputs: Vec<Vec<Value>> = vec![(0..n as i64).map(Value::Int).collect()];
    let pattern = FailurePattern::failure_free(n);
    let mut fd = FdGen::vector_omega_k(pattern, 1, stab, seed);
    let mut ex = Executor::new();
    for q in 0..n {
        let s = ReductionS::new(q, n, 1, AsimBuilders::CONSENSUS3, inputs.clone());
        ex.add_process(Box::new(s));
    }
    let mut sched = RandomSched::over_all(&ex, seed ^ 0xe4);
    let mut last_vals: Vec<Value> = vec![Value::Unit; n];
    let mut stable_since = 0u64;
    for _ in 0..2_000_000u64 {
        let Some(pid) = sched.next(&ex) else { break };
        let now = ex.clock();
        let fdv = fd.output(pid.0, now);
        ex.step(pid, Some(&fdv));
        let v = ex.memory().peek(emulated_key(pid.0 as u32));
        if v != last_vals[pid.0] {
            last_vals[pid.0] = v;
            stable_since = now;
        }
        if now > stable_since + window && !last_vals.iter().any(Value::is_unit) {
            return stable_since;
        }
    }
    u64::MAX // did not stabilize within budget
}

fn bench_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduction/extraction_latency");
    g.sample_size(10);
    for stab in [0u64, 500, 2_000] {
        g.bench_with_input(BenchmarkId::from_parameter(stab), &stab, |b, &stab| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(extraction_latency(stab, seed));
            });
        });
        let lat = extraction_latency(stab, 1);
        eprintln!("reduction stab={stab}: emulated ¬Ω1 stable by slot {lat}");
    }
    g.finish();
}

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
