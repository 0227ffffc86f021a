//! Bench family B8 — model-checking costs (experiments E1/E6).
//!
//! State counts and wall time of the exhaustive explorations backing the
//! impossibility results: the Lemma-11 refutation pipeline, exhaustive
//! verification of the register objects, and raw explorer throughput on
//! larger interleaving graphs.
//!
//! Regenerate `BENCH_modelcheck.json` with:
//! `CRITERION_JSON=bench.json cargo bench -p wfa-bench --bench modelcheck`
//! (see DESIGN.md "Explorer architecture & bench methodology").

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::process::DynProcess;
use wfa::kernel::process::{Process, Status, StepCtx};
use wfa::kernel::value::Value;
use wfa::modelcheck::explorer::{explore_all, Limits};
use wfa::modelcheck::lemma11::refute_strong_2_renaming;
use wfa::algorithms::renaming::RenamingFig4;
use wfa::objects::adopt_commit::AdoptCommit;
use wfa::objects::driver::{Driver, Step};

fn bench_lemma11(c: &mut Criterion) {
    let mut g = c.benchmark_group("modelcheck/lemma11");
    g.sample_size(10);
    g.bench_function("fig4_refutation", |b| {
        let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
        b.iter(|| {
            let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
            assert!(r.refuted());
            black_box(r.report.states)
        });
    });
    let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
    eprintln!("lemma11/fig4: {} distinct states, exhaustive={}", r.report.states, !r.report.truncated);
    g.finish();
}

/// Adopt-commit wrapped as a deciding process (for exhaustive exploration).
#[derive(Clone, Hash)]
struct AcProc(AdoptCommit);

impl Process for AcProc {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match self.0.poll(ctx) {
            Step::Pending => Status::Running,
            Step::Done(out) => Status::Decided(Value::tuple([
                Value::Bool(out.is_commit()),
                out.value().clone(),
            ])),
        }
    }
}

fn adopt_commit_instance(parties: u32) -> Executor {
    let mut ex = Executor::new();
    for p in 0..parties {
        ex.add_process(Box::new(AcProc(AdoptCommit::new(
            1,
            0,
            parties,
            p,
            Value::Int(p as i64),
        ))));
    }
    ex
}

/// Safety: if anyone commits v, everyone's outcome carries v.
fn adopt_commit_check(ex: &Executor) -> Option<String> {
    let outs: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
    let committed: Vec<&Value> = outs
        .iter()
        .filter(|o| o.get(0).and_then(Value::as_bool) == Some(true))
        .map(|o| o.get(1).unwrap())
        .collect();
    if let Some(cv) = committed.first() {
        for o in &outs {
            if o.get(1).unwrap() != *cv {
                return Some(format!("commit {cv} vs outcome {o}"));
            }
        }
    }
    None
}

fn bench_adopt_commit_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("modelcheck/adopt_commit");
    g.sample_size(10);
    g.bench_function("two_parties_exhaustive", |b| {
        b.iter(|| {
            let ex = adopt_commit_instance(2);
            let report = explore_all(&ex, &adopt_commit_check, Limits::default());
            assert!(report.fully_verified(), "{report:?}");
            black_box(report.states)
        });
    });
    g.bench_function("three_parties_exhaustive", |b| {
        b.iter(|| {
            let ex = adopt_commit_instance(3);
            let report = explore_all(&ex, &adopt_commit_check, Limits::default());
            assert!(report.fully_verified(), "{report:?}");
            black_box(report.states)
        });
    });
    let report = explore_all(&adopt_commit_instance(3), &adopt_commit_check, Limits::default());
    eprintln!("adopt_commit/three_parties: {} distinct states", report.states);
    g.finish();
}

/// Increments a shared counter `n` times, then decides its final read — the
/// widest-branching small automaton we have; `k` of them produce a dense
/// interleaving graph that isolates raw explorer throughput.
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

fn counters_instance(procs: usize, increments: u32) -> Executor {
    let mut ex = Executor::new();
    for _ in 0..procs {
        ex.add_process(Box::new(RacyCounter { left: increments, val: 0, reading: true }));
    }
    ex
}

fn bench_counters(c: &mut Criterion) {
    let mut g = c.benchmark_group("modelcheck/counters");
    g.sample_size(10);
    g.bench_function("three_racy_counters", |b| {
        b.iter(|| {
            let ex = counters_instance(3, 3);
            let report = explore_all(&ex, &|_| None, Limits::default());
            assert!(report.fully_verified(), "{report:?}");
            black_box(report.states)
        });
    });
    let report = explore_all(&counters_instance(3, 3), &|_| None, Limits::default());
    eprintln!("counters/three_racy_counters: {} distinct states", report.states);
    g.finish();
}

criterion_group!(
    benches,
    bench_lemma11,
    bench_adopt_commit_verification,
    bench_counters
);
criterion_main!(benches);
