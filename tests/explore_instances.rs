//! The benchmark's three explorer instances, pinned in tier-1.
//!
//! `perfbench --workload explore` runs these instances and checks their
//! state counts; this suite pins the same counts plus the dedupe hits (the
//! successors the search computed but had already visited), so a change to
//! the explorer that keeps the state space but alters how it is walked — a
//! new visit order, a change to the sleep sets — shows here first. Sleep
//! sets skip successors proved visited without computing them, so the
//! dedupe hits are those of the reduced search: 30, 1,203 and 61,978, where
//! full expansion computes 44, 10,961 and 80,944. The inputs are derived
//! from a seed the way the benchmark derives them from each job's seed; the
//! counts do not depend on it, and two seeds check that.

use wfa::algorithms::renaming::RenamingFig4;
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa::kernel::value::{Pid, Value};
use wfa::modelcheck::explorer::{ExploreReport, Explorer, Limits, SafetyCheck};
use wfa::modelcheck::lemma11::{lemma11, solo_collision};
use wfa::objects::adopt_commit::AdoptCommit;
use wfa::objects::driver::{Driver, Step};
use wfa::obs::metrics::{Counter, MetricsHandle};

const SEEDS: [u64; 2] = [1, 7919];

/// Explores every interleaving of `ex` and returns the report with the
/// dedupe-hit count.
fn explore(ex: &Executor, check: &SafetyCheck<'_>) -> (ExploreReport, u64) {
    let obs = MetricsHandle::counters();
    let report = Explorer::new(ex.pids().collect(), check, Limits::default())
        .with_metrics(obs.clone())
        .run(ex);
    assert_eq!(obs.get(Counter::ExplorerStates), report.states);
    (report, obs.get(Counter::ExplorerDedupeHits))
}

#[test]
fn lemma11_fig4_refutation_is_pinned() {
    // A Figure-4 candidate for strong 2-renaming yields 2-process
    // consensus, which the explorer refutes.
    let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let colliding = solo_collision(&cand, &[0, 1, 2]).expect("pigeonhole collision");
    let ex = lemma11(&cand, colliding);
    let consensus = |ex: &Executor| -> Option<String> {
        let (x, y) = (ex.status(Pid(0)).decision(), ex.status(Pid(1)).decision());
        if let (Some(x), Some(y)) = (x, y) {
            if x != y {
                return Some(format!("disagreement: {x} vs {y}"));
            }
        }
        [x, y]
            .into_iter()
            .flatten()
            .find(|v| **v != Value::Int(0) && **v != Value::Int(1))
            .map(|v| format!("invalid decision {v}"))
    };
    let (report, dedupe) = explore(&ex, &consensus);
    let schedule: Vec<Pid> =
        [0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1].into_iter().map(Pid).collect();
    assert_eq!(
        report,
        ExploreReport {
            states: 81,
            violation: Some(("disagreement: 1 vs 0".to_string(), schedule)),
            ..ExploreReport::default()
        }
    );
    assert_eq!(dedupe, 30);
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

/// Safety of adopt-commit: if anyone commits v, every outcome carries v.
fn adopt_commit_check(ex: &Executor) -> Option<String> {
    let outs: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
    let committed = outs.iter().find(|o| o.get(0).and_then(Value::as_bool) == Some(true))?;
    let cv = committed.get(1)?;
    outs.iter().find(|o| o.get(1) != Some(cv)).map(|o| format!("commit {cv} vs outcome {o}"))
}

#[test]
fn three_party_adopt_commit_is_pinned() {
    for seed in SEEDS {
        // Seed-chosen distinct inputs.
        let base = (seed % 1000) as i64 * 3;
        let mut ex = Executor::new();
        for p in 0..3u32 {
            let ac = AdoptCommit::new(1, 0, 3, p, Value::Int(base + p as i64));
            ex.add_process(Box::new(AcProc(ac)));
        }
        let (report, dedupe) = explore(&ex, &adopt_commit_check);
        assert_eq!(
            report,
            ExploreReport { states: 7337, ..ExploreReport::default() },
            "seed {seed}"
        );
        assert_eq!(dedupe, 1203, "seed {seed}");
    }
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
fn three_racy_counters_are_pinned() {
    for seed in SEEDS {
        // Three increments each, from seed-chosen start values.
        let mut ex = Executor::new();
        for p in 0..3u64 {
            let val = ((seed >> (8 * p)) % 100) as i64;
            ex.add_process(Box::new(RacyCounter { left: 3, val, reading: true }));
        }
        let (report, dedupe) = explore(&ex, &|_| None);
        assert_eq!(
            report,
            ExploreReport { states: 66330, ..ExploreReport::default() },
            "seed {seed}"
        );
        assert_eq!(dedupe, 61978, "seed {seed}");
    }
}
