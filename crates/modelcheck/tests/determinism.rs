//! Determinism suite: the explorer's full report is a pure function of the
//! instance.
//!
//! Each fixture pins its complete [`ExploreReport`]: the state count, the
//! witness schedule of a violation or an undecided cycle, and the
//! fingerprint and payload of a caught panic. The pins were recorded from
//! the explorer's earlier form (a parallel sweep followed by separate
//! index-order witness searches), so any change to visit order,
//! terminality or cycle detection shows up here as a moved count or
//! schedule. The instances are the Lemma 11 derived consensus protocols and
//! the racy-counter fixtures.

use wfa_kernel::executor::Executor;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::{Pid, Value};
use wfa_modelcheck::explorer::{explore_all, k_concurrent_filter, ExploreReport, Explorer, Limits};
use wfa_modelcheck::lemma11::{lemma11, refute_strong_2_renaming, solo_collision};

use wfa_algorithms::renaming::RenamingFig4;

/// A schedule from process indices.
fn schedule(pids: &[usize]) -> Vec<Pid> {
    pids.iter().copied().map(Pid).collect()
}

/// The report of a complete exploration with the given findings.
fn report(
    states: u64,
    violation: Option<(&str, &[usize])>,
    undecided_cycle: Option<&[usize]>,
) -> ExploreReport {
    ExploreReport {
        states,
        violation: violation.map(|(reason, s)| (reason.to_string(), schedule(s))),
        undecided_cycle: undecided_cycle.map(schedule),
        truncated: false,
        aborted: None,
    }
}

/// Checks `found` against its pin and, when it names a violation, that the
/// witness schedule reproduces it.
fn assert_pinned(
    ex: &Executor,
    check: &dyn Fn(&Executor) -> Option<String>,
    found: &ExploreReport,
    pinned: &ExploreReport,
) {
    assert_eq!(found, pinned);
    if let Some((reason, sched)) = &found.violation {
        let mut replay = ex.clone();
        for pid in sched {
            replay.step(*pid, None);
        }
        assert_eq!(check(&replay).as_ref(), Some(reason), "the witness must replay");
    }
}

// --- the two_counters fixture (mirrors the explorer's unit tests) ---------

/// Increments a shared counter `n` times, then decides its final read.
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

fn counters(procs: usize, n: u32) -> Executor {
    let mut ex = Executor::new();
    for _ in 0..procs {
        ex.add_process(Box::new(RacyCounter { left: n, val: 0, reading: true }));
    }
    ex
}

fn lost_update_check(ex: &Executor) -> Option<String> {
    let both_done = ex.pids().all(|p| !ex.status(p).is_running());
    let lost = ex.pids().filter_map(|p| ex.status(p).decision()).all(|v| *v == Value::Int(1));
    (both_done && lost).then(|| "lost update".to_string())
}

fn no_check(_: &Executor) -> Option<String> {
    None
}

#[test]
fn two_counters_clean_report_is_pinned() {
    let ex = counters(2, 2);
    let found = explore_all(&ex, &no_check, Limits::default());
    assert_pinned(&ex, &no_check, &found, &report(152, None, None));
}

#[test]
fn two_counters_violation_report_is_pinned() {
    let ex = counters(2, 1);
    let found = explore_all(&ex, &lost_update_check, Limits::default());
    assert_pinned(
        &ex,
        &lost_update_check,
        &found,
        &report(31, Some(("lost update", &[0, 1, 0, 0, 1, 1])), None),
    );
}

#[test]
fn one_concurrent_two_counters_report_is_pinned() {
    // Under 1-concurrency a counter runs alone once admitted, so the lost
    // update is unreachable and the state space shrinks.
    let ex = counters(2, 1);
    let filter = k_concurrent_filter(ex.pids().collect(), 1);
    let found = Explorer::new(ex.pids().collect(), &lost_update_check, Limits::default())
        .with_filter(&filter)
        .run(&ex);
    assert_pinned(&ex, &lost_update_check, &found, &report(13, None, None));
}

#[test]
fn three_counters_report_is_pinned() {
    let ex = counters(3, 2);
    let found = explore_all(&ex, &no_check, Limits::default());
    assert_pinned(&ex, &no_check, &found, &report(8048, None, None));
}

/// Panics once any process has decided: every complete interleaving trips it.
fn panicky_check(ex: &Executor) -> Option<String> {
    if ex.pids().any(|p| ex.status(p).decision().is_some()) {
        panic!("safety check exploded");
    }
    None
}

#[test]
fn aborted_report_is_pinned() {
    let ex = counters(2, 2);
    let found = explore_all(&ex, &panicky_check, Limits::default());
    let pinned = ExploreReport {
        aborted: Some((151800972265191598, "safety check exploded".to_string())),
        ..report(121, None, None)
    };
    assert_eq!(found, pinned);
}

// --- undecided cycles ------------------------------------------------------

/// Spins forever reading a register (its state graph is a self-loop).
#[derive(Clone, Hash)]
struct Spinner;

impl Process for Spinner {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let _ = ctx.read(RegKey::new(2));
        Status::Running
    }
}

/// Flips a register between 0 and 1 forever (a 2-cycle, plus a decided
/// bystander so the cycle check sees mixed statuses).
#[derive(Clone, Hash)]
struct Flipper {
    next: i64,
}

impl Process for Flipper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        ctx.write(RegKey::new(3), Value::Int(self.next));
        self.next = 1 - self.next;
        Status::Running
    }
}

#[test]
fn self_loop_report_is_pinned() {
    let mut ex = Executor::new();
    ex.add_process(Box::new(Spinner));
    let found = explore_all(&ex, &no_check, Limits::default());
    assert_pinned(&ex, &no_check, &found, &report(1, None, Some(&[0])));
}

#[test]
fn multi_state_cycle_report_is_pinned() {
    let mut ex = Executor::new();
    ex.add_process(Box::new(Flipper { next: 0 }));
    ex.add_process(Box::new(RacyCounter { left: 1, val: 0, reading: true }));
    let found = explore_all(&ex, &no_check, Limits::default());
    assert_pinned(&ex, &no_check, &found, &report(12, None, Some(&[0, 0, 0])));
}

// --- Lemma 11 instances ----------------------------------------------------

/// The derived 2-process consensus instance the Lemma 11 refutation
/// explores, built from the Figure 4 automaton misused as (2,2)-renaming.
fn derived_consensus(m: usize) -> Executor {
    let cand = |i: usize| Box::new(RenamingFig4::new(i, m)) as Box<dyn DynProcess>;
    lemma11(&cand, solo_collision(&cand, &[0, 1, 2]).expect("pigeonhole collision"))
}

fn consensus_check(ex: &Executor) -> Option<String> {
    let decided: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
    if decided.len() == 2 && decided[0] != decided[1] {
        return Some(format!("disagreement: {} vs {}", decided[0], decided[1]));
    }
    for v in decided {
        if *v != Value::Int(0) && *v != Value::Int(1) {
            return Some(format!("invalid decision {v}"));
        }
    }
    None
}

/// Lemma 11: the derived protocol must fail consensus; with the Figure 4
/// candidate it disagrees.
fn lemma11_fig4_report() -> ExploreReport {
    report(81, Some(("disagreement: 1 vs 0", &[0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1])), None)
}

#[test]
fn lemma11_derived_consensus_report_is_pinned() {
    let ex = derived_consensus(4);
    let found = explore_all(&ex, &consensus_check, Limits::default());
    assert_pinned(&ex, &consensus_check, &found, &lemma11_fig4_report());
}

#[test]
fn lemma11_full_refutation_pipeline_report_is_pinned() {
    let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
    assert!(r.refuted());
    assert_eq!(r.colliding, (0, 1));
    assert_eq!(r.report, lemma11_fig4_report());
}
