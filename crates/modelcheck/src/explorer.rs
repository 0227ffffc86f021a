//! Bounded exhaustive interleaving exploration in one depth-first pass.
//!
//! The paper's impossibility results (Lemma 11, Theorem 12) are statements
//! about *all* schedules of *all* algorithms. For a concrete algorithm and a
//! small process count, the schedule space of the deterministic simulator is
//! a finite directed graph over run fingerprints: [`Explorer`] walks it with
//! one iterative depth-first search and reports
//!
//! * **safety violations** — a user predicate over reached states (e.g. "the
//!   decided outputs violate Δ"),
//! * **non-termination witnesses** — a reachable cycle in which some
//!   scheduled process is still undecided (the schedule can be pumped
//!   forever: the FLP-style "forever bivalent" adversary made concrete).
//!
//! # Semantics
//!
//! The search visits every state reachable through non-terminal states, where
//! a state is *terminal* iff it violates the safety predicate, every watched
//! process has stopped, or it sits at the depth limit. Children are visited
//! in process-index order, so the first violation and the first cycle are
//! those of the index-order DFS, and the report is a pure function of the
//! instance. The search keeps an explicit stack rather than recursing, so
//! witnesses tens of thousands of steps deep cost heap, not call stack.
//! Reports of truncated explorations are best-effort: the state cap ends the
//! search where it is hit.
//!
//! # Cycle detection
//!
//! A child whose fingerprint is a state on the current DFS path closes a
//! cycle; the schedule to that child is the witness. States on the path were
//! expanded, so none of them is all-done, and because deciding is absorbing
//! every state on the cycle keeps the same undecided process: the cycle is
//! pumpable. Every cycle of the explored graph contains such a back edge in
//! any DFS, so none is missed.
//!
//! # Sleep sets
//!
//! A successor reached by two independent steps in the other order is not
//! computed again: the earlier sibling sleeps in the later one's subtree.
//! A sibling may sleep only once its finished subtree is *closed* (nothing
//! below it is a violation, a caught panic, a depth cut or a back edge, and
//! every dedupe target in it is closed too), so every skipped successor is
//! a dedupe hit onto a finished state off the path, and the report is the
//! one full expansion gives; only the dedupe count falls. The reduction is
//! off with a schedule filter, on backends whose ops do not commute by key,
//! and past 64 processes. DESIGN.md §6 gives the argument.
//!
//! Fingerprints hash the full run state (memory + automata); collisions are
//! possible in principle but astronomically unlikely at the explored sizes,
//! and a collision could only cause *under*-reporting of violations, never a
//! false alarm.

use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use wfa_kernel::executor::Executor;
use wfa_kernel::trace::OpKind;
use wfa_kernel::value::Pid;
use wfa_obs::metrics::{Counter, MetricsHandle};

/// Pass-through hasher for keys that are already fingerprints: run
/// fingerprints come out of a hash function, so feeding them through SipHash
/// again (the `HashMap` default) would only burn cycles on the explorer's
/// hottest path, the visited-set probe.
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FpHasher only hashes u64 fingerprints");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

type FpMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// A state predicate: returns a violation description, or `None`.
pub type SafetyCheck<'a> = dyn Fn(&Executor) -> Option<String> + 'a;

/// What the exploration found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: u64,
    /// First safety violation (description + schedule that reaches it).
    pub violation: Option<(String, Vec<Pid>)>,
    /// A schedule reaching a cycle with undecided processes (pumpable
    /// forever: a non-terminating fair-looking schedule).
    pub undecided_cycle: Option<Vec<Pid>>,
    /// `true` iff exploration was truncated by limits.
    pub truncated: bool,
    /// A panic the search caught (from the safety check, the schedule
    /// filter or an automaton step): the fingerprint of the state it fired
    /// at (the *parent* state for step panics) plus the stringified payload.
    /// Aborted states are terminal, so the rest of the space is still
    /// searched and the report carries partial results instead of the
    /// process dying. When several states panic, the
    /// `(fingerprint, payload)`-smallest is reported.
    pub aborted: Option<(u64, String)>,
}

impl ExploreReport {
    /// `true` iff neither a violation nor an undecided cycle was found, no
    /// panic cut a subtree short, and the exploration was exhaustive.
    pub fn fully_verified(&self) -> bool {
        self.violation.is_none()
            && self.undecided_cycle.is_none()
            && !self.truncated
            && self.aborted.is_none()
    }
}

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum distinct states to visit.
    pub max_states: u64,
    /// Maximum schedule depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_states: 2_000_000, max_depth: 10_000 }
    }
}

/// Schedule restriction: `true` iff `pid` may take the next step in this
/// state. Used to explore *constrained* interleaving families — e.g. all
/// k-concurrent schedules (§2.2): a process may step only if it already
/// participates or fewer than k participants are undecided.
pub type EnabledFilter<'a> = dyn Fn(&Executor, Pid) -> bool + 'a;

/// The k-concurrency filter of §2.2 over the given C-processes.
pub fn k_concurrent_filter(watched: Vec<Pid>, k: usize) -> impl Fn(&Executor, Pid) -> bool {
    move |ex: &Executor, pid: Pid| {
        if !watched.contains(&pid) {
            return true; // auxiliary processes are unconstrained
        }
        if ex.participating(pid) {
            return true; // already admitted
        }
        let undecided = watched
            .iter()
            .filter(|p| ex.participating(**p) && ex.status(**p).is_running())
            .count();
        undecided < k
    }
}

/// Exhaustive exploration of the interleavings of `pids` from the state of
/// `ex`.
pub struct Explorer<'a> {
    pids: Vec<Pid>,
    check: &'a SafetyCheck<'a>,
    limits: Limits,
    enabled: Option<&'a EnabledFilter<'a>>,
    metrics: MetricsHandle,
}

impl<'a> Explorer<'a> {
    /// Explores interleavings of `pids`, checking `check` at every state.
    pub fn new(pids: Vec<Pid>, check: &'a SafetyCheck<'a>, limits: Limits) -> Explorer<'a> {
        Explorer { pids, check, limits, enabled: None, metrics: MetricsHandle::disabled() }
    }

    /// Publishes the states visited and the dedupe hits (computed
    /// successors that were already visited; successors a sleep set skips
    /// are not computed) into `metrics`.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Explorer<'a> {
        self.metrics = metrics;
        self
    }

    /// Restricts exploration to schedules allowed by `filter` (e.g.
    /// [`k_concurrent_filter`]): exhaustive over the constrained family.
    pub fn with_filter(mut self, filter: &'a EnabledFilter<'a>) -> Explorer<'a> {
        self.enabled = Some(filter);
        self
    }

    /// Ignored: the search is one sequential pass, so there is no worker
    /// pool to size. Kept only because the benchmark still calls it.
    pub fn threads(self, _n: usize) -> Explorer<'a> {
        self
    }

    /// Runs the exploration from `initial` and returns the report.
    pub fn run(self, initial: &Executor) -> ExploreReport {
        let root = initial.fingerprint();
        // Sleep sets need enabledness to depend on a process alone (no
        // filter), ops that commute by key, and a pid mask that holds every
        // process; otherwise every state is expanded fully.
        let reduce = self.enabled.is_none() && initial.ops_commute_by_key() && initial.n() <= 64;
        let mut dfs = Dfs {
            explorer: &self,
            visited: FpMap::default(),
            frames: Vec::new(),
            todo: Vec::new(),
            schedule: Vec::new(),
            stride: if reduce { initial.n() } else { 0 },
            foot: Vec::new(),
            free: Vec::new(),
            dedupe: 0,
            report: ExploreReport { states: 1, ..ExploreReport::default() },
        };
        dfs.visit(initial.clone(), root, 0);
        dfs.search();
        let mut report = dfs.report;
        report.states = report.states.min(self.limits.max_states);
        self.metrics.add(Counter::ExplorerStates, report.states);
        self.metrics.add(Counter::ExplorerDedupeHits, dfs.dedupe);
        report
    }

    fn all_done(&self, ex: &Executor) -> bool {
        self.pids.iter().all(|p| !ex.status(*p).is_running())
    }

    fn enabled(&self, ex: &Executor, pid: Pid) -> bool {
        ex.status(pid).is_running() && self.enabled.is_none_or(|f| f(ex, pid))
    }
}

/// Convenience: explore all interleavings of every process of `ex`.
pub fn explore_all(ex: &Executor, check: &SafetyCheck<'_>, limits: Limits) -> ExploreReport {
    Explorer::new(ex.pids().collect(), check, limits).run(ex)
}

/// Where a visited state stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// On the current DFS path (has a frame on the stack).
    OnPath,
    /// Finished, and every state reachable from it was visited and judged
    /// with nothing cut short (see [`Frame::closed`]).
    Closed,
    /// Finished, but not closed.
    Open,
}

/// A state on the current DFS path whose children are not all visited yet.
struct Frame {
    /// The state itself, handed to its last child instead of cloned.
    ex: Option<Executor>,
    fp: u64,
    /// How many of its enabled pids, the top entries of [`Dfs::todo`], are
    /// still to be stepped.
    left: usize,
    /// Pids asleep here (a bit per pid index): stepping one reaches a
    /// closed state, so they are not stepped.
    sleep: u64,
    /// Stepped pids whose successor turned out closed; each falls asleep in
    /// the later siblings whose step it is independent of.
    done: u64,
    /// `true` while nothing found below this state is a violation, a caught
    /// panic, a depth cut, a back edge or a dedupe hit onto a state that is
    /// not closed. A frame that pops with it set is [`Mark::Closed`].
    closed: bool,
}

/// The state of one depth-first pass.
struct Dfs<'e, 'a> {
    explorer: &'e Explorer<'a>,
    visited: FpMap<Mark>,
    frames: Vec<Frame>,
    /// The frames' unstepped pids, each frame's in reverse index order so
    /// that popping yields index order.
    todo: Vec<Pid>,
    /// The pids stepped from the root to the state being visited.
    schedule: Vec<Pid>,
    /// The process count when sleep sets are on, else 0.
    stride: usize,
    /// Step footprints, one row of `stride` per frame: `foot[d * stride +
    /// q]` is what pid `q` does when stepped from frame `d`'s state, kept
    /// for the pids in that frame's sleep and done sets. A pid's footprint
    /// is a function of its own local state, which only its own steps
    /// change, so a sleeping pid's entry is copied down unchanged.
    foot: Vec<OpKind>,
    /// Executors of finished children (dedupe hits, terminal states),
    /// rebuilt into later siblings by `clone_from`.
    free: Vec<Executor>,
    /// Successors that were already visited.
    dedupe: u64,
    report: ExploreReport,
}

impl Dfs<'_, '_> {
    /// Steps the top frame's next pid until the stack is empty or the state
    /// cap is hit.
    fn search(&mut self) {
        let limits = self.explorer.limits;
        while let Some(top) = self.frames.last_mut() {
            if top.left == 0 {
                let Frame { ex, fp, closed, .. } = self.frames.pop().expect("the top frame");
                self.free.extend(ex);
                self.finish(fp, closed);
                continue;
            }
            top.left -= 1;
            let pid = self.todo.pop().expect("every frame's pids are on the todo stack");
            let parent = top.fp;
            let mut child = if top.left == 0 {
                top.ex.take().expect("a frame keeps its state until its last child")
            } else {
                let ex = top.ex.as_ref().expect("a frame keeps its state until its last child");
                match self.free.pop() {
                    Some(mut child) => {
                        child.clone_from(ex);
                        child
                    }
                    None => ex.clone(),
                }
            };
            // A panicking automaton step (a torn process, a buggy driver) is
            // attributed to the parent state and only prunes this child.
            let fp = match guarded(|| {
                child.step(pid, None);
                child.fingerprint()
            }) {
                Ok(fp) => fp,
                Err(payload) => {
                    self.abort(parent, payload);
                    self.frames.last_mut().expect("the stepping frame").closed = false;
                    continue;
                }
            };
            let depth = self.frames.len() - 1;
            let row = depth * self.stride;
            let op = child.last_op();
            if self.stride > 0 {
                self.foot[row + pid.0] = op;
            }
            match self.visited.get(&fp) {
                Some(&mark) => {
                    self.dedupe += 1;
                    let top = self.frames.last_mut().expect("the stepping frame");
                    match mark {
                        Mark::Closed => top.done |= bit(pid),
                        Mark::Open => top.closed = false,
                        Mark::OnPath => {
                            top.closed = false;
                            if self.report.undecided_cycle.is_none() {
                                let mut witness = self.schedule.clone();
                                witness.push(pid);
                                self.report.undecided_cycle = Some(witness);
                            }
                        }
                    }
                    self.free.push(child);
                }
                None => {
                    self.report.states += 1;
                    if self.report.states >= limits.max_states {
                        self.report.truncated = true;
                        return; // counted, but the state cap ends the search
                    }
                    // Every pid asleep or done here whose step commutes with
                    // this one sleeps in the child: stepping it there reaches
                    // the same state as this step taken after it, which is
                    // closed.
                    let mut sleep = 0;
                    if self.stride > 0 {
                        let top = &self.frames[depth];
                        for q in pids_of(top.sleep | top.done) {
                            if independent(self.foot[row + q], op) {
                                sleep |= 1 << q;
                            }
                        }
                    }
                    self.schedule.push(pid);
                    self.visit(child, fp, sleep);
                }
            }
        }
    }

    /// Marks a newly reached state visited and judges it. Its schedule is
    /// `self.schedule`: a terminal state is done with (and leaves the
    /// schedule), any other gets a frame over its enabled pids that are not
    /// in `sleep`.
    fn visit(&mut self, ex: Executor, fp: u64, sleep: u64) {
        let explorer = self.explorer;
        // Only a state all of whose processes have stopped is terminal and
        // still closed: it has no successors to cut short.
        let closed = match guarded(|| (explorer.check)(&ex)) {
            Err(payload) => {
                self.abort(fp, payload);
                false // aborted states are terminal: the search goes around them
            }
            Ok(Some(reason)) => {
                self.report.violation.get_or_insert_with(|| (reason, self.schedule.clone()));
                false
            }
            Ok(None) if explorer.all_done(&ex) => true,
            Ok(None) if self.schedule.len() >= explorer.limits.max_depth => {
                self.report.truncated = true;
                false
            }
            Ok(None) => {
                let start = self.todo.len();
                let todo = &mut self.todo;
                let listed = guarded(|| {
                    todo.extend(
                        explorer
                            .pids
                            .iter()
                            .filter(|&&p| sleep & bit(p) == 0 && explorer.enabled(&ex, p)),
                    );
                    todo[start..].reverse();
                });
                if let Err(payload) = listed {
                    self.todo.truncate(start);
                    self.abort(fp, payload);
                    false
                } else {
                    let left = self.todo.len() - start;
                    let depth = self.frames.len();
                    self.frames.push(Frame {
                        ex: Some(ex),
                        fp,
                        left,
                        sleep,
                        done: 0,
                        closed: true,
                    });
                    self.visited.insert(fp, Mark::OnPath);
                    if self.stride > 0 {
                        let row = depth * self.stride;
                        self.foot.resize(self.foot.len().max(row + self.stride), OpKind::None);
                        for q in pids_of(sleep) {
                            self.foot[row + q] = self.foot[row - self.stride + q];
                        }
                    }
                    return;
                }
            }
        };
        self.free.push(ex);
        self.finish(fp, closed);
    }

    /// Records a finished state and settles it in its parent frame: a
    /// closed child becomes a done pid there, any other opens the parent.
    fn finish(&mut self, fp: u64, closed: bool) {
        self.visited.insert(fp, if closed { Mark::Closed } else { Mark::Open });
        if let Some(pid) = self.schedule.pop() {
            let parent = self.frames.last_mut().expect("a stepped state has a parent frame");
            if closed {
                parent.done |= bit(pid);
            } else {
                parent.closed = false;
            }
        }
    }

    /// Records a caught panic, keeping the `(fingerprint, payload)`-smallest.
    fn abort(&mut self, fp: u64, payload: String) {
        let aborted = &mut self.report.aborted;
        if aborted.as_ref().is_none_or(|(afp, ap)| (fp, &payload) < (*afp, ap)) {
            *aborted = Some((fp, payload));
        }
    }
}

/// `pid`'s bit in a sleep or done mask; 0 past the mask's 64 pids, where
/// sleep sets are off.
fn bit(pid: Pid) -> u64 {
    1u64.checked_shl(pid.0 as u32).unwrap_or(0)
}

/// The pid indices whose bits are set in `mask`, in increasing order.
fn pids_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

/// `true` iff steps with footprints `a` and `b`, taken by two different
/// processes from one state, commute on a backend whose ops commute by key:
/// they touch different keys, or neither writes. A snapshot names no keys,
/// so it conflicts with every write.
fn independent(a: OpKind, b: OpKind) -> bool {
    match (a, b) {
        (OpKind::Write(x), OpKind::Write(y) | OpKind::Read(y))
        | (OpKind::Read(x), OpKind::Write(y)) => x != y,
        (OpKind::Write(_), OpKind::Snapshot(_)) | (OpKind::Snapshot(_), OpKind::Write(_)) => false,
        _ => true,
    }
}

/// Runs `f`, turning a panic into its stringified payload (panics carry
/// `&str` or `String`).
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_kernel::memory::RegKey;
    use wfa_kernel::process::{Process, Status, StepCtx};
    use wfa_kernel::value::Value;

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

    fn two_counters(n: u32) -> Executor {
        let mut ex = Executor::new();
        for _ in 0..2 {
            ex.add_process(Box::new(RacyCounter { left: n, val: 0, reading: true }));
        }
        ex
    }

    #[test]
    fn explores_all_interleavings() {
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.fully_verified());
        // Non-trivial state count: more than one path.
        assert!(report.states > 10, "{report:?}");
    }

    #[test]
    fn finds_violating_interleaving() {
        // "Lost update": with both counters doing 1 increment, some
        // interleaving lets a process decide 1 even though 2 increments
        // happened — search for a state where someone decided 1.
        let ex = two_counters(1);
        let check = |ex: &Executor| {
            let both_done = ex.pids().all(|p| !ex.status(p).is_running());
            let lost = ex
                .pids()
                .filter_map(|p| ex.status(p).decision())
                .all(|v| *v == Value::Int(1));
            (both_done && lost).then(|| "lost update".to_string())
        };
        let report = explore_all(&ex, &check, Limits::default());
        let (reason, sched) = report.violation.expect("lost update must be reachable");
        assert_eq!(reason, "lost update");
        assert!(!sched.is_empty());
    }

    /// Spins forever flipping a register.
    #[derive(Clone, Hash)]
    struct Spinner;

    impl Process for Spinner {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            let k = RegKey::new(2);
            let v = ctx.read(k).as_int().unwrap_or(0);
            let _ = v;
            Status::Running
        }
    }

    #[test]
    fn detects_undecided_cycles() {
        let mut ex = Executor::new();
        ex.add_process(Box::new(Spinner));
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.undecided_cycle.is_some(), "{report:?}");
    }

    #[test]
    fn limits_truncate() {
        let ex = two_counters(8);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits { max_states: 50, max_depth: 10_000 });
        assert!(report.truncated);
        assert!(report.states <= 50);
    }

    #[test]
    fn replaying_the_violation_schedule_reproduces_it() {
        let ex = two_counters(1);
        let check = |ex: &Executor| {
            let both_done = ex.pids().all(|p| !ex.status(p).is_running());
            let lost = ex
                .pids()
                .filter_map(|p| ex.status(p).decision())
                .all(|v| *v == Value::Int(1));
            (both_done && lost).then(|| "lost update".to_string())
        };
        let report = explore_all(&ex, &check, Limits::default());
        let (_, sched) = report.violation.unwrap();
        let mut replay = ex.clone();
        for pid in &sched {
            replay.step(*pid, None);
        }
        assert!(check(&replay).is_some(), "schedule replay did not reproduce the violation");
    }

    #[test]
    fn cycle_analysis_has_no_false_positive_on_dags() {
        // two_counters terminates on every schedule: the state graph is a
        // DAG, so no undecided cycle may be reported.
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.undecided_cycle.is_none(), "{report:?}");
    }

    /// A safety check that panics when any process has decided — every
    /// complete interleaving eventually trips it.
    fn panicky_check(ex: &Executor) -> Option<String> {
        if ex.pids().any(|p| ex.status(p).decision().is_some()) {
            panic!("safety check exploded");
        }
        None
    }

    #[test]
    fn panicking_check_aborts_partially_instead_of_crashing() {
        let ex = two_counters(1);
        let report = explore_all(&ex, &panicky_check, Limits::default());
        let (fp, payload) = report.aborted.clone().expect("panic must be captured");
        assert!(payload.contains("safety check exploded"), "{payload}");
        assert!(fp != 0);
        // Partial results survive: the non-decided part of the space was
        // still swept.
        assert!(report.states > 5, "{report:?}");
        assert!(!report.fully_verified());
    }

    /// Steps fine `fuse` times, then panics: a torn automaton.
    #[derive(Clone, Hash)]
    struct Grenade {
        fuse: u32,
    }

    impl Process for Grenade {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
            if self.fuse == 0 {
                panic!("automaton tore");
            }
            self.fuse -= 1;
            Status::Running
        }
    }

    #[test]
    fn panicking_step_is_attributed_to_the_parent_state() {
        let mut ex = Executor::new();
        ex.add_process(Box::new(RacyCounter { left: 1, val: 0, reading: true }));
        ex.add_process(Box::new(Grenade { fuse: 2 }));
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        let (fp, payload) = report.aborted.clone().expect("step panic must be captured");
        assert!(payload.contains("automaton tore"), "{payload}");
        assert!(fp != 0);
        // The counter's own interleavings were still explored.
        assert!(report.states > 3, "{report:?}");
    }

    #[test]
    fn metrics_count_states_and_dedupe_hits() {
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let m = MetricsHandle::counters();
        let report = Explorer::new(ex.pids().collect(), &check, Limits::default())
            .with_metrics(m.clone())
            .run(&ex);
        let snap = m.snapshot().expect("enabled handle snapshots");
        assert_eq!(snap.counter("explorer_states"), Some(report.states), "{snap:?}");
        assert!(snap.counter("explorer_dedupe_hits").unwrap_or(0) > 0, "{snap:?}");
    }

    /// Counts down `left` steps, then decides — or, with `spin`, keeps
    /// stepping without changing state (a self-loop).
    #[derive(Clone, Hash)]
    struct Countdown {
        left: u32,
        spin: bool,
    }

    impl Process for Countdown {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
            if self.left > 0 {
                self.left -= 1;
                Status::Running
            } else if self.spin {
                Status::Running
            } else {
                Status::Decided(Value::Int(0))
            }
        }
    }

    const DEEP: Limits = Limits { max_states: 100_000, max_depth: 100_000 };

    fn countdown(spin: bool) -> Executor {
        let mut ex = Executor::new();
        ex.add_process(Box::new(Countdown { left: 50_000, spin }));
        ex
    }

    #[test]
    fn deep_violation_witness_fits_and_replays() {
        let ex = countdown(false);
        let check = |ex: &Executor| {
            ex.pids().any(|p| ex.status(p).decision().is_some()).then(|| "decided".to_string())
        };
        let report = explore_all(&ex, &check, DEEP);
        let (reason, sched) = report.violation.expect("the decision is reachable");
        assert_eq!(reason, "decided");
        assert_eq!(sched.len(), 50_001);
        let mut replay = ex.clone();
        for pid in &sched {
            replay.step(*pid, None);
        }
        assert!(check(&replay).is_some(), "schedule replay did not reproduce the violation");
    }

    #[test]
    fn deep_cycle_witness_fits_and_replays() {
        let ex = countdown(true);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, DEEP);
        let sched = report.undecided_cycle.expect("the self-loop is reachable");
        assert_eq!(sched.len(), 50_001);
        assert!(!report.truncated, "{:?}", report.states);
        // The last step of the witness returns to the state before it.
        let mut replay = ex.clone();
        for pid in &sched[..sched.len() - 1] {
            replay.step(*pid, None);
        }
        let before = replay.fingerprint();
        replay.step(sched[sched.len() - 1], None);
        assert_eq!(replay.fingerprint(), before);
    }
}
