//! Lemma 11: strong 2-renaming is not 2-concurrently solvable —
//! mechanically.
//!
//! The paper's proof has three moves, each of which is executable here:
//!
//! 1. **Pigeonhole** ([`solo_collision`]): with `n ≥ 3` processes and names
//!    `{1, 2}`, two processes decide the *same* name in their solo runs.
//! 2. **Reduction** ([`ConsensusViaRenaming`], assembled by [`lemma11`]):
//!    those two processes would solve wait-free 2-process consensus —
//!    publish the input, run the renaming algorithm, decide own input on
//!    name 1 and the other's input otherwise.
//! 3. **FLP** ([`refute_strong_2_renaming`]): wait-free 2-process consensus
//!    is impossible, so exhaustive exploration of the derived protocol finds
//!    either a safety violation (disagreement / a name outside `{1, 2}` /
//!    a duplicate name) or a pumpable undecided cycle — a concrete
//!    counterexample schedule for the candidate algorithm.
//!
//! The pipeline runs against *candidate* (2,2)-renaming algorithms; Lemma 11
//! says every candidate fails, and for each specific candidate the explorer
//! returns the concrete witness.

use wfa_kernel::executor::Executor;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::sched::{run_schedule, NullEnv, RoundRobin};
use wfa_kernel::value::Value;

use crate::explorer::{explore_all, ExploreReport, Limits};

/// Namespace of the reduction's input board (distinct from algorithm
/// boards).
const NS_L11: u16 = 110;

fn l11_input_key(i: usize) -> RegKey {
    RegKey::idx(NS_L11, i as u32, 0, 0, 0)
}

/// Builds the candidate renaming automaton for process slot `i`.
pub type CandidateRenaming<'a> = dyn Fn(usize) -> Box<dyn DynProcess> + 'a;

/// Runs each process of `pool` *solo* and returns two process slots that
/// decide the same name, if any (the pigeonhole step: guaranteed for correct
/// candidates whose names lie in `{1, 2}` and `pool.len() ≥ 3`).
pub fn solo_collision(candidate: &CandidateRenaming<'_>, pool: &[usize]) -> Option<(usize, usize)> {
    let mut by_name: Vec<(i64, usize)> = Vec::new();
    for &i in pool {
        let mut ex = Executor::new();
        let p = ex.add_process(candidate(i));
        let mut sched = RoundRobin::new([p]);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 100_000);
        let name = ex
            .status(p)
            .decision()
            .unwrap_or_else(|| panic!("candidate did not decide in a solo run (slot {i})"))
            .as_int()
            .expect("names are integers");
        if let Some((_, j)) = by_name.iter().find(|(n, _)| *n == name) {
            return Some((*j, i));
        }
        by_name.push((name, i));
    }
    None
}

/// The reduction automaton: 2-process consensus from a renaming candidate
/// whose solo runs collide (Appendix D.1).
#[derive(Clone, Hash)]
pub struct ConsensusViaRenaming<A> {
    me: usize,
    other: usize,
    input: Value,
    inner: A,
    pc: CvrPc,
}

#[derive(Clone, Hash, Debug)]
enum CvrPc {
    Publish,
    RunInner,
    ReadOther { my_name: i64 },
}

impl<A: Process> ConsensusViaRenaming<A> {
    /// Process `me` with consensus `input`, racing `other`, deciding via
    /// renaming automaton `inner` (whose solo name is the collision name).
    pub fn new(me: usize, other: usize, input: Value, inner: A) -> ConsensusViaRenaming<A> {
        ConsensusViaRenaming { me, other, input, inner, pc: CvrPc::Publish }
    }
}

impl<A: Process> Process for ConsensusViaRenaming<A> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match &self.pc {
            CvrPc::Publish => {
                ctx.write(l11_input_key(self.me), self.input.clone());
                self.pc = CvrPc::RunInner;
                Status::Running
            }
            CvrPc::RunInner => {
                if let Status::Decided(name) = self.inner.step(ctx) {
                    let name = name.as_int().expect("names are integers");
                    if name == 1 {
                        // The collision name: in a solo run I would get it,
                        // so getting it entitles me to my own input.
                        return Status::Decided(self.input.clone());
                    }
                    self.pc = CvrPc::ReadOther { my_name: name };
                }
                Status::Running
            }
            CvrPc::ReadOther { my_name } => {
                let _ = my_name;
                let v = ctx.read(l11_input_key(self.other));
                // Not having obtained the solo name means the other process
                // participates and published first (the proof's argument).
                if v.is_unit() {
                    // A candidate that breaks the proof's invariant: decide
                    // our own input (a safety check will catch disagreement).
                    return Status::Decided(self.input.clone());
                }
                Status::Decided(v)
            }
        }
    }

    fn label(&self) -> String {
        format!("cvr[{}]", self.me)
    }
}

/// Everything the refutation produced.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// The two slots whose solo runs collide.
    pub colliding: (usize, usize),
    /// The exploration report over the derived consensus protocol.
    pub report: ExploreReport,
}

impl Refutation {
    /// `true` iff a concrete counterexample was found: a schedule violating
    /// consensus safety or a forever-undecided pumpable schedule.
    pub fn refuted(&self) -> bool {
        self.report.violation.is_some() || self.report.undecided_cycle.is_some()
    }
}

/// The full Lemma-11 pipeline against one candidate algorithm.
///
/// `pool` is the set of process slots to try (≥ 3 for the pigeonhole);
/// inputs 0/1 are used for the derived consensus instance.
///
/// # Panics
///
/// Panics if no solo collision exists (then the candidate is not a
/// (2,2)-renaming algorithm at all: with ≥ 3 processes and 2 names solo runs
/// must collide — unless some solo run already leaves `{1, 2}`, which is
/// reported as a violation instead).
pub fn refute_strong_2_renaming(
    candidate: &CandidateRenaming<'_>,
    pool: &[usize],
    limits: Limits,
) -> Refutation {
    // Step 0: a solo name outside {1,2} refutes the candidate outright.
    for &i in pool {
        let mut ex = Executor::new();
        let p = ex.add_process(candidate(i));
        let mut sched = RoundRobin::new([p]);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 100_000);
        if let Some(name) = ex.status(p).decision().and_then(Value::as_int) {
            if name != 1 && name != 2 {
                return Refutation {
                    colliding: (i, i),
                    report: ExploreReport {
                        states: 1,
                        violation: Some((
                            format!("solo run of slot {i} took name {name} ∉ {{1,2}}"),
                            vec![],
                        )),
                        undecided_cycle: None,
                        truncated: false,
                        aborted: None,
                    },
                };
            }
        }
    }
    let colliding = solo_collision(candidate, pool).expect("pigeonhole: solo runs must collide");
    let ex = lemma11(candidate, colliding);
    let check = |ex: &Executor| -> Option<String> {
        let d: Vec<Option<&Value>> = ex.pids().map(|p| ex.status(p).decision()).collect();
        if let (Some(x), Some(y)) = (d[0], d[1]) {
            if x != y {
                return Some(format!("disagreement: {x} vs {y}"));
            }
        }
        for v in d.into_iter().flatten() {
            let ok = *v == Value::Int(0) || *v == Value::Int(1);
            if !ok {
                return Some(format!("invalid decision {v}"));
            }
        }
        None
    };
    let report = explore_all(&ex, &check, limits);
    Refutation { colliding, report }
}

/// The derived 2-process consensus of Lemma 11 over `candidate` and its
/// colliding slots `(a, b)`: `Pid(0)` is slot `a` proposing 0 and `Pid(1)`
/// is slot `b` proposing 1, each deciding through its own copy of the
/// candidate.
pub fn lemma11(candidate: &CandidateRenaming<'_>, (a, b): (usize, usize)) -> Executor {
    let mut ex = Executor::new();
    for (me, other, input) in [(a, b, 0), (b, a, 1)] {
        let inner = BoxedAuto(candidate(me));
        ex.add_process(Box::new(ConsensusViaRenaming::new(me, other, Value::Int(input), inner)));
    }
    ex
}

/// A boxed automaton with state-reflecting hash: boxed automata are `Clone`
/// but not `Hash`, so this hashes the inner automaton's fingerprint. That
/// suffices for exploring these small protocols only because the inner
/// automaton's state is also reflected in shared memory after every step it
/// takes (see the caveat in the module docs of `wfa-modelcheck`).
#[derive(Clone)]
pub struct BoxedAuto(pub Box<dyn DynProcess>);

impl std::hash::Hash for BoxedAuto {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.0.fingerprint(&mut h);
        std::hash::Hasher::finish(&h).hash(state);
    }
}

impl Process for BoxedAuto {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        self.0.step(ctx)
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// Replays a refutation's violating schedule, if any, returning the decided
/// values it produces (diagnostics for reports).
pub fn replay_violation(
    candidate: &CandidateRenaming<'_>,
    refutation: &Refutation,
) -> Option<Vec<Value>> {
    let (_, sched) = refutation.report.violation.as_ref()?;
    let (a, b) = refutation.colliding;
    if a == b {
        return None; // solo violation, nothing to replay
    }
    let mut ex = lemma11(candidate, (a, b));
    for pid in sched {
        ex.step(*pid, None);
    }
    Some(ex.pids().map(|p| ex.status(p).decision().cloned().unwrap_or(Value::Unit)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_algorithms::renaming::RenamingFig4;

    /// Candidate 1: the Figure-4 automaton used *as if* it solved (2,2)-
    /// renaming. It is correct (2,3)-renaming, so the refutation must find a
    /// run leaving the {1,2} namespace or a consensus violation.
    fn fig4_candidate(m: usize) -> impl Fn(usize) -> Box<dyn DynProcess> {
        move |i| Box::new(RenamingFig4::new(i, m)) as Box<dyn DynProcess>
    }

    /// Candidate 2: greedy — immediately decide the smallest name not seen
    /// in a collect (blatantly racy: duplicate names under contention).
    #[derive(Clone, Hash)]
    struct Greedy {
        me: usize,
        m: usize,
        cursor: usize,
        seen: Vec<i64>,
        registered: bool,
    }

    impl Process for Greedy {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            let key = |l: usize| RegKey::idx(111, l as u32, 0, 0, 0);
            if !self.registered {
                // reserve nothing; go straight to scanning (racy by design)
                self.registered = true;
                let v = ctx.read(key(self.cursor));
                if let Some(x) = v.as_int() {
                    self.seen.push(x);
                }
                self.cursor += 1;
                return Status::Running;
            }
            if self.cursor < self.m {
                let v = ctx.read(key(self.cursor));
                if let Some(x) = v.as_int() {
                    self.seen.push(x);
                }
                self.cursor += 1;
                return Status::Running;
            }
            let name = (1..).find(|n| !self.seen.contains(n)).expect("some name free");
            ctx.write(key(self.me), Value::Int(name));
            Status::Decided(Value::Int(name))
        }
    }

    fn greedy_candidate(m: usize) -> impl Fn(usize) -> Box<dyn DynProcess> {
        move |i| {
            Box::new(Greedy { me: i, m, cursor: 0, seen: Vec::new(), registered: false })
                as Box<dyn DynProcess>
        }
    }

    #[test]
    fn pigeonhole_finds_solo_collision() {
        let cand = fig4_candidate(4);
        let (a, b) = solo_collision(&cand, &[0, 1, 2]).expect("collision");
        assert_ne!(a, b);
    }

    #[test]
    fn fig4_as_strong_renaming_is_refuted() {
        let cand = fig4_candidate(4);
        let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
        assert!(r.refuted(), "{:?}", r.report);
        assert!(!r.report.truncated, "exploration must be exhaustive");
    }

    #[test]
    fn greedy_renaming_is_refuted() {
        let cand = greedy_candidate(4);
        let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
        assert!(r.refuted(), "{:?}", r.report);
    }

    #[test]
    fn violations_replay() {
        let cand = greedy_candidate(4);
        let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
        if r.report.violation.is_some() && r.colliding.0 != r.colliding.1 {
            let out = replay_violation(&cand, &r).expect("replayable");
            assert_eq!(out.len(), 2);
        }
    }
}
