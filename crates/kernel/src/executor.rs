//! The run executor.
//!
//! A run of the paper's model is a tuple ⟨F, H, I, Sch, T⟩ (§2.1): a failure
//! pattern, a failure-detector history, an initial state, a schedule and a
//! time sequence. [`Executor`] holds the initial-state-plus-progress part
//! (process automata and shared memory) and exposes a single primitive,
//! [`Executor::step`], that performs the k-th step of a schedule: it runs one
//! step of one process at the current logical time with a given
//! failure-detector value. Schedules (`Sch`), failure patterns (`F`) and
//! histories (`H`) are supplied by the layers above (schedulers in
//! [`crate::sched`], failure detectors in `wfa-fd`, the EFD harness in
//! `wfa-core`).
//!
//! Register operations go through one seam: the executor owns a
//! `Box<dyn MemoryBackend>` that is the in-process [`SharedMemory`] (the
//! base model) unless [`Executor::set_backend`] installs another
//! linearizable substrate (see [`crate::backend`]).
//!
//! The executor is `Clone`, and the complete run state is hashable via
//! [`Executor::fingerprint`] — the two properties the bounded model checker
//! needs to explore interleavings.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use wfa_obs::metrics::{Counter, MetricsHandle};
use wfa_obs::span::{seq, EventKind, ObsEvent, Op};
use wfa_obs::local as obs_local;

use crate::backend::{Degradation, MemoryBackend, Resolution};
use crate::memory::SharedMemory;
use crate::process::{DynProcess, Status, StepCtx};
use crate::trace::OpKind;
use crate::value::{Pid, Value};

/// One registered process and its run-local bookkeeping.
///
/// The automaton sits behind an [`Rc`] so that cloning an executor (which
/// the model checker does at every branch point) is a reference-count bump
/// per process; the automaton state is only deep-copied when a shared slot
/// actually takes a step (copy-on-write). An executor never crosses threads
/// (its backend and automata are not `Send`), so the count is a plain
/// integer, not an atomic.
#[derive(Clone)]
struct Slot {
    proc: Rc<dyn DynProcess>,
    status: Status,
    steps: u64,
    /// Lazily cached hash of (slot index, status, automaton state); `None`
    /// while stale. An effective step only marks it stale, and
    /// [`Executor::fingerprint`] rehashes stale slots on demand, so runs that
    /// never fingerprint pay nothing and a fork of a fingerprinted run
    /// rehashes only the slots it steps. Salted with the slot index so two
    /// slots in the same local state don't cancel under XOR combination.
    fp: Cell<Option<u64>>,
}

impl Slot {
    /// This slot's hash at `index`, recomputed and cached if stale.
    fn fingerprint(&self, index: usize) -> u64 {
        if let Some(fp) = self.fp.get() {
            return fp;
        }
        let fp = slot_fp(index, &self.status, &*self.proc);
        self.fp.set(Some(fp));
        fp
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("proc", &self.proc.label())
            .field("status", &self.status)
            .field("steps", &self.steps)
            .finish()
    }
}

/// Hash of one slot's observable state, salted with its index.
fn slot_fp(index: usize, status: &Status, proc: &dyn DynProcess) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    index.hash(&mut h);
    status.hash(&mut h);
    proc.fingerprint(&mut h);
    h.finish()
}

/// Holds the evolving state of a run and performs schedule steps.
///
/// # Examples
///
/// ```
/// use wfa_kernel::executor::Executor;
/// use wfa_kernel::process::{Process, Status, StepCtx};
/// use wfa_kernel::memory::RegKey;
/// use wfa_kernel::value::Value;
///
/// #[derive(Clone, Hash)]
/// struct Echo(i64);
/// impl Process for Echo {
///     fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
///         Status::Decided(Value::Int(self.0))
///     }
/// }
///
/// let mut ex = Executor::new();
/// let p = ex.add_process(Box::new(Echo(5)));
/// ex.step(p, None);
/// assert_eq!(ex.status(p).decision(), Some(&Value::Int(5)));
/// ```
#[derive(Debug, Default)]
pub struct Executor {
    /// The register file every step's operations route through; defaults
    /// to an empty [`SharedMemory`].
    backend: Box<dyn MemoryBackend>,
    slots: Vec<Slot>,
    clock: u64,
    /// The memory operation of the last effective step (its footprint).
    /// Excluded from [`Executor::fingerprint`], like the clock.
    last_op: OpKind,
    /// Structured degradations drained from the backend after each step, in
    /// step order. An observation stream, excluded from
    /// [`Executor::fingerprint`].
    degradations: Vec<Degradation>,
    /// Matching degradation-resolved records, in step order — the closing
    /// half of the lifecycle `degradations` opens. Same discipline: an
    /// observation stream excluded from [`Executor::fingerprint`].
    resolutions: Vec<Resolution>,
    /// Observability sink; the default (disabled) handle costs one branch
    /// per step. Excluded from [`Executor::fingerprint`] — metrics are an
    /// observer, not run state.
    obs: MetricsHandle,
}

impl Clone for Executor {
    fn clone(&self) -> Executor {
        Executor {
            backend: self.backend.clone(),
            slots: self.slots.clone(),
            clock: self.clock,
            last_op: self.last_op,
            degradations: self.degradations.clone(),
            resolutions: self.resolutions.clone(),
            obs: self.obs.clone(),
        }
    }

    /// Reuses `self`'s slot and observation buffers, so a recycled
    /// executor becomes a copy of `source` without reallocating them.
    fn clone_from(&mut self, source: &Executor) {
        self.backend = source.backend.clone();
        self.slots.clone_from(&source.slots);
        self.clock = source.clock;
        self.last_op = source.last_op;
        self.degradations.clone_from(&source.degradations);
        self.resolutions.clone_from(&source.resolutions);
        self.obs.clone_from(&source.obs);
    }
}

impl Executor {
    /// Creates an executor with empty memory and no processes.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Registers a process; its [`Pid`] is its registration index.
    pub fn add_process(&mut self, proc: Box<dyn DynProcess>) -> Pid {
        let index = self.slots.len();
        self.slots.push(Slot {
            proc: Rc::from(proc),
            status: Status::Running,
            steps: 0,
            fp: Cell::new(None),
        });
        Pid(index)
    }

    /// Number of registered processes.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// All process ids, in registration order.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        (0..self.slots.len()).map(Pid)
    }

    /// The current logical time (number of schedule steps performed).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The shared register contents (for verifiers; processes go through
    /// [`StepCtx`]): the backend's linearized view, so verifiers work
    /// unchanged across substrates.
    pub fn memory(&self) -> &SharedMemory {
        self.backend.view()
    }

    /// `true` iff the register file's operations on distinct keys commute
    /// (see [`MemoryBackend::ops_commute_by_key`]).
    pub fn ops_commute_by_key(&self) -> bool {
        self.backend.ops_commute_by_key()
    }

    /// Replaces the register file; all subsequent steps route their memory
    /// operations through `backend`. Install it before the first step:
    /// whatever the previous register file held is dropped.
    pub fn set_backend(&mut self, backend: Box<dyn MemoryBackend>) {
        self.backend = backend;
    }

    /// Drops every process but keeps the slot buffer, for an executor
    /// parked until `clone_from` rebuilds it. Automata it shared with a fork
    /// are then that fork's alone, so its next step on them copies nothing.
    pub fn release(&mut self) {
        self.slots.clear();
    }

    /// Structured degradations the backend raised during this run, in step
    /// order (empty for backends that never degrade, shared memory among
    /// them).
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Degradation-resolved records the backend emitted during this run, in
    /// step order. Each closes a degraded spell surfaced through
    /// [`Executor::degradations`]; reports expose them as `recoveries`.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Current status of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not returned by [`Executor::add_process`].
    pub fn status(&self, pid: Pid) -> &Status {
        &self.slots[pid.0].status
    }

    /// Number of effective steps `pid` has taken.
    pub fn steps(&self, pid: Pid) -> u64 {
        self.slots[pid.0].steps
    }

    /// `true` iff `pid` has taken at least one step (is *participating*).
    pub fn participating(&self, pid: Pid) -> bool {
        self.slots[pid.0].steps > 0
    }

    /// Label of the automaton behind `pid`.
    pub fn label(&self, pid: Pid) -> String {
        self.slots[pid.0].proc.label()
    }

    /// Performs one schedule step of `pid` with failure-detector value `fd`.
    ///
    /// A step of a decided or halted process is a *null step*: the logical
    /// clock advances, but nothing else changes (§2.2). Returns the status
    /// after the step.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown or the process performs more than one
    /// memory operation.
    pub fn step(&mut self, pid: Pid, fd: Option<&Value>) -> &Status {
        let now = self.clock;
        self.clock += 1;
        let obs = &self.obs;
        let slot = &mut self.slots[pid.0];
        if slot.status.is_running() {
            slot.steps += 1;
            // Copy-on-write: materialize a private automaton only if the Rc
            // is shared with a forked run.
            if Rc::get_mut(&mut slot.proc).is_none() {
                slot.proc = slot.proc.clone_rc();
            }
            let proc = Rc::get_mut(&mut slot.proc).expect("uniquely owned after copy-on-write");
            let mut ctx = StepCtx::new(self.backend.as_mut(), fd, now, pid, 1);
            if obs.is_enabled() {
                // Install the recording context so automata (which cannot
                // hold a handle — they must stay `Clone + Hash`) can record
                // advice/simulation events through `wfa_obs::local`. The
                // step's own counts go through the context's buffer too, and
                // reach the registry in one flush when the guard drops.
                let _guard = obs_local::enter(obs, now, pid.0 as u32);
                slot.status = proc.step(&mut ctx);
                let op = Op::from(ctx.last_op());
                let decided = matches!(slot.status, Status::Decided(_));
                obs_local::bump(Counter::EffectiveSteps);
                obs_local::bump(match op {
                    Op::None => Counter::OpNone,
                    Op::Read { .. } => Counter::OpReads,
                    Op::Write { .. } => Counter::OpWrites,
                    Op::Snapshot(_) => Counter::OpSnapshots,
                });
                if decided {
                    obs_local::bump(Counter::Decisions);
                }
                obs.record(ObsEvent {
                    time: now,
                    pid: pid.0 as u32,
                    seq: seq::STEP,
                    kind: EventKind::Step { op, decided },
                });
            } else {
                slot.status = proc.step(&mut ctx);
            }
            self.last_op = ctx.last_op();
            *slot.fp.get_mut() = None;
            let mut raised = self.backend.drain_degradations();
            if !raised.is_empty() {
                self.degradations.append(&mut raised);
            }
            let mut resolved = self.backend.drain_resolutions();
            if !resolved.is_empty() {
                self.resolutions.append(&mut resolved);
            }
        } else {
            obs.bump(Counter::NullSteps);
        }
        &self.slots[pid.0].status
    }

    /// The memory operation of the last effective step: what it did to
    /// shared memory, [`OpKind::None`] before the first. A null step leaves
    /// it unchanged.
    pub fn last_op(&self) -> OpKind {
        self.last_op
    }

    /// Attaches an observability handle; every subsequent step records
    /// counters (and events, when the handle retains them) into it.
    pub fn set_metrics(&mut self, obs: MetricsHandle) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.obs
    }

    /// `true` iff every process in `among` has decided.
    pub fn all_decided<I: IntoIterator<Item = Pid>>(&self, among: I) -> bool {
        among
            .into_iter()
            .all(|p| matches!(self.slots[p.0].status, Status::Decided(_)))
    }

    /// `true` iff no process in the run can still take effective steps.
    pub fn quiescent(&self) -> bool {
        self.slots.iter().all(|s| !s.status.is_running())
    }

    /// The output vector of the run: `O[i]` is `pid` i's decision, or `⊥`
    /// while undecided (§2.2).
    pub fn output_vector(&self) -> Vec<Value> {
        self.slots
            .iter()
            .map(|s| s.status.decision().cloned().unwrap_or(Value::Unit))
            .collect()
    }

    /// Hashes the complete run state (memory, process states, statuses).
    ///
    /// The clock and step counters are excluded: two runs that reach the same
    /// configuration by different-length schedules are the same state for
    /// exploration purposes.
    ///
    /// The process side is the XOR of the per-slot hashes. Each slot caches
    /// its hash and a step only marks it stale, so this rehashes just the
    /// slots stepped since the last call (one per child when the explorer
    /// forks a fingerprinted parent) and XORs the rest from the cache. The
    /// memory side is the backend's incrementally maintained content hash.
    pub fn fingerprint(&self) -> u64 {
        let procs = self.slots.iter().enumerate().fold(0, |acc, (i, s)| acc ^ s.fingerprint(i));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.backend.fingerprint(&mut h);
        procs.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::RegKey;
    use crate::process::Process;

    #[derive(Clone, Hash)]
    struct WriteThenDecide {
        reg: u32,
        val: i64,
        wrote: bool,
    }

    impl Process for WriteThenDecide {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            if !self.wrote {
                self.wrote = true;
                ctx.write(RegKey::new(0).at(0, self.reg), Value::Int(self.val));
                Status::Running
            } else {
                Status::Decided(Value::Int(self.val))
            }
        }
    }

    fn two_proc_exec() -> Executor {
        let mut ex = Executor::new();
        ex.add_process(Box::new(WriteThenDecide { reg: 0, val: 10, wrote: false }));
        ex.add_process(Box::new(WriteThenDecide { reg: 1, val: 20, wrote: false }));
        ex
    }

    #[test]
    fn stepping_advances_clock_and_counts() {
        let mut ex = two_proc_exec();
        assert_eq!(ex.clock(), 0);
        ex.step(Pid(0), None);
        ex.step(Pid(1), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.clock(), 3);
        assert_eq!(ex.steps(Pid(0)), 2);
        assert_eq!(ex.steps(Pid(1)), 1);
        assert!(ex.participating(Pid(1)));
    }

    #[test]
    fn decided_processes_take_null_steps() {
        let mut ex = two_proc_exec();
        ex.step(Pid(0), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.status(Pid(0)).decision(), Some(&Value::Int(10)));
        let steps = ex.steps(Pid(0));
        let fp = ex.fingerprint();
        ex.step(Pid(0), None); // null step
        assert_eq!(ex.steps(Pid(0)), steps);
        assert_eq!(ex.fingerprint(), fp);
        assert_eq!(ex.clock(), 3); // clock still advances
    }

    #[test]
    fn output_vector_tracks_decisions() {
        let mut ex = two_proc_exec();
        assert_eq!(ex.output_vector(), vec![Value::Unit, Value::Unit]);
        ex.step(Pid(0), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.output_vector(), vec![Value::Int(10), Value::Unit]);
        assert!(!ex.all_decided([Pid(0), Pid(1)]));
        assert!(ex.all_decided([Pid(0)]));
    }

    #[test]
    fn quiescence() {
        let mut ex = two_proc_exec();
        for _ in 0..2 {
            ex.step(Pid(0), None);
            ex.step(Pid(1), None);
        }
        assert!(ex.quiescent());
    }

    #[test]
    fn clone_forks_the_run() {
        let mut ex = two_proc_exec();
        ex.step(Pid(0), None);
        let mut fork = ex.clone();
        fork.step(Pid(1), None);
        assert_ne!(ex.fingerprint(), fork.fingerprint());
        ex.step(Pid(1), None);
        assert_eq!(ex.fingerprint(), fork.fingerprint());
    }

    /// Reads one register, writes a mix of what it read into another, and
    /// decides after `left` steps: enough state churn to expose a stale
    /// slot hash.
    #[derive(Clone, Hash)]
    struct Walker {
        id: u32,
        left: u32,
        acc: i64,
    }

    impl Process for Walker {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            if self.left == 0 {
                return Status::Decided(Value::Int(self.acc));
            }
            self.left -= 1;
            let key = RegKey::new(1).at(0, (self.acc.unsigned_abs() % 4) as u32);
            if self.left.is_multiple_of(2) {
                if let Value::Int(v) = ctx.read(key) {
                    self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
                }
            } else {
                ctx.write(key, Value::Int(self.acc ^ i64::from(self.id)));
            }
            Status::Running
        }
    }

    /// The run fingerprint rebuilt from scratch: every memory cell and every
    /// slot rehashed, no cache consulted.
    fn eager_fingerprint(ex: &Executor) -> u64 {
        let mem = ex.memory();
        let cells = mem.iter().fold(0u64, |acc, (k, v)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            v.hash(&mut h);
            acc ^ h.finish()
        });
        let procs = ex
            .slots
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, s)| acc ^ slot_fp(i, &s.status, &*s.proc));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        mem.len().hash(&mut h);
        cells.hash(&mut h);
        procs.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cached_fingerprint_matches_an_eager_rehash() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut root = Executor::new();
            for id in 0..rng.gen_range(1..5u32) {
                let left = rng.gen_range(0..12);
                root.add_process(Box::new(Walker { id, left, acc: i64::from(id) }));
            }
            assert_eq!(root.fingerprint(), eager_fingerprint(&root), "seed {seed}: fresh run");
            let mut pool = vec![root];
            for op in 0..300 {
                let at = rng.gen_range(0..pool.len());
                let n = pool[at].n();
                let touched = match rng.gen_range(0..3) {
                    // Step a random process of a random run.
                    0 => {
                        pool[at].step(Pid(rng.gen_range(0..n)), None);
                        at
                    }
                    // Fork it and step the fork, as the explorer does.
                    1 => {
                        let mut fork = pool[at].clone();
                        fork.step(Pid(rng.gen_range(0..n)), None);
                        if pool.len() < 8 {
                            pool.push(fork);
                            pool.len() - 1
                        } else {
                            let slot = rng.gen_range(0..pool.len());
                            pool[slot] = fork;
                            slot
                        }
                    }
                    // A null step of a decided process, if there is one.
                    _ => {
                        let decided = (0..n).map(Pid).find(|p| !pool[at].status(*p).is_running());
                        if let Some(p) = decided {
                            let before = pool[at].fingerprint();
                            pool[at].step(p, None);
                            assert_eq!(pool[at].fingerprint(), before, "seed {seed} op {op}");
                        }
                        at
                    }
                };
                // The run an op changed, and the run it forked from (whose
                // automata the fork shared until its step copied them).
                for i in [at, touched] {
                    let ex = &pool[i];
                    assert_eq!(ex.fingerprint(), eager_fingerprint(ex), "seed {seed} op {op} run {i}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_ignores_schedule_length() {
        let mut a = two_proc_exec();
        let mut b = two_proc_exec();
        a.step(Pid(0), None);
        b.step(Pid(0), None);
        b.step(Pid(0), None); // extra step changes state (decides)
        assert_ne!(a.fingerprint(), b.fingerprint());
        a.step(Pid(0), None);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
