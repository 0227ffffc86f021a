//! Process automata.
//!
//! A process is a deterministic automaton (§2.1): in each step it may perform
//! **at most one** shared-memory operation and — if it is an S-process — may
//! consult the value its failure-detector module shows at the current time.
//! The one-op-per-step discipline is enforced at runtime by [`StepCtx`];
//! algorithms that need multi-register collects spread them over steps with
//! an explicit program counter, exactly like the pseudocode in the paper.
//!
//! Implement [`Process`] for your automaton and derive `Clone` and `Hash`;
//! the object-safe [`DynProcess`] (what the executor stores) is provided by a
//! blanket impl, including state fingerprinting for the model checker.

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::backend::MemoryBackend;
use crate::memory::RegKey;
use crate::trace::OpKind;
use crate::value::{Pid, Value};

/// Lifecycle of a process within a run.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Status {
    /// Still taking effective steps.
    #[default]
    Running,
    /// Executed a decide step with this decision value; all further steps are
    /// null steps (§2.2).
    Decided(Value),
    /// Voluntarily stopped without deciding (used by helper processes).
    Halted,
}

impl Status {
    /// `true` iff the process may still take effective steps.
    pub fn is_running(&self) -> bool {
        matches!(self, Status::Running)
    }

    /// The decision value, if decided.
    pub fn decision(&self) -> Option<&Value> {
        match self {
            Status::Decided(v) => Some(v),
            _ => None,
        }
    }
}

/// The view a process gets during one step.
///
/// Grants at most one memory operation ([`read`](StepCtx::read) or
/// [`write`](StepCtx::write)) and read-only access to the step's
/// failure-detector output and logical time.
///
/// # Panics
///
/// The memory accessors panic if a second operation is attempted in the same
/// step — that is a bug in the stepping algorithm, not a recoverable
/// condition.
pub struct StepCtx<'a> {
    mem: &'a mut dyn MemoryBackend,
    fd: Option<&'a Value>,
    now: u64,
    me: Pid,
    ops_left: u8,
    last_op: OpKind,
}

impl std::fmt::Debug for StepCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepCtx")
            .field("mem", &self.mem.label())
            .field("fd", &self.fd)
            .field("now", &self.now)
            .field("me", &self.me)
            .field("ops_left", &self.ops_left)
            .field("last_op", &self.last_op)
            .finish()
    }
}

impl<'a> StepCtx<'a> {
    /// Builds a step context granting `ops` memory operations (the model uses
    /// 1; harnesses may grant more for instrumentation processes) over the
    /// register substrate `mem` — a plain `&mut SharedMemory` coerces.
    pub fn new(
        mem: &'a mut dyn MemoryBackend,
        fd: Option<&'a Value>,
        now: u64,
        me: Pid,
        ops: u8,
    ) -> Self {
        StepCtx { mem, fd, now, me, ops_left: ops, last_op: OpKind::None }
    }

    fn take_op(&mut self, what: &str) {
        assert!(
            self.ops_left > 0,
            "process {} attempted a second memory operation ({what}) in one step",
            self.me
        );
        self.ops_left -= 1;
    }

    /// Atomically reads register `key` (consumes this step's operation).
    pub fn read(&mut self, key: RegKey) -> Value {
        self.take_op("read");
        self.last_op = OpKind::Read(key);
        self.mem.read(self.me, self.now, key)
    }

    /// Atomically writes `val` to register `key` (consumes this step's
    /// operation).
    pub fn write(&mut self, key: RegKey, val: Value) {
        self.take_op("write");
        self.last_op = OpKind::Write(key);
        self.mem.write(self.me, self.now, key, val);
    }

    /// Atomically reads a set of registers (consumes this step's operation).
    ///
    /// This is the *atomic snapshot* primitive of the snapshot memory model:
    /// wait-free linearizable snapshots are implementable from plain
    /// registers [Afek et al., JACM 1993], so granting the primitive does not
    /// change computability; `wfa-objects::snapshot::DoubleCollect` is the
    /// register-level construction used to cross-validate it. BG-simulation
    /// layers use this primitive (the BG literature assumes the snapshot
    /// model); base-model algorithms stick to single reads/writes.
    pub fn snapshot(&mut self, keys: &[RegKey]) -> Vec<Value> {
        self.take_op("snapshot");
        self.last_op = OpKind::Snapshot(keys.len() as u16);
        keys.iter().map(|k| self.mem.read(self.me, self.now, *k)).collect()
    }

    /// `true` iff this step's memory operation is still available.
    pub fn can_op(&self) -> bool {
        self.ops_left > 0
    }

    /// The failure-detector output visible in this step (`None` for
    /// C-processes, which have no failure-detector module).
    pub fn fd(&self) -> Option<&Value> {
        self.fd
    }

    /// The global logical time `T[k]` of this step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This process's identity.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// The memory operation performed this step so far (for tracing).
    pub fn last_op(&self) -> OpKind {
        self.last_op
    }
}

/// A deterministic process automaton.
///
/// Implementors should also derive `Clone` and `Hash` (all state must be
/// hashable) to obtain [`DynProcess`] for free.
///
/// # Examples
///
/// ```
/// use wfa_kernel::process::{Process, Status, StepCtx};
/// use wfa_kernel::memory::RegKey;
/// use wfa_kernel::value::Value;
///
/// /// Writes its input once, then decides it.
/// #[derive(Clone, Hash)]
/// struct WriteOnce { input: i64, written: bool }
///
/// impl Process for WriteOnce {
///     fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
///         if !self.written {
///             ctx.write(RegKey::new(0), Value::Int(self.input));
///             self.written = true;
///             Status::Running
///         } else {
///             Status::Decided(Value::Int(self.input))
///         }
///     }
/// }
/// ```
pub trait Process {
    /// Executes one step of the automaton.
    ///
    /// Returning [`Status::Decided`] is the decide step; the executor never
    /// calls `step` again afterwards (further steps are null steps).
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status;

    /// Human-readable label for traces and reports.
    fn label(&self) -> String {
        "process".to_string()
    }
}

/// Object-safe process handle stored by the executor.
///
/// Provided for every `Process + Clone + Hash + 'static` by a blanket impl;
/// do not implement it directly.
pub trait DynProcess {
    /// See [`Process::step`].
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status;
    /// See [`Process::label`].
    fn label(&self) -> String;
    /// Clones the automaton behind the trait object.
    fn clone_box(&self) -> Box<dyn DynProcess>;
    /// Clones directly into an [`Rc`] (one allocation, unlike
    /// `Rc::from(clone_box())` which allocates a `Box` and then moves it) —
    /// the executor's copy-on-write hot path.
    fn clone_rc(&self) -> Rc<dyn DynProcess>;
    /// Hashes the automaton state (for run fingerprints).
    fn fingerprint(&self, h: &mut dyn Hasher);
}

impl<T> DynProcess for T
where
    T: Process + Clone + Hash + 'static,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        Process::step(self, ctx)
    }

    fn label(&self) -> String {
        Process::label(self)
    }

    fn clone_box(&self) -> Box<dyn DynProcess> {
        Box::new(self.clone())
    }

    fn clone_rc(&self) -> Rc<dyn DynProcess> {
        Rc::new(self.clone())
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        Hash::hash(self, &mut h);
    }
}

impl Clone for Box<dyn DynProcess> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for Box<dyn DynProcess> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DynProcess({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SharedMemory;
    use std::collections::hash_map::DefaultHasher;

    #[derive(Clone, Hash)]
    struct Greedy;

    impl Process for Greedy {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            ctx.read(RegKey::new(0));
            ctx.read(RegKey::new(1)); // second op: must panic
            Status::Halted
        }
    }

    #[derive(Clone, Hash)]
    struct Counter {
        count: u32,
    }

    impl Process for Counter {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            self.count += 1;
            ctx.write(RegKey::new(0), Value::Int(self.count as i64));
            if self.count == 3 {
                Status::Decided(Value::Int(3))
            } else {
                Status::Running
            }
        }

        fn label(&self) -> String {
            format!("counter@{}", self.count)
        }
    }

    #[test]
    #[should_panic(expected = "second memory operation")]
    fn second_op_in_one_step_panics() {
        let mut mem = SharedMemory::new();
        let mut p = Greedy;
        let mut ctx = StepCtx::new(&mut mem, None, 0, Pid(0), 1);
        let _ = Process::step(&mut p, &mut ctx);
    }

    #[test]
    fn counter_decides_after_three_steps() {
        let mut mem = SharedMemory::new();
        let mut p = Counter { count: 0 };
        for t in 0..2 {
            let mut ctx = StepCtx::new(&mut mem, None, t, Pid(0), 1);
            assert_eq!(Process::step(&mut p, &mut ctx), Status::Running);
        }
        let mut ctx = StepCtx::new(&mut mem, None, 2, Pid(0), 1);
        assert_eq!(Process::step(&mut p, &mut ctx), Status::Decided(Value::Int(3)));
        assert_eq!(mem.peek(RegKey::new(0)), Value::Int(3));
    }

    #[test]
    fn dyn_clone_preserves_state() {
        let p = Counter { count: 2 };
        let b: Box<dyn DynProcess> = Box::new(p);
        let c = b.clone();
        assert_eq!(c.label(), "counter@2");
    }

    #[test]
    fn fingerprint_tracks_state() {
        fn fp(p: &dyn DynProcess) -> u64 {
            let mut h = DefaultHasher::new();
            p.fingerprint(&mut h);
            h.finish()
        }
        let a: Box<dyn DynProcess> = Box::new(Counter { count: 1 });
        let b: Box<dyn DynProcess> = Box::new(Counter { count: 1 });
        let c: Box<dyn DynProcess> = Box::new(Counter { count: 2 });
        assert_eq!(fp(a.as_ref()), fp(b.as_ref()));
        assert_ne!(fp(a.as_ref()), fp(c.as_ref()));
    }

    #[test]
    fn fd_and_metadata_are_visible() {
        let mut mem = SharedMemory::new();
        let fdv = Value::Pid(Pid(1));
        let ctx = StepCtx::new(&mut mem, Some(&fdv), 17, Pid(3), 1);
        assert_eq!(ctx.fd(), Some(&Value::Pid(Pid(1))));
        assert_eq!(ctx.now(), 17);
        assert_eq!(ctx.me(), Pid(3));
        assert!(ctx.can_op());
    }

    #[test]
    fn snapshot_is_one_op() {
        let mut mem = SharedMemory::new();
        mem.write(RegKey::new(0), Value::Int(1));
        mem.write(RegKey::new(1), Value::Int(2));
        let mut ctx = StepCtx::new(&mut mem, None, 0, Pid(0), 1);
        let snap = ctx.snapshot(&[RegKey::new(0), RegKey::new(1), RegKey::new(2)]);
        assert_eq!(snap, vec![Value::Int(1), Value::Int(2), Value::Unit]);
        assert!(!ctx.can_op());
    }

    #[test]
    fn status_helpers() {
        assert!(Status::Running.is_running());
        assert!(!Status::Halted.is_running());
        assert_eq!(Status::Decided(Value::Int(1)).decision(), Some(&Value::Int(1)));
        assert_eq!(Status::Running.decision(), None);
    }
}
