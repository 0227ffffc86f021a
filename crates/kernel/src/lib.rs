//! # wfa-kernel — deterministic shared-memory interleaving simulator
//!
//! The execution substrate for the *Wait-Freedom with Advice* (PODC 2012)
//! reproduction. It implements the paper's base model (§2.1) as an executable
//! object:
//!
//! * [`value::Value`] — structured register words with `⊥`;
//! * [`memory::SharedMemory`] — an addressed file of atomic read/write
//!   registers;
//! * [`process::Process`] — deterministic automata taking one memory
//!   operation per step, with optional failure-detector input;
//! * [`executor::Executor`] — run state plus the schedule-step primitive;
//! * [`sched`] — schedule generators: fair round-robin, seeded random,
//!   *k-concurrent* (§2.2), and starvation adversaries, plus the run driver
//!   [`sched::run_schedule`].
//!
//! Everything is single-threaded and deterministic: a run is a pure function
//! of (automata, scheduler, environment, seed). Runs fork via `Clone` and
//! hash via [`executor::Executor::fingerprint`], which is what the bounded
//! model checker in `wfa-modelcheck` builds on.
//!
//! ```
//! use wfa_kernel::prelude::*;
//!
//! // A process that writes its input and decides it.
//! #[derive(Clone, Hash)]
//! struct Propose(i64);
//! impl Process for Propose {
//!     fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
//!         ctx.write(RegKey::new(0).at(0, ctx.me().0 as u32), Value::Int(self.0));
//!         Status::Decided(Value::Int(self.0))
//!     }
//! }
//!
//! let mut ex = Executor::new();
//! for v in [3, 5] { ex.add_process(Box::new(Propose(v))); }
//! let mut rr = RoundRobin::over_all(&ex);
//! run_schedule(&mut ex, &mut rr, &mut NullEnv, 100);
//! assert_eq!(ex.output_vector(), vec![Value::Int(3), Value::Int(5)]);
//! ```

pub mod backend;
pub mod executor;
pub mod memory;
pub mod process;
pub mod sched;
pub mod trace;
pub mod value;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::backend::{Degradation, MemoryBackend, Resolution, ShardedBackend};
    pub use crate::executor::Executor;
    pub use crate::memory::{RegKey, SharedMemory};
    pub use crate::process::{DynProcess, Process, Status, StepCtx};
    pub use crate::sched::{
        run_schedule, KConcurrent, NullEnv, RandomSched, RoundRobin, Scheduler, Starve, StepEnv,
        StopReason,
    };
    pub use crate::trace::OpKind;
    pub use crate::value::{Pid, Value};
}
