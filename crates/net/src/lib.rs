//! # wfa-net — deterministic message passing + quorum-replicated registers
//!
//! The message-passing bridge for the *Wait-Freedom with Advice*
//! reproduction. Atomic registers are emulatable over asynchronous message
//! passing when a majority of replicas is correct [ABD, JACM 1995], so the
//! paper's shared-memory model — and every algorithm built on it — also
//! runs in a distributed system. This crate makes that constructive:
//!
//! * [`config`] — [`config::NetConfig`]: replica topology, link timing and
//!   misbehaviour (drop/duplication), durability policy, and timed
//!   [`config::NetFault`]s (partition/heal/drop windows, replica
//!   crash/recover) with the JSON codec fault plans replay through;
//! * [`windows`] — [`windows::FaultWindows`]: the one reading of a fault
//!   list as partition, crash, drop and corruption windows (latest event
//!   wins, list order breaks ties), which every consumer queries;
//! * [`runtime`] — [`runtime::NetRuntime`]: the simulated network. Per-
//!   channel FIFO or reordering delivery, seed-driven delays (stateless
//!   SplitMix draws, so the runtime forks and hashes like the kernel),
//!   retransmission rounds, and fault windows on the network's own logical
//!   clock;
//! * [`abd`] — [`abd::AbdBackend`]: the two-phase majority read/write
//!   protocol over that network, plugged into the kernel through the
//!   [`wfa_kernel::backend::MemoryBackend`] seam. `Executor`, the Figure
//!   1/2 constructions and every algorithm crate run **unchanged** over it;
//!   fixed-seed runs produce the *same decision values* as the
//!   shared-memory backend (pinned by `tests/e14_net.rs`).
//!
//! Determinism discipline: a network run is a pure function of
//! (`NetConfig`, operation sequence). No wall clock, no RNG state, no
//! thread dependence — the same contract the kernel scheduler and the obs
//! canonical snapshot keep, so `obs export` bytes are identical across
//! `WFA_THREADS` settings (CI-enforced).
//!
//! Replicas can crash (volatile or durable store) and recover; a recovered
//! replica refuses to serve until it has re-synced from a majority of its
//! peers, so reads never observe rolled-back state. When a fault plan keeps
//! a majority unreachable past the retransmission horizon, quorum
//! operations do not spin forever: the backend degrades with a typed
//! [`wfa_kernel::backend::Degradation`] (`quorum-lost`) that flows through
//! the `MemoryBackend` seam and that `wfa-faults` promotes to a replayable,
//! shrinkable violation.
//!
//! ```
//! use wfa_kernel::prelude::*;
//! use wfa_net::abd::AbdBackend;
//! use wfa_net::config::NetConfig;
//!
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
//! ex.set_backend(Box::new(AbdBackend::new(NetConfig::new(3, 42))));
//! for v in [3, 5] { ex.add_process(Box::new(Propose(v))); }
//! let mut rr = RoundRobin::over_all(&ex);
//! run_schedule(&mut ex, &mut rr, &mut NullEnv, 100);
//! // Same outputs as the shared-memory run of the kernel's doc example.
//! assert_eq!(ex.output_vector(), vec![Value::Int(3), Value::Int(5)]);
//! assert_eq!(ex.memory().len(), 2); // the linearized view
//! ```

pub mod abd;
pub mod config;
pub mod retry;
pub mod runtime;
pub mod windows;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::abd::AbdBackend;
    pub use crate::config::{majority_safe, NetConfig, NetFault};
    pub use crate::retry::{Breaker, RetryPolicy};
    pub use crate::runtime::NetRuntime;
    pub use crate::windows::FaultWindows;
}
