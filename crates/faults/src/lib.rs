//! Adversarial fault injection for the EFD model.
//!
//! The paper's model already contains one adversary — the scheduler — and
//! the rest of this repository explores it (random ensembles, the
//! model-check explorer). This crate adds the *other* adversaries the model
//! quantifies over but the seed never exercised systematically:
//!
//! * **crashes** — S-processes failing at chosen times, folded into the
//!   failure pattern so the detector stays honest *for the faulty pattern*
//!   ([`plan::FaultPlan::crash_s`]);
//! * **corrupted advice** — lost and stale failure-detector samples,
//!   delayed advice visibility ([`fdwrap::FaultyFdGen`]), probing how much
//!   each algorithm actually relies on its detector;
//! * **starvation** — C-processes frozen by the scheduler, riding the
//!   kernel's `Starve` adversary;
//! * **network faults** — for net-backed scenarios: replica partitions,
//!   drop windows, heals and replica crash/recover pairs
//!   ([`plan::FaultPlan::crash_replica`]). The searched menu stays
//!   majority-safe ([`plan::FaultPlan::net_majority_safe`]); plans that
//!   break the majority anyway surface as typed `quorum-lost` violations
//!   instead of panics.
//!
//! Plans are *searched* (bounded DFS over a component menu,
//! [`sweep::PlanSearch`]) rather than sampled; every `(plan, seed)` job is
//! deterministic, so a failed one is reported as a structured, replayable
//! [`violation::Violation`] — JSON artifact in, exact re-execution out
//! ([`run::replay`]) — after a greedy shrinking pass ([`shrink::shrink`]).
//! A backend that degrades instead of serving (ABD quorum loss, stale
//! gossip advice) yields one violation kind,
//! [`violation::ViolationKind::Degraded`], tagged with its class.
//! Panics inside a run are caught per job and become violations themselves;
//! a sweep never dies half way. Each scenario names its register substrate
//! with a [`backend::BackendSpec`], the one builder the CLI and the bench
//! drivers share, so an artifact's seed replays the same network.
//!
//! The [`chaos`] module is the long-horizon complement to the searched
//! sweeps: deterministic 10k+ tick soaks against any backend under a
//! seeded stream of composed faults, with online oracles, a flight
//! recorder of cloned checkpoints backing violation replay, and
//! per-fault-class MTTR aggregation of the degradation → resolution
//! lifecycle ([`chaos::soak`]). Soaks build their backend through the
//! same [`backend::BackendSpec`] and shrink their fault timelines with
//! the same greedy loop as sweeps shrink plans.

pub mod backend;
pub mod chaos;
pub mod fdwrap;
pub mod plan;
pub mod run;
pub mod scenario;
pub mod shrink;
pub mod sweep;
pub mod violation;

/// The canonical JSON encoder, hoisted into `wfa-obs` (re-exported here so
/// `wfa_faults::json::Json` keeps working).
pub use wfa_obs::json;

/// Everything a fault-sweep caller usually needs.
pub mod prelude {
    pub use crate::backend::BackendSpec;
    pub use crate::chaos::{
        replay_soak, shrink_soak, soak, Intensity, SoakBackend, SoakConfig, SoakReport,
    };
    pub use crate::fdwrap::FaultyFdGen;
    pub use crate::json::Json;
    pub use crate::plan::{FaultPlan, FdFault};
    pub use crate::run::{replay, run_plan, PlanOutcome, ReplayVerdict};
    pub use crate::scenario::Scenario;
    pub use crate::shrink::shrink;
    pub use crate::sweep::{sweep, PlanSearch, SweepConfig, SweepReport};
    pub use crate::violation::{Violation, ViolationKind};
}
