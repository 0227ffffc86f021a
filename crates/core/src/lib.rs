//! # wfa-core — the external-failure-detection (EFD) framework
//!
//! The paper's primary contribution, executable. See `harness` for the run
//! model; further modules are added bottom-up.

pub mod bg;
pub mod classify;
pub mod code;
pub mod harness;
pub mod lift;
pub mod reduction;
pub mod sim;
pub mod solver;
pub mod verify;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bg::BgSim;
    pub use crate::classify::{concurrency_profile, probe_concurrency, ProbeOutcome, ProfileRow};
    pub use crate::code::{run_codes_round_robin, CodeBuilder, FnBuilder, RegisterSimCode, SnapshotCode};
    pub use crate::lift::{theorem7_system, LiftS};
    pub use crate::reduction::{emulated_key, AsimBuilders, ReductionS};
    pub use crate::sim::{KcsSimC, KcsSimS};
    pub use crate::solver::{
        ksa_run, ksa_system, theorem9_system, AdoptingTaskBuilder, RenamingBuilder,
    };
    pub use crate::verify::{run_measured, ConcurrencyMeter, WaitFreedomMeter};
    pub use crate::harness::{
        wait_freedom_ensemble, EfdRun, EnsembleConfig, EnsembleReport, EnsembleViolation, Inert,
        Roles, RunReport, SystemFactory, ValidationError,
    };
}
