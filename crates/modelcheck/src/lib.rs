//! # wfa-modelcheck — exhaustive interleaving exploration
//!
//! Mechanical evidence for the paper's impossibility results:
//!
//! * [`explorer`] — bounded exhaustive DFS over all interleavings of a
//!   deterministic run, with state memoization via run fingerprints, safety
//!   predicates and undecided-cycle (non-termination) detection;
//! * [`lemma11`] — the Lemma-11 pipeline: solo-run pigeonhole, the
//!   renaming-to-consensus reduction of Appendix D.1, and FLP-style
//!   refutation of candidate strong-2-renaming algorithms.
//!
//! The explorer is also used to *verify* the register objects exhaustively
//! at small sizes (adopt-commit, ballot safety) — see `tests/`.
//!
//! ## Caveat on boxed automata
//!
//! State fingerprints of boxed (`dyn`) automata flow through
//! [`DynProcess::fingerprint`]; all first-class automata in this workspace
//! hash their complete state, so exploration is sound for them.
//!
//! [`DynProcess::fingerprint`]: wfa_kernel::process::DynProcess::fingerprint

pub mod explorer;
pub mod lemma11;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::explorer::{
        explore_all, k_concurrent_filter, EnabledFilter, ExploreReport, Explorer, Limits,
        SafetyCheck,
    };
    pub use crate::lemma11::{
        lemma11, refute_strong_2_renaming, replay_violation, solo_collision,
        ConsensusViaRenaming, Refutation,
    };
}
