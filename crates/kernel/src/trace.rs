//! Step footprints.
//!
//! [`OpKind`] records what one process step did to shared memory. The
//! executor reads it from `StepCtx::last_op` after every effective step,
//! keeps it as the step's footprint (`Executor::last_op`, which the model
//! checker's sleep sets read) and hands it to the observability layer, whose
//! event stream renders space-time diagrams and exports (`wfa_obs::span`).

use std::fmt;

use wfa_obs::span::Op;

use crate::memory::RegKey;

/// What a step did to shared memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OpKind {
    /// No memory operation this step (local computation / polling state).
    #[default]
    None,
    /// A single-register read.
    Read(RegKey),
    /// A single-register write.
    Write(RegKey),
    /// An atomic snapshot of `n` registers.
    Snapshot(u16),
}

/// Projects the op onto the observability layer's display type (dropping
/// the register key's trailing index coordinates, which the rendering never
/// showed).
impl From<OpKind> for Op {
    fn from(op: OpKind) -> Op {
        match op {
            OpKind::None => Op::None,
            OpKind::Read(k) => Op::Read { ns: k.ns, a: k.ix[0], b: k.ix[1] },
            OpKind::Write(k) => Op::Write { ns: k.ns, a: k.ix[0], b: k.ix[1] },
            OpKind::Snapshot(n) => Op::Snapshot(n),
        }
    }
}

/// Delegates to [`Op`] — the single step formatter in the tree.
impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Op::from(*self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opkind_display() {
        assert_eq!(OpKind::None.to_string(), "·");
        assert_eq!(OpKind::Snapshot(5).to_string(), "s[5]");
        assert!(OpKind::Read(RegKey::idx(3, 1, 2, 0, 0)).to_string().starts_with("r[3:1,2"));
    }
}
