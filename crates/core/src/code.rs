//! Simulated codes in write–snapshot normal form.
//!
//! Both simulation layers of the paper — BG-simulation (§4.1, \[5,7\]) and the
//! Figure-2 consensus-driven simulation (Appendix C.1) — advance *codes*:
//! deterministic full-information protocols that repeatedly publish their
//! state and take a snapshot of everybody's state. [`SnapshotCode`] is that
//! normal form.
//!
//! [`RegisterSimCode`] closes the loop: it turns **any** read/write automaton
//! ([`Process`]) into a `SnapshotCode`. Each code's published state carries
//! its latest timestamped write per register; a snapshot therefore conveys a
//! monotone set of writes, from which the adapter reconstructs the register
//! contents (per-register maximum timestamp, ties broken by code index — the
//! classic timestamp construction of multi-writer registers) and feeds the
//! inner automaton exactly one step. Because simulation layers deliver
//! per-code-monotone snapshots (each round's agreed snapshot is taken after
//! the previous round's was applied), the reconstructed reads are monotone
//! and the inner automaton observes a legal asynchronous execution of its
//! own algorithm.

use std::collections::BTreeMap;

use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::value::{Pid, Value};

/// A deterministic full-information code: one write–snapshot round at a time.
pub trait SnapshotCode {
    /// Executes one round: consume the agreed snapshot of all codes' states
    /// (`⊥` for codes with no state yet) and return the new own state.
    ///
    /// Once the code has decided, further calls must keep returning the same
    /// decision and may leave the state unchanged.
    fn on_snapshot(&mut self, snap: &[Value]) -> Value;

    /// The decision of this code, once reached.
    fn decision(&self) -> Option<Value>;

    /// Label for traces.
    fn label(&self) -> String {
        "code".to_string()
    }
}

/// Encodes one register write `(key, ts, val)` as a [`Value`] record (the
/// element shape of a code's published state).
pub fn encode_write(key: &RegKey, ts: u64, val: &Value) -> Value {
    Value::tuple([
        Value::Int(key.ns as i64),
        Value::Int(key.ix[0] as i64),
        Value::Int(key.ix[1] as i64),
        Value::Int(key.ix[2] as i64),
        Value::Int(key.ix[3] as i64),
        Value::Int(ts as i64),
        val.clone(),
    ])
}

/// Decodes [`encode_write`]; `None` on shape mismatch.
pub fn decode_write(v: &Value) -> Option<(RegKey, u64, Value)> {
    let key = RegKey {
        ns: v.get(0)?.as_int()? as u16,
        ix: [
            v.get(1)?.as_int()? as u32,
            v.get(2)?.as_int()? as u32,
            v.get(3)?.as_int()? as u32,
            v.get(4)?.as_int()? as u32,
        ],
    };
    Some((key, v.get(5)?.as_int()? as u64, v.get(6)?.clone()))
}

/// Adapter: any read/write automaton as a [`SnapshotCode`].
#[derive(Clone, Hash, Debug)]
pub struct RegisterSimCode<P> {
    inner: P,
    idx: usize,
    writes: BTreeMap<RegKey, (u64, Value)>,
    decided: Option<Value>,
    steps: u64,
}

impl<P: Process> RegisterSimCode<P> {
    /// Wraps `inner` as simulated code number `idx`.
    pub fn new(idx: usize, inner: P) -> RegisterSimCode<P> {
        RegisterSimCode { inner, idx, writes: BTreeMap::new(), decided: None, steps: 0 }
    }

    /// Number of inner steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Reconstructs the shared memory visible in `snap` (including own
    /// pending writes): per-register timestamp maximum, ties by code index.
    fn rebuild_memory(&self, snap: &[Value]) -> SharedMemory {
        let mut best: BTreeMap<RegKey, (u64, usize, Value)> = BTreeMap::new();
        let mut consider = |key: RegKey, ts: u64, who: usize, val: Value| {
            let slot = best.entry(key).or_insert((ts, who, val.clone()));
            if (ts, who) > (slot.0, slot.1) {
                *slot = (ts, who, val);
            }
        };
        for (who, state) in snap.iter().enumerate() {
            let Some(entries) = state.as_tuple() else { continue };
            for e in entries {
                if let Some((key, ts, val)) = decode_write(e) {
                    consider(key, ts, who, val);
                }
            }
        }
        // Own writes may be ahead of the agreed snapshot (they are re-applied
        // so the code always sees its own past writes — read-your-writes).
        for (key, (ts, val)) in &self.writes {
            consider(*key, *ts, self.idx, val.clone());
        }
        let mut mem = SharedMemory::new();
        for (key, (_, _, val)) in best {
            mem.write(key, val);
        }
        mem
    }

    /// Encodes the current write set as this code's published state.
    fn encode_state(&self) -> Value {
        Value::tuple(
            self.writes.iter().map(|(k, (ts, v))| encode_write(k, *ts, v)),
        )
    }
}

impl<P: Process> SnapshotCode for RegisterSimCode<P> {
    fn on_snapshot(&mut self, snap: &[Value]) -> Value {
        if self.decided.is_some() {
            return self.encode_state();
        }
        let mut mem = self.rebuild_memory(snap);
        let max_ts = snap
            .iter()
            .filter_map(|s| s.as_tuple())
            .flatten()
            .filter_map(decode_write)
            .map(|(_, ts, _)| ts)
            .chain(self.writes.values().map(|(ts, _)| *ts))
            .max()
            .unwrap_or(0);
        // Execute one inner step against the reconstructed memory; diff to
        // discover the (single) write it performed.
        let before: BTreeMap<RegKey, Value> = mem.iter().map(|(k, v)| (*k, v.clone())).collect();
        let status = {
            let mut ctx = StepCtx::new(&mut mem, None, self.steps, Pid(self.idx), 1);
            self.inner.step(&mut ctx)
        };
        self.steps += 1;
        let after: BTreeMap<RegKey, Value> = mem.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (key, val) in &after {
            if before.get(key) != Some(val) {
                self.writes.insert(*key, (max_ts + 1, val.clone()));
            }
        }
        for key in before.keys() {
            if !after.contains_key(key) {
                self.writes.insert(*key, (max_ts + 1, Value::Unit));
            }
        }
        if let Status::Decided(v) = status {
            self.decided = Some(v);
        }
        self.encode_state()
    }

    fn decision(&self) -> Option<Value> {
        self.decided.clone()
    }

    fn label(&self) -> String {
        format!("sim[{}]", self.inner.label())
    }
}

/// Constructs simulated codes from their index and published input.
///
/// Builders are configuration, not run state: they must be `Clone + Hash`
/// (so the embedding automata stay fingerprintable) and deterministic.
pub trait CodeBuilder {
    /// The code type produced.
    type Code: SnapshotCode + Clone + std::hash::Hash + std::fmt::Debug + 'static;

    /// Builds code `idx` with task input `input`.
    fn build(&self, idx: usize, input: &Value) -> Self::Code;
}

/// A [`CodeBuilder`] from a plain function pointer.
#[derive(Clone, Copy, Hash, Debug)]
pub struct FnBuilder<C>(pub fn(usize, &Value) -> C);

impl<C> CodeBuilder for FnBuilder<C>
where
    C: SnapshotCode + Clone + std::hash::Hash + std::fmt::Debug + 'static,
{
    type Code = C;

    fn build(&self, idx: usize, input: &Value) -> C {
        (self.0)(idx, input)
    }
}

/// Runs a set of codes **sequentially** (each round: pick one code, feed it
/// the true current states) — the reference semantics used to sanity-check
/// simulation layers and the adapter itself.
pub fn run_codes_round_robin<C: SnapshotCode>(codes: &mut [C], max_rounds: u64) -> Vec<Option<Value>> {
    let mut states: Vec<Value> = vec![Value::Unit; codes.len()];
    for r in 0..max_rounds {
        let i = (r % codes.len() as u64) as usize;
        if codes[i].decision().is_some() {
            if codes.iter().all(|c| c.decision().is_some()) {
                break;
            }
            continue;
        }
        states[i] = codes[i].on_snapshot(&states.clone());
    }
    codes.iter().map(SnapshotCode::decision).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wfa_algorithms::one_concurrent::OneConcurrentSolver;
    use wfa_algorithms::renaming::RenamingFig4;
    use wfa_tasks::agreement::consensus;
    use wfa_tasks::task::Task;

    #[test]
    fn adapter_runs_renaming_codes_to_valid_names() {
        let m = 4;
        let mut codes: Vec<RegisterSimCode<RenamingFig4>> =
            (0..3).map(|i| RegisterSimCode::new(i, RenamingFig4::new(i, m))).collect();
        let out = run_codes_round_robin(&mut codes, 10_000);
        let names: Vec<i64> = out.iter().map(|o| o.as_ref().unwrap().as_int().unwrap()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names {names:?}");
        // Round-robin is fully concurrent: k = j = 3 ⇒ names ≤ 2j−1 = 5.
        assert!(names.iter().all(|n| *n >= 1 && *n <= 5), "{names:?}");
    }

    #[test]
    fn adapter_preserves_one_concurrent_semantics() {
        // Sequential (solo) execution of the 1-concurrent universal solver.
        let task: Arc<dyn Task> = Arc::new(consensus(2));
        let mut codes = vec![RegisterSimCode::new(
            0,
            OneConcurrentSolver::new(0, task.clone(), Value::Int(9)),
        )];
        let out = run_codes_round_robin(&mut codes, 100);
        assert_eq!(out[0], Some(Value::Int(9)));
    }

    #[test]
    fn decisions_are_sticky() {
        let mut code = RegisterSimCode::new(0, RenamingFig4::new(0, 2));
        let mut state = Value::Unit;
        for _ in 0..50 {
            state = code.on_snapshot(&[state.clone(), Value::Unit]);
        }
        let d = code.decision().expect("solo renaming decides");
        for _ in 0..5 {
            code.on_snapshot(&[state.clone(), Value::Unit]);
            assert_eq!(code.decision(), Some(d.clone()));
        }
    }

    #[test]
    fn write_encoding_roundtrips() {
        let key = RegKey::idx(7, 1, 2, 3, 4);
        let v = encode_write(&key, 99, &Value::tuple([Value::Int(1), Value::Bool(true)]));
        let (k2, ts, val) = decode_write(&v).unwrap();
        assert_eq!(k2, key);
        assert_eq!(ts, 99);
        assert_eq!(val, Value::tuple([Value::Int(1), Value::Bool(true)]));
    }

    #[test]
    fn codes_see_each_others_writes_through_snapshots() {
        // Two renaming codes interleaved: each must eventually observe the
        // other's suggestion (else they'd both pick name 1 and clash).
        let m = 3;
        let mut codes: Vec<RegisterSimCode<RenamingFig4>> =
            (0..2).map(|i| RegisterSimCode::new(i, RenamingFig4::new(i, m))).collect();
        let out = run_codes_round_robin(&mut codes, 5_000);
        let names: Vec<i64> = out.iter().map(|o| o.as_ref().unwrap().as_int().unwrap()).collect();
        assert_ne!(names[0], names[1], "codes did not see each other: {names:?}");
    }

    #[test]
    fn rebuild_memory_takes_max_timestamp() {
        let code: RegisterSimCode<RenamingFig4> = RegisterSimCode::new(2, RenamingFig4::new(2, 3));
        let key = RegKey::idx(5, 0, 0, 0, 0);
        let s0 = Value::tuple([encode_write(&key, 1, &Value::Int(10))]);
        let s1 = Value::tuple([encode_write(&key, 3, &Value::Int(30))]);
        let mut mem = code.rebuild_memory(&[s0, s1]);
        assert_eq!(mem.read(key), Value::Int(30));
    }
}
