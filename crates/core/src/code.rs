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
//!
//! One round of the adapter is one pass over the snapshot and the code's
//! own writes: it keeps, per register, the winning write and tracks the
//! largest timestamp seen. The inner step runs against those contents and
//! makes at most one memory operation, so its write — if any — is
//! [`StepCtx::last_op`]. The write is recorded, at the largest timestamp
//! plus one, only if it changed the register's value (a write of the value
//! already there, or of `⊥` to an unwritten register, conveys nothing). The
//! published state is the tuple of the recorded writes' encoded records in
//! register order, rebuilt only when a write is recorded.

use std::collections::BTreeMap;

use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::trace::OpKind;
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
    fn decision(&self) -> Option<&Value>;

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

/// Decodes [`encode_write`], borrowing the value; `None` on shape mismatch.
pub fn decode_write(v: &Value) -> Option<(RegKey, u64, &Value)> {
    let key = RegKey {
        ns: v.get(0)?.as_int()? as u16,
        ix: [
            v.get(1)?.as_int()? as u32,
            v.get(2)?.as_int()? as u32,
            v.get(3)?.as_int()? as u32,
            v.get(4)?.as_int()? as u32,
        ],
    };
    Some((key, v.get(5)?.as_int()? as u64, v.get(6)?))
}

/// The winning write per register: timestamp, writer index and value.
type Latest<'a> = BTreeMap<RegKey, (u64, usize, &'a Value)>;

/// The register contents `snap` conveys, together with `own` (the published
/// state of code `idx`, which may be ahead of the agreed snapshot — it is
/// re-applied so the code always sees its own past writes): per register the
/// write with the largest `(timestamp, code index)`, and the largest
/// timestamp of any write (0 if there is none).
fn latest_writes<'a>(snap: &'a [Value], own: &'a Value, idx: usize) -> (Latest<'a>, u64) {
    let writers = snap.iter().enumerate().chain(std::iter::once((idx, own)));
    let mut latest = Latest::new();
    let mut max_ts = 0;
    for (who, state) in writers {
        for (key, ts, val) in state.as_tuple().into_iter().flatten().filter_map(decode_write) {
            max_ts = max_ts.max(ts);
            let slot = latest.entry(key).or_insert((ts, who, val));
            if (ts, who) > (slot.0, slot.1) {
                *slot = (ts, who, val);
            }
        }
    }
    (latest, max_ts)
}

/// Adapter: any read/write automaton as a [`SnapshotCode`].
#[derive(Clone, Hash, Debug)]
pub struct RegisterSimCode<P> {
    inner: P,
    idx: usize,
    /// The published state: the encoded record of this code's latest write
    /// per register, in register order.
    state: Value,
    decided: Option<Value>,
    steps: u64,
}

impl<P: Process> RegisterSimCode<P> {
    /// Wraps `inner` as simulated code number `idx`.
    pub fn new(idx: usize, inner: P) -> RegisterSimCode<P> {
        RegisterSimCode { inner, idx, state: Value::tuple([]), decided: None, steps: 0 }
    }

    /// Number of inner steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Makes `record` this code's latest write to `key`.
    fn record(&mut self, key: RegKey, record: Value) {
        let records = self.state.as_tuple().expect("published state is a tuple");
        let at = records.partition_point(|r| decode_write(r).expect("own record").0 < key);
        let replaces = records.get(at).and_then(decode_write).is_some_and(|(k, _, _)| k == key);
        let mut next = Vec::with_capacity(records.len() + 1);
        next.extend_from_slice(&records[..at]);
        next.push(record);
        next.extend_from_slice(&records[at + usize::from(replaces)..]);
        self.state = Value::tuple(next);
    }
}

impl<P: Process> SnapshotCode for RegisterSimCode<P> {
    fn on_snapshot(&mut self, snap: &[Value]) -> Value {
        if self.decided.is_some() {
            return self.state.clone();
        }
        let own = self.state.clone();
        let (latest, max_ts) = latest_writes(snap, &own, self.idx);
        let mut mem = SharedMemory::new();
        for (key, (_, _, val)) in &latest {
            mem.write(*key, (*val).clone());
        }
        // Execute one inner step against the reconstructed memory; its one
        // operation tells which register, if any, it wrote.
        let (status, op) = {
            let mut ctx = StepCtx::new(&mut mem, None, self.steps, Pid(self.idx), 1);
            let status = self.inner.step(&mut ctx);
            (status, ctx.last_op())
        };
        self.steps += 1;
        if let OpKind::Write(key) = op {
            let before = latest.get(&key).map_or(&Value::Unit, |w| w.2);
            let after = mem.get(key).unwrap_or(&Value::Unit);
            if before != after {
                self.record(key, encode_write(&key, max_ts + 1, after));
            }
        }
        if let Status::Decided(v) = status {
            self.decided = Some(v);
        }
        self.state.clone()
    }

    fn decision(&self) -> Option<&Value> {
        self.decided.as_ref()
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
    codes.iter().map(|c| c.decision().cloned()).collect()
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
        let d = code.decision().expect("solo renaming decides").clone();
        for _ in 0..5 {
            code.on_snapshot(&[state.clone(), Value::Unit]);
            assert_eq!(code.decision(), Some(&d));
        }
    }

    #[test]
    fn write_encoding_roundtrips() {
        let key = RegKey::idx(7, 1, 2, 3, 4);
        let v = encode_write(&key, 99, &Value::tuple([Value::Int(1), Value::Bool(true)]));
        let (k2, ts, val) = decode_write(&v).unwrap();
        assert_eq!(k2, key);
        assert_eq!(ts, 99);
        assert_eq!(*val, Value::tuple([Value::Int(1), Value::Bool(true)]));
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
    fn latest_writes_take_max_timestamp_then_code_index() {
        let key = RegKey::idx(5, 0, 0, 0, 0);
        let other = RegKey::idx(5, 1, 0, 0, 0);
        let s0 = Value::tuple([
            encode_write(&key, 1, &Value::Int(10)),
            encode_write(&other, 4, &Value::Int(7)),
        ]);
        let s1 = Value::tuple([encode_write(&key, 3, &Value::Int(30))]);
        let own = Value::tuple([encode_write(&other, 4, &Value::Int(8))]);
        let snap = [s0, s1];
        let (latest, max_ts) = latest_writes(&snap, &own, 2);
        assert_eq!(latest[&key], (3, 1, &Value::Int(30)));
        // Equal timestamps: the larger code index (here the own code) wins.
        assert_eq!(latest[&other], (4, 2, &Value::Int(8)));
        assert_eq!(max_ts, 4);
        let nothing = Value::tuple([]);
        let (latest, max_ts) = latest_writes(&[Value::Unit], &nothing, 0);
        assert!(latest.is_empty());
        assert_eq!(max_ts, 0);
    }

    /// An inner automaton that makes one scripted operation per step.
    #[derive(Clone, Hash, Debug)]
    enum Scripted {
        Write(RegKey, Value),
        Read(RegKey),
        Snapshot(Vec<RegKey>),
        /// Writes, then decides in the same step.
        WriteAndDecide(RegKey, Value),
    }

    impl Process for Scripted {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            match self {
                Scripted::Write(key, val) => ctx.write(*key, val.clone()),
                Scripted::Read(key) => {
                    ctx.read(*key);
                }
                Scripted::Snapshot(keys) => {
                    ctx.snapshot(keys);
                }
                Scripted::WriteAndDecide(key, val) => {
                    ctx.write(*key, val.clone());
                    return Status::Decided(Value::Int(1));
                }
            }
            Status::Running
        }
    }

    /// The write detection the adapter used before it read the step's
    /// operation: copy the whole rebuilt memory before and after the inner
    /// step and record every register whose value differs.
    fn diffed_writes(
        inner: &mut Scripted,
        mut mem: SharedMemory,
        ts: u64,
    ) -> Vec<(RegKey, u64, Value)> {
        let before: BTreeMap<RegKey, Value> = mem.iter().map(|(k, v)| (*k, v.clone())).collect();
        inner.step(&mut StepCtx::new(&mut mem, None, 0, Pid(1), 1));
        let after: BTreeMap<RegKey, Value> = mem.iter().map(|(k, v)| (*k, v.clone())).collect();
        let mut writes = BTreeMap::new();
        for (key, val) in &after {
            if before.get(key) != Some(val) {
                writes.insert(*key, (ts, val.clone()));
            }
        }
        for key in before.keys() {
            if !after.contains_key(key) {
                writes.insert(*key, (ts, Value::Unit));
            }
        }
        writes.into_iter().map(|(k, (ts, v))| (k, ts, v)).collect()
    }

    /// Runs `inner` as code 1 for one round over a snapshot in which code 0
    /// has written 5 to register `K` at timestamp 3, checks that the
    /// recorded writes match the whole-memory diff, and returns them.
    fn recorded_writes(inner: Scripted) -> Vec<(RegKey, u64, Value)> {
        let snap = [Value::tuple([encode_write(&K, 3, &Value::Int(5))]), Value::Unit];
        let mut code = RegisterSimCode::new(1, inner.clone());
        let state = code.on_snapshot(&snap);
        let recorded: Vec<(RegKey, u64, Value)> = state
            .as_tuple()
            .expect("published state is a tuple")
            .iter()
            .map(|r| decode_write(r).map(|(k, ts, v)| (k, ts, v.clone())).expect("record"))
            .collect();
        let mut mem = SharedMemory::new();
        mem.write(K, Value::Int(5));
        assert_eq!(recorded, diffed_writes(&mut inner.clone(), mem, 4), "{inner:?}");
        recorded
    }

    const K: RegKey = RegKey { ns: 5, ix: [0; 4] };
    const UNWRITTEN: RegKey = RegKey { ns: 5, ix: [1, 0, 0, 0] };

    #[test]
    fn rewriting_the_present_value_records_nothing() {
        assert_eq!(recorded_writes(Scripted::Write(K, Value::Int(5))), vec![]);
    }

    #[test]
    fn a_new_value_is_recorded_at_the_next_timestamp() {
        assert_eq!(recorded_writes(Scripted::Write(K, Value::Int(6))), vec![(K, 4, Value::Int(6))]);
    }

    #[test]
    fn bottom_over_a_value_is_recorded() {
        assert_eq!(recorded_writes(Scripted::Write(K, Value::Unit)), vec![(K, 4, Value::Unit)]);
    }

    #[test]
    fn bottom_to_an_unwritten_register_records_nothing() {
        assert_eq!(recorded_writes(Scripted::Write(UNWRITTEN, Value::Unit)), vec![]);
    }

    #[test]
    fn reads_and_snapshots_record_nothing() {
        assert_eq!(recorded_writes(Scripted::Read(K)), vec![]);
        assert_eq!(recorded_writes(Scripted::Snapshot(vec![K, UNWRITTEN])), vec![]);
    }

    #[test]
    fn later_writes_replace_and_extend_in_register_order() {
        let mut code = RegisterSimCode::new(0, Scripted::Write(UNWRITTEN, Value::Int(1)));
        let s1 = code.on_snapshot(&[Value::Unit]);
        code.inner = Scripted::Write(K, Value::Int(2));
        let s2 = code.on_snapshot(std::slice::from_ref(&s1));
        code.inner = Scripted::Write(UNWRITTEN, Value::Int(3));
        let s3 = code.on_snapshot(std::slice::from_ref(&s2));
        assert_eq!(s1, Value::tuple([encode_write(&UNWRITTEN, 1, &Value::Int(1))]));
        let k2 = encode_write(&K, 2, &Value::Int(2));
        let u1 = encode_write(&UNWRITTEN, 1, &Value::Int(1));
        let u3 = encode_write(&UNWRITTEN, 3, &Value::Int(3));
        assert_eq!(s2, Value::tuple([k2.clone(), u1]));
        assert_eq!(s3, Value::tuple([k2, u3]));
    }

    #[test]
    fn a_decided_code_returns_its_unchanged_state() {
        let mut code = RegisterSimCode::new(0, Scripted::WriteAndDecide(K, Value::Int(7)));
        let state = code.on_snapshot(&[Value::Unit]);
        assert_eq!(state, Value::tuple([encode_write(&K, 1, &Value::Int(7))]));
        assert_eq!(code.decision(), Some(&Value::Int(1)));
        let other = Value::tuple([encode_write(&K, 9, &Value::Int(0))]);
        for _ in 0..3 {
            assert_eq!(code.on_snapshot(std::slice::from_ref(&other)), state);
        }
        assert_eq!(code.steps(), 1, "a decided code takes no inner step");
    }
}
