//! Fault-injection scenarios: named, self-contained EFD experiments.
//!
//! A [`Scenario`] bundles everything a fault sweep needs to evaluate one
//! plan: the task (the Δ to check), a detector constructor, a system factory
//! and run parameters. Scenarios are identified by *name* so a serialized
//! [`crate::violation::Violation`] can be replayed from nothing but its JSON
//! artifact ([`Scenario::by_name`]).
//!
//! The canonical catalog:
//!
//! * `adopt-commit` — Gafni's adopt-commit object driven by 3 parties; its
//!   coherence spec ([`AcTask`]) as the Δ.
//! * `fragile-commit` — a deliberately racy adopt-commit (single optimistic
//!   read pass *before* publishing) whose agreement-on-commit breaks under
//!   many interleavings: the fixture that guarantees the sweep, shrinker and
//!   replayer have real violations to chew on.
//! * `ksa` — k-set agreement from →Ωk advice (the paper's §4.2 algorithm);
//!   sensitive to advice delay and sample corruption.
//! * `ksa-net` — the same experiment over the ABD quorum-replicated register
//!   backend (3 replicas): the scenario network fault plans run against.
//! * `ksa-net-corrupt` — `ksa-net` with strided corruption windows (one
//!   whole-run `CorruptMessage` window per replica, `every: 5`): every 5th
//!   message arrives damaged, is caught by the checksum layer and
//!   quarantined, and retransmission recovers — decisions are identical to
//!   `ksa-net`.
//! * `ksa-net-reorder` — `ksa-net` with non-FIFO channels: messages overtake
//!   freely, probing the protocol's reordering tolerance.
//! * `ksa-net-shard` — `ksa-net` with the register space sharded over two
//!   independent 3-replica groups: quorum loss degrades per group, not
//!   globally.
//! * `ksa-net-gossip` — `ksa` over the delta-CRDT gossip backend
//!   (4 replicas): ops are replica-local and freshness rides anti-entropy
//!   rounds, so fault plans starve replicas into typed `AdviceStale`
//!   reports instead of quorum loss.
//! * `renaming` — Figure-4 renaming under the (j, 2j−1) bound.
//! * `rename-net-gossip` — the renaming experiment over the gossip backend.
//! * `wait-for-all` — a deliberately non-wait-free adopt-commit variant that
//!   blocks until every proposal is published: the fixture that gives the
//!   sweep real *wait-freedom* violations (its safety is fine — everyone
//!   commits the minimum — but one stopped party starves all the others).

use std::sync::Arc;

use wfa_algorithms::renaming::RenamingFig4;
use wfa_algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa_core::harness::{CsProcs, Inert};
use wfa_fd::detectors::FdGen;
use wfa_fd::pattern::FailurePattern;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_net::config::{NetConfig, NetFault};
use wfa_objects::adopt_commit::{AcOutcome, AdoptCommit};
use wfa_objects::driver::{Driver, Step};
use wfa_tasks::agreement::SetAgreement;
use wfa_tasks::renaming::Renaming;
use wfa_tasks::task::{check_basics, Task, TaskViolation};

use crate::backend::BackendSpec;

/// Detector constructor: `(pattern, stabilization, seed) → FdGen`.
pub type MkFd = Arc<dyn Fn(FailurePattern, u64, u64) -> FdGen + Send + Sync>;

/// System factory: `(inputs, detector) → (C-processes, S-processes)`.
pub type Factory = Arc<dyn Fn(&[Value], FdGen) -> CsProcs + Send + Sync>;

/// A named, fully deterministic fault-injection experiment.
#[derive(Clone)]
pub struct Scenario {
    /// Stable name (the replay key — see [`Scenario::by_name`]).
    pub name: String,
    /// Number of C-processes = S-processes.
    pub n: usize,
    /// Schedule-slot budget per run.
    pub budget: u64,
    /// Detector stabilization time.
    pub stab: u64,
    /// The register substrate, built by [`crate::run::build_run`] from the
    /// run seed with the plan's network faults. Sharding and corruption
    /// change only an ABD run's message economy, never its slots or
    /// decisions. Gossip reads may be *stale* — loss and partitions change
    /// which value an op observes, not just its cost — so sweeps over
    /// gossip scenarios do not apply monotone-loss dominance pruning.
    pub backend: BackendSpec,
    /// The Δ to validate against.
    pub task: Arc<dyn Task>,
    /// Builds the (honest) detector for a failure pattern.
    pub mk_fd: MkFd,
    /// Assembles the system for an input vector.
    pub factory: Factory,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("budget", &self.budget)
            .field("stab", &self.stab)
            .field("backend", &format_args!("{}", self.backend))
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Looks a canonical scenario up by name (the replay path).
    pub fn by_name(name: &str) -> Option<Scenario> {
        match name {
            "adopt-commit" => Some(Scenario::adopt_commit()),
            "fragile-commit" => Some(Scenario::fragile_commit()),
            "ksa" => Some(Scenario::ksa()),
            "ksa-net" => Some(Scenario::ksa_net()),
            "ksa-net-corrupt" => Some(Scenario::ksa_net_corrupt()),
            "ksa-net-gossip" => Some(Scenario::ksa_net_gossip()),
            "ksa-net-reorder" => Some(Scenario::ksa_net_reorder()),
            "ksa-net-shard" => Some(Scenario::ksa_net_shard()),
            "rename-net-gossip" => Some(Scenario::rename_net_gossip()),
            "renaming" => Some(Scenario::renaming()),
            "wait-for-all" => Some(Scenario::wait_for_all()),
            _ => None,
        }
    }

    /// Names of every canonical scenario.
    pub fn catalog() -> Vec<&'static str> {
        vec![
            "adopt-commit",
            "fragile-commit",
            "ksa",
            "ksa-net",
            "ksa-net-corrupt",
            "ksa-net-gossip",
            "ksa-net-reorder",
            "ksa-net-shard",
            "rename-net-gossip",
            "renaming",
            "wait-for-all",
        ]
    }

    /// Gafni's adopt-commit, 3 parties, coherence spec as Δ.
    pub fn adopt_commit() -> Scenario {
        let n = 3;
        Scenario {
            name: "adopt-commit".into(),
            n,
            budget: 30_000,
            stab: 50,
            backend: BackendSpec::Shm,
            task: Arc::new(AcTask { parties: n, distinct_inputs: false }),
            mk_fd: Arc::new(|p, _stab, _seed| FdGen::trivial(p)),
            factory: Arc::new(move |input: &[Value], _fd: FdGen| {
                let c: Vec<Box<dyn DynProcess>> = input
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v {
                        Value::Unit => Box::new(Inert) as Box<dyn DynProcess>,
                        v => Box::new(AcParty::new(n as u32, i as u32, v.clone()))
                            as Box<dyn DynProcess>,
                    })
                    .collect();
                let s: Vec<Box<dyn DynProcess>> =
                    (0..n).map(|_| Box::new(AdviceIdle) as Box<dyn DynProcess>).collect();
                (c, s)
            }),
        }
    }

    /// The deliberately racy adopt-commit: guaranteed discoverable safety
    /// violations (distinct inputs + optimistic pre-publication read pass).
    pub fn fragile_commit() -> Scenario {
        let n = 3;
        Scenario {
            name: "fragile-commit".into(),
            n,
            budget: 10_000,
            stab: 50,
            backend: BackendSpec::Shm,
            task: Arc::new(AcTask { parties: n, distinct_inputs: true }),
            mk_fd: Arc::new(|p, _stab, _seed| FdGen::trivial(p)),
            factory: Arc::new(move |input: &[Value], _fd: FdGen| {
                let c: Vec<Box<dyn DynProcess>> = input
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v {
                        Value::Unit => Box::new(Inert) as Box<dyn DynProcess>,
                        v => Box::new(FragileParty::new(n, i, v.clone())) as Box<dyn DynProcess>,
                    })
                    .collect();
                let s: Vec<Box<dyn DynProcess>> =
                    (0..n).map(|_| Box::new(AdviceIdle) as Box<dyn DynProcess>).collect();
                (c, s)
            }),
        }
    }

    /// k-set agreement from →Ωk advice (§4.2), the advice-sensitive scenario.
    pub fn ksa() -> Scenario {
        let n = 3;
        let k = 2u32;
        Scenario {
            name: "ksa".into(),
            n,
            budget: 300_000,
            stab: 100,
            backend: BackendSpec::Shm,
            task: Arc::new(SetAgreement::new(n, k as usize)),
            mk_fd: Arc::new(move |p, stab, seed| FdGen::vector_omega_k(p, k as usize, stab, seed)),
            factory: Arc::new(move |input: &[Value], _fd: FdGen| {
                let c: Vec<Box<dyn DynProcess>> = input
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v {
                        Value::Unit => Box::new(Inert) as Box<dyn DynProcess>,
                        v => Box::new(SetAgreementC::new(i, k, v.clone())) as Box<dyn DynProcess>,
                    })
                    .collect();
                let s: Vec<Box<dyn DynProcess>> = (0..n)
                    .map(|q| {
                        Box::new(SetAgreementS::new(q as u32, n as u32, n, k))
                            as Box<dyn DynProcess>
                    })
                    .collect();
                (c, s)
            }),
        }
    }

    /// [`Scenario::ksa`] over the ABD quorum-replicated register backend:
    /// three replicas, so any single-node partition or drop window leaves a
    /// live majority while two-node partitions strand quorum operations.
    /// The fixture for network fault plans — same Δ, same algorithm, every
    /// register access now a two-phase majority protocol.
    pub fn ksa_net() -> Scenario {
        let mut sc = Scenario::ksa();
        sc.name = "ksa-net".into();
        sc.backend = BackendSpec::net(3);
        sc
    }

    /// [`Scenario::ksa_net`] over non-FIFO channels: per-channel delivery
    /// order is unconstrained, so replies and retransmissions overtake
    /// freely. ABD's tag order makes the protocol insensitive to
    /// reordering — the fixture that keeps the sweep honest about it.
    pub fn ksa_net_reorder() -> Scenario {
        let mut sc = Scenario::ksa_net();
        sc.name = "ksa-net-reorder".into();
        sc.backend =
            BackendSpec::Net { cfg: NetConfig { fifo: false, ..NetConfig::new(3, 0) }, shards: 1 };
        sc
    }

    /// [`Scenario::ksa_net`] with strided message corruption: the spec
    /// carries one whole-run [`NetFault::CorruptMessage`] window per
    /// replica with `every: 5`, so every 5th message carries a damaged
    /// payload, which the checksum layer detects and quarantines; the
    /// stalled quorum round retransmits past it. Every run keeps these
    /// windows ahead of its plan's faults. Decisions and slots are
    /// identical to `ksa-net` for every plan (the fixture that keeps the
    /// sweep honest about the quarantine path's equivalence guarantee);
    /// quorum-op degradations may *additionally* appear when a plan's own
    /// faults leave the quorum marginal — quarantine is message loss, and
    /// loss composes.
    pub fn ksa_net_corrupt() -> Scenario {
        let mut sc = Scenario::ksa_net();
        sc.name = "ksa-net-corrupt".into();
        let mut cfg = NetConfig::new(3, 0);
        cfg.faults = (0..cfg.nodes)
            .map(|node| NetFault::CorruptMessage { at: 0, until: u64::MAX, node, every: 5 })
            .collect();
        sc.backend = BackendSpec::Net { cfg, shards: 1 };
        sc
    }

    /// [`Scenario::ksa_net`] with the register space sharded over two
    /// independent 3-replica groups. Keys route by `RegKey::shard_index`;
    /// each group runs its own quorum, so degradations are group-local and
    /// the resulting quorum-lost violations carry the group's shard tag.
    pub fn ksa_net_shard() -> Scenario {
        let mut sc = Scenario::ksa_net();
        sc.name = "ksa-net-shard".into();
        sc.backend = BackendSpec::Net { cfg: NetConfig::new(3, 0), shards: 2 };
        sc
    }

    /// [`Scenario::ksa`] over the delta-CRDT gossip backend, four replicas.
    /// Every register op is local to the key's home replica — zero messages
    /// on the op path — and freshness rides periodic anti-entropy rounds, so
    /// a plan that partitions or crashes replicas starves reads into typed
    /// `AdviceStale` reports instead of stranding quorum rounds.
    pub fn ksa_net_gossip() -> Scenario {
        let mut sc = Scenario::ksa();
        sc.name = "ksa-net-gossip".into();
        sc.backend = BackendSpec::gossip(4);
        sc
    }

    /// [`Scenario::renaming`] over the delta-CRDT gossip backend, three
    /// replicas: the second register program exercised over gossip, probing
    /// that staleness never breaks the (j, 2j−1) name bound.
    pub fn rename_net_gossip() -> Scenario {
        let mut sc = Scenario::renaming();
        sc.name = "rename-net-gossip".into();
        sc.backend = BackendSpec::gossip(3);
        sc
    }

    /// The deliberately non-wait-free adopt-commit variant: guaranteed
    /// discoverable wait-freedom violations (stop any party and everyone
    /// else blocks on its unpublished proposal).
    pub fn wait_for_all() -> Scenario {
        let n = 3;
        Scenario {
            name: "wait-for-all".into(),
            n,
            budget: 5_000,
            stab: 50,
            backend: BackendSpec::Shm,
            task: Arc::new(AcTask { parties: n, distinct_inputs: true }),
            mk_fd: Arc::new(|p, _stab, _seed| FdGen::trivial(p)),
            factory: Arc::new(move |input: &[Value], _fd: FdGen| {
                let c: Vec<Box<dyn DynProcess>> = input
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v {
                        Value::Unit => Box::new(Inert) as Box<dyn DynProcess>,
                        v => Box::new(WaitAllParty::new(n, i, v.clone())) as Box<dyn DynProcess>,
                    })
                    .collect();
                let s: Vec<Box<dyn DynProcess>> =
                    (0..n).map(|_| Box::new(AdviceIdle) as Box<dyn DynProcess>).collect();
                (c, s)
            }),
        }
    }

    /// Figure-4 renaming: j = 3 participants of m = 4, names ≤ 2j−1.
    pub fn renaming() -> Scenario {
        let m = 4;
        let j = 3;
        Scenario {
            name: "renaming".into(),
            n: m,
            budget: 400_000,
            stab: 50,
            backend: BackendSpec::Shm,
            task: Arc::new(Renaming::new(m, j, 2 * j - 1)),
            mk_fd: Arc::new(|p, _stab, _seed| FdGen::trivial(p)),
            factory: Arc::new(move |input: &[Value], _fd: FdGen| {
                let c: Vec<Box<dyn DynProcess>> = input
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v {
                        Value::Unit => Box::new(Inert) as Box<dyn DynProcess>,
                        _ => Box::new(RenamingFig4::new(i, m)) as Box<dyn DynProcess>,
                    })
                    .collect();
                let s: Vec<Box<dyn DynProcess>> =
                    (0..m).map(|_| Box::new(AdviceIdle) as Box<dyn DynProcess>).collect();
                (c, s)
            }),
        }
    }
}

/// An S-process that does nothing but exist (its failure-detector module is
/// still sampled by the harness on every step, which is exactly what the
/// fault wrapper needs to exercise its counters).
#[derive(Clone, Copy, Hash, Debug, Default)]
pub struct AdviceIdle;

impl Process for AdviceIdle {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
        Status::Running
    }

    fn label(&self) -> String {
        "advice-idle".to_string()
    }
}

/// Encodes an adopt-commit outcome as a decision value:
/// `(Bool(is_commit), value)`.
pub fn encode_outcome(o: &AcOutcome) -> Value {
    Value::tuple([Value::Bool(o.is_commit()), o.value().clone()])
}

/// A C-process driving one [`AdoptCommit`] proposal to completion.
#[derive(Clone, Hash, Debug)]
pub struct AcParty {
    d: AdoptCommit,
}

impl AcParty {
    /// Party `me` of `parties` proposes `input`.
    pub fn new(parties: u32, me: u32, input: Value) -> AcParty {
        AcParty { d: AdoptCommit::new(11, 0, parties, me, input) }
    }
}

impl Process for AcParty {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match self.d.poll(ctx) {
            Step::Pending => Status::Running,
            Step::Done(o) => Status::Decided(encode_outcome(&o)),
        }
    }

    fn label(&self) -> String {
        "ac-party".to_string()
    }
}

/// The racy adopt-commit party: reads the *other* proposals once, **before**
/// publishing its own, then commits its own value if it saw nothing. Two
/// parties whose read passes both complete before either write land two
/// different commits — an agreement-on-commit violation reachable by many
/// schedules (this is the textbook reason adopt-commit publishes first).
#[derive(Clone, Hash, Debug)]
pub struct FragileParty {
    parties: usize,
    me: usize,
    input: Value,
    cursor: usize,
    saw_any: bool,
    adopted: Option<Value>,
    wrote: bool,
}

impl FragileParty {
    /// Party `me` of `parties` proposes `input`.
    pub fn new(parties: usize, me: usize, input: Value) -> FragileParty {
        assert!(!input.is_unit(), "⊥ cannot be proposed");
        FragileParty { parties, me, input, cursor: 0, saw_any: false, adopted: None, wrote: false }
    }

    fn a_key(&self, p: usize) -> RegKey {
        RegKey::idx(12, 0, p as u32, 0, 0)
    }
}

impl Process for FragileParty {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        // One optimistic pass over the other slots (skipping our own)...
        while self.cursor < self.parties {
            if self.cursor == self.me {
                self.cursor += 1;
                continue;
            }
            let v = ctx.read(self.a_key(self.cursor));
            self.cursor += 1;
            if !v.is_unit() {
                self.saw_any = true;
                if self.adopted.is_none() {
                    self.adopted = Some(v);
                }
            }
            return Status::Running;
        }
        // ...then publish...
        if !self.wrote {
            ctx.write(self.a_key(self.me), self.input.clone());
            self.wrote = true;
            return Status::Running;
        }
        // ...and decide on the stale evidence.
        let outcome = if self.saw_any {
            AcOutcome::Adopt(self.adopted.clone().expect("saw_any implies a value"))
        } else {
            AcOutcome::Commit(self.input.clone())
        };
        Status::Decided(encode_outcome(&outcome))
    }

    fn label(&self) -> String {
        "fragile-party".to_string()
    }
}

/// The deliberately non-wait-free party: publishes its proposal, then
/// *blocks* until every other slot is published before committing the
/// minimum proposal. Safe (everyone who decides commits the same minimum of
/// the full proposal set) but one stopped party starves all the others —
/// exactly the behavior the wait-freedom checker must flag and the plan
/// shrinker must attribute to the stop that caused it.
#[derive(Clone, Hash, Debug)]
pub struct WaitAllParty {
    parties: usize,
    me: usize,
    input: Value,
    wrote: bool,
    cursor: usize,
    min_seen: Option<i64>,
}

impl WaitAllParty {
    /// Party `me` of `parties` proposes `input` (an `Int`).
    pub fn new(parties: usize, me: usize, input: Value) -> WaitAllParty {
        assert!(input.as_int().is_some(), "wait-for-all proposes ints");
        WaitAllParty { parties, me, input, wrote: false, cursor: 0, min_seen: None }
    }

    fn a_key(&self, p: usize) -> RegKey {
        RegKey::idx(13, 0, p as u32, 0, 0)
    }
}

impl Process for WaitAllParty {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        if !self.wrote {
            ctx.write(self.a_key(self.me), self.input.clone());
            self.wrote = true;
            return Status::Running;
        }
        // Scan every slot (our own included), restarting on a gap: the
        // wait-for-all loop that kills wait-freedom.
        if self.cursor < self.parties {
            let v = ctx.read(self.a_key(self.cursor));
            match v.as_int() {
                Some(x) => {
                    self.min_seen = Some(self.min_seen.map_or(x, |m| m.min(x)));
                    self.cursor += 1;
                }
                None => {
                    self.cursor = 0;
                    self.min_seen = None;
                }
            }
            return Status::Running;
        }
        let min = self.min_seen.expect("full scan saw every proposal");
        Status::Decided(encode_outcome(&AcOutcome::Commit(Value::Int(min))))
    }

    fn label(&self) -> String {
        "wait-all-party".to_string()
    }
}

/// The adopt-commit coherence spec as a [`Task`]: outputs are
/// `(Bool(is_commit), v)` records satisfying validity, agreement-on-commit
/// and convergence over the decided participants.
#[derive(Clone, Debug)]
pub struct AcTask {
    /// Number of parties.
    pub parties: usize,
    /// `true`: party `i` proposes `i` (guaranteed-mixed proposals);
    /// `false`: proposals drawn from `{0, 1}`.
    pub distinct_inputs: bool,
}

impl Task for AcTask {
    fn name(&self) -> String {
        format!("adopt-commit({})", self.parties)
    }

    fn arity(&self) -> usize {
        self.parties
    }

    fn input_domain(&self, i: usize) -> Vec<Value> {
        if self.distinct_inputs {
            vec![Value::Int(i as i64)]
        } else {
            vec![Value::Int(0), Value::Int(1)]
        }
    }

    fn validate(&self, input: &[Value], output: &[Value]) -> Result<(), TaskViolation> {
        check_basics(self.parties, input, output)?;
        let mut decided: Vec<(usize, bool, Value)> = Vec::new();
        for (i, o) in output.iter().enumerate() {
            if o.is_unit() {
                continue;
            }
            let flag = o.get(0).and_then(Value::as_bool).ok_or_else(|| {
                TaskViolation::new(format!("party {i} decided a non-outcome value {o}"))
            })?;
            let val = o
                .get(1)
                .filter(|v| !v.is_unit())
                .ok_or_else(|| TaskViolation::new(format!("party {i} outcome carries ⊥")))?;
            decided.push((i, flag, val.clone()));
        }
        // Validity: outcome values are proposals.
        for (i, _, v) in &decided {
            if !input.contains(v) {
                return Err(TaskViolation::new(format!(
                    "party {i} outcome value {v} was never proposed"
                )));
            }
        }
        // Agreement on commit: one commit pins every outcome value.
        if let Some((ci, _, cv)) = decided.iter().find(|(_, flag, _)| *flag) {
            for (i, _, v) in &decided {
                if v != cv {
                    return Err(TaskViolation::new(format!(
                        "party {ci} committed {cv} but party {i} carries {v}"
                    )));
                }
            }
        }
        // Convergence: identical proposals force commits.
        let proposals: Vec<&Value> = input.iter().filter(|v| !v.is_unit()).collect();
        if !proposals.is_empty() && proposals.iter().all(|v| *v == proposals[0]) {
            for (i, flag, _) in &decided {
                if !flag {
                    return Err(TaskViolation::new(format!(
                        "identical proposals but party {i} only adopted"
                    )));
                }
            }
        }
        Ok(())
    }

    fn choose_output(&self, i: usize, input: &[Value], output: &[Value]) -> Value {
        // Stay coherent with whatever is already decided: carry an existing
        // outcome's value as an adopt, else commit our own proposal.
        let existing = output.iter().find(|o| !o.is_unit()).and_then(|o| o.get(1)).cloned();
        match existing {
            Some(v) => Value::tuple([Value::Bool(false), v]),
            None => Value::tuple([Value::Bool(true), input[i].clone()]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(flag: bool, v: i64) -> Value {
        Value::tuple([Value::Bool(flag), Value::Int(v)])
    }

    #[test]
    fn ac_task_accepts_coherent_outcomes() {
        let t = AcTask { parties: 3, distinct_inputs: false };
        let i = vec![Value::Int(0), Value::Int(1), Value::Int(0)];
        let o = vec![tup(true, 0), tup(false, 0), Value::Unit];
        assert!(t.validate(&i, &o).is_ok());
    }

    #[test]
    fn ac_task_rejects_split_commits() {
        let t = AcTask { parties: 2, distinct_inputs: true };
        let i = vec![Value::Int(0), Value::Int(1)];
        let o = vec![tup(true, 0), tup(true, 1)];
        let err = t.validate(&i, &o).unwrap_err();
        assert!(err.reason.contains("committed"), "{err}");
    }

    #[test]
    fn ac_task_rejects_unproposed_values() {
        let t = AcTask { parties: 2, distinct_inputs: true };
        let i = vec![Value::Int(0), Value::Int(1)];
        let o = vec![tup(false, 9), Value::Unit];
        assert!(t.validate(&i, &o).is_err());
    }

    #[test]
    fn ac_task_enforces_convergence() {
        let t = AcTask { parties: 2, distinct_inputs: false };
        let i = vec![Value::Int(1), Value::Int(1)];
        let o = vec![tup(false, 1), tup(true, 1)];
        let err = t.validate(&i, &o).unwrap_err();
        assert!(err.reason.contains("identical proposals"), "{err}");
    }

    #[test]
    fn catalog_names_resolve() {
        for name in Scenario::catalog() {
            let sc = Scenario::by_name(name).expect(name);
            assert_eq!(sc.name, name);
            assert!(Scenario::by_name("no-such-scenario").is_none());
        }
    }
}
