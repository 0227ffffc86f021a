//! Theorem 8 / Figure 1: extracting `¬Ωk` from any detector that solves a
//! task that is not (k+1)-concurrently solvable.
//!
//! Each real S-process runs [`ReductionS`]:
//!
//! 1. it queries its module of `D` every step and publishes the samples
//!    (building the shared DAG `G` of \[9, 28\] — in our sequential simulator
//!    the causal order of samples is their publication order, so the DAG is
//!    represented by the per-process sample streams);
//! 2. it locally simulates *(k+1)-concurrent* runs of `Asim`: the
//!    C-processes run `A`'s C-part; `A`'s S-part is simulated using DAG
//!    samples in place of detector queries, with the BG blocking discipline —
//!    each simulating C-process *claims* one simulated S-process at a time
//!    and a claim held by a stopped C-process parks that S-process for the
//!    rest of the explored run;
//! 3. runs are explored in the corridor order of Figure 1: for each corridor
//!    `P′ ⊆ P` (narrow to wide) and each *park pattern* (how many
//!    claim/release cycles each blocker performs before stopping inside a
//!    claim — the semantically distinct prefixes `σ`), the corridor is
//!    extended; deciding runs complete (decided members are replaced by
//!    fresh participants, keeping the run (k+1)-concurrent) and exploration
//!    moves on, while the **first never-deciding run is extended forever**;
//! 4. the emulated `¬Ωk` output — the `n−k` S-processes *latest* to take a
//!    simulated step in the current run — is continuously published.
//!
//! Because the task is not (k+1)-concurrently solvable, a never-deciding
//! (k+1)-concurrent run exists; the only way a simulated run can stall is
//! that some *correct* S-process is parked (claims by stopped C-processes),
//! and a parked process eventually never appears among the latest `n−k` —
//! the `¬Ωk` specification. The experiments drive this with `T` = consensus
//! and `D` = `→Ω1` and check the emitted history with
//! [`wfa_fd::spec::check_anti_omega_k`].
//!
//! Finitization notes (recorded in DESIGN.md): the paper's unbounded
//! depth-first exploration over all inputs and schedules is restricted to
//! the provided input vectors and to the park-pattern prefixes — the
//! equivalence classes of prefixes that differ in which S-processes end up
//! parked, which is the only feature of `σ` the extraction argument uses.
//! The "adopt the most advanced simulation" synchronization (line 8 of
//! Figure 1) is unnecessary here because all S-processes explore the same
//! deterministic branch order over converging sample streams.

use std::hash::{Hash, Hasher};

use wfa_algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::{Pid, Value};

/// Namespace of the reduction's boards.
const NS_RED: u16 = 97;

/// Sample-count register of real S-process `q`.
fn count_key(q: u32) -> RegKey {
    RegKey::idx(NS_RED, 0, q, 0, 0)
}

/// `seq`-th published sample of real S-process `q`.
fn sample_key(q: u32, seq: u32) -> RegKey {
    RegKey::idx(NS_RED, 1, q, seq, 0)
}

/// Emulated `¬Ωk` output register of real S-process `q`.
pub fn emulated_key(q: u32) -> RegKey {
    RegKey::idx(NS_RED, 2, q, 0, 0)
}

/// Builders for the simulated algorithm `A` (the C- and S-part automata).
#[derive(Clone, Copy)]
pub struct AsimBuilders {
    /// Builds `A`'s C-part automaton for C-process `i` with its input.
    pub c_part: fn(usize, &Value) -> Box<dyn DynProcess>,
    /// Builds `A`'s S-part automaton for S-process `q`.
    pub s_part: fn(usize) -> Box<dyn DynProcess>,
}

impl AsimBuilders {
    /// `A` of the Figure-1 experiments: the §4.2 algorithm as consensus
    /// (`k = 1`) among 3 C-processes, served by 3 S-processes.
    pub const CONSENSUS3: Self = Self {
        c_part: |i, input| Box::new(SetAgreementC::new(i, 1, input.clone())),
        s_part: |q| Box::new(SetAgreementS::new(q as u32, 3, 3, 1)),
    };
}

/// One locally simulated (k+1)-concurrent run of `Asim`.
#[derive(Clone)]
struct SimRun {
    mem: SharedMemory,
    c_procs: Vec<Box<dyn DynProcess>>,
    c_decided: Vec<Option<Value>>,
    s_procs: Vec<Box<dyn DynProcess>>,
    /// Next unused DAG sample per simulated S-process.
    cursors: Vec<usize>,
    /// S-process currently claimed by each C-process.
    claims: Vec<Option<usize>>,
    s_claimed: Vec<bool>,
    /// Sequence number of each simulated S-process's latest step.
    last_turn: Vec<Option<u64>>,
    turn_seq: u64,
    /// Rotation for claim targets.
    next_s: usize,
    clock: u64,
}

impl SimRun {
    fn new(inputs: &[Value], n_s: usize, builders: &AsimBuilders) -> SimRun {
        let c_procs: Vec<Box<dyn DynProcess>> =
            inputs.iter().enumerate().map(|(i, v)| (builders.c_part)(i, v)).collect();
        let s_procs: Vec<Box<dyn DynProcess>> = (0..n_s).map(builders.s_part).collect();
        let n_c = c_procs.len();
        SimRun {
            mem: SharedMemory::new(),
            c_procs,
            c_decided: vec![None; n_c],
            s_procs,
            cursors: vec![0; n_s],
            claims: vec![None; n_c],
            s_claimed: vec![false; n_s],
            last_turn: vec![None; n_s],
            turn_seq: 0,
            next_s: 0,
            clock: 0,
        }
    }

    /// One simulated step of C-process `p`: advance its C-part, then make
    /// one BG contribution (claim an S-process or complete a claimed step).
    /// Returns `true` if a claim was *completed* this step.
    fn step_c(&mut self, p: usize, samples: &[Vec<Value>]) -> bool {
        self.clock += 1;
        if self.c_decided[p].is_none() {
            let mut ctx = StepCtx::new(&mut self.mem, None, self.clock, Pid(p), 1);
            if let Status::Decided(v) = self.c_procs[p].step(&mut ctx) {
                self.c_decided[p] = Some(v);
            }
        }
        match self.claims[p] {
            Some(q) => {
                // Complete q's simulated step using its next DAG sample.
                let fd = samples[q][self.cursors[q]].clone();
                self.cursors[q] += 1;
                self.clock += 1;
                let mut ctx =
                    StepCtx::new(&mut self.mem, Some(&fd), self.clock, Pid(1000 + q), 1);
                let _ = self.s_procs[q].step(&mut ctx);
                self.claims[p] = None;
                self.s_claimed[q] = false;
                self.turn_seq += 1;
                self.last_turn[q] = Some(self.turn_seq);
                true
            }
            None => {
                // Claim the next unclaimed S-process with a fresh sample.
                let n_s = self.s_procs.len();
                for off in 0..n_s {
                    let q = (self.next_s + off) % n_s;
                    if !self.s_claimed[q] && self.cursors[q] < samples[q].len() {
                        self.s_claimed[q] = true;
                        self.claims[p] = Some(q);
                        self.next_s = (q + 1) % n_s;
                        break;
                    }
                }
                false
            }
        }
    }

    /// The emulated `¬Ωk` value: the `n−k` S-processes that appear *latest*
    /// in the current run (never-appearing processes rank last, so a parked
    /// process falls out of the output as soon as `n−k` others have moved).
    fn latest_output(&self, k: usize) -> Vec<usize> {
        let n_s = self.s_procs.len();
        let want = n_s - k;
        let mut ranked: Vec<usize> = (0..n_s).collect();
        // Most recent first; never-appeared (None) last; ties by id.
        ranked.sort_by_key(|q| (std::cmp::Reverse(self.last_turn[*q]), *q));
        let mut out: Vec<usize> = ranked.into_iter().take(want).collect();
        out.sort_unstable();
        out
    }
}

/// A branch of the corridor exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct BranchId {
    input_idx: usize,
    /// Bitmask over `P = {0..k}` of corridor members; blockers are `P`'s
    /// complement.
    corridor: u32,
    /// Claim/release cycles each blocker performs before parking.
    park_cycles: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Parking the blockers (prefix σ̄).
    Prefix { blocker_ix: usize, cycles_done: usize, fuel: u32 },
    /// Extending the corridor.
    Corridor,
}

/// The real S-process automaton of Figure 1.
#[derive(Clone)]
pub struct ReductionS {
    sidx: usize,
    n: usize,
    k: usize,
    builders: AsimBuilders,
    input_vectors: Vec<Vec<Value>>,
    /// Mirrored sample streams (the DAG), one per real S-process.
    samples: Vec<Vec<Value>>,
    published: u32,
    mirror_q: usize,
    mirror_counts: Vec<u32>,
    branch: BranchId,
    phase: Phase,
    run: Option<SimRun>,
    /// Corridor membership after replacements, and the next fresh id.
    members: Vec<usize>,
    next_fresh: usize,
    rr: usize,
    rotation: u32,
    exhausted: bool,
}

impl ReductionS {
    /// Real S-process `sidx` of `n`, extracting `¬Ωk` from runs of the
    /// algorithm given by `builders` on the given input vectors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n` and at least one input vector is supplied.
    pub fn new(
        sidx: usize,
        n: usize,
        k: usize,
        builders: AsimBuilders,
        input_vectors: Vec<Vec<Value>>,
    ) -> ReductionS {
        assert!(k >= 1 && k < n);
        assert!(!input_vectors.is_empty());
        let branch = BranchId { input_idx: 0, corridor: 1, park_cycles: 0 };
        ReductionS {
            sidx,
            n,
            k,
            builders,
            input_vectors,
            samples: vec![Vec::new(); n],
            published: 0,
            mirror_q: 0,
            mirror_counts: vec![0; n],
            branch,
            phase: Phase::Prefix { blocker_ix: 0, cycles_done: 0, fuel: 2_000 },
            run: None,
            members: Vec::new(),
            next_fresh: 0,
            rr: 0,
            rotation: 0,
            exhausted: false,
        }
    }

    /// `P`: the first k+1 C-processes (the initial participants).
    fn p_set(&self) -> Vec<usize> {
        (0..=self.k).collect()
    }

    fn corridor_members(&self) -> Vec<usize> {
        self.p_set().into_iter().filter(|i| self.branch.corridor & (1 << i) != 0).collect()
    }

    fn blockers(&self) -> Vec<usize> {
        self.p_set().into_iter().filter(|i| self.branch.corridor & (1 << i) == 0).collect()
    }

    /// Advances to the next branch in corridor-DFS order; `true` on success.
    fn next_branch(&mut self) -> bool {
        let full = (1u32 << (self.k + 1)) - 1;
        loop {
            let b = &mut self.branch;
            if b.park_cycles + 1 < self.n && b.corridor != full {
                b.park_cycles += 1;
            } else {
                b.park_cycles = 0;
                if b.corridor < full {
                    b.corridor += 1;
                } else {
                    b.corridor = 1;
                    if b.input_idx + 1 < self.input_vectors.len() {
                        b.input_idx += 1;
                    } else {
                        self.exhausted = true;
                        return false;
                    }
                }
            }
            // Order corridors narrow → wide: skip masks out of popcount
            // order within the same pass (the enumeration above is
            // lexicographic; popcount order refinement matters little for
            // convergence, so we accept lexicographic order — it still
            // explores solo corridors first for k ≤ 2).
            if self.branch.corridor != 0 {
                break;
            }
        }
        self.start_branch();
        true
    }

    fn start_branch(&mut self) {
        let inputs = self.input_vectors[self.branch.input_idx].clone();
        self.run = Some(SimRun::new(&inputs, self.n, &self.builders));
        self.members = self.corridor_members();
        self.next_fresh = self.k + 1;
        self.phase = Phase::Prefix { blocker_ix: 0, cycles_done: 0, fuel: 2_000 };
        self.rr = 0;
    }

    /// One unit of local exploration work.
    fn explore_step(&mut self) {
        if self.exhausted {
            return;
        }
        if self.run.is_none() {
            self.start_branch();
        }
        match self.phase {
            Phase::Prefix { blocker_ix, cycles_done, fuel } => {
                let blockers = self.blockers();
                if blocker_ix >= blockers.len() {
                    self.phase = Phase::Corridor;
                    return;
                }
                let b = blockers[blocker_ix];
                let run = self.run.as_mut().expect("branch started");
                if fuel == 0 || run.c_decided[b].is_some() {
                    // Degenerate prefix (blocker decided or starved before it
                    // could park): move to the next branch.
                    if !self.next_branch() {
                        self.exhausted = true;
                    }
                    return;
                }
                let completed = run.step_c(b, &self.samples);
                let mut cycles_done = cycles_done;
                if completed {
                    cycles_done += 1;
                }
                // Parked: the blocker holds a claim after its quota of
                // completed cycles — freeze it and move to the next blocker.
                if cycles_done >= self.branch.park_cycles && run.claims[b].is_some() {
                    self.phase =
                        Phase::Prefix { blocker_ix: blocker_ix + 1, cycles_done: 0, fuel: 2_000 };
                } else {
                    self.phase = Phase::Prefix { blocker_ix, cycles_done, fuel: fuel - 1 };
                }
            }
            Phase::Corridor => {
                let n = self.n;
                let run = self.run.as_mut().expect("branch started");
                // Replace decided members with fresh participants.
                let mut i = 0;
                while i < self.members.len() {
                    let m = self.members[i];
                    if run.c_decided[m].is_some() {
                        if self.next_fresh < n {
                            self.members[i] = self.next_fresh;
                            self.next_fresh += 1;
                            i += 1;
                        } else {
                            self.members.remove(i);
                        }
                    } else {
                        i += 1;
                    }
                }
                if self.members.is_empty() {
                    // Every participant decided: a deciding run — next branch.
                    let _ = self.next_branch();
                    return;
                }
                self.rr = (self.rr + 1) % self.members.len();
                let p = self.members[self.rr];
                run.step_c(p, &self.samples);
            }
        }
    }

    /// The current emulated `¬Ωk` output as a [`Value`].
    fn emulated_value(&self) -> Value {
        let out = match &self.run {
            Some(run) => run.latest_output(self.k),
            None => (0..self.n - self.k).collect(),
        };
        Value::ints(out.into_iter().map(|q| q as i64))
    }
}

impl Hash for ReductionS {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Exploration state holds `dyn` automata; progress counters identify
        // the state well enough for run fingerprints (FD-based runs are not
        // model-checked — see module docs).
        self.sidx.hash(state);
        self.published.hash(state);
        self.mirror_counts.hash(state);
        self.branch.corridor.hash(state);
        self.branch.park_cycles.hash(state);
        self.branch.input_idx.hash(state);
        if let Some(run) = &self.run {
            run.clock.hash(state);
            run.last_turn.hash(state);
        }
    }
}

impl Process for ReductionS {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        self.rotation = self.rotation.wrapping_add(1);
        match self.rotation % 4 {
            // 1. Query D and publish the sample (one DAG vertex).
            0 => {
                if let Some(d) = ctx.fd().cloned() {
                    let seq = self.published;
                    ctx.write(
                        sample_key(self.sidx as u32, seq),
                        Value::tuple([Value::Int(seq as i64), d.clone()]),
                    );
                    self.published += 1;
                    self.samples[self.sidx].push(d);
                }
            }
            // 2a. Advertise the sample count (so others can mirror).
            1 => {
                ctx.write(count_key(self.sidx as u32), Value::Int(self.published as i64));
                // also do local work
                for _ in 0..4 {
                    self.explore_step();
                }
            }
            // 2b. Mirror one sample from another process's stream.
            2 => {
                let q = self.mirror_q;
                self.mirror_q = (self.mirror_q + 1) % self.n;
                if q != self.sidx {
                    let seq = self.mirror_counts[q];
                    let v = ctx.read(sample_key(q as u32, seq));
                    if let Some(d) = v.get(1) {
                        self.samples[q].push(d.clone());
                        self.mirror_counts[q] += 1;
                    }
                } else {
                    for _ in 0..4 {
                        self.explore_step();
                    }
                }
            }
            // 3. Publish the emulated ¬Ωk output.
            _ => {
                for _ in 0..8 {
                    self.explore_step();
                }
                ctx.write(emulated_key(self.sidx as u32), self.emulated_value());
            }
        }
        Status::Running
    }

    fn label(&self) -> String {
        format!("fig1-S{}", self.sidx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_fd::detectors::{FdGen, HistoryEntry};
    use wfa_fd::pattern::FailurePattern;
    use wfa_fd::spec::check_anti_omega_k;
    use wfa_kernel::executor::Executor;
    use wfa_kernel::sched::{RandomSched, Scheduler};

    /// Drives n ReductionS processes under a →Ω1 detector, collecting each
    /// process's emitted ¬Ω1 history, and checks the ¬Ω1 specification.
    #[test]
    fn extracts_anti_omega_1_from_consensus_detector() {
        let n = 3;
        let k = 1;
        let inputs: Vec<Vec<Value>> = vec![
            (0..n as i64).map(Value::Int).collect(),
            vec![Value::Int(1); n],
        ];
        let pattern = FailurePattern::failure_free(n);
        let mut fd = FdGen::vector_omega_k(pattern.clone(), k, 300, 42);
        let mut ex = Executor::new();
        let pids: Vec<_> = (0..n)
            .map(|q| {
                ex.add_process(Box::new(ReductionS::new(
                    q,
                    n,
                    k,
                    AsimBuilders::CONSENSUS3,
                    inputs.clone(),
                )))
            })
            .collect();
        let mut sched = RandomSched::over_all(&ex, 7);
        let mut history: Vec<HistoryEntry> = Vec::new();
        for step in 0..600_000u64 {
            let Some(pid) = sched.next(&ex) else { break };
            let now = ex.clock();
            let q = pid.0; // all processes here are S-processes (index = pid)
            let fdv = fd.output(q, now);
            ex.step(pid, Some(&fdv));
            // Sample the emulated output periodically (each sample is one
            // query of the emulated module).
            if step % 16 == 0 {
                let v = ex.memory().peek(emulated_key(q as u32));
                if !v.is_unit() {
                    history.push(HistoryEntry { q, t: now, val: v });
                }
            }
        }
        assert!(history.len() > 10, "no emulated outputs were published");
        let w = check_anti_omega_k(&pattern, &history, k, 5_000)
            .expect("emulated history violates the ¬Ω1 specification");
        assert!(pattern.is_correct(w.who), "witness {w:?} not correct");
        // The parked process should be the detector's stable leader: verify
        // the extraction actually excluded *some* correct process early
        // enough (tau well before the end of the run).
        let last_t = history.last().unwrap().t;
        assert!(w.tau + 5_000 <= last_t, "stabilization too late: {w:?} vs {last_t}");
        let _ = pids;
    }

    #[test]
    #[ignore]
    fn debug_dump() {
        let n = 3;
        let k = 1;
        let inputs: Vec<Vec<Value>> = vec![
            (0..n as i64).map(Value::Int).collect(),
            vec![Value::Int(1); n],
        ];
        let pattern = FailurePattern::failure_free(n);
        let mut fd = FdGen::vector_omega_k(pattern.clone(), k, 300, 42);
        let mut ex = Executor::new();
        for q in 0..n {
            let s = ReductionS::new(q, n, k, AsimBuilders::CONSENSUS3, inputs.clone());
            ex.add_process(Box::new(s));
        }
        let mut sched = RandomSched::over_all(&ex, 7);
        for step in 0..600_000u64 {
            let Some(pid) = sched.next(&ex) else { break };
            let now = ex.clock();
            let q = pid.0;
            let fdv = fd.output(q, now);
            ex.step(pid, Some(&fdv));
            if step % 50_000 == 0 {
                for qq in 0..n {
                    let v = ex.memory().peek(emulated_key(qq as u32));
                    println!("t={now} q{qq} emu={v}");
                }
            }
        }
    }

    /// The exploration must converge for every possible stable leader: runs
    /// whose never-deciding branch parks different S-processes.
    #[test]
    fn extraction_holds_across_leaders_and_crashes() {
        let n = 3;
        let k = 1;
        let inputs: Vec<Vec<Value>> = vec![(0..n as i64).map(Value::Int).collect()];
        for (seed, crashes) in
            [(1u64, vec![]), (2, vec![]), (3, vec![(0usize, 500u64)]), (9, vec![(2, 800)])]
        {
            let pattern = FailurePattern::with_crashes(n, &crashes);
            let mut fd = FdGen::vector_omega_k(pattern.clone(), k, 300, seed);
            let mut ex = Executor::new();
            for q in 0..n {
                ex.add_process(Box::new(ReductionS::new(
                    q,
                    n,
                    k,
                    AsimBuilders::CONSENSUS3,
                    inputs.clone(),
                )));
            }
            let mut sched = RandomSched::over_all(&ex, seed ^ 0xabc);
            let mut history: Vec<HistoryEntry> = Vec::new();
            for step in 0..900_000u64 {
                let Some(pid) = sched.next(&ex) else { break };
                let now = ex.clock();
                let q = pid.0;
                if !pattern.is_alive(q, now) {
                    continue;
                }
                let fdv = fd.output(q, now);
                ex.step(pid, Some(&fdv));
                if step % 16 == 0 {
                    let v = ex.memory().peek(emulated_key(q as u32));
                    if !v.is_unit() {
                        history.push(HistoryEntry { q, t: now, val: v });
                    }
                }
            }
            let w = check_anti_omega_k(&pattern, &history, k, 5_000)
                .unwrap_or_else(|| panic!("seed {seed}: ¬Ω1 spec violated"));
            assert!(pattern.is_correct(w.who), "seed {seed}: witness {w:?} faulty");
        }
    }

    #[test]
    fn branch_enumeration_makes_progress() {
        let n = 3;
        let inputs = vec![vec![Value::Int(0), Value::Int(1), Value::Int(2)]];
        let mut r = ReductionS::new(0, n, 1, AsimBuilders::CONSENSUS3, inputs);
        // With no samples at all, exploration parks immediately (blockers
        // cannot even claim) and cycles through degenerate branches without
        // panicking or diverging.
        for _ in 0..10_000 {
            r.explore_step();
        }
        // Feed samples by hand: everyone's module permanently outputs q2.
        for q in 0..n {
            for _ in 0..5_000 {
                r.samples[q].push(Value::ints([2]));
            }
        }
        for _ in 0..200_000 {
            r.explore_step();
        }
        // The current run must have made simulated progress.
        let run = r.run.as_ref().expect("a run is active");
        assert!(run.clock > 0);
    }

    #[test]
    fn latest_output_is_recency_based() {
        let inputs = vec![vec![Value::Int(0); 3]];
        let mut r = ReductionS::new(0, 3, 1, AsimBuilders::CONSENSUS3, inputs);
        r.start_branch();
        let run = r.run.as_mut().unwrap();
        run.last_turn = vec![Some(4), Some(5), Some(3)]; // q2 stale
        let out = run.latest_output(1);
        assert_eq!(out, vec![0, 1]);
        run.last_turn = vec![None, Some(5), Some(3)]; // q0 parked from start
        assert_eq!(run.latest_output(1), vec![1, 2]);
    }

    #[test]
    fn emulated_value_shape() {
        let inputs = vec![vec![Value::Int(0); 4]];
        let r = ReductionS::new(1, 4, 2, AsimBuilders::CONSENSUS3, inputs);
        let v = r.emulated_value();
        assert_eq!(v.as_tuple().unwrap().len(), 2); // n−k = 2
    }
}
