//! The EFD run harness (§2.1–§2.2).
//!
//! Assembles full EFD runs ⟨F, H, I, Sch, T⟩: `n` C-process automata plus
//! `n` S-process automata (the paper's "interesting case" m = n, §2.2), a
//! failure pattern from an environment, a lazily sampled failure-detector
//! history, and a schedule. The harness enforces the model's conventions —
//! crashed S-processes take no steps, only S-processes see the detector —
//! and produces a [`RunReport`] with everything a theorem-experiment checks:
//! the input/output vectors, Δ-validation, per-process step counts and the
//! recorded detector history.
//!
//! **Wait-freedom** is checked the only way it can be operationally: run the
//! same system under adversaries that stop arbitrary subsets of *other*
//! C-processes at arbitrary times ([`wait_freedom_ensemble`]); every
//! non-stopped C-process must still decide in a bounded number of its own
//! steps. This is the paper's defining quantifier — "every computation
//! process outputs in a finite number of its own steps, regardless of the
//! behavior of other computation processes".

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wfa_fd::detectors::{FdGen, FdSource};
use wfa_kernel::executor::Executor;
use wfa_obs::metrics::{Counter, MetricsHandle};
use wfa_obs::span::{seq, EventKind, ObsEvent};
use wfa_kernel::process::DynProcess;
use wfa_kernel::sched::{run_schedule, RandomSched, Scheduler, Starve, StepEnv, StopReason};
use wfa_kernel::value::{Pid, Value};
use wfa_tasks::task::{Task, TaskViolation};

/// Maps run pids to the C/S split: C-processes are pids `0..n`, S-processes
/// are pids `n..n+s` with S-index `pid − n`.
#[derive(Clone, Copy, Debug)]
pub struct Roles {
    /// Number of C-processes.
    pub n_c: usize,
    /// Number of S-processes.
    pub n_s: usize,
}

impl Roles {
    /// The pid of C-process `i`.
    pub fn c(&self, i: usize) -> Pid {
        assert!(i < self.n_c);
        Pid(i)
    }

    /// The pid of S-process `q`.
    pub fn s(&self, q: usize) -> Pid {
        assert!(q < self.n_s);
        Pid(self.n_c + q)
    }

    /// The S-index of `pid`, if it is an S-process.
    pub fn sidx(&self, pid: Pid) -> Option<usize> {
        (pid.0 >= self.n_c && pid.0 < self.n_c + self.n_s).then(|| pid.0 - self.n_c)
    }

    /// All C-process pids.
    pub fn c_pids(&self) -> Vec<Pid> {
        (0..self.n_c).map(Pid).collect()
    }
}

/// Step environment wiring the failure detector and the failure pattern into
/// a run (S-processes query `H(q, τ)`; crashed S-processes take no steps).
struct EfdEnv<'a, F: FdSource> {
    fd: &'a mut F,
    roles: Roles,
    obs: MetricsHandle,
}

impl<F: FdSource> StepEnv for EfdEnv<'_, F> {
    fn fd_output(&mut self, pid: Pid, now: u64) -> Option<Value> {
        self.roles.sidx(pid).map(|q| {
            self.obs.bump(Counter::FdQueries);
            self.obs.record(ObsEvent {
                time: now,
                pid: pid.0 as u32,
                seq: seq::FD_QUERY,
                kind: EventKind::FdQuery,
            });
            self.fd.output(q, now)
        })
    }

    fn is_alive(&mut self, pid: Pid, now: u64) -> bool {
        match self.roles.sidx(pid) {
            Some(q) => self.fd.pattern().is_alive(q, now),
            None => true, // C-processes never crash in the EFD model
        }
    }
}

/// An assembled EFD run, ready to execute.
///
/// Generic over the failure-detector source so fault-injection wrappers
/// (which corrupt or delay an inner [`FdGen`]'s samples) run through the
/// very same harness; plain runs use the default `F = FdGen`.
pub struct EfdRun<F: FdSource = FdGen> {
    /// The underlying executor (C-processes first, then S-processes).
    pub executor: Executor,
    /// The pid mapping.
    pub roles: Roles,
    /// The failure-detector history sampler (owns the failure pattern).
    pub fd: F,
}

impl<F: FdSource> EfdRun<F> {
    /// Assembles a run from C-process and S-process automata and a detector.
    pub fn new(
        c_procs: Vec<Box<dyn DynProcess>>,
        s_procs: Vec<Box<dyn DynProcess>>,
        fd: F,
    ) -> EfdRun<F> {
        assert_eq!(
            s_procs.len(),
            fd.pattern().n(),
            "one S-process per failure-pattern slot"
        );
        let roles = Roles { n_c: c_procs.len(), n_s: s_procs.len() };
        let mut executor = Executor::new();
        for p in c_procs {
            executor.add_process(p);
        }
        for p in s_procs {
            executor.add_process(p);
        }
        EfdRun { executor, roles, fd }
    }

    /// Attaches an observability handle: every subsequent step, FD query and
    /// crash skip is recorded into it (builder-style, for assembly sites).
    pub fn with_metrics(mut self, obs: MetricsHandle) -> EfdRun<F> {
        self.executor.set_metrics(obs);
        self
    }

    /// The attached observability handle (disabled unless
    /// [`EfdRun::with_metrics`] was used).
    pub fn metrics(&self) -> &MetricsHandle {
        self.executor.metrics()
    }

    /// Installs a register backend (builder-style): every register operation
    /// of the run — C-process protocol registers and the S→C advice
    /// registers alike — routes through it instead of the in-process shared
    /// memory. See `wfa_kernel::backend::MemoryBackend`; the ABD emulation
    /// in `wfa-net` is the canonical implementation.
    pub fn with_backend(mut self, backend: Box<dyn wfa_kernel::backend::MemoryBackend>) -> EfdRun<F> {
        self.executor.set_backend(backend);
        self
    }

    /// Executes under `sched` for at most `budget` schedule slots.
    pub fn run(&mut self, sched: &mut dyn Scheduler, budget: u64) -> StopReason {
        let obs = self.executor.metrics().clone();
        let mut env = EfdEnv { fd: &mut self.fd, roles: self.roles, obs };
        run_schedule(&mut self.executor, sched, &mut env, budget)
    }

    /// Executes until every C-process has decided (returning the schedule
    /// slots consumed) or the budget runs out or the schedule ends (`None`).
    /// S-processes never halt, so plain [`EfdRun::run`] always exhausts its
    /// budget; use this for latency measurements.
    pub fn run_until_decided(&mut self, sched: &mut dyn Scheduler, budget: u64) -> Option<u64> {
        let decided = |run: &Self| run.executor.all_decided((0..run.roles.n_c).map(Pid));
        let (used, _) = self.run_until(sched, budget, decided);
        decided(self).then_some(used)
    }

    /// Executes in 64-slot chunks until `done` holds before a chunk, the
    /// budget runs out or the schedule ends. Returns the slots used (whole
    /// chunks) and the stop reason of the last chunk (`BudgetExhausted` if
    /// none ran).
    pub fn run_until(
        &mut self,
        sched: &mut dyn Scheduler,
        budget: u64,
        mut done: impl FnMut(&Self) -> bool,
    ) -> (u64, StopReason) {
        let mut used = 0;
        let mut stop = StopReason::BudgetExhausted;
        while used < budget && !done(self) {
            let step = 64.min(budget - used);
            stop = self.run(sched, step);
            used += step;
            if stop == StopReason::ScheduleEnded {
                break;
            }
        }
        (used, stop)
    }

    /// A fair scheduler over all processes, seeded.
    pub fn fair_sched(&self, seed: u64) -> RandomSched {
        RandomSched::over_all(&self.executor, seed)
    }

    /// The C-process output vector `O` of the run so far.
    pub fn output_vector(&self) -> Vec<Value> {
        self.roles
            .c_pids()
            .iter()
            .map(|p| self.executor.status(*p).decision().cloned().unwrap_or(Value::Unit))
            .collect()
    }

    /// C-processes that have not decided yet.
    pub fn undecided(&self) -> Vec<Pid> {
        self.roles
            .c_pids()
            .into_iter()
            .filter(|p| self.executor.status(*p).decision().is_none())
            .collect()
    }
}

/// A Δ-violation made inspectable: the task's complaint plus the offending
/// input/output vectors, as a typed error instead of a raw panic string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationError {
    /// What the task objected to.
    pub violation: TaskViolation,
    /// The input vector `I` of the offending run.
    pub input: Vec<Value>,
    /// The output vector `O` of the offending run.
    pub output: Vec<Value>,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n  I = {:?}\n  O = {:?}",
            self.violation, self.input, self.output
        )
    }
}

impl Error for ValidationError {}

/// Everything a theorem-experiment inspects about a finished run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The input vector `I` (as supplied).
    pub input: Vec<Value>,
    /// The output vector `O`.
    pub output: Vec<Value>,
    /// Δ-validation result.
    pub verdict: Result<(), TaskViolation>,
    /// C-processes without an output.
    pub undecided: Vec<Pid>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Steps taken by each C-process.
    pub c_steps: Vec<u64>,
}

impl RunReport {
    /// Builds the report for a finished run against `task`.
    pub fn evaluate<F: FdSource>(
        run: &EfdRun<F>,
        task: &dyn Task,
        input: &[Value],
        stop: StopReason,
    ) -> RunReport {
        let output = run.output_vector();
        RunReport {
            input: input.to_vec(),
            output: output.clone(),
            verdict: task.validate(input, &output),
            undecided: run.undecided(),
            stop,
            c_steps: run.roles.c_pids().iter().map(|p| run.executor.steps(*p)).collect(),
        }
    }

    /// The Δ-verdict as a typed error carrying the offending vectors.
    pub fn validate(&self) -> Result<(), ValidationError> {
        match &self.verdict {
            Ok(()) => Ok(()),
            Err(v) => Err(ValidationError {
                violation: v.clone(),
                input: self.input.clone(),
                output: self.output.clone(),
            }),
        }
    }

    /// Panics with a diagnostic if the run violated the task. Prefer
    /// [`RunReport::validate`] where the caller wants to *handle* the
    /// violation; this remains for assertion-style experiment code.
    pub fn assert_safe(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// A C-process automaton for non-participants: it halts immediately without
/// writing or deciding (its input stays `⊥`).
#[derive(Clone, Copy, Hash, Debug, Default)]
pub struct Inert;

impl wfa_kernel::process::Process for Inert {
    fn step(&mut self, _ctx: &mut wfa_kernel::process::StepCtx<'_>) -> wfa_kernel::process::Status {
        wfa_kernel::process::Status::Halted
    }

    fn label(&self) -> String {
        "inert".to_string()
    }
}

/// An assembled EFD system: the C-process automata and the S-process
/// automata, in that order.
pub type CsProcs = (Vec<Box<dyn DynProcess>>, Vec<Box<dyn DynProcess>>);

/// A factory assembling a fresh EFD system for given inputs — wait-freedom
/// ensembles re-instantiate the system for every adversary. For `⊥` input
/// entries the factory must supply a non-participating automaton
/// (e.g. [`Inert`]).
pub type SystemFactory<'a> = dyn Fn(&[Value], FdGen) -> CsProcs + 'a;

/// Configuration of a wait-freedom ensemble.
#[derive(Clone, Debug)]
pub struct EnsembleConfig {
    /// Number of C-processes (= S-processes).
    pub n: usize,
    /// Schedule-slot budget per run.
    pub budget: u64,
    /// Detector stabilization time for sampled histories.
    pub stab: u64,
    /// Number of adversarial runs.
    pub runs: u64,
}

impl EnsembleConfig {
    /// A reasonable default for small systems.
    pub fn small(n: usize) -> EnsembleConfig {
        EnsembleConfig { n, budget: 300_000, stab: 200, runs: 10 }
    }
}

/// One structured complaint from a wait-freedom ensemble — everything needed
/// to reproduce the offending run (the seed fully determines the inputs,
/// pattern, detector history, stops and schedule).
#[derive(Clone, Debug)]
pub enum EnsembleViolation {
    /// The output vector violated the task's Δ.
    Safety {
        /// The run seed (replays the whole run).
        seed: u64,
        /// The typed Δ-violation with vectors.
        error: ValidationError,
        /// Display form of the failure pattern.
        pattern: String,
        /// The adversary's stop schedule.
        stops: Vec<(Pid, u64)>,
    },
    /// A non-stopped participant never decided within the budget.
    WaitFreedom {
        /// The run seed (replays the whole run).
        seed: u64,
        /// The C-process index that starved.
        process: usize,
        /// Steps that process took before the budget ran out.
        steps: u64,
        /// The adversary's stop schedule.
        stops: Vec<(Pid, u64)>,
        /// Display form of the failure pattern.
        pattern: String,
    },
}

impl EnsembleViolation {
    /// The seed of the offending run.
    pub fn seed(&self) -> u64 {
        match self {
            EnsembleViolation::Safety { seed, .. } => *seed,
            EnsembleViolation::WaitFreedom { seed, .. } => *seed,
        }
    }
}

impl fmt::Display for EnsembleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsembleViolation::Safety { seed, error, pattern, stops } => write!(
                f,
                "safety violated (seed {seed}): {error}\n  stops: {stops:?}\n  pattern: {pattern}"
            ),
            EnsembleViolation::WaitFreedom { seed, process, steps, stops, pattern } => write!(
                f,
                "wait-freedom violated (seed {seed}): C{process} took {steps} steps, \
                 never decided\n  stops: {stops:?}\n  pattern: {pattern}"
            ),
        }
    }
}

impl Error for EnsembleViolation {}

/// The successful outcome of a wait-freedom ensemble.
#[derive(Clone, Debug, Default)]
pub struct EnsembleReport {
    /// One report per adversarial run, in seed order.
    pub runs: Vec<RunReport>,
}

/// Runs an ensemble of adversarial EFD runs and checks wait-freedom + safety.
///
/// For each seeded run: sample a failure pattern from `env_t` crashes, a
/// detector history via `mk_fd`, task inputs, and an adversary that stops a
/// random subset of C-processes at random times. Every non-stopped C-process
/// must decide within the budget; every output vector must satisfy `task`.
///
/// Returns the per-run reports on success, or *every* violation found across
/// the ensemble (the sweep does not stop at the first offender — downstream
/// shrinking wants the full set).
pub fn wait_freedom_ensemble(
    task: Arc<dyn Task>,
    cfg: &EnsembleConfig,
    max_crashes: usize,
    mk_fd: &dyn Fn(wfa_fd::pattern::FailurePattern, u64, u64) -> FdGen,
    factory: &SystemFactory<'_>,
    base_seed: u64,
) -> Result<EnsembleReport, Vec<EnsembleViolation>> {
    let n = cfg.n;
    let env = wfa_fd::environment::Environment::up_to(n, max_crashes.min(n - 1));
    let mut reports = Vec::new();
    let mut violations = Vec::new();
    for r in 0..cfg.runs {
        let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(r);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Inputs: full participation capped by the task's bound.
        let max_p = task.max_participants().min(n);
        let mut participants = vec![false; task.arity()];
        let mut idxs: Vec<usize> = (0..task.arity()).collect();
        for _ in 0..max_p {
            let pick = rng.gen_range(0..idxs.len());
            participants[idxs.swap_remove(pick)] = true;
        }
        let input = task.sample_inputs(&participants, &mut rng);
        let pattern = env.sample(seed, cfg.stab);
        let fd = mk_fd(pattern, cfg.stab, seed);
        let (c_procs, s_procs) = factory(&input, fd.clone());
        let mut run = EfdRun::new(c_procs, s_procs, fd);
        // Stop a random subset of participating C-processes at random times.
        let mut stops: Vec<(Pid, u64)> = Vec::new();
        for i in 0..n {
            if participants.get(i).copied().unwrap_or(false) && rng.gen_bool(0.4) {
                stops.push((run.roles.c(i), rng.gen_range(0..cfg.stab * 2)));
            }
        }
        let stopped: Vec<Pid> = stops.iter().map(|(p, _)| *p).collect();
        let base = run.fair_sched(seed ^ 0xdead);
        let mut sched = Starve::new(base, stops.clone());
        // Stop once the outcome is fixed: every stop time has passed and
        // every C-process that is not stopped has decided or halted. No
        // C-process steps again, so the outputs and C step counts are final
        // and the rest of the budget would be idle S-steps; the last chunk
        // reports the stop reason a full run would.
        let last_stop = stops.iter().map(|(_, t)| *t).max().unwrap_or(0);
        let (_, stop) = run.run_until(&mut sched, cfg.budget, |run| {
            run.executor.clock() >= last_stop
                && run.roles.c_pids().iter().all(|p| {
                    stopped.contains(p) || !run.executor.status(*p).is_running()
                })
        });
        let report = RunReport::evaluate(&run, task.as_ref(), &input, stop);
        if let Err(error) = report.validate() {
            violations.push(EnsembleViolation::Safety {
                seed,
                error,
                pattern: run.fd.pattern().to_string(),
                stops: stops.clone(),
            });
        }
        for (i, part) in participants.iter().enumerate().take(n) {
            let pid = run.roles.c(i);
            if *part && !stopped.contains(&pid) && report.output[i].is_unit() {
                violations.push(EnsembleViolation::WaitFreedom {
                    seed,
                    process: i,
                    steps: run.executor.steps(pid),
                    stops: stops.clone(),
                    pattern: run.fd.pattern().to_string(),
                });
            }
        }
        reports.push(report);
    }
    if violations.is_empty() {
        Ok(EnsembleReport { runs: reports })
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ksa_system;
    use wfa_fd::pattern::FailurePattern;
    use wfa_tasks::agreement::SetAgreement;

    fn ksa_factory(n: usize, k: u32) -> impl Fn(&[Value], FdGen) -> CsProcs {
        move |input: &[Value], _fd: FdGen| ksa_system(n, k as usize, input)
    }

    #[test]
    fn roles_mapping() {
        let r = Roles { n_c: 3, n_s: 3 };
        assert_eq!(r.c(0), Pid(0));
        assert_eq!(r.s(0), Pid(3));
        assert_eq!(r.sidx(Pid(4)), Some(1));
        assert_eq!(r.sidx(Pid(2)), None);
    }

    #[test]
    fn simple_efd_run_completes() {
        let n = 3;
        let k = 2u32;
        let input: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k as usize, 100, 5);
        let (c, s) = ksa_factory(n, k)(&input, fd.clone());
        let mut run = EfdRun::new(c, s, fd);
        let mut sched = run.fair_sched(1);
        let stop = run.run(&mut sched, 200_000);
        let task = SetAgreement::new(n, k as usize);
        let report = RunReport::evaluate(&run, &task, &input, stop);
        report.assert_safe();
        assert!(report.undecided.is_empty(), "{report:?}");
        assert!(report.c_steps.iter().all(|s| *s > 0));
    }

    #[test]
    fn run_until_decided_reports_slots() {
        let n = 3;
        let k = 2u32;
        let input: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k as usize, 50, 2);
        let (c, s) = ksa_factory(n, k)(&input, fd.clone());
        let mut run = EfdRun::new(c, s, fd);
        let mut sched = run.fair_sched(3);
        let slots = run.run_until_decided(&mut sched, 300_000).expect("all decide");
        assert!(slots > 0 && slots < 300_000);
        assert!(run.undecided().is_empty());
        // Idempotent once decided.
        let mut sched2 = run.fair_sched(4);
        assert_eq!(run.run_until_decided(&mut sched2, 1000), Some(0));
    }

    #[test]
    fn ensemble_passes_for_k_set_agreement() {
        let n = 3;
        let k = 2u32;
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, k as usize));
        let cfg = EnsembleConfig { n, budget: 300_000, stab: 150, runs: 6 };
        let report = wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k as usize, stab, seed),
            &ksa_factory(n, k),
            42,
        )
        .expect("k-set agreement under →Ωk is wait-free");
        assert_eq!(report.runs.len(), 6);
    }

    #[test]
    fn ensemble_detects_non_wait_free_algorithms() {
        // An algorithm whose C-processes wait for *all* inputs before
        // deciding is not wait-free; the ensemble must catch it.
        use wfa_algorithms::boards;
        use wfa_kernel::process::{Process, Status, StepCtx};

        #[derive(Clone, Hash)]
        struct WaitForAll {
            me: usize,
            n: usize,
            input: Value,
            // Idle steps before publishing: long enough that every stop the
            // adversary draws (t < 2·stab) lands *before* publication, so a
            // stopped process reliably starves the waiters.
            warmup: u32,
            published: bool,
            cursor: usize,
            seen: u32,
        }

        impl Process for WaitForAll {
            fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
                if self.warmup > 0 {
                    self.warmup -= 1;
                    return Status::Running;
                }
                if !self.published {
                    ctx.write(boards::input_key(self.me), self.input.clone());
                    self.published = true;
                    return Status::Running;
                }
                let v = ctx.read(boards::input_key(self.cursor));
                if !v.is_unit() {
                    self.seen += 1;
                    self.cursor += 1;
                    if self.seen == self.n as u32 {
                        // Decide our own (proposed) value: safety stays
                        // clean, so the only possible complaint is the
                        // wait-freedom one this fixture exists to trigger.
                        return Status::Decided(self.input.clone());
                    }
                } // busy-wait on the next slot otherwise
                Status::Running
            }
        }

        #[derive(Clone, Hash)]
        struct IdleS;
        impl Process for IdleS {
            fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
                let _ = ctx.read(boards::input_key(0));
                Status::Running
            }
        }

        let n = 3;
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, n)); // weakest agreement: safety always ok
        let cfg = EnsembleConfig { n, budget: 50_000, stab: 50, runs: 10 };
        let factory = move |input: &[Value], _fd: FdGen| {
            let c: Vec<Box<dyn DynProcess>> = (0..n)
                .map(|i| {
                    let v = if input[i].is_unit() { Value::Int(0) } else { input[i].clone() };
                    Box::new(WaitForAll {
                        me: i,
                        n,
                        input: v,
                        warmup: 150,
                        published: false,
                        cursor: 0,
                        seen: 0,
                    }) as Box<dyn DynProcess>
                })
                .collect();
            let s: Vec<Box<dyn DynProcess>> =
                (0..n).map(|_| Box::new(IdleS) as Box<dyn DynProcess>).collect();
            (c, s)
        };
        let violations = wait_freedom_ensemble(
            task,
            &cfg,
            0,
            &|p, stab, seed| FdGen::vector_omega_k(p, 1, stab, seed),
            &factory,
            7,
        )
        .expect_err("wait-for-all must starve under the Starve adversary");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, EnsembleViolation::WaitFreedom { .. })),
            "expected a wait-freedom violation, got: {violations:?}"
        );
        // Each violation names a replayable seed with the run's adversary.
        for v in &violations {
            assert!(v.to_string().contains(&format!("seed {}", v.seed())));
        }
    }
}
