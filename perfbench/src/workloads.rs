//! The four closed-loop workloads. A job is one seed's bundle of runs; it
//! builds its systems, runs them, checks every output and returns a digest
//! of its deterministic results.
//!
//! A job runs in one of four [`Mode`]s. `Disabled` is the end-to-end mode:
//! no decorators and `MetricsHandle::disabled()`. `Traced` wraps the seams
//! (see [`crate::seams`]) and records counters. `Counters` and `Events` run
//! unwrapped with an enabled handle, to price observability itself.

use wfa::algorithms::renaming::RenamingFig4;
use wfa::algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa::core::harness::{CsProcs, EfdRun};
use wfa::core::solver::{theorem9_system, AdoptingTaskBuilder, RenamingBuilder};
use wfa::faults::chaos::{replay_soak, shrink_soak, soak, Intensity, SoakBackend, SoakConfig};
use wfa::faults::run::replay;
use wfa::faults::shrink::shrink;
use wfa::faults::sweep::{sweep, SweepConfig};
use wfa::fd::detectors::{FdGen, FdSource};
use wfa::fd::environment::Environment;
use wfa::gossip::backend::GossipBackend;
use wfa::gossip::config::GossipConfig;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::RegKey;
use wfa::kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa::kernel::sched::{run_schedule, KConcurrent, NullEnv};
use wfa::kernel::value::{Pid, Value};
use wfa::modelcheck::explorer::{ExploreReport, Explorer, Limits};
use wfa::modelcheck::lemma11::{solo_collision, BoxedAuto, ConsensusViaRenaming};
use wfa::net::abd::AbdBackend;
use wfa::net::config::NetConfig;
use wfa::objects::adopt_commit::AdoptCommit;
use wfa::objects::driver::{Driver, Step};
use wfa::obs::metrics::{MetricsHandle, Snapshot};
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

use crate::seams::{timed, Span, TimedBackend, TimedFd, TimedProc};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// EFD k-set agreement and Figure-4 renaming over ABD and gossip.
    KsaSubstrates,
    /// Theorem-9 / Figure-2 runs plus direct ksa and renaming, on shm.
    Figure2Shm,
    /// Pruned fault sweeps with shrink and replay, plus storm soaks.
    FaultSearch,
    /// Three model-checking instances with known results.
    Explore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KsaSubstrates,
        Workload::Figure2Shm,
        Workload::FaultSearch,
        Workload::Explore,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KsaSubstrates => "ksa_substrates",
            Workload::Figure2Shm => "figure2_shm",
            Workload::FaultSearch => "fault_search",
            Workload::Explore => "explore",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload's runs accept a metrics handle, so that the
    /// price of observability can be measured on it.
    pub fn takes_metrics(self) -> bool {
        self != Workload::FaultSearch
    }
}

/// How a job is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// No decorators, `MetricsHandle::disabled()` (end-to-end numbers).
    Disabled,
    /// No decorators, `MetricsHandle::counters()`.
    Counters,
    /// No decorators, `MetricsHandle::with_events(4096)`.
    Events,
    /// Seam decorators and `MetricsHandle::counters()`.
    Traced,
}

impl Mode {
    fn traced(self) -> bool {
        self == Mode::Traced
    }

    /// A fresh handle for one run.
    fn handle(self) -> MetricsHandle {
        match self {
            Mode::Disabled => MetricsHandle::disabled(),
            Mode::Counters | Mode::Traced => MetricsHandle::counters(),
            Mode::Events => MetricsHandle::with_events(4096),
        }
    }

    /// Times `f` into `span` when traced; otherwise just runs it.
    fn span<T>(self, span: Span, f: impl FnOnce() -> T) -> T {
        if self.traced() {
            timed(span, f)
        } else {
            f()
        }
    }

    fn procs(self, procs: Vec<Box<dyn DynProcess>>, span: Span) -> Vec<Box<dyn DynProcess>> {
        procs.into_iter().map(|p| self.proc(p, span)).collect()
    }

    fn proc(self, p: Box<dyn DynProcess>, span: Span) -> Box<dyn DynProcess> {
        if self.traced() {
            TimedProc::boxed(p, span)
        } else {
            p
        }
    }
}

/// Deterministic counts a job leaves for the per-layer metrics. Only the
/// traced pass reads them.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Schedule slots driven by kernel drivers.
    pub slots: u64,
    /// Counters of runs over the ABD backend.
    pub abd: Snapshot,
    /// Counters of runs over the gossip backend.
    pub gossip: Snapshot,
    /// Counters of runs over shared memory.
    pub shm: Snapshot,
    /// Merged `SweepReport::metrics`.
    pub sweep: Snapshot,
    /// Plans enumerated by sweeps.
    pub plans: u64,
    /// Plans skipped by pruning, dedup or budget.
    pub plans_pruned: u64,
    /// Schedule steps of violations before / after shrinking.
    pub shrink_before: u64,
    /// See `shrink_before`.
    pub shrink_after: u64,
    /// Backend ticks covered by soaks.
    pub soak_ticks: u64,
    /// Explorer states.
    pub states: u64,
    /// Counters of explorer runs.
    pub explore: Snapshot,
}

/// What a job returns when every check passed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Deterministic outputs, identical in every mode.
    pub outputs: String,
    /// Deterministic counters, recorded only when a handle is enabled.
    pub counters: String,
}

/// Per-job context: the mode, the digest under construction and the counts.
struct Job<'a> {
    mode: Mode,
    digest: Digest,
    counts: &'a mut Counts,
}

impl Job<'_> {
    fn note(&mut self, s: String) {
        self.digest.outputs.push_str(&s);
        self.digest.outputs.push('\n');
    }

    /// Records a finished run's handle into `sink` and the digest.
    fn counters(&mut self, obs: &MetricsHandle, sink: Sink) {
        if let Some(snap) = obs.snapshot() {
            self.digest.counters.push_str(&snap.to_json().to_string());
            self.digest.counters.push('\n');
            sink(self.counts).merge(&snap);
        }
    }
}

/// A SplitMix64 step: the job seed of job `index` of a run seeded `seed`.
pub fn job_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs job `index` of `workload` with job seed `seed`. Returns the digest,
/// or a description of the first failed check.
pub fn run_job(
    workload: Workload,
    seed: u64,
    index: u64,
    mode: Mode,
    counts: &mut Counts,
) -> Result<Digest, String> {
    let mut job = Job {
        mode,
        digest: Digest::default(),
        counts,
    };
    match workload {
        Workload::KsaSubstrates => ksa_substrates(&mut job, seed)?,
        Workload::Figure2Shm => figure2_shm(&mut job, seed)?,
        Workload::FaultSearch => fault_search(&mut job, seed, index)?,
        Workload::Explore => explore(&mut job, seed)?,
    }
    Ok(job.digest)
}

/// Register substrate of one run.
#[derive(Clone, Copy, Debug)]
enum Substrate {
    Shm,
    Abd(usize),
    Gossip(usize),
}

/// Where a run's counter snapshot is merged.
type Sink = fn(&mut Counts) -> &mut Snapshot;

impl Substrate {
    /// The backend (decorated when traced) and the counts it feeds.
    fn build(self, seed: u64, mode: Mode) -> (Option<Box<dyn MemoryBackend>>, Sink) {
        // The CLI's seed derivation, so runs match `wfa-cli --backend`.
        let (b, span, sink): (Box<dyn MemoryBackend>, Span, Sink) = match self {
            Substrate::Shm => return (None, |c| &mut c.shm),
            Substrate::Abd(nodes) => (
                Box::new(AbdBackend::new(NetConfig::new(nodes, seed ^ 0x7e7))),
                Span::Abd,
                |c| &mut c.abd,
            ),
            Substrate::Gossip(nodes) => (
                Box::new(GossipBackend::new(GossipConfig::new(nodes, seed ^ 0x7e7))),
                Span::Gossip,
                |c| &mut c.gossip,
            ),
        };
        let b = if mode.traced() {
            Box::new(TimedBackend::new(b, span))
        } else {
            b
        };
        (Some(b), sink)
    }
}

/// One EFD run under →Ω2 with at most one S-crash.
struct Efd<'a> {
    label: String,
    procs: CsProcs,
    substrate: Substrate,
    /// Detector stabilisation time.
    stab: u64,
    /// Schedule-slot budget.
    budget: u64,
    task: &'a dyn Task,
    inputs: &'a [Value],
    /// The span the automata's steps are charged to.
    span: Span,
}

/// Runs `spec` with job seed `seed` (the detector decorated when traced).
fn efd(job: &mut Job<'_>, seed: u64, spec: Efd<'_>) -> Result<(), String> {
    let pattern = Environment::up_to(spec.inputs.len(), 1).sample(seed, spec.stab);
    let fd = FdGen::vector_omega_k(pattern, 2, spec.stab, seed);
    if job.mode.traced() {
        drive(job, seed, spec, TimedFd(fd))
    } else {
        drive(job, seed, spec, fd)
    }
}

/// Drives an EFD run until every participating C-process has decided,
/// validates the outputs and notes slots, outputs and the run fingerprint.
fn drive<F: FdSource>(job: &mut Job<'_>, seed: u64, spec: Efd<'_>, fd: F) -> Result<(), String> {
    let (mode, label, inputs) = (job.mode, &spec.label, spec.inputs);
    let obs = mode.handle();
    let (c, s) = spec.procs;
    let mut run = EfdRun::new(mode.procs(c, spec.span), mode.procs(s, spec.span), fd)
        .with_metrics(obs.clone());
    let (backend, sink) = spec.substrate.build(seed, mode);
    if let Some(b) = backend {
        run = run.with_backend(b);
    }
    let participants: Vec<Pid> = (0..inputs.len())
        .filter(|i| !inputs[*i].is_unit())
        .map(Pid)
        .collect();
    let mut sched = run.fair_sched(seed ^ 0xc11);
    // `EfdRun::run_until_decided`, but waiting only for participants.
    let (decided, slots) = mode.span(Span::KernelRun, || {
        let mut used = 0;
        while used < spec.budget {
            if run.executor.all_decided(participants.iter().copied()) {
                return (true, used);
            }
            let step = 64.min(spec.budget - used);
            run.run(&mut sched, step);
            used += step;
        }
        (run.executor.all_decided(participants.iter().copied()), used)
    });
    if !decided {
        return Err(format!("{label}: undecided after {slots} slots"));
    }
    let output = run.output_vector();
    mode.span(Span::Validate, || spec.task.validate(inputs, &output))
        .map_err(|v| format!("{label}: {v}"))?;
    job.counts.slots += slots;
    job.note(format!(
        "{label} slots={slots} out={output:?} fp={:x}",
        run.executor.fingerprint()
    ));
    job.counters(&obs, sink);
    Ok(())
}

/// EFD k-set agreement (`SetAgreementC`/`SetAgreementS`), k = 2, inputs
/// `0..n`, detector stabilising at `stab`.
fn ksa(
    job: &mut Job<'_>,
    seed: u64,
    n: usize,
    stab: u64,
    substrate: Substrate,
) -> Result<(), String> {
    let k = 2u32;
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let c = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| Box::new(SetAgreementC::new(i, k, v.clone())) as Box<dyn DynProcess>)
        .collect();
    let s = (0..n)
        .map(|q| Box::new(SetAgreementS::new(q as u32, n as u32, n, k)) as Box<dyn DynProcess>)
        .collect();
    let task = SetAgreement::new(n, k as usize);
    let spec = Efd {
        label: format!("ksa n={n} {substrate:?}"),
        procs: (c, s),
        substrate,
        stab,
        budget: 5_000_000,
        task: &task,
        inputs: &inputs,
        span: Span::AlgStep,
    };
    efd(job, seed, spec)
}

/// Figure-4 renaming, j = 4 participants of m = 5, under a seeded
/// 2-concurrent schedule: names must lie in 1..=j+k-1.
fn fig4(job: &mut Job<'_>, seed: u64, substrate: Substrate) -> Result<(), String> {
    let (j, k) = (4usize, 2usize);
    let m = j + 1;
    let mode = job.mode;
    let obs = mode.handle();
    let mut ex = Executor::new();
    ex.set_metrics(obs.clone());
    let (backend, sink) = substrate.build(seed, mode);
    if let Some(b) = backend {
        ex.set_backend(b);
    }
    let pids: Vec<Pid> = (0..j)
        .map(|i| ex.add_process(mode.proc(Box::new(RenamingFig4::new(i, m)), Span::AlgStep)))
        .collect();
    let mut sched = KConcurrent::with_seed(pids.clone(), [], k, seed);
    mode.span(Span::KernelRun, || {
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000)
    });
    let label = format!("fig4 {substrate:?}");
    if !ex.all_decided(pids.iter().copied()) {
        return Err(format!("{label}: undecided after {} slots", ex.clock()));
    }
    let inputs: Vec<Value> = (0..m)
        .map(|i| {
            if i < j {
                Value::Int(1000 + i as i64)
            } else {
                Value::Unit
            }
        })
        .collect();
    let mut output = ex.output_vector();
    output.resize(m, Value::Unit); // the idle slot has no process
    let task = Renaming::new(m, j, j + k - 1);
    mode.span(Span::Validate, || task.validate(&inputs, &output))
        .map_err(|v| format!("{label}: {v}"))?;
    job.counts.slots += ex.clock();
    job.note(format!(
        "{label} slots={} out={output:?} fp={:x}",
        ex.clock(),
        ex.fingerprint()
    ));
    job.counters(&obs, sink);
    Ok(())
}

fn ksa_substrates(job: &mut Job<'_>, seed: u64) -> Result<(), String> {
    ksa(job, seed, 8, 50, Substrate::Abd(8))?;
    ksa(job, seed, 4, 50, Substrate::Gossip(4))?;
    fig4(job, seed, Substrate::Abd(8))?;
    fig4(job, seed, Substrate::Gossip(4))
}

/// A Theorem-9 system (Figure-2 simulators) on shared memory.
fn theorem9(
    job: &mut Job<'_>,
    seed: u64,
    label: &str,
    procs: CsProcs,
    task: &dyn Task,
    inputs: &[Value],
) -> Result<(), String> {
    let spec = Efd {
        label: label.to_string(),
        procs,
        substrate: Substrate::Shm,
        stab: 100,
        budget: 10_000_000,
        task,
        inputs,
        span: Span::SimStep,
    };
    efd(job, seed, spec)
}

fn figure2_shm(job: &mut Job<'_>, seed: u64) -> Result<(), String> {
    let (n, k) = (3usize, 2usize);
    // k-set agreement through the universal adopting code.
    let task = SetAgreement::new(n, k);
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let procs = theorem9_system(
        n,
        k,
        &inputs,
        AdoptingTaskBuilder::new(std::sync::Arc::new(task.clone())),
    );
    theorem9(job, seed, "theorem9 ksa n=3 k=2", procs, &task, &inputs)?;
    // (2,3)-renaming through Figure-4 codes; the seed picks the idle slot.
    let task = Renaming::new(n, 2, 3);
    let idle = (seed % n as u64) as usize;
    let inputs: Vec<Value> = (0..n)
        .map(|i| {
            if i == idle {
                Value::Unit
            } else {
                Value::Int(1000 + i as i64)
            }
        })
        .collect();
    let procs = theorem9_system(n, k, &inputs, RenamingBuilder { m: n });
    theorem9(job, seed, "theorem9 (2,3)-renaming", procs, &task, &inputs)?;
    ksa(job, seed, 8, 50, Substrate::Shm)?;
    fig4(job, seed, Substrate::Shm)
}

/// The swept scenarios, one per job in rotation. `ksa-net-corrupt` is left
/// out: its depth-2 sweep raises about 165 quorum-lost violations whose
/// shrinks take up to 1.5 s each, so its jobs would run 40x longer than the
/// others and no run of tens of seconds would be steady.
const SWEEP_SCENARIOS: [&str; 3] = ["ksa-net", "ksa-net-reorder", "ksa-net-shard"];

fn fault_search(job: &mut Job<'_>, seed: u64, index: u64) -> Result<(), String> {
    let mode = job.mode;
    let scenario = SWEEP_SCENARIOS[(index % SWEEP_SCENARIOS.len() as u64) as usize];
    let cfg = SweepConfig {
        scenario: scenario.to_string(),
        depth: 2,
        seeds_per_plan: 1,
        base_seed: seed,
        shrink: false,
        threads: Some(1),
        prune: true,
        plan_budget: 0,
    };
    let report = mode.span(Span::SweepRun, || sweep(&cfg));
    job.note(report.to_json().to_string());
    job.counts.plans += report.plans as u64;
    job.counts.plans_pruned += report.plans_pruned as u64;
    job.counts.sweep.merge(&report.metrics);
    for mut v in report.violations {
        let before = v.schedule.len() as u64;
        mode.span(Span::Shrink, || shrink(&mut v));
        let verdict = mode
            .span(Span::Replay, || replay(&v))
            .map_err(|e| format!("{scenario}: replay failed: {e}"))?;
        if !verdict.reproduced {
            return Err(format!(
                "{scenario}: shrunk violation does not replay: {}",
                verdict.detail
            ));
        }
        job.counts.shrink_before += before;
        job.counts.shrink_after += v.schedule.len() as u64;
        job.note(v.to_json().to_string());
    }
    for backend in [SoakBackend::Net, SoakBackend::Gossip] {
        let r = soak_run(mode, backend, seed, false);
        if let Some(v) = &r.violation {
            return Err(format!(
                "{} storm soak seed {seed}: {} at op {}",
                backend.name(),
                v.kind,
                v.op
            ));
        }
        job.counts.soak_ticks += r.final_tick;
        job.note(r.to_json().to_string());
    }
    if index % 4 == 3 {
        let backend = if index % 8 == 3 {
            SoakBackend::Net
        } else {
            SoakBackend::Gossip
        };
        let r = soak_run(mode, backend, seed, true);
        job.counts.soak_ticks += r.final_tick;
        let Some(v) = &r.violation else {
            return Err(format!(
                "{} soak seed {seed}: injected bug not caught",
                backend.name()
            ));
        };
        let (small, _) = mode.span(Span::SoakShrink, || shrink_soak(&r));
        if small.violation.as_ref().map(|s| &s.kind) != Some(&v.kind) {
            return Err(format!(
                "{} soak seed {seed}: shrinking lost the violation",
                backend.name()
            ));
        }
        let artifact = small.to_json();
        let (_, diff) = mode
            .span(Span::SoakReplay, || replay_soak(&artifact))
            .map_err(|e| format!("soak artifact does not parse: {e}"))?;
        if !diff.is_empty() {
            return Err(format!(
                "{} soak seed {seed}: replay differs: {diff:?}",
                backend.name()
            ));
        }
        job.note(artifact.to_string());
    }
    Ok(())
}

/// A 10k-tick storm soak over `backend`.
fn soak_run(
    mode: Mode,
    backend: SoakBackend,
    seed: u64,
    inject_bug: bool,
) -> wfa::faults::chaos::SoakReport {
    let mut cfg = SoakConfig::new(backend);
    cfg.ticks = 10_000;
    cfg.seed = seed;
    cfg.intensity = Intensity::Storm;
    cfg.inject_bug = inject_bug;
    let span = if backend == SoakBackend::Net {
        Span::SoakNet
    } else {
        Span::SoakGossip
    };
    mode.span(span, || soak(&cfg))
}

/// Adopt-commit wrapped as a deciding process.
#[derive(Clone, Hash)]
struct AcProc(AdoptCommit);

impl Process for AcProc {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match self.0.poll(ctx) {
            Step::Pending => Status::Running,
            Step::Done(out) => Status::Decided(Value::tuple([
                Value::Bool(out.is_commit()),
                out.value().clone(),
            ])),
        }
    }
}

/// Safety of adopt-commit: if anyone commits v, every outcome carries v.
fn adopt_commit_check(ex: &Executor) -> Option<String> {
    let outs: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
    let committed = outs
        .iter()
        .find(|o| o.get(0).and_then(Value::as_bool) == Some(true))?;
    let cv = committed.get(1)?;
    outs.iter()
        .find(|o| o.get(1) != Some(cv))
        .map(|o| format!("commit {cv} vs outcome {o}"))
}

/// Increments a shared counter `left` times, then decides its final read.
#[derive(Clone, Hash)]
struct RacyCounter {
    left: u32,
    val: i64,
    reading: bool,
}

impl Process for RacyCounter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let k = RegKey::new(1);
        if self.reading {
            self.val = ctx.read(k).as_int().unwrap_or(0);
            self.reading = false;
            if self.left == 0 {
                return Status::Decided(Value::Int(self.val));
            }
        } else {
            ctx.write(k, Value::Int(self.val + 1));
            self.left -= 1;
            self.reading = true;
        }
        Status::Running
    }
}

/// Runs one exploration on one worker, checking its state count and verdict.
fn explore_one(
    job: &mut Job<'_>,
    label: &str,
    ex: &Executor,
    check: &(dyn Fn(&Executor) -> Option<String> + Sync),
    expect_states: u64,
    expect_violation: bool,
) -> Result<(), String> {
    let mode = job.mode;
    let obs = mode.handle();
    let timed_check = |e: &Executor| timed(Span::ExploreCheck, || check(e));
    let check: &(dyn Fn(&Executor) -> Option<String> + Sync) =
        if mode.traced() { &timed_check } else { check };
    let report: ExploreReport = mode.span(Span::Explore, || {
        Explorer::new(ex.pids().collect(), check, Limits::default())
            .threads(1)
            .with_metrics(obs.clone())
            .run(ex)
    });
    let verdict_ok = if expect_violation {
        report.violation.is_some() && !report.truncated
    } else {
        report.fully_verified()
    };
    if report.states != expect_states || !verdict_ok {
        return Err(format!(
            "{label}: {} states (expected {expect_states}): {report:?}",
            report.states
        ));
    }
    job.counts.states += report.states;
    job.note(format!("{label}: {report:?}"));
    job.counters(&obs, |c| &mut c.explore);
    Ok(())
}

fn explore(job: &mut Job<'_>, seed: u64) -> Result<(), String> {
    let mode = job.mode;
    // Lemma 11: a Figure-4 candidate for strong 2-renaming yields 2-process
    // consensus, which the explorer refutes.
    let cand = |i: usize| mode.proc(Box::new(RenamingFig4::new(i, 4)), Span::AlgStep);
    let (a, b) = mode
        .span(Span::Explore, || solo_collision(&cand, &[0, 1, 2]))
        .ok_or("lemma11: no solo collision")?;
    let mut ex = Executor::new();
    let pa = ex.add_process(Box::new(ConsensusViaRenaming::new(
        a,
        b,
        Value::Int(0),
        BoxedAuto(cand(a)),
    )));
    let pb = ex.add_process(Box::new(ConsensusViaRenaming::new(
        b,
        a,
        Value::Int(1),
        BoxedAuto(cand(b)),
    )));
    let consensus = move |ex: &Executor| -> Option<String> {
        let (x, y) = (ex.status(pa).decision(), ex.status(pb).decision());
        if let (Some(x), Some(y)) = (x, y) {
            if x != y {
                return Some(format!("disagreement: {x} vs {y}"));
            }
        }
        [x, y]
            .into_iter()
            .flatten()
            .find(|v| **v != Value::Int(0) && **v != Value::Int(1))
            .map(|v| format!("invalid decision {v}"))
    };
    explore_one(job, "lemma11 fig4", &ex, &consensus, 81, true)?;

    // Adopt-commit, 3 parties, seed-chosen distinct inputs.
    let base = (seed % 1000) as i64 * 3;
    let mut ex = Executor::new();
    for p in 0..3u32 {
        let ac = AdoptCommit::new(1, 0, 3, p, Value::Int(base + p as i64));
        ex.add_process(mode.proc(Box::new(AcProc(ac)), Span::AlgStep));
    }
    explore_one(job, "adopt-commit 3", &ex, &adopt_commit_check, 7337, false)?;

    // Three racy counters, three increments each, seed-chosen start values.
    let mut ex = Executor::new();
    for p in 0..3u64 {
        let val = ((seed >> (8 * p)) % 100) as i64;
        ex.add_process(mode.proc(
            Box::new(RacyCounter {
                left: 3,
                val,
                reading: true,
            }),
            Span::AlgStep,
        ));
    }
    explore_one(job, "three racy counters", &ex, &|_| None, 66330, false)
}

/// The fixed-seed `wfa-cli ksa` run (n = 4, k = 2, stab 200, seed 7) whose
/// counters the integration suites pin, over `substrate` with 4 replicas.
#[cfg(test)]
pub fn pinned_ksa(gossip: bool, mode: Mode, counts: &mut Counts) -> Result<Digest, String> {
    let substrate = if gossip {
        Substrate::Gossip(4)
    } else {
        Substrate::Abd(4)
    };
    let mut job = Job {
        mode,
        digest: Digest::default(),
        counts,
    };
    ksa(&mut job, 7, 4, 200, substrate)?;
    Ok(job.digest)
}
