//! `wfa-cli` — run the *Wait-Freedom with Advice* experiments from the
//! command line.
//!
//! ```text
//! wfa-cli ksa       --n 4 --k 2 --stab 200 --seed 7   EFD k-set agreement, one run
//! wfa-cli rename    --j 3 --seeds 60                  renaming namespace sweep
//! wfa-cli hierarchy --n 4 --runs 400                  Theorem-10 classification table
//! wfa-cli refute                                      Lemma-11 refutation pipeline
//! wfa-cli extract   --slots 600000 --stab 300         Figure-1 ¬Ω1 extraction
//! wfa-cli faults sweep --scenario ksa --depth 2       adversarial fault sweep
//! wfa-cli faults replay violation.json                re-execute a violation artifact
//! wfa-cli obs summary --source figure2                deterministic metrics snapshot
//! wfa-cli obs export --format chrome --out t.json     chrome://tracing export
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set at the workspace baseline.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::process::ExitCode;
use std::sync::Arc;

use wfa::algorithms::one_concurrent::OneConcurrentSolver;
use wfa::algorithms::renaming::{rename_run, RenamingFig4};
use wfa::core::classify::{concurrency_profile, ProbeOutcome};
use wfa::core::harness::{EfdRun, RunReport};
use wfa::core::reduction::{emulated_key, AsimBuilders, ReductionS};
use wfa::core::solver::ksa_run;
use wfa::fd::detectors::{FdGen, HistoryEntry};
use wfa::fd::pattern::FailurePattern;
use wfa::fd::spec::check_anti_omega_k;
use wfa::kernel::executor::Executor;
use wfa::kernel::process::DynProcess;
use wfa::kernel::sched::{run_schedule, NullEnv, RandomSched, Replay, Scheduler};
use wfa::kernel::value::{Pid, Value};
use wfa::modelcheck::explorer::Limits;
use wfa::modelcheck::lemma11::{lemma11, refute_strong_2_renaming};
use wfa::obs::json::Json;
use wfa::obs::metrics::{MetricsHandle, Snapshot};
use wfa::obs::span::timeline;
use wfa::faults::backend::BackendSpec;
use wfa::faults::chaos::Recovery;
use wfa::gossip::config::GossipConfig;
use wfa::net::config::NetConfig;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

/// Writes to stdout like `print!`, except that a reader closing the pipe
/// early (`wfa-cli faults list | head -1`) is not an error: the rest of the
/// output is dropped and the command ends with its own exit status instead
/// of panicking.
fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}

/// `println!` through [`write_out`].
macro_rules! outln {
    () => { write_out(format_args!("\n")) };
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The register substrate named by `--backend`: the in-process shared
/// memory (`shm`, the default), the ABD emulation over `--net-nodes`
/// replicas (`net`) — split into `--shards` independent replica groups
/// (default 1) — or the delta-CRDT
/// anti-entropy substrate over `--net-nodes` replicas (`gossip`), with an
/// exchange round every `--gossip-interval` ops (default 1) and the
/// non-monotone guard disarmed by `--gossip-unsafe`. `--net-nodes`
/// defaults to `nodes`. The spec is built from the run seed, so `--seed`
/// fully determines the network too.
fn backend_spec(backend: &str, args: &Args, nodes: usize) -> Result<BackendSpec, String> {
    let nodes: usize = args.get("net-nodes", nodes)?;
    let shards: usize = args.get("shards", 1)?;
    let gossip_interval: u64 = args.get("gossip-interval", 1)?;
    let gossip_unsafe: bool = args.get("gossip-unsafe", false)?;
    match backend {
        "shm" => Ok(BackendSpec::Shm),
        "net" => Ok(BackendSpec::Net { cfg: NetConfig::new(nodes, 0), shards }),
        "gossip" => Ok(BackendSpec::Gossip(GossipConfig {
            allow_nonmonotone: gossip_unsafe,
            ..GossipConfig::new(nodes, 0).with_interval(gossip_interval)
        })),
        other => Err(format!("unknown backend `{other}` (try: shm, net, gossip)")),
    }
}

/// Parsed `--key value` arguments with typed accessors. Each accessor
/// marks its key as read, and [`Args::reject_unread`] refuses every flag
/// none asked for, so a misspelt or retired flag is an error rather than a
/// silently applied default.
struct Args {
    map: HashMap<String, String>,
    read: RefCell<HashSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --key, got `{k}`"));
            };
            // A key followed by another `--key` (or by nothing) is a bare
            // boolean flag, e.g. `--json`.
            let v = match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    it.next().expect("peeked value exists").clone()
                }
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), v);
        }
        Ok(Args { map, read: RefCell::default() })
    }

    /// The raw value of `--key`, if given.
    fn value(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.map.get(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: `{v}`")),
        }
    }

    /// Fails, naming them, if any flags were given that no accessor has
    /// read. Commands call it after reading every flag and before working.
    fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let mut unread: Vec<&str> =
            self.map.keys().filter(|k| !read.contains(*k)).map(String::as_str).collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort_unstable();
        Err(format!("unknown flag(s) for this command: --{}", unread.join(", --")))
    }
}

fn cmd_ksa(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 4)?;
    let k: usize = args.get("k", 2)?;
    let stab: u64 = args.get("stab", 200)?;
    let seed: u64 = args.get("seed", 7)?;
    let crashes: usize = args.get("crashes", 1)?;
    let as_json: bool = args.get("json", false)?;
    let backend = args.get("backend", "shm".to_string())?;
    let spec = backend_spec(&backend, args, n)?;
    args.reject_unread()?;
    if k == 0 || k > n {
        return Err("need 1 ≤ k ≤ n".into());
    }
    let (run, mut sched) = ksa_run(n, k, stab, crashes, seed);
    if !as_json {
        outln!("pattern  : {}", run.fd.pattern());
        outln!("detector : {} (stab {stab})", run.fd.name());
    }
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let obs = MetricsHandle::counters();
    let mut run = run.with_metrics(obs.clone()).with_backend(spec.build(seed, &[]));
    let slots = run.run_until_decided(&mut sched, 5_000_000);
    let task = SetAgreement::new(n, k);
    let report = RunReport::evaluate(
        &run,
        &task,
        &inputs,
        wfa::kernel::sched::StopReason::ScheduleEnded,
    );
    if as_json {
        let obj = Json::Obj(vec![
            ("command".into(), Json::Str("ksa".into())),
            ("backend".into(), Json::Str(backend.clone())),
            ("n".into(), Json::Num(n as u64)),
            ("k".into(), Json::Num(k as u64)),
            ("seed".into(), Json::Num(seed)),
            ("decided".into(), Json::Bool(slots.is_some())),
            ("slots".into(), Json::Num(slots.unwrap_or(0))),
            (
                "outputs".into(),
                Json::Arr(report.output.iter().map(|v| Json::Str(v.to_string())).collect()),
            ),
            (
                "verdict".into(),
                Json::Str(match &report.verdict {
                    Ok(()) => "ok".into(),
                    Err(e) => e.to_string(),
                }),
            ),
            ("degradations".into(), Json::Num(run.executor.degradations().len() as u64)),
            (
                // The closing half of the degradation lifecycle: one row
                // per resolved spell, with the ticks that bound it (MTTR =
                // resolve - degrade). Absent in legacy consumers' inputs —
                // parsers must treat a missing array as empty.
                "recoveries".into(),
                Json::Arr(
                    run.executor
                        .resolutions()
                        .iter()
                        .map(|r| Recovery::from(r).to_json())
                        .collect(),
                ),
            ),
            ("metrics".into(), obs.snapshot().expect("metrics enabled").to_json()),
        ]);
        outln!("{obj}");
    } else {
        for (i, (inp, out)) in report.input.iter().zip(&report.output).enumerate() {
            outln!("C{i}: input={inp} output={out} ({} own steps)", report.c_steps[i]);
        }
        for d in run.executor.degradations() {
            outln!("degraded : {d}");
        }
        for r in run.executor.resolutions() {
            outln!("resolved : {r}");
        }
    }
    match (&report.verdict, slots) {
        (Ok(()), Some(slots)) => {
            if !as_json {
                outln!("ok: all decided in {slots} slots, Δ satisfied");
            }
            Ok(())
        }
        (Err(e), _) => Err(format!("task violated: {e}")),
        (Ok(()), None) => Err("budget exhausted before all decisions".into()),
    }
}

fn cmd_rename(args: &Args) -> Result<(), String> {
    let j: usize = args.get("j", 3)?;
    let seeds: u64 = args.get("seeds", 60)?;
    let as_json: bool = args.get("json", false)?;
    let backend = args.get("backend", "shm".to_string())?;
    let spec = backend_spec(&backend, args, j)?;
    args.reject_unread()?;
    let m = j + 1;
    let obs = MetricsHandle::counters();
    let mut rows: Vec<(usize, usize, i64)> = Vec::new();
    for k in 1..=j {
        let mut max_name = 0i64;
        for seed in 0..seeds {
            let mut ex = Executor::new();
            ex.set_metrics(obs.clone());
            ex.set_backend(spec.build(seed, &[]));
            for p in &rename_run(&mut ex, j, m, k, seed) {
                max_name =
                    max_name.max(ex.status(*p).decision().and_then(Value::as_int).unwrap_or(0));
            }
        }
        rows.push((k, j + k - 1, max_name));
    }
    if as_json {
        let obj = Json::Obj(vec![
            ("command".into(), Json::Str("rename".into())),
            ("backend".into(), Json::Str(backend.clone())),
            ("j".into(), Json::Num(j as u64)),
            ("seeds".into(), Json::Num(seeds)),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|(k, bound, observed)| {
                            Json::Obj(vec![
                                ("k".into(), Json::Num(*k as u64)),
                                ("bound".into(), Json::Num(*bound as u64)),
                                ("observed".into(), Json::Num((*observed).max(0) as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics".into(), obs.snapshot().expect("metrics enabled").to_json()),
        ]);
        outln!("{obj}");
    } else {
        outln!("(j = {j}) max observed name over {seeds} seeded k-concurrent ensembles:");
        outln!("{:>4} {:>8} {:>8}", "k", "bound", "observed");
        for (k, bound, observed) in &rows {
            outln!("{k:>4} {bound:>8} {observed:>8}");
        }
    }
    Ok(())
}

fn cmd_hierarchy(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 4)?;
    let runs: u32 = args.get("runs", 400)?;
    args.reject_unread()?;
    // The renaming row classifies strong (n-1)-renaming, which needs at
    // least two names and fewer names than processes.
    if n < 3 {
        return Err(format!("hierarchy needs --n 3 or more, got {n}"));
    }
    outln!("Theorem-10 classification over n = {n} ({runs} runs per cell)");
    for k_task in 1..=n {
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, k_task));
        let t2 = task.clone();
        let algo = move |i: usize, input: &Value| {
            Box::new(OneConcurrentSolver::new(i, t2.clone(), input.clone())) as Box<dyn DynProcess>
        };
        let (level, rows) = concurrency_profile(&task, &algo, n, runs, 200_000, 11);
        let cells: String = rows
            .iter()
            .map(|r| match r.outcome {
                ProbeOutcome::Satisfied { .. } => " ✓",
                ProbeOutcome::Violated { .. } => " ✗",
                ProbeOutcome::Stuck { .. } => " ∅",
            })
            .collect();
        outln!("{:<22}{}  → class {:?}", task.name(), cells, level);
    }
    let task: Arc<dyn Task> = Arc::new(Renaming::strong(n, n - 1));
    let algo = move |i: usize, _input: &Value| {
        Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>
    };
    let (level, _) = concurrency_profile(&task, &algo, n.min(3), runs, 300_000, 13);
    outln!("{:<22}  → class {:?}", task.name(), level);
    Ok(())
}

fn cmd_refute(args: &Args) -> Result<(), String> {
    args.reject_unread()?;
    let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let r = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
    outln!("colliding solo slots: p{} and p{}", r.colliding.0, r.colliding.1);
    outln!("states explored     : {}", r.report.states);
    match (&r.report.violation, &r.report.undecided_cycle) {
        (Some((reason, sched)), _) => {
            outln!("counterexample      : {reason} (schedule length {})", sched.len());
            // Replay the violating schedule under the observability layer
            // and render it as a space-time timeline.
            let obs = MetricsHandle::with_events(4096);
            let mut ex = lemma11(&cand, r.colliding);
            ex.set_metrics(obs.clone());
            let mut replay = Replay::new(sched.clone());
            run_schedule(&mut ex, &mut replay, &mut NullEnv, 10_000);
            outln!("\nviolating schedule (r = read, w = write, s = snapshot, D = decide):");
            outln!("{}", timeline(&obs.events(), 2));
        }
        (None, Some(sched)) => {
            outln!("counterexample      : forever-undecided cycle at depth {}", sched.len())
        }
        _ => return Err("no counterexample found (Lemma 11 violated?!)".into()),
    }
    Ok(())
}

fn cmd_extract(args: &Args) -> Result<(), String> {
    let slots: u64 = args.get("slots", 600_000)?;
    let stab: u64 = args.get("stab", 300)?;
    let seed: u64 = args.get("seed", 42)?;
    args.reject_unread()?;
    let n = 3;
    let inputs: Vec<Vec<Value>> = vec![(0..n as i64).map(Value::Int).collect()];
    let pattern = FailurePattern::failure_free(n);
    let mut fd = FdGen::vector_omega_k(pattern.clone(), 1, stab, seed);
    let mut ex = Executor::new();
    for q in 0..n {
        let s = ReductionS::new(q, n, 1, AsimBuilders::CONSENSUS3, inputs.clone());
        ex.add_process(Box::new(s));
    }
    let mut sched = RandomSched::over_all(&ex, seed ^ 0xe4);
    let mut history: Vec<HistoryEntry> = Vec::new();
    for step in 0..slots {
        let Some(pid) = sched.next(&ex) else { break };
        let now = ex.clock();
        let fdv = fd.output(pid.0, now);
        ex.step(pid, Some(&fdv));
        if step % 16 == 0 {
            let v = ex.memory().peek(emulated_key(pid.0 as u32));
            if !v.is_unit() {
                history.push(HistoryEntry { q: pid.0, t: now, val: v });
            }
        }
    }
    outln!("samples recorded: {}", history.len());
    match check_anti_omega_k(&pattern, &history, 1, 5_000) {
        Some(w) => {
            outln!("¬Ω1 extracted: correct S{} excluded from τ = {}", w.who, w.tau);
            Ok(())
        }
        None => Err("extraction did not stabilize within the budget".into()),
    }
}

/// One `faults list` row: name, size, budget, substrate and task.
fn list_row(sc: &wfa::faults::scenario::Scenario) -> String {
    format!(
        "{:<16} n={} budget={} backend={} ({})",
        sc.name,
        sc.n,
        sc.budget,
        sc.backend,
        sc.task.name()
    )
}

fn cmd_faults(argv: &[String]) -> Result<(), String> {
    use wfa::faults::prelude::*;

    const FAULTS_USAGE: &str = "USAGE: wfa-cli faults <sweep|soak|replay|list>\n\
         \n\
         faults sweep  --scenario NAME [--depth D --seeds S --seed B --no-prune\n\
         \t\t--plan-budget N --out FILE]\n\
         \n\
         \tEnumerates every fault plan of ≤ D components (bounded DFS over\n\
         \tcrash points, starvation stops, FD sample corruption, advice\n\
         \tdelays and — for net-backed scenarios — majority-safe replica\n\
         \tpartitions, drop windows, corruption windows, heals and\n\
         \tcrash/recover pairs inside the recovery horizon), evaluates S\n\
         \tseeds per plan in one sequential pass with panic isolation,\n\
         \tshrinks the violations and prints them. Majority-safe plans that\n\
         \tstill lose a quorum surface as typed `quorum-lost` violations.\n\
         \tPlans dominated by a surviving superset (extras all pure message\n\
         \tloss) are pruned — --no-prune force-runs every plan;\n\
         \t--plan-budget N caps the plans evaluated (deterministic\n\
         \ttruncation). --out writes the canonical report JSON, a pure\n\
         \tfunction of the flags. Exits non-zero if violations were found.\n\
         \n\
         faults soak   [--backend shm|net|gossip --ticks N --seed S\n\
         \t\t--intensity calm|storm|mixed --checkpoint-every N --nodes N\n\
         \t\t--inject-bug --shrink --json --out FILE]\n\
         \n\
         \tOne deterministic long-horizon chaos soak: a seeded stream of\n\
         \tserialized fault windows (crash/recover, partitions, loss and\n\
         \tcorruption windows, read-only freeze spells; storm phases add\n\
         \theal-bounded majority partitions) drives the chosen backend to\n\
         \tthe tick horizon while online oracles check model equality,\n\
         \tquorum safety, gossip convergence-on-quiescence, causal replay\n\
         \tand the degradation lifecycle. On violation, a flight recorder\n\
         \tof periodic checkpoints certifies the replay resumes from the\n\
         \tlast checkpoint rather than tick 0; --shrink then drops fault\n\
         \twindows while the violation keeps reproducing. The report\n\
         \tcarries a `recoveries` array and an MTTR table per degradation\n\
         \tclass, and is byte-identical for identical flags. Exits\n\
         \tnon-zero when an oracle fired.\n\
         \n\
         faults replay <artifact.json>\n\
         \n\
         \tRe-executes a serialized violation or soak artifact from\n\
         \tscratch and reports whether it still reproduces. For soak\n\
         \tartifacts the fresh run is diffed field by field against the\n\
         \tartifact (verdict, violation op, op count, final tick,\n\
         \trecovery count); any difference prints as a structured diff.\n\
         \tExits non-zero if the artifact does not reproduce.\n\
         \n\
         faults list\n\
         \n\
         \tNames of the canonical scenarios.";

    match argv.first().map(String::as_str) {
        Some("sweep") => {
            let args = Args::parse(&argv[1..])?;
            let mut config = SweepConfig::new(&args.get("scenario", "adopt-commit".to_string())?);
            config.depth = args.get("depth", 2)?;
            config.seeds_per_plan = args.get("seeds", 2)?;
            config.base_seed = args.get("seed", 1)?;
            config.prune = !args.get("no-prune", false)?;
            config.plan_budget = args.get("plan-budget", 0)?;
            let out = args.value("out");
            args.reject_unread()?;
            if Scenario::by_name(&config.scenario).is_none() {
                return Err(format!(
                    "unknown scenario `{}` (try: {})",
                    config.scenario,
                    Scenario::catalog().join(", ")
                ));
            }
            let report = sweep(&config);
            outln!(
                "[{}] {} plans ({} pruned, {} run), {} runs: {} violation(s)",
                report.scenario,
                report.plans,
                report.plans_pruned,
                report.plans_run,
                report.runs,
                report.violations.len()
            );
            for v in &report.violations {
                outln!("  {v}");
            }
            if let Some(path) = out {
                std::fs::write(path, report.to_json().to_string())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                outln!("report written to {path}");
            }
            if report.violations.is_empty() {
                Ok(())
            } else {
                Err(format!("{} violation(s) found", report.violations.len()))
            }
        }
        Some("soak") => {
            use wfa::faults::chaos::{self, Intensity, SoakBackend, SoakConfig};
            let args = Args::parse(&argv[1..])?;
            let backend_name = args.get("backend", "shm".to_string())?;
            let backend = SoakBackend::parse(&backend_name).ok_or_else(|| {
                format!("unknown backend `{backend_name}` (try: shm, net, gossip)")
            })?;
            let intensity_name = args.get("intensity", "mixed".to_string())?;
            let intensity = Intensity::parse(&intensity_name).ok_or_else(|| {
                format!("unknown intensity `{intensity_name}` (try: calm, storm, mixed)")
            })?;
            let mut cfg = SoakConfig::new(backend);
            cfg.intensity = intensity;
            cfg.ticks = args.get("ticks", cfg.ticks)?;
            cfg.seed = args.get("seed", cfg.seed)?;
            cfg.checkpoint_every = args.get("checkpoint-every", cfg.checkpoint_every)?;
            cfg.nodes = args.get("nodes", cfg.nodes)?;
            cfg.inject_bug = args.get("inject-bug", false)?;
            let (shrink, as_json, out) =
                (args.get("shrink", false)?, args.get("json", false)?, args.value("out"));
            args.reject_unread()?;
            if backend != SoakBackend::Shm && cfg.nodes < 3 {
                return Err(format!(
                    "a {backend_name} soak needs --nodes 3 or more, got {}",
                    cfg.nodes
                ));
            }
            let mut report = chaos::soak(&cfg);
            if shrink && report.violation.is_some() {
                let (shrunk, replays) = chaos::shrink_soak(&report);
                outln!(
                    "shrink   : {} fault(s) -> {} over {replays} re-soak(s)",
                    report.timeline.faults.len(),
                    shrunk.timeline.faults.len()
                );
                report = shrunk;
            }
            if as_json {
                outln!("{}", report.to_json());
            } else {
                out!("{}", report.render());
            }
            if let Some(path) = out {
                std::fs::write(path, report.to_json().to_string())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                outln!("artifact written to {path}");
            }
            match &report.violation {
                None => Ok(()),
                Some(v) => Err(format!("soak violation: {} at op {}", v.kind, v.op)),
            }
        }
        Some("replay") => {
            let Some(path) = argv.get(1) else {
                return Err(format!("missing artifact path\n\n{FAULTS_USAGE}"));
            };
            Args::parse(&argv[2..])?.reject_unread()?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            // A soak artifact replays through the chaos engine: re-run the
            // stored timeline and diff the verdicts structurally.
            if wfa::faults::chaos::is_soak_artifact(&json) {
                let (fresh, diff) = wfa::faults::chaos::replay_soak(&json)?;
                out!("{}", fresh.render());
                return if diff.is_empty() {
                    outln!("reproduced: soak artifact verdict matches on replay");
                    Ok(())
                } else {
                    outln!("NOT reproduced: {} field(s) differ", diff.len());
                    outln!("{:<14} {:>16} {:>16}", "field", "artifact", "replay");
                    for (field, old, new) in &diff {
                        outln!("{field:<14} {old:>16} {new:>16}");
                    }
                    Err(format!("soak artifact did not reproduce ({} field(s) differ)", diff.len()))
                };
            }
            // Accept both a bare violation and a full sweep report.
            let violations: Vec<Violation> = match json.get("violations") {
                Some(arr) => arr
                    .arr()
                    .ok_or_else(|| "malformed report: violations is not an array".to_string())?
                    .iter()
                    .map(Violation::from_json)
                    .collect::<Result<_, _>>()?,
                None => vec![Violation::from_json(&json)?],
            };
            if violations.is_empty() {
                // An empty artifact reproduces nothing — that is a failed
                // replay, not a success (scripts gating on the exit code
                // must not read "no violations present" as "reproduced").
                return Err("artifact holds no violations — nothing to replay".into());
            }
            let mut failed = 0;
            for v in &violations {
                let verdict = replay(v)?;
                let mark = if verdict.reproduced { "reproduced" } else { "NOT reproduced" };
                outln!("{mark}: {v}\n  {}", verdict.detail);
                if !verdict.reproduced {
                    failed += 1;
                }
            }
            if failed == 0 {
                Ok(())
            } else {
                Err(format!("{failed} of {} violation(s) did not reproduce", violations.len()))
            }
        }
        Some("list") => {
            Args::parse(&argv[1..])?.reject_unread()?;
            for name in Scenario::catalog() {
                let sc = Scenario::by_name(name).expect("catalog names resolve");
                outln!("{}", list_row(&sc));
            }
            Ok(())
        }
        Some("help") | None => {
            outln!("{FAULTS_USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown faults subcommand `{other}`\n\n{FAULTS_USAGE}")),
    }
}

/// Runs one of the fixed-seed observability sources and returns its
/// canonical snapshot plus the recorded event stream (empty for sources
/// that only count).
fn obs_source(name: &str, seed: u64) -> Result<(Snapshot, Vec<wfa::obs::span::ObsEvent>), String> {
    use wfa::core::sim::{KcsSimC, KcsSimS};
    use wfa::core::solver::RenamingBuilder;
    use wfa::modelcheck::explorer::Explorer;

    match name {
        // The Figure-2 simulation (Theorem 14 engine) at a small budget:
        // n = 3 simulators drive k = 2 renaming codes under →Ω2.
        "figure2" => {
            let (n, k) = (3usize, 2usize);
            let builder = RenamingBuilder { m: 4 };
            let inputs: Vec<Value> = (0..n as i64).map(|i| Value::Int(1 + i)).collect();
            let c: Vec<Box<dyn DynProcess>> = inputs
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    Box::new(KcsSimC::new(i, n, n, k, k, v.clone(), builder))
                        as Box<dyn DynProcess>
                })
                .collect();
            let s: Vec<Box<dyn DynProcess>> = (0..n)
                .map(|q| Box::new(KcsSimS::new(q, n, n, k, k, builder)) as Box<dyn DynProcess>)
                .collect();
            let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k, 150, seed);
            let obs = MetricsHandle::with_events(4096);
            let mut run = EfdRun::new(c, s, fd).with_metrics(obs.clone());
            let mut sched = run.fair_sched(seed ^ 0x14);
            run.run(&mut sched, 20_000);
            Ok((obs.snapshot().expect("metrics enabled"), obs.events()))
        }
        // A small fault sweep; the report's snapshot.
        "sweep" => {
            use wfa::faults::prelude::{sweep, SweepConfig};
            let mut config = SweepConfig::new("fragile-commit");
            config.depth = 1;
            config.seeds_per_plan = 2;
            config.base_seed = seed;
            config.shrink = false;
            Ok((sweep(&config).metrics, Vec::new()))
        }
        // An exhaustive interleaving exploration of two renaming automata.
        "explore" => {
            let mut ex = Executor::new();
            let pids: Vec<Pid> =
                (0..2).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, 4)))).collect();
            let obs = MetricsHandle::counters();
            let check = |_: &Executor| None;
            Explorer::new(pids, &check, Limits::default()).with_metrics(obs.clone()).run(&ex);
            Ok((obs.snapshot().expect("metrics enabled"), Vec::new()))
        }
        // The default `ksa` run over the ABD quorum-replicated backend
        // (`net`: message/quorum counters, channel spans) or the delta-CRDT
        // gossip backend (`gossip`: round and delta counters, anti-entropy
        // spans, zero messages on the op path), plus step events, all on a
        // single deterministic schedule (the CI determinism jobs diff two
        // exports).
        "net" | "gossip" => {
            let spec = if name == "net" { BackendSpec::net(4) } else { BackendSpec::gossip(4) };
            let (run, mut sched) = ksa_run(4, 2, 200, 1, seed);
            let obs = MetricsHandle::with_events(4096);
            let mut run = run.with_metrics(obs.clone()).with_backend(spec.build(seed, &[]));
            run.run_until_decided(&mut sched, 5_000_000);
            Ok((obs.snapshot().expect("metrics enabled"), obs.events()))
        }
        other => {
            Err(format!("unknown source `{other}` (try: figure2, sweep, explore, net, gossip)"))
        }
    }
}

fn cmd_obs(argv: &[String]) -> Result<(), String> {
    use wfa::obs::export::{to_chrome, to_jsonl};

    const OBS_USAGE: &str = "USAGE: wfa-cli obs <summary|export|diff>\n\
         \n\
         obs summary [--source figure2|sweep|explore|net|gossip --seed S]\n\
         \n\
         \tRuns the fixed-seed source and prints its canonical counter and\n\
         \thistogram snapshot.\n\
         \n\
         obs export --format jsonl|chrome [--source NAME --seed S --out FILE]\n\
         \n\
         \tExports the source's canonical snapshot and stable-keyed event\n\
         \tstream: `jsonl` (snapshot first, then one event per line) or\n\
         \t`chrome` (chrome://tracing / Perfetto trace_event JSON).\n\
         \tWrites to stdout unless --out is given.\n\
         \n\
         obs diff A B\n\
         \n\
         \tDiffs two snapshot files (plain JSON or JSONL exports; the first\n\
         \tline is read). Exits non-zero when any counter or histogram\n\
         \tbucket differs.";

    match argv.first().map(String::as_str) {
        Some("summary") => {
            let args = Args::parse(&argv[1..])?;
            let source = args.get("source", "figure2".to_string())?;
            let seed: u64 = args.get("seed", 7)?;
            args.reject_unread()?;
            let (snap, events) = obs_source(&source, seed)?;
            outln!("[{source}] canonical metrics snapshot (seed {seed}):");
            for (name, v) in &snap.counters {
                if *v > 0 {
                    outln!("  {name:<24} {v}");
                }
            }
            for (name, buckets) in &snap.hists {
                if !buckets.is_empty() {
                    let total: u64 = buckets.iter().map(|(_, c)| c).sum();
                    outln!("  {name:<24} {total} obs over {} log2 buckets", buckets.len());
                }
            }
            if !events.is_empty() {
                outln!("  {:<24} {}", "events", events.len());
            }
            Ok(())
        }
        Some("export") => {
            let args = Args::parse(&argv[1..])?;
            let format = args.get("format", "jsonl".to_string())?;
            let source = args.get("source", "figure2".to_string())?;
            let seed: u64 = args.get("seed", 7)?;
            let out = args.value("out");
            args.reject_unread()?;
            let (snap, events) = obs_source(&source, seed)?;
            let text = match format.as_str() {
                "jsonl" => to_jsonl(&snap, &events),
                "chrome" => to_chrome(&events),
                other => return Err(format!("unknown format `{other}` (try: jsonl, chrome)")),
            };
            match out {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
                    outln!("{format} export ({} bytes) written to {path}", text.len());
                }
                None => out!("{text}"),
            }
            Ok(())
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                return Err(format!("obs diff needs two file operands\n\n{OBS_USAGE}"));
            };
            Args::parse(&argv[3..])?.reject_unread()?;
            let load = |path: &String| -> Result<Snapshot, String> {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let first = text.lines().next().unwrap_or("");
                let json =
                    Json::parse(first).map_err(|e| format!("parsing {path}: {e}"))?;
                // Accept a bare snapshot or any object embedding one under
                // `metrics` (the `ksa --json` / `rename --json` shape).
                let snap_json = json.get("metrics").unwrap_or(&json);
                Snapshot::from_json(snap_json).map_err(|e| format!("{path}: {e}"))
            };
            let (sa, sb) = (load(a)?, load(b)?);
            let diff = sa.diff(&sb);
            if diff.is_empty() {
                outln!("snapshots agree on all {} counters", sa.counters.len());
                Ok(())
            } else {
                for (name, va, vb) in &diff {
                    outln!("{name:<24} {va:>12} {vb:>12}");
                }
                Err(format!("{} counter(s) differ", diff.len()))
            }
        }
        Some("help") | None => {
            outln!("{OBS_USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown obs subcommand `{other}`\n\n{OBS_USAGE}")),
    }
}

fn usage() -> &'static str {
    "wfa-cli — Wait-Freedom with Advice, runnable\n\
     \n\
     USAGE: wfa-cli <command> [--key value ...]\n\
     \n\
     COMMANDS\n\
       ksa        EFD k-set agreement   (--n --k --stab --seed --crashes --backend)\n\
       rename     renaming sweep        (--j --seeds --backend)\n\
       hierarchy  Theorem-10 table      (--n --runs)\n\
       refute     Lemma-11 pipeline\n\
       extract    Figure-1 extraction   (--slots --stab --seed)\n\
       faults     adversarial fault injection (sweep | soak | replay | list)\n\
       obs        observability         (summary | export | diff)\n\
       help       this text\n\
     \n\
     `ksa` and `rename` accept --json for a machine-readable report with\n\
     the canonical metrics snapshot attached, and --backend shm|net|gossip\n\
     to run over the in-process shared memory, the ABD-replicated network\n\
     emulation, or the delta-CRDT anti-entropy substrate (identical\n\
     decision values for identical seeds on fault-free runs). With\n\
     --backend net, --shards S splits the register space across S\n\
     independent replica groups of --net-nodes replicas each; it changes\n\
     neither decisions nor schedules. With --backend gossip, ops are\n\
     replica-local (zero messages on the op path), --gossip-interval R runs\n\
     an anti-entropy round every R ops, and --gossip-unsafe disarms the\n\
     monotone-register guard."
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `faults` and `obs` have sub-commands and positional operands, so they
    // parse their own argument lists instead of going through the global
    // --key value parser.
    if cmd == "faults" || cmd == "obs" {
        let run = if cmd == "faults" { cmd_faults } else { cmd_obs };
        return match run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "ksa" => cmd_ksa(&args),
        "rename" => cmd_rename(&args),
        "hierarchy" => cmd_hierarchy(&args),
        "refute" => cmd_refute(&args),
        "extract" => cmd_extract(&args),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa::faults::scenario::Scenario;

    #[test]
    fn faults_list_names_every_substrate_setting() {
        let rows: Vec<String> = Scenario::catalog()
            .into_iter()
            .map(|name| list_row(&Scenario::by_name(name).expect("catalog names resolve")))
            .collect();
        let expected = [
            "adopt-commit     n=3 budget=30000 backend=shm (adopt-commit(3))",
            "fragile-commit   n=3 budget=10000 backend=shm (adopt-commit(3))",
            "ksa              n=3 budget=300000 backend=shm (2-set-agreement(m=3))",
            "ksa-net          n=3 budget=300000 backend=net(3) (2-set-agreement(m=3))",
            "ksa-net-corrupt  n=3 budget=300000 backend=net(3,corrupt=5) (2-set-agreement(m=3))",
            "ksa-net-gossip   n=3 budget=300000 backend=gossip(4) (2-set-agreement(m=3))",
            "ksa-net-reorder  n=3 budget=300000 backend=net(3,reorder) (2-set-agreement(m=3))",
            "ksa-net-shard    n=3 budget=300000 backend=net(3,shards=2) (2-set-agreement(m=3))",
            "rename-net-gossip n=4 budget=400000 backend=gossip(3) ((3,5)-renaming(m=4))",
            "renaming         n=4 budget=400000 backend=shm ((3,5)-renaming(m=4))",
            "wait-for-all     n=3 budget=5000 backend=shm (adopt-commit(3))",
        ];
        assert_eq!(rows, expected);
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn retired_thread_flag_is_refused() {
        let err = cmd_faults(&argv("sweep --scenario ksa --threads 2")).expect_err("must refuse");
        assert_eq!(err, "unknown flag(s) for this command: --threads");
        for line in ["summary --source sweep --threads 2", "export --source sweep --threads 8"] {
            let err = cmd_obs(&argv(line)).expect_err("must refuse");
            assert!(err.contains("--threads"), "{line}: {err}");
        }
    }

    #[test]
    fn misspelt_flags_are_refused_before_any_work() {
        // `--tick` (for `--ticks`) used to run the default 2000-tick soak.
        let err = cmd_faults(&argv("soak --tick 100")).expect_err("must refuse");
        assert_eq!(err, "unknown flag(s) for this command: --tick");
        let args = Args::parse(&argv("--n 3 --sed 9 --jsn")).expect("parses");
        let err = cmd_ksa(&args).expect_err("must refuse");
        assert_eq!(err, "unknown flag(s) for this command: --jsn, --sed");
    }
}
