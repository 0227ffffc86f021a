//! `perfbench` — the repository's closed-loop benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client, one thread: each job starts when the previous one has
//! finished and passed its checks. `--trace 0` measures the end-to-end
//! metrics with no decorators and a disabled metrics handle. `--trace 1`
//! runs one job list four times — untraced, traced (seam decorators and
//! counters), counters only, events — and reports the per-layer metrics,
//! the price of tracing and of observability, and the part of job wall
//! time no layer covers. The last stdout line is one JSON object.

mod report;
mod seams;
#[cfg(test)]
mod selftest;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{end_to_end, per_layer, Metric};
use stats::median;
use workloads::{job_seed, run_job, Counts, Digest, Mode, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Run seed of the set-up's reference job.
const SETUP_SEED: u64 = 0;
/// Minimum jobs in a measured loop, however slow they are.
const MIN_JOBS: usize = 3;

/// The outcome of a pass over a job list.
#[derive(Default)]
struct Pass {
    /// Wall seconds of each job, in order.
    times: Vec<f64>,
    /// Digest of each job (`None` if its checks failed).
    digests: Vec<Option<Digest>>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.times.iter().sum()
    }
}

/// Running tallies of everything the result line reports.
struct Run {
    args: Args,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Run {
    fn job(&mut self, index: u64, mode: Mode, counts: &mut Counts) -> (f64, Option<Digest>) {
        self.seeded_job(job_seed(self.args.seed, index), index, mode, counts)
    }

    fn seeded_job(
        &mut self,
        seed: u64,
        index: u64,
        mode: Mode,
        counts: &mut Counts,
    ) -> (f64, Option<Digest>) {
        let t = Instant::now();
        let out = run_job(self.args.workload, seed, index, mode, counts);
        let dt = t.elapsed().as_secs_f64();
        self.attempted += 1;
        match out {
            Ok(d) => (dt, Some(d)),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("job {index} ({mode:?}): {e}"));
                (dt, None)
            }
        }
    }

    /// Jobs `0..` in `mode` until `done(jobs so far, time so far)`.
    fn pass(
        &mut self,
        mode: Mode,
        counts: &mut Counts,
        done: impl Fn(usize, Duration) -> bool,
    ) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::default();
        while !done(pass.times.len(), start.elapsed()) {
            let (dt, d) = self.job(pass.times.len() as u64, mode, counts);
            pass.times.push(dt);
            pass.digests.push(d);
        }
        pass
    }

    /// A closed loop for `budget`, of at least [`MIN_JOBS`] jobs.
    fn closed_loop(&mut self, mode: Mode, budget: Duration) -> Pass {
        self.pass(mode, &mut Counts::default(), |n, t| {
            n >= MIN_JOBS && t >= budget
        })
    }

    /// Jobs `0..n` in `mode`.
    fn replay(&mut self, mode: Mode, n: usize, counts: &mut Counts) -> Pass {
        self.pass(mode, counts, |i, _| i >= n)
    }

    /// Flags every job whose digest part differs between two passes.
    fn compare(&mut self, what: &str, a: &Pass, b: &Pass, part: fn(&Digest) -> &str) {
        for (i, (x, y)) in a.digests.iter().zip(&b.digests).enumerate() {
            if let (Some(x), Some(y)) = (x, y) {
                if part(x) != part(y) {
                    self.problems.push(format!("job {i}: {what} differ"));
                }
            }
        }
    }

    /// Set-up: building and verifying the workload's reference job (job 0
    /// of seed [`SETUP_SEED`]) from a cold process, repeated. The reference
    /// job ignores `--seed`, so set-up time moves only with the program.
    fn setup(&mut self) -> f64 {
        let mut times = Vec::new();
        let mut first: Option<Digest> = None;
        for _ in 0..SETUP_REPS {
            let seed = job_seed(SETUP_SEED, 0);
            let (dt, d) = self.seeded_job(seed, 0, Mode::Disabled, &mut Counts::default());
            times.push(dt);
            match (&first, d) {
                (None, Some(d)) => first = Some(d),
                (Some(f), Some(d)) if *f != d => self
                    .problems
                    .push("the reference job does not repeat across set-ups".into()),
                _ => {}
            }
        }
        median(&times)
    }
}

fn outputs(d: &Digest) -> &str {
    &d.outputs
}

fn counters(d: &Digest) -> &str {
    &d.counters
}

fn untraced(run: &mut Run) -> Vec<Metric> {
    let setup_s = run.setup();
    let budget = Duration::from_secs_f64(run.args.seconds);
    let pass = run.closed_loop(Mode::Disabled, budget);
    // Deterministic outputs must repeat exactly for the same job seed.
    let again = run.replay(Mode::Disabled, 1, &mut Counts::default());
    run.compare("repeated outputs", &pass, &again, outputs);
    end_to_end(setup_s, &pass.times)
}

fn traced(run: &mut Run) -> Vec<Metric> {
    let w = run.args.workload;
    run.job(0, Mode::Disabled, &mut Counts::default()); // warm-up
    let budget = Duration::from_secs_f64(run.args.seconds / 4.0);
    let plain = run.closed_loop(Mode::Disabled, budget);
    let n = plain.times.len();
    seams::reset();
    let mut counts = Counts::default();
    let traced = run.replay(Mode::Traced, n, &mut counts);
    let totals = seams::totals();
    run.compare("wrapped and unwrapped outputs", &plain, &traced, outputs);
    let mut overhead = [0.0; 2];
    if w.takes_metrics() {
        for (slot, mode) in [Mode::Counters, Mode::Events].into_iter().enumerate() {
            let pass = run.replay(mode, n, &mut Counts::default());
            run.compare("counter snapshots", &traced, &pass, counters);
            overhead[slot] = pass.wall() / plain.wall();
        }
    }
    let ratios = report::Ratios {
        trace: traced.wall() / plain.wall(),
        counters: overhead[0],
        events: overhead[1],
    };
    let layers = report::Layers::new(w, &totals, traced.wall());
    eprintln!("{}", layers.table(n));
    if let Err(e) = layers.check() {
        run.problems.push(e);
    }
    per_layer(w, n, &layers, &totals, &counts, &ratios)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let trace = args.trace;
    let mut run = Run {
        args,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let metrics = if trace {
        traced(&mut run)
    } else {
        untraced(&mut run)
    };
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        report::result_line(run.problems.is_empty(), run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}
