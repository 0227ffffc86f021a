//! Metric assembly: the end-to-end set, the per-layer set, the layer-sum
//! check and the JSON result line.

use wfa::obs::metrics::{Counter, HistKind, Snapshot};

use crate::seams::{with_hists, Span, Totals};
use crate::stats::quantile;
use crate::workloads::{Counts, Workload};

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics of an untraced closed loop.
pub fn end_to_end(setup_s: f64, job_secs: &[f64]) -> Vec<Metric> {
    let wall: f64 = job_secs.iter().sum();
    let ms: Vec<f64> = job_secs.iter().map(|s| s * 1e3).collect();
    vec![
        m("setup_s", "s", setup_s),
        m("jobs_per_s", "1/s", ratio(job_secs.len() as f64, wall)),
        m("job_ms_p50", "ms", quantile(&ms, 0.5)),
        m("job_ms_p90", "ms", quantile(&ms, 0.9)),
    ]
}

/// Exclusive (self) wall time of every layer over one traced pass, in ms.
pub struct Layers {
    rows: Vec<(&'static str, f64)>,
    wall_ms: f64,
}

impl Layers {
    /// Splits the traced pass's `wall` seconds across layers. Each row is
    /// a span's total minus the spans nested inside it, so the rows are
    /// disjoint and the remainder is time no layer covers.
    pub fn new(w: Workload, t: &Totals, wall: f64) -> Layers {
        let steps = t.ms(Span::AlgStep) + t.ms(Span::SimStep);
        let (kernel, modelcheck) = if w == Workload::Explore {
            (0.0, t.ms(Span::Explore) - steps - t.ms(Span::ExploreCheck))
        } else {
            (t.ms(Span::KernelRun) - steps - t.ms(Span::Fd), 0.0)
        };
        let backends = t.ms(Span::Abd) + t.ms(Span::Gossip);
        let rows = vec![
            ("kernel", kernel),
            ("algorithms", t.ms(Span::AlgStep) - backends),
            ("core.sim", t.ms(Span::SimStep)),
            ("net.abd", t.ms(Span::Abd)),
            ("gossip", t.ms(Span::Gossip)),
            ("fd", t.ms(Span::Fd)),
            ("tasks.validate", t.ms(Span::Validate)),
            ("faults.sweep_run", t.ms(Span::SweepRun)),
            ("faults.shrink", t.ms(Span::Shrink)),
            ("faults.replay", t.ms(Span::Replay)),
            (
                "faults.chaos.soak",
                t.ms(Span::SoakNet) + t.ms(Span::SoakGossip),
            ),
            ("faults.chaos.shrink", t.ms(Span::SoakShrink)),
            ("faults.chaos.replay", t.ms(Span::SoakReplay)),
            ("modelcheck.self", modelcheck),
            ("modelcheck.check", t.ms(Span::ExploreCheck)),
        ];
        Layers {
            rows,
            wall_ms: wall * 1e3,
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Job wall time no layer covers (set-up of systems, checks, digests).
    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// The layer-sum check: every row and the residual are non-negative
    /// (to a 0.1% timer tolerance), so the rows plus the residual add up to
    /// the job wall time without double counting.
    pub fn check(&self) -> Result<(), String> {
        let tol = -1e-3 * self.wall_ms;
        let bad: Vec<String> = self
            .rows
            .iter()
            .copied()
            .chain([("unattributed", self.unattributed_ms())])
            .filter(|(_, v)| *v < tol)
            .map(|(n, v)| format!("{n} = {v:.3} ms"))
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "layer sum exceeds job wall time: {}",
                bad.join(", ")
            ))
        }
    }

    /// A human-readable table of the split, per job.
    pub fn table(&self, jobs: usize) -> String {
        let per = |v: f64| v / jobs.max(1) as f64;
        let mut s = format!("{:<22} {:>12} {:>8}\n", "layer", "ms/job", "share");
        for (name, v) in self
            .rows
            .iter()
            .chain(&[("unattributed", self.unattributed_ms())])
        {
            s += &format!(
                "{name:<22} {:>12.4} {:>7.2}%\n",
                per(*v),
                100.0 * ratio(*v, self.wall_ms)
            );
        }
        s += &format!(
            "{:<22} {:>12.4} {:>7.2}%",
            "job wall",
            per(self.wall_ms),
            100.0
        );
        s
    }
}

/// Overhead ratios measured on one job list.
pub struct Ratios {
    /// Traced wall time over untraced wall time.
    pub trace: f64,
    /// `counters()` wall time over `disabled()` wall time (0: not measured).
    pub counters: f64,
    /// `with_events(4096)` wall time over `disabled()` wall time.
    pub events: f64,
}

fn counter(s: &Snapshot, c: Counter) -> f64 {
    s.counter(c.name()).unwrap_or(0) as f64
}

/// Median of a snapshot histogram (bucket floors).
fn hist_p50(s: &Snapshot, h: HistKind) -> f64 {
    let Some((_, buckets)) = s.hists.iter().find(|(n, _)| n == h.name()) else {
        return 0.0;
    };
    let total: u64 = buckets.iter().map(|(_, c)| c).sum();
    let mut seen = 0;
    for (floor, c) in buckets {
        seen += c;
        if 2 * seen >= total {
            return *floor as f64;
        }
    }
    0.0
}

/// The per-layer metrics of a traced pass over `jobs` jobs.
pub fn per_layer(
    w: Workload,
    jobs: usize,
    layers: &Layers,
    t: &Totals,
    c: &Counts,
    r: &Ratios,
) -> Vec<Metric> {
    let per_job = |v: f64| v / jobs.max(1) as f64;
    let wall = layers.wall_ms;
    let (driver_ms, slots) = if w == Workload::Explore {
        (t.ms(Span::Explore), t.calls(Span::AlgStep) as f64)
    } else {
        (t.ms(Span::KernelRun), c.slots as f64)
    };
    let all = {
        let mut s = c.shm.clone();
        s.merge(&c.abd);
        s.merge(&c.gossip);
        s
    };
    let sim_steps = counter(&all, Counter::SimulatedSteps);
    let (abd_p50, gossip_op_p50, gossip_ex_p50) = with_hists(|h| {
        (
            h.abd.quantile(0.5),
            h.gossip_op.quantile(0.5),
            h.gossip_exchange.quantile(0.5),
        )
    });
    let hits = counter(&c.gossip, Counter::NetGossipDigestHits);
    let plans_run = counter(&c.sweep, Counter::SweepPlansRun);
    let soak_ms = t.ms(Span::SoakNet) + t.ms(Span::SoakGossip);
    let mean = |s: Span| ratio(t.ms(s), t.calls(s) as f64);
    let states = c.states as f64;
    let dedupe = counter(&c.explore, Counter::ExplorerDedupeHits);
    vec![
        m(
            "kernel.self_ms_per_job",
            "ms",
            per_job(layers.get("kernel")),
        ),
        m("kernel.ns_per_slot", "ns", ratio(driver_ms * 1e6, slots)),
        m("kernel.slots_per_job", "count", per_job(slots)),
        m(
            "algorithms.step_self_ms_per_job",
            "ms",
            per_job(layers.get("algorithms")),
        ),
        m(
            "core.sim.step_self_ms_per_job",
            "ms",
            per_job(layers.get("core.sim")),
        ),
        m(
            "core.sim.simulated_steps_per_job",
            "count",
            per_job(sim_steps),
        ),
        m(
            "core.sim.rounds_per_simulated_step",
            "ratio",
            ratio(counter(&all, Counter::ConsensusRounds), sim_steps),
        ),
        m(
            "fd.queries_per_job",
            "count",
            per_job(t.calls(Span::Fd) as f64),
        ),
        m("fd.query_ms_per_job", "ms", per_job(t.ms(Span::Fd))),
        m(
            "tasks.validate_ms_per_job",
            "ms",
            per_job(t.ms(Span::Validate)),
        ),
        m("net.abd.op_us_p50", "us", abd_p50 as f64 / 1e3),
        m("net.abd.share", "ratio", ratio(t.ms(Span::Abd), wall)),
        m(
            "net.abd.msgs_per_op",
            "count",
            ratio(
                counter(&c.abd, Counter::NetMsgsSent),
                t.calls(Span::Abd) as f64,
            ),
        ),
        m(
            "net.abd.quorum_latency_ticks_p50",
            "ticks",
            hist_p50(&c.abd, HistKind::QuorumLatency),
        ),
        m(
            "net.retransmits_per_plan",
            "count",
            ratio(counter(&c.sweep, Counter::NetRetransmits), plans_run),
        ),
        m(
            "net.delivered_ratio",
            "ratio",
            ratio(
                counter(&c.sweep, Counter::NetMsgsDelivered),
                counter(&c.sweep, Counter::NetMsgsSent),
            ),
        ),
        m(
            "net.quorum_lost_per_plan",
            "count",
            ratio(counter(&c.sweep, Counter::NetQuorumLost), plans_run),
        ),
        m("gossip.op_us_p50", "us", gossip_op_p50 as f64 / 1e3),
        m("gossip.exchange_us_p50", "us", gossip_ex_p50 as f64 / 1e3),
        m("gossip.share", "ratio", ratio(t.ms(Span::Gossip), wall)),
        m(
            "gossip.msgs_per_op",
            "count",
            ratio(
                counter(&c.gossip, Counter::NetMsgsSent),
                t.calls(Span::Gossip) as f64,
            ),
        ),
        m(
            "gossip.digest_hit_ratio",
            "ratio",
            ratio(
                hits,
                hits + counter(&c.gossip, Counter::NetGossipDeltasSent),
            ),
        ),
        m(
            "faults.sweep_run_ms_per_job",
            "ms",
            per_job(t.ms(Span::SweepRun)),
        ),
        m(
            "faults.shrink_ms_per_job",
            "ms",
            per_job(t.ms(Span::Shrink)),
        ),
        m(
            "faults.replay_ms_per_job",
            "ms",
            per_job(t.ms(Span::Replay)),
        ),
        m(
            "faults.plans_pruned_ratio",
            "ratio",
            ratio(c.plans_pruned as f64, c.plans as f64),
        ),
        m(
            "faults.shrink_ratio",
            "ratio",
            ratio(c.shrink_after as f64, c.shrink_before as f64),
        ),
        m("faults.chaos.soak_ms.net", "ms", mean(Span::SoakNet)),
        m("faults.chaos.soak_ms.gossip", "ms", mean(Span::SoakGossip)),
        m(
            "faults.chaos.ticks_per_ms",
            "ticks/ms",
            ratio(c.soak_ticks as f64, soak_ms),
        ),
        m("faults.chaos.shrink_ms", "ms", mean(Span::SoakShrink)),
        m("faults.chaos.replay_ms", "ms", mean(Span::SoakReplay)),
        m(
            "modelcheck.states_per_s",
            "1/s",
            ratio(states, t.ms(Span::Explore) / 1e3),
        ),
        m(
            "modelcheck.dedupe_ratio",
            "ratio",
            ratio(
                dedupe,
                counter(&c.explore, Counter::ExplorerStates) + dedupe,
            ),
        ),
        m(
            "modelcheck.check_ms_per_job",
            "ms",
            per_job(t.ms(Span::ExploreCheck)),
        ),
        m(
            "modelcheck.self_ms_per_job",
            "ms",
            per_job(layers.get("modelcheck.self")),
        ),
        m("obs.counters_overhead_ratio", "ratio", r.counters),
        m("obs.events_overhead_ratio", "ratio", r.events),
        m("trace.overhead_ratio", "ratio", r.trace),
        m(
            "unattributed_frac",
            "ratio",
            ratio(layers.unattributed_ms(), wall),
        ),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
