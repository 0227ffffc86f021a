//! B11 — gossip-backend economy: message bill and stabilization vs ABD.
//!
//! The gossip substrate inverts ABD's cost model: register ops are local
//! (zero messages on the op path) and freshness is paid for separately, by
//! periodic anti-entropy rounds whose cadence the `interval` knob sets. B11
//! measures both sides of that trade at n ∈ {4, 8} replicas:
//!
//! * **Message economy** — messages per 100 register ops for an open-loop
//!   synthetic stream over the gossip backend at intervals 1/4/16, against
//!   the unbatched ABD baseline's fixed 16-messages-per-op quorum bill.
//! * **Stabilization** — anti-entropy rounds needed to drive every live
//!   replica to the identical delta-state once the stream stops
//!   ([`GossipBackend::run_rounds_until_converged`]), under a clean
//!   network, through a healed partition, and through crash/recover churn.
//!
//! Everything in a [`B11Stats`] is a deterministic function of the cell
//! spec and seed, so the [`b11_report`] JSON is byte-identical for every
//! `WFA_THREADS` value. Wall-clock ops/sec exists only in the `--ignored`
//! `emit_bench_gossip` regenerator, which writes `BENCH_gossip.json`
//! (methodology: EXPERIMENTS.md B11).

use wfa::faults::backend::BackendSpec;
use wfa::gossip::backend::GossipBackend;
use wfa::gossip::config::GossipConfig;
use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::memory::RegKey;
use wfa::kernel::value::{Pid, Value};
use wfa::net::config::NetFault;
use wfa::obs::local as obs_local;
use wfa::obs::metrics::{Counter, MetricsHandle};

use crate::throughput::{abd, run_open_loop};

/// The fault shape of one B11 gossip cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GossipPlan {
    /// Healthy network throughout.
    Clean,
    /// Replica 0 is partitioned off at tick 0 and healed at tick 600 —
    /// mid-stream for every B11 op budget (the net clock advances by a full
    /// round-span per anti-entropy round).
    Partition,
    /// Replica 0 crashes at tick 120 (volatile state wiped) and recovers at
    /// tick 600 (write-ahead-log heal) — the plan that exercises fallback
    /// homing and can surface genuinely stale reads.
    Churn,
}

impl GossipPlan {
    fn id(&self) -> &'static str {
        match self {
            GossipPlan::Clean => "clean",
            GossipPlan::Partition => "part",
            GossipPlan::Churn => "churn",
        }
    }

    fn faults(&self) -> Vec<NetFault> {
        match self {
            GossipPlan::Clean => Vec::new(),
            GossipPlan::Partition => {
                vec![NetFault::Partition { at: 0, nodes: vec![0] }, NetFault::Heal { at: 600 }]
            }
            GossipPlan::Churn => vec![
                NetFault::CrashReplica { at: 120, node: 0 },
                NetFault::RecoverReplica { at: 600, node: 0 },
            ],
        }
    }
}

/// The backend shape of one B11 gossip cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GossipSpec {
    /// Replica count.
    pub nodes: usize,
    /// Ops between anti-entropy rounds ([`GossipConfig::interval`]).
    pub interval: u64,
    /// Network fault shape.
    pub plan: GossipPlan,
}

impl GossipSpec {
    /// Stable row-id fragment, e.g. `gossip_n4_i1_clean`.
    pub fn id(&self) -> String {
        format!("gossip_n{}_i{}_{}", self.nodes, self.interval, self.plan.id())
    }

    /// Builds the backend through [`BackendSpec`], with the plan's faults.
    pub fn build(&self, seed: u64) -> Box<dyn MemoryBackend> {
        let cfg = GossipConfig::new(self.nodes, 0).with_interval(self.interval);
        BackendSpec::Gossip(cfg).build(seed, &self.plan.faults())
    }
}

/// Deterministic outcome of one B11 gossip cell — a pure function of the
/// spec and seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct B11Stats {
    /// Register ops driven through the backend.
    pub ops: u64,
    /// Network messages sent while the stream ran (all anti-entropy: the
    /// op path itself is message-free).
    pub msgs: u64,
    /// Anti-entropy rounds run while the stream ran.
    pub rounds: u64,
    /// Deltas shipped during the stream.
    pub deltas_sent: u64,
    /// Pairwise exchanges settled by digest comparison alone (2 messages).
    pub digest_hits: u64,
    /// Reads served a value behind the global join.
    pub stale_reads: u64,
    /// Anti-entropy rounds needed after the stream stopped before every
    /// live replica held the identical delta-state, or `-1` if the cluster
    /// failed to converge within the 3n-round budget.
    pub stabilize_rounds: i64,
}

impl B11Stats {
    /// Messages per 100 ops during the stream, the float-free headline.
    pub fn msgs_per_100_ops(&self) -> u64 {
        if self.ops == 0 {
            0
        } else {
            self.msgs * 100 / self.ops
        }
    }
}

/// Open loop: a seeded synthetic stream of `ops` register ops aimed
/// directly at a gossip backend — the same splitmix64 arrival process as
/// [`run_open_loop`], minus the shared-memory mirror assert (under fault
/// plans the gossip substrate legitimately serves stale values; staleness
/// is *measured* here, not rejected). After the stream, the cell measures
/// stabilization: anti-entropy rounds to convergence with ops stopped.
pub fn run_gossip_stream(ops: u64, pids: usize, keys: usize, spec: GossipSpec, seed: u64) -> B11Stats {
    let obs = MetricsHandle::counters();
    let keyset: Vec<RegKey> = (0..keys as u32).map(|i| RegKey::new(9).at(0, i)).collect();
    let mut b = spec.build(seed);
    let g = b
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<GossipBackend>())
        .expect("a gossip spec builds a gossip backend");
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let _g = obs_local::enter(&obs, 0, 0);
    for op in 0..ops {
        let me = Pid((op % pids.max(1) as u64) as usize);
        let r = next();
        let key = keyset[(r >> 8) as usize % keyset.len()];
        if r & 3 == 0 {
            g.write(me, op, key, Value::Int((r >> 32) as i64));
        } else {
            g.read(me, op, key);
        }
    }
    let stream_msgs = obs.get(Counter::NetMsgsSent);
    let stream_rounds = obs.get(Counter::NetGossipRounds);
    let budget = 3 * spec.nodes as u64;
    let stabilize = g.run_rounds_until_converged(budget).map_or(-1, |r| r as i64);
    B11Stats {
        ops,
        msgs: stream_msgs,
        rounds: stream_rounds,
        deltas_sent: obs.get(Counter::NetGossipDeltasSent),
        digest_hits: obs.get(Counter::NetGossipDigestHits),
        stale_reads: obs.get(Counter::NetGossipStaleReads),
        stabilize_rounds: stabilize,
    }
}

/// One row of the B11 report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct B11Row {
    /// Stable row id, `<backend>/<spec>`.
    pub id: String,
    /// The deterministic cell outcome.
    pub stats: B11Stats,
}

impl B11Row {
    fn json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"id\": \"{}\", \"ops\": {}, \"msgs\": {}, \"rounds\": {}, \"deltas_sent\": {}, \
             \"digest_hits\": {}, \"stale_reads\": {}, \"stabilize_rounds\": {}, \
             \"msgs_per_100_ops\": {}}}",
            self.id,
            s.ops,
            s.msgs,
            s.rounds,
            s.deltas_sent,
            s.digest_hits,
            s.stale_reads,
            s.stabilize_rounds,
            s.msgs_per_100_ops(),
        )
    }
}

/// The canonical B11 cell matrix at `ops` register ops per cell.
///
/// For each replica count n ∈ {4, 8}: the unbatched ABD baseline on the
/// identical op stream, the gossip interval sweep 1/4/16 on a clean
/// network, and the interval-1 partition and churn cells.
pub fn b11_cells(ops: u64, base_seed: u64) -> Vec<B11Row> {
    let mut rows = Vec::new();
    for nodes in [4usize, 8] {
        let abd = run_open_loop(ops, 4, 24, 1, &abd(nodes, 1, 1).1, base_seed);
        rows.push(B11Row {
            id: format!("abd/abd_n{nodes}"),
            stats: B11Stats {
                ops: abd.ops,
                msgs: abd.msgs,
                rounds: 0,
                deltas_sent: 0,
                digest_hits: 0,
                stale_reads: 0,
                // A quorum write is durable at a majority the moment the op
                // returns: ABD has nothing left to stabilize.
                stabilize_rounds: 0,
            },
        });
        for interval in [1u64, 4, 16] {
            let spec = GossipSpec { nodes, interval, plan: GossipPlan::Clean };
            rows.push(B11Row {
                id: format!("gossip/{}", spec.id()),
                stats: run_gossip_stream(ops, 4, 24, spec, base_seed),
            });
        }
        for plan in [GossipPlan::Partition, GossipPlan::Churn] {
            let spec = GossipSpec { nodes, interval: 1, plan };
            rows.push(B11Row {
                id: format!("gossip/{}", spec.id()),
                stats: run_gossip_stream(ops, 4, 24, spec, base_seed),
            });
        }
    }
    rows
}

/// Renders the deterministic B11 report: byte-identical for every seed ×
/// op-budget pair regardless of `WFA_THREADS` (the CI gossip job diffs it).
pub fn b11_report(ops: u64, base_seed: u64) -> String {
    let rows: Vec<String> =
        b11_cells(ops, base_seed).iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"family\": \"B11\",\n  \"ops_per_cell\": {ops},\n  \
         \"base_seed\": {base_seed},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_stream_undercuts_abd_and_stabilizes() {
        let ops = 2_000u64;
        let abd = run_open_loop(ops, 4, 24, 1, &abd(4, 1, 1).1, 7);
        let spec = GossipSpec { nodes: 4, interval: 1, plan: GossipPlan::Clean };
        let gsp = run_gossip_stream(ops, 4, 24, spec, 7);
        assert_eq!(gsp.ops, ops);
        assert!(gsp.msgs < abd.msgs, "gossip {} vs abd {} messages", gsp.msgs, abd.msgs);
        assert_eq!(gsp.stale_reads, 0, "a healthy cluster at interval 1 never serves stale");
        assert!(gsp.stabilize_rounds >= 0, "clean stream must stabilize: {gsp:?}");
        assert!(gsp.stabilize_rounds <= 12, "within the 3n budget: {gsp:?}");
    }

    #[test]
    fn slower_cadence_trades_messages_for_stabilization() {
        let ops = 2_000u64;
        let cell = |interval| {
            run_gossip_stream(
                ops,
                4,
                24,
                GossipSpec { nodes: 4, interval, plan: GossipPlan::Clean },
                7,
            )
        };
        let (fast, slow) = (cell(1), cell(16));
        // Fewer rounds → fewer messages; the backlog the stream leaves
        // behind still drains within the 3n stabilization budget.
        assert!(slow.rounds < fast.rounds);
        assert!(slow.msgs < fast.msgs, "slow {} vs fast {}", slow.msgs, fast.msgs);
        assert!(slow.stabilize_rounds >= 0, "{slow:?}");
    }

    #[test]
    fn faulted_cells_still_stabilize_after_the_fault_clears() {
        for plan in [GossipPlan::Partition, GossipPlan::Churn] {
            for nodes in [4usize, 8] {
                let spec = GossipSpec { nodes, interval: 1, plan };
                let s = run_gossip_stream(2_000, 4, 24, spec, 7);
                assert!(
                    s.stabilize_rounds >= 0,
                    "{plan:?} n={nodes} failed to stabilize: {s:?}"
                );
            }
        }
    }

    #[test]
    fn b11_report_is_deterministic() {
        let a = b11_report(800, 7);
        let b = b11_report(800, 7);
        assert_eq!(a, b);
        assert!(a.contains("\"family\": \"B11\""));
        assert!(a.contains("abd/abd_n4"));
        assert!(a.contains("gossip/gossip_n4_i1_clean"));
        assert!(a.contains("gossip/gossip_n8_i16_clean"));
        assert!(a.contains("gossip/gossip_n4_i1_churn"));
    }

    /// Times `f` `samples` times; returns median ops/sec.
    fn ops_per_sec(samples: usize, ops: u64, mut f: impl FnMut(u64)) -> f64 {
        let mut xs: Vec<f64> = (0..samples as u64)
            .map(|s| {
                let t = std::time::Instant::now();
                f(s);
                ops as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    }

    /// Regenerates `BENCH_gossip.json` at the repository root:
    /// `cargo test -p wfa-bench --release emit_bench_gossip -- --ignored --nocapture`
    #[test]
    #[ignore = "writes BENCH_gossip.json; run explicitly to regenerate it"]
    fn emit_bench_gossip() {
        const SAMPLES: usize = 5;
        const OPS: u64 = 50_000;
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let gossip_rate = |nodes: usize, interval: u64| {
            ops_per_sec(SAMPLES, OPS, |s| {
                run_gossip_stream(
                    OPS,
                    4,
                    24,
                    GossipSpec { nodes, interval, plan: GossipPlan::Clean },
                    1 + s,
                );
            })
        };
        let abd_rate = |nodes: usize| {
            ops_per_sec(SAMPLES, OPS, |s| {
                run_open_loop(OPS, 4, 24, 1, &abd(nodes, 1, 1).1, 1 + s);
            })
        };
        // The deterministic counter matrix at a smaller budget (the shapes
        // are budget-invariant; CI diffs this half via `wfa-cli`).
        let cells = b11_cells(2_000, 7);
        let cell = |id: &str| {
            cells.iter().find(|r| r.id == id).unwrap_or_else(|| panic!("no cell {id}")).stats
        };
        let rate_rows: Vec<String> = [4usize, 8]
            .iter()
            .flat_map(|&n| {
                let abd = abd_rate(n);
                [(format!("rate/abd_n{n}"), abd)].into_iter().chain([1u64, 4, 16].map(|i| {
                    (format!("rate/gossip_n{n}_i{i}"), gossip_rate(n, i))
                }))
            })
            .map(|(id, r)| format!("      {{\"id\": \"{id}\", \"median_ops_per_sec\": {r:.0}, \"samples\": {SAMPLES}}}"))
            .collect();
        let counter_rows: Vec<String> =
            cells.iter().map(|r| format!("      {}", r.json())).collect();
        let g4 = cell("gossip/gossip_n4_i1_clean");
        let a4 = cell("abd/abd_n4");
        let g8 = cell("gossip/gossip_n8_i1_clean");
        let a8 = cell("abd/abd_n8");
        assert!(g4.msgs < a4.msgs && g8.msgs < a8.msgs, "gossip must undercut ABD's bill");
        let text = format!(
            "{{\n  \"description\": \"B11 — gossip anti-entropy substrate vs unbatched ABD on \
             the open-loop synthetic register stream (4 clients, 24 registers). rate/* rows: \
             wall-clock ops/sec medians over {SAMPLES} seeded runs of {OPS} ops. counters/* \
             rows: deterministic per-cell economy at 2000 ops, seed 7 — messages, anti-entropy \
             rounds, deltas, digest hits, stale reads, and stabilization (anti-entropy rounds \
             to full convergence once the stream stops; -1 = did not converge in 3n). \
             Regenerate: cargo test -p wfa-bench --release emit_bench_gossip -- --ignored \
             --nocapture. Methodology: EXPERIMENTS.md B11, DESIGN.md section 13.\",\n  \
             \"date\": \"2026-08-08\",\n  \
             \"host\": {{\n    \"cores\": {cores},\n    \"note\": \"Single-process, \
             single-threaded driver; ratios are more stable than absolute numbers. The \
             deterministic counter rows are byte-identical on every host.\"\n  }},\n  \
             \"rates\": [\n{rates}\n  ],\n  \
             \"counters\": [\n{counters}\n  ],\n  \
             \"headline\": {{\n    \
             \"gossip_n4_i1_msgs_per_100_ops\": {gm4},\n    \
             \"abd_n4_msgs_per_100_ops\": {am4},\n    \
             \"gossip_n8_i1_msgs_per_100_ops\": {gm8},\n    \
             \"abd_n8_msgs_per_100_ops\": {am8},\n    \
             \"gossip_n4_i1_stabilize_rounds\": {gs4},\n    \
             \"gossip_n4_i16_stabilize_rounds\": {gs16}\n  }},\n  \
             \"notes\": [\n    \
             \"ABD pays 16 messages per op at 4 replicas (32 at 8) before any op returns; \
             gossip pays nothing per op and amortizes freshness over anti-entropy rounds, so \
             its bill scales with rounds x pairs, not ops x replicas.\",\n    \
             \"The interval knob is the stabilization-vs-bandwidth dial: slower cadence cuts \
             messages but leaves a larger backlog to drain once the stream stops — the \
             stabilize_rounds column is that backlog in rounds.\",\n    \
             \"Partition and churn cells stabilize after the fault clears (heal at tick 600); \
             churn exercises fallback homing, where genuinely stale reads can appear and are \
             counted, never panicked on.\"\n  ]\n}}\n",
            rates = rate_rows.join(",\n"),
            counters = counter_rows.join(",\n"),
            gm4 = g4.msgs_per_100_ops(),
            am4 = a4.msgs_per_100_ops(),
            gm8 = g8.msgs_per_100_ops(),
            am8 = a8.msgs_per_100_ops(),
            gs4 = g4.stabilize_rounds,
            gs16 = cell("gossip/gossip_n4_i16_clean").stabilize_rounds,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gossip.json");
        std::fs::write(path, &text).expect("writing BENCH_gossip.json");
        println!("{text}");
        println!("wrote {path}");
    }
}
