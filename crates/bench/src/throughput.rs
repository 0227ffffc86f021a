//! B10 — net-backend throughput: op batching × register sharding × replicas.
//!
//! Two workload loops drive ≥10⁶ register ops through the ABD backend:
//!
//! * **Closed loop** — complete EFD pipelines (k-set agreement via
//!   [`EfdRun`], renaming via k-concurrent ensembles) run back-to-back with
//!   fresh seeds until the cell's op budget is consumed. Each pipeline
//!   issues its natural register-access pattern — tight same-pid
//!   read/snapshot loops — which is exactly what op batching rewards.
//! * **Open loop** — a seeded synthetic op stream aimed directly at the
//!   backend, with a `burst` knob controlling how many consecutive ops share
//!   a pid before the "arrival process" switches clients. `burst = 1` is the
//!   adversarial arrival order (every op flushes the previous client's
//!   batch); large bursts model the per-process loops of the paper's
//!   constructions.
//!
//! Everything in a [`CellStats`] is a deterministic function of the spec and
//! seed — op counts, message counts, batch rounds, per-shard traffic — so
//! the [`b10_report`] JSON is byte-identical for every `WFA_THREADS` value
//! (CI-enforced). Wall-clock ops/sec exists only in the `--ignored`
//! `emit_bench_net_throughput` regenerator, which writes
//! `BENCH_net_throughput.json` (methodology: EXPERIMENTS.md B10).

use wfa::kernel::backend::MemoryBackend;
use wfa::kernel::executor::Executor;
use wfa::kernel::memory::{RegKey, SharedMemory};
use wfa::kernel::sched::{run_schedule, KConcurrent, NullEnv};
use wfa::kernel::value::{Pid, Value};
use wfa::faults::backend::BackendSpec;
use wfa::net::config::NetConfig;
use wfa::obs::local as obs_local;
use wfa::obs::metrics::{Counter, MetricsHandle};
use wfa::algorithms::renaming::RenamingFig4;

use crate::run_ksa_with;

/// The ABD shape of one B10 cell: `shards` independent replica groups of
/// `nodes` replicas each, every group batching up to `batch_max` same-pid
/// ops per quorum round (`1` = unbatched). Returns the stable row-id
/// fragment (e.g. `abd_n8`, `abd_n8_b16`, `abd_2x6_b4`) and the spec.
pub fn abd(nodes: usize, shards: usize, batch_max: u64) -> (String, BackendSpec) {
    let mut id =
        if shards > 1 { format!("abd_{shards}x{nodes}") } else { format!("abd_n{nodes}") };
    if batch_max > 1 {
        id += &format!("_b{batch_max}");
    }
    (id, BackendSpec::Net { cfg: NetConfig { batch_max, ..NetConfig::new(nodes, 0) }, shards })
}

/// Deterministic outcome of one throughput cell. Every field is a pure
/// function of the cell spec and base seed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CellStats {
    /// Pipeline runs completed (`1` for open-loop stream cells).
    pub runs: u64,
    /// Schedule-level register ops (reads + writes; a snapshot counts one).
    /// Identical across batch/shard settings for the same pipeline and
    /// seeds, which is what makes cells comparable.
    pub ops: u64,
    /// Individual quorum-served register ops (snapshot fan-out counted per
    /// read; a dropped batch tail at run end is not counted).
    pub quorum_ops: u64,
    /// Network messages sent across all shard groups.
    pub msgs: u64,
    /// Coalesced quorum rounds flushed (`0` when unbatched).
    pub batch_rounds: u64,
    /// Ops that rode a coalesced round (`0` when unbatched).
    pub batched_ops: u64,
    /// Messages attributed to shard groups 0..3 (group ≥ 3 folds into the
    /// last counter).
    pub shard_msgs: [u64; 4],
    /// Schedule slots consumed by closed-loop pipeline runs (`0` for
    /// open-loop streams).
    pub slots: u64,
}

impl CellStats {
    /// Messages per 100 ops, the float-free efficiency headline.
    pub fn msgs_per_100_ops(&self) -> u64 {
        if self.ops == 0 {
            0
        } else {
            self.msgs * 100 / self.ops
        }
    }

    fn read(obs: &MetricsHandle, runs: u64, slots: u64, ops: Option<u64>) -> CellStats {
        CellStats {
            runs,
            ops: ops.unwrap_or_else(|| {
                obs.get(Counter::OpReads) + obs.get(Counter::OpWrites)
            }),
            quorum_ops: obs.get(Counter::NetQuorumReads) + obs.get(Counter::NetQuorumWrites),
            msgs: obs.get(Counter::NetMsgsSent),
            batch_rounds: obs.get(Counter::NetBatchRounds),
            batched_ops: obs.get(Counter::NetBatchedOps),
            shard_msgs: [
                obs.get(Counter::NetShard0Msgs),
                obs.get(Counter::NetShard1Msgs),
                obs.get(Counter::NetShard2Msgs),
                obs.get(Counter::NetShard3Msgs),
            ],
            slots,
        }
    }
}

/// The closed-loop pipeline a cell repeats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pipeline {
    /// EFD k-set agreement (`run_ksa_with`): n parties, →Ωk advice.
    Ksa {
        /// Parties.
        n: usize,
        /// Agreement degree.
        k: usize,
        /// Advice stabilization time.
        stab: u64,
    },
    /// Figure-4 renaming under a seeded k-concurrent scheduler.
    Rename {
        /// Participants (namespace is `m = j + 1`).
        j: usize,
        /// Scheduler concurrency.
        conc: usize,
    },
}

impl Pipeline {
    fn id(&self) -> String {
        match self {
            Pipeline::Ksa { n, k, .. } => format!("ksa_n{n}k{k}"),
            Pipeline::Rename { j, conc } => format!("rename_j{j}c{conc}"),
        }
    }

    /// One pipeline run over `backend`; returns consumed schedule slots.
    fn run_once(&self, backend: Box<dyn MemoryBackend>, seed: u64, obs: &MetricsHandle) -> u64 {
        match *self {
            Pipeline::Ksa { n, k, stab } => {
                run_ksa_with(n, k, stab, seed, obs, backend)
            }
            Pipeline::Rename { j, conc } => {
                let m = j + 1;
                let mut ex = Executor::new();
                ex.set_metrics(obs.clone());
                ex.set_backend(backend);
                let pids: Vec<Pid> =
                    (0..j).map(|i| ex.add_process(Box::new(RenamingFig4::new(i, m)))).collect();
                let mut sched = KConcurrent::with_seed(pids, [], conc, seed);
                run_schedule(&mut ex, &mut sched, &mut NullEnv, 5_000_000);
                0
            }
        }
    }
}

/// Closed loop: repeats `pipeline` over fresh seeds (`base_seed + run`)
/// until at least `target_ops` register ops went through the backend.
pub fn run_closed_loop(
    pipeline: Pipeline,
    be: &BackendSpec,
    target_ops: u64,
    base_seed: u64,
) -> CellStats {
    let obs = MetricsHandle::counters();
    let (mut runs, mut slots) = (0u64, 0u64);
    while obs.get(Counter::OpReads) + obs.get(Counter::OpWrites) < target_ops {
        let seed = base_seed + runs;
        slots += pipeline.run_once(be.build(seed, &[]), seed, &obs);
        runs += 1;
    }
    CellStats::read(&obs, runs, slots, None)
}

/// Open loop: a seeded synthetic stream of `ops` register ops aimed
/// directly at the backend. The arrival process rotates over `pids`
/// clients, each holding the loop for `burst` consecutive ops; keys and
/// read/write mix come from a splitmix64 stream. Returned values are
/// checked against a [`SharedMemory`] mirror, so the cell is a correctness
/// probe as well as a meter.
///
/// # Panics
///
/// Panics if the backend disagrees with the mirror (linearizability bug).
pub fn run_open_loop(ops: u64, pids: usize, keys: usize, burst: u64, be: &BackendSpec, seed: u64) -> CellStats {
    let obs = MetricsHandle::counters();
    let keyset: Vec<RegKey> =
        (0..keys as u32).map(|i| RegKey::new(9).at(0, i)).collect();
    let mut backend = be.build(seed, &[]);
    let mut mirror = SharedMemory::new();
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
        let me = Pid(((op / burst.max(1)) % pids.max(1) as u64) as usize);
        let r = next();
        let key = keyset[(r >> 8) as usize % keyset.len()];
        if r & 3 == 0 {
            let val = Value::Int((r >> 32) as i64);
            backend.write(me, op, key, val.clone());
            mirror.write(key, val);
        } else {
            assert_eq!(
                backend.read(me, op, key),
                mirror.peek(key),
                "backend diverged from the shared-memory mirror at op {op}"
            );
        }
    }
    drop(backend);
    CellStats::read(&obs, 1, 0, Some(ops))
}

/// One row of the B10 report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct B10Row {
    /// Stable row id, `<group>/<pipeline-or-stream>/<backend>`.
    pub id: String,
    /// The deterministic cell outcome.
    pub stats: CellStats,
}

impl B10Row {
    fn json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"id\": \"{}\", \"runs\": {}, \"ops\": {}, \"quorum_ops\": {}, \"msgs\": {}, \
             \"batch_rounds\": {}, \"batched_ops\": {}, \"shard_msgs\": [{}, {}, {}, {}], \
             \"slots\": {}, \"msgs_per_100_ops\": {}}}",
            self.id,
            s.runs,
            s.ops,
            s.quorum_ops,
            s.msgs,
            s.batch_rounds,
            s.batched_ops,
            s.shard_msgs[0],
            s.shard_msgs[1],
            s.shard_msgs[2],
            s.shard_msgs[3],
            s.slots,
            s.msgs_per_100_ops(),
        )
    }
}

/// The canonical B10 cell matrix at `target_ops` register ops per cell.
///
/// Groups: `batch/*` sweeps the batching factor at 8 replicas on the ksa
/// pipeline; `shard/*` splits the same 12-replica budget into 1×12, 2×6 and
/// 4×3 groups; `rename/*` repeats the batch sweep endpoints on the renaming
/// pipeline; `stream/*` is the open-loop synthetic stream at bursts 1
/// (adversarial arrivals) and 16 (per-process loops).
pub fn b10_cells(target_ops: u64, base_seed: u64) -> Vec<B10Row> {
    let ksa = Pipeline::Ksa { n: 4, k: 2, stab: 50 };
    let rename = Pipeline::Rename { j: 3, conc: 2 };
    let mut rows = Vec::new();
    for b in [1, 4, 16] {
        let (be, spec) = abd(8, 1, b);
        rows.push(B10Row {
            id: format!("batch/{}/{be}", ksa.id()),
            stats: run_closed_loop(ksa, &spec, target_ops, base_seed),
        });
    }
    for (shards, nodes) in [(1, 12), (2, 6), (4, 3)] {
        let (be, spec) = abd(nodes, shards, 4);
        rows.push(B10Row {
            id: format!("shard/{}/{be}", ksa.id()),
            stats: run_closed_loop(ksa, &spec, target_ops, base_seed),
        });
    }
    for b in [1, 16] {
        let (be, spec) = abd(4, 1, b);
        rows.push(B10Row {
            id: format!("rename/{}/{be}", rename.id()),
            stats: run_closed_loop(rename, &spec, target_ops, base_seed),
        });
    }
    for (burst, b) in [(1, 16), (16, 1), (16, 16)] {
        let (be, spec) = abd(8, 1, b);
        rows.push(B10Row {
            id: format!("stream/burst{burst}/{be}"),
            stats: run_open_loop(target_ops, 4, 24, burst, &spec, base_seed),
        });
    }
    rows
}

/// Renders the deterministic B10 report: byte-identical for every seed ×
/// op-target pair regardless of `WFA_THREADS` (the CI smoke job diffs it).
pub fn b10_report(target_ops: u64, base_seed: u64) -> String {
    let rows: Vec<String> =
        b10_cells(target_ops, base_seed).iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"family\": \"B10\",\n  \"target_ops_per_cell\": {target_ops},\n  \
         \"base_seed\": {base_seed},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_meets_its_op_target_and_counts_messages() {
        let stats = run_closed_loop(
            Pipeline::Ksa { n: 4, k: 2, stab: 50 },
            &abd(4, 1, 1).1,
            500,
            1,
        );
        assert!(stats.ops >= 500, "{stats:?}");
        assert!(stats.runs >= 1);
        // Unbatched 4-replica ABD: 2 phases × 4 replicas × 2 legs per op.
        assert_eq!(stats.msgs, stats.ops * 16, "{stats:?}");
        assert_eq!(stats.batch_rounds, 0);
        assert_eq!(stats.shard_msgs[0], stats.msgs);
    }

    #[test]
    fn batching_cuts_messages_on_the_same_pipeline() {
        let plain = run_closed_loop(
            Pipeline::Ksa { n: 4, k: 2, stab: 50 },
            &abd(8, 1, 1).1,
            400,
            1,
        );
        let batched = run_closed_loop(
            Pipeline::Ksa { n: 4, k: 2, stab: 50 },
            &abd(8, 1, 16).1,
            400,
            1,
        );
        // Same pipeline, same seeds → same runs, same op stream.
        assert_eq!(plain.runs, batched.runs);
        assert_eq!(plain.ops, batched.ops);
        assert_eq!(plain.slots, batched.slots, "batching must not change schedules");
        assert!(batched.batch_rounds > 0);
        // The fair scheduler interleaves pids almost every op, so pipeline
        // coalescing comes only from multi-read steps (snapshots) — a real
        // but modest cut. The big wins live in the bursty stream cells.
        assert!(
            batched.msgs < plain.msgs,
            "batched {} vs unbatched {} messages",
            batched.msgs,
            plain.msgs
        );
    }

    #[test]
    fn sharding_splits_traffic_across_groups() {
        let stats = run_open_loop(2_000, 4, 24, 8, &abd(3, 4, 1).1, 7);
        assert_eq!(stats.ops, 2_000);
        assert_eq!(stats.shard_msgs.iter().sum::<u64>(), stats.msgs);
        assert!(
            stats.shard_msgs.iter().all(|&m| m > 0),
            "every group should see traffic: {stats:?}"
        );
    }

    #[test]
    fn open_loop_burst_one_defeats_batching() {
        let adversarial = run_open_loop(1_000, 4, 24, 1, &abd(4, 1, 16).1, 3);
        let bursty = run_open_loop(1_000, 4, 24, 16, &abd(4, 1, 16).1, 3);
        // Interleaved arrivals flush every one-op batch; bursty arrivals
        // coalesce — same ops, very different message bills.
        assert!(bursty.msgs * 4 <= adversarial.msgs, "{bursty:?} vs {adversarial:?}");
    }

    /// Times `f` `samples` times; returns `(median, min, max, rel_var)`
    /// where the measure is ops/sec and `rel_var` is the unbiased sample
    /// variance of the per-sample ops/sec, relative to the median squared.
    fn ops_per_sec(samples: usize, ops: u64, mut f: impl FnMut(u64)) -> (f64, f64, f64, f64) {
        let mut xs: Vec<f64> = (0..samples as u64)
            .map(|s| {
                let t = std::time::Instant::now();
                f(s);
                ops as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let med = xs[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (xs.len() as f64 - 1.0).max(1.0);
        (med, xs[0], xs[xs.len() - 1], var / (med * med))
    }

    /// `(nodes, shards, batch_max)` of one emitted row.
    type Shape = (usize, usize, u64);

    /// Regenerates `BENCH_net_throughput.json` at the repository root:
    /// `cargo test -p wfa-bench --release emit_bench_net_throughput -- --ignored --nocapture`
    #[test]
    #[ignore = "writes BENCH_net_throughput.json; run explicitly to regenerate it"]
    fn emit_bench_net_throughput() {
        const SAMPLES: usize = 5;
        const STREAM_OPS: u64 = 200_000;
        const PIPE_OPS: u64 = 20_000;
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        // Open-loop stream, bursty arrivals (per-process loops): the
        // headline batching and sharding curves.
        let stream = |(nodes, shards, batch): Shape| {
            ops_per_sec(SAMPLES, STREAM_OPS, |s| {
                run_open_loop(STREAM_OPS, 4, 24, 16, &abd(nodes, shards, batch).1, 1 + s);
            })
        };
        // Closed-loop ksa pipeline: honest end-to-end numbers where the
        // fair scheduler limits coalescing to snapshot steps.
        let pipe = |(nodes, shards, batch): Shape| {
            let spec = abd(nodes, shards, batch).1;
            ops_per_sec(SAMPLES, PIPE_OPS, |s| {
                run_closed_loop(Pipeline::Ksa { n: 4, k: 2, stab: 50 }, &spec, PIPE_OPS, 1 + s * 97);
            })
        };
        let row = |curve: &str, (nodes, shards, batch): Shape, (med, min, max, var): (f64, f64, f64, f64)| {
            format!(
                "      {{\"id\": \"{curve}/{}\", \"shards\": {shards}, \"nodes\": {nodes}, \
                 \"batch_max\": {batch}, \"median_ops_per_sec\": {med:.0}, \"min_ops_per_sec\": \
                 {min:.0}, \"max_ops_per_sec\": {max:.0}, \"rel_variance\": {var:.4}, \
                 \"samples\": {SAMPLES}}}",
                abd(nodes, shards, batch).0,
            )
        };
        let batch_curve: Vec<(Shape, _)> =
            [1u64, 2, 4, 8, 16].iter().map(|&b| ((8, 1, b), stream((8, 1, b)))).collect();
        let shard_curve: Vec<(Shape, _)> = [(1usize, 12usize), (2, 6), (4, 3)]
            .iter()
            .map(|&(s, n)| ((n, s, 1), stream((n, s, 1))))
            .collect();
        let pipe_rows: Vec<(Shape, _)> =
            [1u64, 16].iter().map(|&b| ((8, 1, b), pipe((8, 1, b)))).collect();
        let b16_vs_b1 = batch_curve[4].1 .0 / batch_curve[0].1 .0;
        let sharded_vs_flat = shard_curve[2].1 .0 / shard_curve[0].1 .0;
        assert!(
            b16_vs_b1 >= 2.0,
            "acceptance: nodes=8 batch_max=16 must be ≥2x unbatched, got {b16_vs_b1:.2}"
        );
        assert!(
            sharded_vs_flat >= 1.5,
            "acceptance: 4x3 shards must be ≥1.5x flat 12 replicas, got {sharded_vs_flat:.2}"
        );
        let rows: Vec<String> = batch_curve
            .iter()
            .map(|(be, t)| row("stream_batch", *be, *t))
            .chain(shard_curve.iter().map(|(be, t)| row("stream_shard", *be, *t)))
            .chain(pipe_rows.iter().map(|(be, t)| row("pipeline_ksa", *be, *t)))
            .collect();
        let total_ops = (batch_curve.len() + shard_curve.len()) as u64
            * STREAM_OPS
            * SAMPLES as u64
            + pipe_rows.len() as u64 * PIPE_OPS * SAMPLES as u64;
        let text = format!(
            "{{\n  \"description\": \"B10 — ABD net-backend throughput across batching factors \
             (batch_max), register-space shards (groups x replicas-per-group) and replica \
             counts. stream_* rows: open-loop synthetic register stream, burst 16 (per-process \
             loops), 4 clients over 24 registers. pipeline_ksa rows: closed-loop EFD k-set \
             agreement runs back-to-back. Regenerate: cargo test -p wfa-bench --release \
             emit_bench_net_throughput -- --ignored --nocapture. Deterministic counter shapes: \
             wfa-cli throughput. Methodology: EXPERIMENTS.md B10, DESIGN.md section 11.\",\n  \
             \"date\": \"2026-08-08\",\n  \
             \"host\": {{\n    \"cores\": {cores},\n    \"note\": \"Single-process, \
             single-threaded driver; wall-clock variance per row is reported as rel_variance \
             (sample variance of ops/sec relative to the median squared). Ratios are more \
             stable than absolute numbers.\"\n  }},\n  \
             \"total_ops_measured\": {total_ops},\n  \
             \"results\": [\n{}\n  ],\n  \
             \"headline\": {{\n    \
             \"stream_nodes8_batch16_vs_unbatched\": {b16_vs_b1:.2},\n    \
             \"stream_shards4x3_vs_flat12\": {sharded_vs_flat:.2},\n    \
             \"pipeline_ksa_nodes8_batch16_vs_unbatched\": {pipe_ratio:.2}\n  }},\n  \
             \"notes\": [\n    \
             \"Batching coalesces adjacent same-pid ops into one two-phase quorum round: at \
             burst 16 the message bill drops ~16x and ops/sec follows.\",\n    \
             \"Sharding pays each op only its group's quorum (4*nodes_per_group messages), so \
             4x3 groups beat one 12-replica group even without batching.\",\n    \
             \"Closed-loop pipelines batch only across multi-read snapshot steps (the fair \
             scheduler interleaves pids), so their gain is real but modest; the equivalence \
             suite (tests/e16_batch_shard.rs) pins that slots and decisions never change.\"\n  \
             ]\n}}\n",
            rows.join(",\n"),
            pipe_ratio = pipe_rows[1].1 .0 / pipe_rows[0].1 .0,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net_throughput.json");
        std::fs::write(path, &text).expect("writing BENCH_net_throughput.json");
        println!("{text}");
        println!("wrote {path}");
    }

    #[test]
    fn b10_report_is_deterministic() {
        let a = b10_report(300, 1);
        let b = b10_report(300, 1);
        assert_eq!(a, b);
        assert!(a.contains("\"family\": \"B10\""));
        assert!(a.contains("batch/ksa_n4k2/abd_n8_b16"));
        assert!(a.contains("shard/ksa_n4k2/abd_4x3_b4"));
        assert!(a.contains("stream/burst16/abd_n8_b16"));
    }
}
