//! Sleep sets change how the explorer walks a state space, never what it
//! reports.
//!
//! The explorer skips a successor when a sleep set proves it was already
//! visited, and only on backends whose ops commute by key with no schedule
//! filter set. Any filter keeps full expansion, so exploring one instance
//! with and without the pass-everything filter compares the reduced search
//! against the full one. This suite does that over random small
//! shared-memory instances: two or three processes over one to three keys,
//! mixing reads, writes, snapshots and op-free steps, with reads steering
//! control flow; some processes decide and some spin forever. Random safety
//! checks fire or panic on some states, and random depth and state caps cut
//! the search short. The two reports must be equal field by field, and the
//! reduced search may only count fewer dedupe hits.

use std::sync::Arc;

use proptest::prelude::*;
use wfa_kernel::executor::Executor;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_modelcheck::explorer::{ExploreReport, Explorer, Limits, SafetyCheck};
use wfa_obs::metrics::{Counter, MetricsHandle};

/// One instruction of a random program.
#[derive(Clone, Copy, Hash, Debug)]
enum Instr {
    /// Reads a key and folds the value into the accumulator.
    Read(u16),
    /// Reads a key and skips the next instruction if it holds an odd value.
    Branch(u16),
    /// Writes `(acc + c) % 3` to a key.
    Write(u16, i64),
    /// Snapshots every key and folds their sum into the accumulator.
    Snapshot,
    /// A step with no memory operation.
    Nop,
}

/// Runs its program once and decides its accumulator, or, with `spin`,
/// runs it forever.
#[derive(Clone, Hash, Debug)]
struct Prog {
    code: Arc<Vec<Instr>>,
    keys: u16,
    spin: bool,
    pc: usize,
    acc: i64,
}

fn key(k: u16) -> RegKey {
    RegKey::new(1).at(0, k as u32)
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(0)
}

impl Process for Prog {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        if self.pc == self.code.len() {
            if !self.spin {
                return Status::Decided(Value::Int(self.acc));
            }
            self.pc = 0;
        }
        let mut next = self.pc + 1;
        match self.code[self.pc] {
            Instr::Read(k) => self.acc = (self.acc + int(&ctx.read(key(k)))) % 3,
            Instr::Branch(k) => {
                if int(&ctx.read(key(k))) % 2 == 1 {
                    next = (next + 1).min(self.code.len());
                }
            }
            Instr::Write(k, c) => ctx.write(key(k), Value::Int((self.acc + c) % 3)),
            Instr::Snapshot => {
                let keys: Vec<RegKey> = (0..self.keys).map(key).collect();
                let sum: i64 = ctx.snapshot(&keys).iter().map(int).sum();
                self.acc = (self.acc + sum) % 3;
            }
            Instr::Nop => {}
        }
        self.pc = next;
        Status::Running
    }
}

/// A splitmix64 stream: the instance generator.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// What a random safety check does when its trigger holds.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    Violation,
    Panic,
}

/// A random trigger: `key` holds `val`, and, if `decided`, some process
/// has decided.
#[derive(Clone, Copy, Debug)]
struct Trigger {
    key: u16,
    val: i64,
    decided: bool,
    verdict: Verdict,
}

impl Trigger {
    fn judge(&self, ex: &Executor) -> Option<String> {
        let holds = ex.memory().get(key(self.key)).map(int) == Some(self.val)
            && (!self.decided || ex.pids().any(|p| ex.status(p).decision().is_some()));
        match (holds, self.verdict) {
            (false, _) => None,
            (true, Verdict::Violation) => Some(format!("key {} holds {}", self.key, self.val)),
            (true, Verdict::Panic) => panic!("check tripped on key {}", self.key),
        }
    }
}

/// A random instance: the initial run, its safety triggers and limits.
fn instance(seed: u64) -> (Executor, Vec<Trigger>, Limits) {
    let mut g = Gen(seed);
    let keys = 1 + g.below(3) as u16;
    let mut ex = Executor::new();
    for _ in 0..2 + g.below(2) {
        let len = 1 + g.below(5) as usize;
        let code = (0..len)
            .map(|_| match g.below(9) {
                0 | 1 => Instr::Read(g.below(keys as u64) as u16),
                2 => Instr::Branch(g.below(keys as u64) as u16),
                3..=5 => Instr::Write(g.below(keys as u64) as u16, g.below(3) as i64),
                6 => Instr::Snapshot,
                _ => Instr::Nop,
            })
            .collect();
        let spin = g.below(4) == 0;
        ex.add_process(Box::new(Prog { code: Arc::new(code), keys, spin, pc: 0, acc: 0 }));
    }
    let triggers = (0..g.below(3))
        .map(|_| Trigger {
            key: g.below(keys as u64) as u16,
            val: g.below(3) as i64,
            decided: g.below(2) == 0,
            verdict: if g.below(2) == 0 { Verdict::Violation } else { Verdict::Panic },
        })
        .collect();
    let limits = Limits {
        max_states: if g.below(4) == 0 { 5 + g.below(60) } else { 100_000 },
        max_depth: if g.below(3) == 0 { 1 + g.below(12) as usize } else { 10_000 },
    };
    (ex, triggers, limits)
}

/// Explores `ex`, with the pass-everything filter when `full`, and returns
/// the report with its dedupe hits.
fn explore(
    ex: &Executor,
    check: &SafetyCheck<'_>,
    limits: Limits,
    full: bool,
) -> (ExploreReport, u64) {
    let obs = MetricsHandle::counters();
    let everyone = |_: &Executor, _| true;
    let explorer = Explorer::new(ex.pids().collect(), check, limits).with_metrics(obs.clone());
    let explorer = if full { explorer.with_filter(&everyone) } else { explorer };
    let report = explorer.run(ex);
    (report, obs.get(Counter::ExplorerDedupeHits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sleep_sets_keep_every_report(seed in 0..u64::MAX) {
        let (ex, triggers, limits) = instance(seed);
        let check = |ex: &Executor| triggers.iter().find_map(|t| t.judge(ex));
        let (reduced, reduced_dedupe) = explore(&ex, &check, limits, false);
        let (full, full_dedupe) = explore(&ex, &check, limits, true);
        prop_assert_eq!(&reduced, &full, "seed {}", seed);
        prop_assert!(reduced_dedupe <= full_dedupe, "seed {seed}: {reduced_dedupe} > {full_dedupe}");
    }
}

#[test]
fn sleep_sets_skip_successors_of_commuting_steps() {
    // Two writers on distinct keys: full expansion steps into the state
    // where both have written from both orders, the reduced search from
    // the first order only.
    let mut ex = Executor::new();
    for k in 0..2 {
        let code = Arc::new(vec![Instr::Write(k, 1)]);
        ex.add_process(Box::new(Prog { code, keys: 2, spin: false, pc: 0, acc: 0 }));
    }
    let none = |_: &Executor| None;
    let (reduced, reduced_dedupe) = explore(&ex, &none, Limits::default(), false);
    let (full, full_dedupe) = explore(&ex, &none, Limits::default(), true);
    assert_eq!(reduced, full);
    assert!(reduced.fully_verified());
    assert!(reduced_dedupe < full_dedupe, "{reduced_dedupe} vs {full_dedupe}");
}
