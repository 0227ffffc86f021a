//! Systematic fault sweeps: bounded-DFS plan search, panic-isolated
//! parallel evaluation, deterministic reports.
//!
//! [`PlanSearch`] *enumerates* fault plans (every combination of up to
//! `depth` atomic faults from a scenario-derived menu) instead of sampling
//! them — the adversary is exhaustive within its bound, so a clean sweep is
//! a statement about a space, not a sample. [`sweep`] evaluates every
//! `(plan, seed)` job on a worker pool; each job runs under `catch_unwind`,
//! so one torn automaton becomes a [`ViolationKind::Panic`] entry in the
//! report instead of taking the sweep down.
//!
//! Determinism contract: job seeds derive from `(base_seed, job index)`,
//! results are assembled in job-index order, and the report serializes no
//! timing or thread information — `SweepReport::to_json` is byte-identical
//! for any worker count (`WFA_THREADS=1` vs `8` is CI-enforced).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wfa_obs::metrics::{Counter, MetricsHandle, Snapshot};

use crate::backend::BackendSpec;
use crate::json::Json;
use crate::plan::FaultPlan;
use crate::run::{payload_string, run_plan_observed};
use crate::scenario::Scenario;
use crate::shrink::shrink;
use crate::violation::{Violation, ViolationKind};

/// One atomic fault the search can add to a plan.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Component {
    Crash(usize, u64),
    Stop(usize, u64),
    Lose(usize, u64),
    Freeze(usize, u64),
    Delay(u64),
    Clear(u64),
    NetPartition(usize, u64),
    NetDrop(usize, u64, u64),
    NetHeal(u64),
    /// Crash one replica at `.1`, recover it at `.2` (inside the recovery
    /// horizon, so the plan stays creditable).
    NetCrashRecover(usize, u64, u64),
    /// Crash replicas 0 and 1 at `.0`, recover both at `.1`: a majority
    /// blip the retransmission+re-sync machinery must absorb.
    NetBlip(u64, u64),
    /// Corrupt all traffic to/from one replica during a window; the
    /// checksum layer quarantines the damage, so this is a loss window the
    /// retransmission machinery recovers from.
    NetCorrupt(usize, u64, u64),
}

impl Component {
    /// `true` for components whose *only* effect is message loss over the
    /// net backend: drops, corruption windows (quarantine = loss),
    /// partitions without heals, and creditable crash/recover pairs.
    ///
    /// These are the components dominance pruning may treat as monotone:
    /// the net backend never changes a decision (degraded ops serve the
    /// linearized view), so adding pure loss can only *add* violations —
    /// if a superset plan survived cleanly, the subset cannot newly
    /// violate. Mitigating components ([`Component::Clear`],
    /// [`Component::NetHeal`]) and process/FD faults (which change the run
    /// itself) are excluded: a plan differing by one of those is never
    /// used to prune. Scenarios on the gossip backend never prune at all
    /// (`BackendSpec::Gossip`): there, loss starves anti-entropy and
    /// changes the *value* a read observes, so the monotone argument fails.
    fn is_monotone_loss(&self) -> bool {
        matches!(
            self,
            Component::NetDrop(..)
                | Component::NetCorrupt(..)
                | Component::NetPartition(..)
                | Component::NetCrashRecover(..)
                | Component::NetBlip(..)
        )
    }
}

/// Bounded-DFS enumeration of fault plans for one scenario.
///
/// The component menu is derived from the scenario (crash/stop points per
/// process at `t ∈ {0, stab}`, sample loss and freezing, advice delay and a
/// clearing point); [`PlanSearch::plans`] returns every valid combination
/// of at most `depth` components, in a deterministic order starting with
/// the clean plan.
#[derive(Clone, Debug)]
pub struct PlanSearch {
    components: Vec<Component>,
    depth: usize,
    n: usize,
    net_nodes: usize,
}

impl PlanSearch {
    /// The search space for `sc` with the given combination bound.
    pub fn for_scenario(sc: &Scenario, depth: usize) -> PlanSearch {
        let mut components = Vec::new();
        let times = [0, sc.stab];
        for q in 0..sc.n {
            for t in times {
                components.push(Component::Crash(q, t));
            }
        }
        let max_p = sc.task.max_participants().min(sc.n);
        for i in 0..max_p {
            components.push(Component::Stop(i, 0));
        }
        for q in 0..sc.n {
            components.push(Component::Lose(q, 2));
            components.push(Component::Freeze(q, 3));
        }
        components.push(Component::Delay(sc.stab));
        components.push(Component::Clear(2 * sc.stab));
        let net_nodes = sc.backend.nodes();
        if net_nodes > 0 {
            // Single-replica partitions, bounded drop windows and
            // crash/recover pairs inside the recovery horizon: the
            // adversary stays inside (or creditably returns to) the ABD
            // majority assumption, so these probe the protocol's liveness
            // rather than exceed its model (majority-breaking plans are
            // built by hand, not swept — the all-crash exclusion's
            // analogue).
            let rh = wfa_net::config::NetConfig::new(net_nodes, 0).recovery_horizon();
            for node in 0..net_nodes {
                components.push(Component::NetPartition(node, sc.stab));
                components.push(Component::NetDrop(node, 0, sc.stab));
                components.push(Component::NetCorrupt(node, 0, sc.stab));
                components.push(Component::NetCrashRecover(node, sc.stab, sc.stab + rh));
            }
            components.push(Component::NetHeal(2 * sc.stab));
            if net_nodes >= 3 {
                components.push(Component::NetBlip(2 * sc.stab, 2 * sc.stab + rh));
            }
        }
        PlanSearch { components, depth, n: sc.n, net_nodes }
    }

    /// Every valid plan with at most `depth` components (clean plan first).
    pub fn plans(&self) -> Vec<FaultPlan> {
        self.plans_with_combos().into_iter().map(|(p, _)| p).collect()
    }

    /// [`PlanSearch::plans`] plus each plan's component combination (menu
    /// indices) — what dominance pruning compares as a set.
    pub fn plans_with_combos(&self) -> Vec<(FaultPlan, Vec<usize>)> {
        let mut out = vec![(FaultPlan::clean(), Vec::new())];
        let mut combo = Vec::new();
        self.dfs(0, &mut combo, &mut out);
        out
    }

    fn dfs(&self, from: usize, combo: &mut Vec<usize>, out: &mut Vec<(FaultPlan, Vec<usize>)>) {
        if combo.len() >= self.depth {
            return;
        }
        for idx in from..self.components.len() {
            combo.push(idx);
            if let Some(plan) = self.build(combo) {
                out.push((plan, combo.clone()));
                self.dfs(idx + 1, combo, out);
            }
            combo.pop();
        }
    }

    /// Builds the plan for a component combination, or `None` if invalid
    /// (all S-processes crashed, a process FD-faulted twice, a duplicate
    /// crash/stop target, a delay repeated, or a clear with nothing to
    /// clear).
    fn build(&self, combo: &[usize]) -> Option<FaultPlan> {
        let mut plan = FaultPlan::clean();
        for idx in combo {
            match &self.components[*idx] {
                Component::Crash(q, t) => {
                    if plan.crashes.iter().any(|(cq, _)| cq == q) {
                        return None;
                    }
                    plan = plan.crash_s(*q, *t);
                }
                Component::Stop(i, t) => {
                    if plan.stops.iter().any(|(si, _)| si == i) {
                        return None;
                    }
                    plan = plan.stop_c(*i, *t);
                }
                Component::Lose(q, p) => {
                    if plan.fd_faults.iter().any(|f| f.q() == *q) {
                        return None;
                    }
                    plan = plan.lose(*q, *p);
                }
                Component::Freeze(q, p) => {
                    if plan.fd_faults.iter().any(|f| f.q() == *q) {
                        return None;
                    }
                    plan = plan.freeze(*q, *p);
                }
                Component::Delay(d) => {
                    if plan.advice_delay > 0 {
                        return None;
                    }
                    plan = plan.delay_advice(*d);
                }
                Component::Clear(t) => {
                    if plan.clear_after.is_some()
                        || (plan.fd_faults.is_empty() && plan.advice_delay == 0)
                    {
                        return None;
                    }
                    plan = plan.clear_at(*t);
                }
                Component::NetPartition(node, t) => {
                    if plan
                        .net_faults
                        .iter()
                        .any(|f| matches!(f, wfa_net::config::NetFault::Partition { .. }))
                    {
                        return None;
                    }
                    plan = plan.partition(vec![*node], *t);
                }
                Component::NetDrop(node, at, until) => {
                    if plan.net_faults.iter().any(
                        |f| matches!(f, wfa_net::config::NetFault::Drop { node: d, .. } if d == node),
                    ) {
                        return None;
                    }
                    plan = plan.drop_link(*node, *at, *until);
                }
                Component::NetCorrupt(node, at, until) => {
                    if plan.net_faults.iter().any(
                        |f| matches!(f, wfa_net::config::NetFault::CorruptMessage { node: c, .. } if c == node),
                    ) {
                        return None;
                    }
                    plan = plan.corrupt_link(*node, *at, *until);
                }
                Component::NetHeal(t) => {
                    let has_partition = plan
                        .net_faults
                        .iter()
                        .any(|f| matches!(f, wfa_net::config::NetFault::Partition { .. }));
                    let has_heal = plan
                        .net_faults
                        .iter()
                        .any(|f| matches!(f, wfa_net::config::NetFault::Heal { .. }));
                    if !has_partition || has_heal {
                        return None;
                    }
                    plan = plan.heal(*t);
                }
                Component::NetCrashRecover(node, at, rec) => {
                    if plan.net_faults.iter().any(|f| {
                        matches!(f, wfa_net::config::NetFault::CrashReplica { node: n, .. } if n == node)
                    }) {
                        return None;
                    }
                    plan = plan.crash_replica(*node, *at).recover_replica(*node, *rec);
                }
                Component::NetBlip(at, rec) => {
                    if plan
                        .net_faults
                        .iter()
                        .any(|f| matches!(f, wfa_net::config::NetFault::CrashReplica { .. }))
                    {
                        return None;
                    }
                    plan = plan
                        .crash_replica(0, *at)
                        .crash_replica(1, *at)
                        .recover_replica(0, *rec)
                        .recover_replica(1, *rec);
                }
            }
        }
        if plan.crashes.len() >= self.n {
            return None;
        }
        // The search never exceeds the ABD model: every emitted plan keeps a
        // reachable majority (the all-crash exclusion's network analogue).
        if self.net_nodes > 0 && !plan.net_majority_safe(self.net_nodes) {
            return None;
        }
        Some(plan)
    }
}

/// Configuration of one fault sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The scenario to sweep ([`Scenario::by_name`]).
    pub scenario: String,
    /// Combination bound for [`PlanSearch`].
    pub depth: usize,
    /// Seeds evaluated per plan.
    pub seeds_per_plan: u64,
    /// Base seed (job seeds derive from it deterministically).
    pub base_seed: u64,
    /// Shrink violations before reporting.
    pub shrink: bool,
    /// Worker threads; `None` reads `WFA_THREADS` (default 1).
    pub threads: Option<usize>,
    /// Dominance-prune the plan space: a plan whose component set is a
    /// subset of a *surviving* (zero-violation) plan's, where every extra
    /// component is pure message loss, is skipped — it cannot newly
    /// violate. Pruning never changes the violation list, only which clean
    /// runs are spared; disable it to force-run every plan.
    pub prune: bool,
    /// Hard cap on plans evaluated (`0`: unlimited). Enumeration order is
    /// deterministic, so the truncation is too; everything past the budget
    /// is counted in [`SweepReport::plans_pruned`].
    pub plan_budget: usize,
}

impl SweepConfig {
    /// A small default sweep of `scenario`: depth 2, 2 seeds per plan.
    pub fn new(scenario: &str) -> SweepConfig {
        SweepConfig {
            scenario: scenario.to_string(),
            depth: 2,
            seeds_per_plan: 2,
            base_seed: 1,
            shrink: true,
            threads: None,
            prune: true,
            plan_budget: 0,
        }
    }

    /// The resolved worker count.
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .or_else(|| std::env::var("WFA_THREADS").ok().and_then(|s| s.parse().ok()))
            .unwrap_or(1)
            .max(1)
    }
}

/// The deterministic outcome of a fault sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The swept scenario.
    pub scenario: String,
    /// Plans enumerated by the search (before dedup, budget, or pruning).
    pub plans: usize,
    /// Plans *not* evaluated: dominance-pruned, deduplicated, or past the
    /// plan budget. Always `plans - plans_run`.
    pub plans_pruned: usize,
    /// Plans actually evaluated.
    pub plans_run: usize,
    /// `(plan, seed)` jobs evaluated (`plans_run × seeds_per_plan`).
    pub runs: usize,
    /// All violations, in job order (shrunk if configured); panics appear
    /// here as [`ViolationKind::Panic`] entries.
    pub violations: Vec<Violation>,
    /// The canonical metrics snapshot: each job records into its own
    /// registry (shard-per-job, no cross-thread contention) and the
    /// per-job snapshots are merged in job-index order, so the result is
    /// worker-count invariant. Not part of [`SweepReport::to_json`], whose
    /// byte format predates the observability layer; export it through
    /// [`Snapshot::to_json`] instead.
    pub metrics: Snapshot,
}

impl SweepReport {
    /// Violations of a given broad kind.
    pub fn count_kind(&self, pred: impl Fn(&ViolationKind) -> bool) -> usize {
        self.violations.iter().filter(|v| pred(&v.kind)).count()
    }

    /// Canonical serialization — byte-identical across worker counts.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("plans".into(), Json::Num(self.plans as u64)),
            ("plans_pruned".into(), Json::Num(self.plans_pruned as u64)),
            ("plans_run".into(), Json::Num(self.plans_run as u64)),
            ("runs".into(), Json::Num(self.runs as u64)),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().map(Violation::to_json).collect()),
            ),
        ])
    }
}

/// The seed for seed-slot `idx` of a sweep (the ensemble derivation,
/// reused). Every plan is evaluated on the *same* seed set — slot `s` maps
/// to the same seed under every plan, which is what makes subset-dominance
/// comparisons between plans sound (same inputs, same base schedule).
pub fn job_seed(base: u64, idx: usize) -> u64 {
    base.wrapping_mul(1_000_003).wrapping_add(idx as u64)
}

/// Runs one sweep: enumerates plans, evaluates every `(plan, seed)` job on
/// `resolved_threads()` workers with per-job panic isolation, and returns
/// the violations in deterministic job order.
///
/// # Panics
///
/// Panics only if the scenario name is unknown — never because a *run*
/// panicked (those become [`ViolationKind::Panic`] violations).
pub fn sweep(config: &SweepConfig) -> SweepReport {
    let sc = Scenario::by_name(&config.scenario)
        .unwrap_or_else(|| panic!("unknown scenario `{}`", config.scenario));
    let search = PlanSearch::for_scenario(&sc, config.depth);
    let enumerated = search.plans_with_combos();
    let generated = enumerated.len();

    // Plan-level dedup: distinct combinations that assemble an identical
    // fault plan would evaluate identical runs; keep the first occurrence.
    let mut seen = std::collections::HashSet::new();
    let mut plans: Vec<(FaultPlan, Vec<usize>)> = Vec::new();
    for (plan, combo) in enumerated {
        if seen.insert(plan.describe()) {
            plans.push((plan, combo));
        }
    }
    // Plan budget: a deterministic truncation in enumeration order bounds
    // the sweep's cost; everything past the cap counts as pruned.
    if config.plan_budget > 0 && plans.len() > config.plan_budget {
        plans.truncate(config.plan_budget);
    }

    // Dominance pruning works on u128 combination masks, so the subset
    // tests are O(1); a menu wider than 128 components (none is — the
    // widest canonical menu is ~35) would overflow the mask, in which case
    // pruning is skipped (correctness never depends on it).
    let maskable = search.components.len() <= 128;
    let mask_of = |combo: &[usize]| combo.iter().fold(0u128, |m, i| m | (1u128 << *i));
    // Over the gossip backend *no* component is monotone: loss starves
    // anti-entropy, which changes what a read observes (stale advice), not
    // just what an op costs — the clean-superset argument is unsound there,
    // so dominance pruning is disabled (the mask is empty, so no plan ever
    // has pure-loss extras).
    let monotone: u128 = if matches!(sc.backend, BackendSpec::Gossip(_)) {
        0
    } else {
        search
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_monotone_loss())
            .fold(0u128, |m, (i, _)| m | (1u128 << i))
    };

    // Execute in waves of descending combination size: every potential
    // dominator (a strict superset) finishes in an earlier wave, so by the
    // time a plan is considered its dominators' verdicts are all in.
    // Equal-size sets cannot dominate each other (a subset of equal
    // cardinality is equal), so the barrier between waves is the only
    // ordering pruning needs — and it is thread-count independent.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|i| std::cmp::Reverse(plans[*i].1.len()));

    let seeds = config.seeds_per_plan as usize;
    let slots: Mutex<Vec<JobSlot>> = Mutex::new(vec![None; plans.len() * seeds]);
    let mut clean_masks: Vec<u128> = Vec::new();
    let mut plans_run = 0usize;

    let mut w = 0;
    while w < order.len() {
        let size = plans[order[w]].1.len();
        let mut runnable = Vec::new();
        while w < order.len() && plans[order[w]].1.len() == size {
            let pi = order[w];
            w += 1;
            let qm = mask_of(&plans[pi].1);
            // Prune iff some surviving plan's set is a superset whose
            // extras are all pure-loss components: the subset plan cannot
            // newly violate. The pruned plan's own mask joins the clean
            // set — its cleanliness is implied, so it dominates onward.
            let dominated = config.prune
                && maskable
                && clean_masks.iter().any(|pm| qm & !pm == 0 && (pm & !qm) & !monotone == 0);
            if dominated {
                clean_masks.push(qm);
            } else {
                runnable.push(pi);
            }
        }
        plans_run += runnable.len();
        let jobs: Vec<(usize, usize)> =
            runnable.iter().flat_map(|pi| (0..seeds).map(move |s| (*pi, s))).collect();
        run_wave(&sc, config, &plans, &jobs, &slots);
        // Harvest the wave's verdicts before the next (smaller) wave is
        // admitted: a plan survives iff every seed produced zero
        // violations (a panic counts — it is one in the report).
        if maskable {
            let held = slots.lock().expect("slot lock");
            for pi in runnable {
                let clean = (0..seeds)
                    .all(|s| held[pi * seeds + s].as_ref().is_some_and(|(vs, _)| vs.is_empty()));
                if clean {
                    clean_masks.push(mask_of(&plans[pi].1));
                }
            }
        }
    }

    // Violations and metrics assemble in enumeration order (plan index ×
    // seed slot), not wave order — the report stays byte-identical no
    // matter how the waves interleaved across workers.
    let mut metrics = Snapshot::default();
    let mut violations = Vec::new();
    let mut runs = 0;
    for (vs, snap) in slots.into_inner().expect("slot lock").into_iter().flatten() {
        runs += 1;
        violations.extend(vs);
        metrics.merge(&snap);
    }
    let sweep_obs = MetricsHandle::counters();
    sweep_obs.add(Counter::SweepPlansGenerated, generated as u64);
    sweep_obs.add(Counter::SweepPlansPruned, (generated - plans_run) as u64);
    sweep_obs.add(Counter::SweepPlansRun, plans_run as u64);
    metrics.merge(&sweep_obs.snapshot().expect("sweep registry is enabled"));
    SweepReport {
        scenario: sc.name,
        plans: generated,
        plans_pruned: generated - plans_run,
        plans_run,
        runs,
        violations,
        metrics,
    }
}

/// One enumeration-order result slot: a job's violations and metrics
/// snapshot, `None` until (or unless — pruned plans never run) it fills.
type JobSlot = Option<(Vec<Violation>, Snapshot)>;

/// Evaluates one wave's `(plan index, seed slot)` jobs on the worker pool,
/// depositing each job's violations and metrics snapshot into its
/// enumeration-order slot.
fn run_wave(
    sc: &Scenario,
    config: &SweepConfig,
    plans: &[(FaultPlan, Vec<usize>)],
    jobs: &[(usize, usize)],
    slots: &Mutex<Vec<JobSlot>>,
) {
    let seeds = config.seeds_per_plan as usize;
    let next = AtomicUsize::new(0);
    let workers = config.resolved_threads().min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((pi, s)) = jobs.get(i).copied() else {
                    return;
                };
                let plan = &plans[pi].0;
                let seed = job_seed(config.base_seed, s);
                // One registry per job, created outside `catch_unwind`: a
                // panicking run still reports the counters it reached (the
                // same prefix on every re-execution, so still deterministic).
                let obs = MetricsHandle::counters();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut vs = run_plan_observed(sc, plan, seed, &obs).violations;
                    if config.shrink {
                        for v in &mut vs {
                            obs.add(Counter::ShrinkReplays, shrink(v) as u64);
                        }
                    }
                    vs
                }));
                let vs = result.unwrap_or_else(|payload| {
                    vec![Violation {
                        scenario: sc.name.clone(),
                        seed,
                        plan: plan.clone(),
                        kind: ViolationKind::Panic { payload: payload_string(payload.as_ref()) },
                        schedule: Vec::new(),
                        original_len: 0,
                    }]
                });
                obs.bump(Counter::SweepJobs);
                obs.add(Counter::SweepViolations, vs.len() as u64);
                let snap = obs.snapshot().expect("job registry is enabled");
                slots.lock().expect("slot lock")[pi * seeds + s] = Some((vs, snap));
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FdFault;

    #[test]
    fn plan_search_is_bounded_and_valid() {
        let sc = Scenario::adopt_commit();
        let search = PlanSearch::for_scenario(&sc, 2);
        let plans = search.plans();
        assert_eq!(plans[0], FaultPlan::clean());
        assert!(plans.len() > 20, "space too small: {}", plans.len());
        for p in &plans {
            assert!(p.crashes.len() < sc.n, "all-crash plan: {}", p.describe());
            // At most one FD fault per process.
            for f in &p.fd_faults {
                assert_eq!(p.fd_faults.iter().filter(|g| g.q() == f.q()).count(), 1);
            }
        }
        // Depth 0 is just the clean plan; depth grows the space.
        assert_eq!(PlanSearch::for_scenario(&sc, 0).plans().len(), 1);
        let d1 = PlanSearch::for_scenario(&sc, 1).plans().len();
        assert!(d1 > 1 && d1 < plans.len());
    }

    #[test]
    fn search_covers_crash_and_delay_combinations() {
        let sc = Scenario::ksa();
        let plans = PlanSearch::for_scenario(&sc, 2).plans();
        assert!(plans.iter().any(|p| !p.crashes.is_empty() && p.advice_delay > 0));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fd_faults.first(), Some(FdFault::Lose { .. }))
                && p.clear_after.is_some()));
    }

    #[test]
    fn net_scenarios_sweep_majority_safe_network_plans() {
        use wfa_net::config::NetFault;
        use wfa_net::windows::FaultWindows;

        let sc = Scenario::ksa_net();
        let plans = PlanSearch::for_scenario(&sc, 2).plans();
        // The menu actually contributes: partitions, drops and a heal show
        // up, and heals only ever ride along with a partition.
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::Partition { .. }))));
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::Drop { .. }))));
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::CorruptMessage { .. }))));
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::Heal { .. }))));
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::CrashReplica { .. }))));
        assert!(plans
            .iter()
            .any(|p| p.net_faults.iter().any(|f| matches!(f, NetFault::RecoverReplica { .. }))));
        for p in &plans {
            assert!(p.net_majority_safe(sc.backend.nodes()), "model-exceeding plan: {}", p.describe());
            // Every swept crash carries its recovery — the menu only offers
            // creditable pairs.
            let windows = FaultWindows::new(&p.net_faults, sc.backend.nodes());
            assert!(
                windows.crashes().iter().all(|w| w.closed_by.is_some()),
                "unrecovered swept crash: {}",
                p.describe()
            );
            if p.net_faults.iter().any(|f| matches!(f, NetFault::Heal { .. })) {
                assert!(
                    p.net_faults.iter().any(|f| matches!(f, NetFault::Partition { .. })),
                    "heal with nothing to heal: {}",
                    p.describe()
                );
            }
        }
        // Shared-memory scenarios get no network components.
        assert!(PlanSearch::for_scenario(&Scenario::ksa(), 2)
            .plans()
            .iter()
            .all(|p| p.net_faults.is_empty()));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut config = SweepConfig::new("fragile-commit");
        config.depth = 1;
        config.seeds_per_plan = 2;
        config.shrink = false; // keep the test fast; shrinking is deterministic anyway
        config.threads = Some(1);
        let serial = sweep(&config);
        config.threads = Some(8);
        let parallel = sweep(&config);
        assert_eq!(serial.to_json().to_string(), parallel.to_json().to_string());
        // The merged metrics snapshot is part of the determinism contract.
        assert_eq!(
            serial.metrics.to_json().to_string(),
            parallel.metrics.to_json().to_string()
        );
        assert_eq!(serial.metrics.counter("sweep_jobs"), Some(serial.runs as u64));
        assert_eq!(
            serial.metrics.counter("sweep_violations"),
            Some(serial.violations.len() as u64)
        );
        assert!(serial.metrics.counter("schedule_slots").unwrap_or(0) > 0);
    }

    #[test]
    fn pruning_never_changes_the_violation_list() {
        // The dominance rule's empirical soundness pin: on the canonical
        // net scenario at depth 2 the pruned and unpruned sweeps must agree
        // on every violation byte — pruning only spares provably clean
        // runs. (Shared-memory scenarios never prune: the monotone set is
        // net-only, so their reports agree trivially.)
        for scenario in ["ksa-net", "fragile-commit"] {
            let mut config = SweepConfig::new(scenario);
            config.depth = if scenario == "ksa-net" { 2 } else { 1 };
            config.seeds_per_plan = 1;
            config.shrink = false;
            config.threads = Some(4);
            config.prune = false;
            let full = sweep(&config);
            config.prune = true;
            let pruned = sweep(&config);
            assert_eq!(
                Json::Arr(full.violations.iter().map(Violation::to_json).collect()).to_string(),
                Json::Arr(pruned.violations.iter().map(Violation::to_json).collect())
                    .to_string(),
                "{scenario}"
            );
            assert_eq!(full.plans, pruned.plans, "{scenario}");
            assert_eq!(full.plans_pruned, 0, "{scenario}");
            assert_eq!(full.plans_run, full.plans, "{scenario}");
            assert_eq!(pruned.plans_run + pruned.plans_pruned, pruned.plans, "{scenario}");
            if scenario == "ksa-net" {
                assert!(pruned.plans_pruned > 0, "net menus must actually prune");
            } else {
                assert_eq!(pruned.plans_pruned, 0, "shm menus must never prune");
            }
            // The prune accounting is in the metrics snapshot too.
            assert_eq!(
                pruned.metrics.counter("sweep_plans_generated"),
                Some(pruned.plans as u64)
            );
            assert_eq!(
                pruned.metrics.counter("sweep_plans_pruned"),
                Some(pruned.plans_pruned as u64)
            );
            assert_eq!(pruned.metrics.counter("sweep_plans_run"), Some(pruned.plans_run as u64));
        }
    }

    #[test]
    fn pruned_net_sweep_is_thread_count_invariant() {
        // Wave barriers make the prune decisions independent of the worker
        // count; the canonical report and merged metrics must not move.
        let mut config = SweepConfig::new("ksa-net");
        config.depth = 2;
        config.seeds_per_plan = 1;
        config.shrink = false;
        config.threads = Some(1);
        let serial = sweep(&config);
        config.threads = Some(8);
        let parallel = sweep(&config);
        assert_eq!(serial.to_json().to_string(), parallel.to_json().to_string());
        assert_eq!(serial.metrics.to_json().to_string(), parallel.metrics.to_json().to_string());
    }

    #[test]
    fn gossip_sweeps_never_dominance_prune() {
        // Loss is not monotone over gossip (it changes observed values via
        // staleness), so the pruned and unpruned sweeps must run the exact
        // same plan set and produce byte-identical reports.
        let mut config = SweepConfig::new("ksa-net-gossip");
        config.depth = 1;
        config.seeds_per_plan = 1;
        config.shrink = false;
        config.threads = Some(4);
        config.prune = false;
        let full = sweep(&config);
        config.prune = true;
        let gated = sweep(&config);
        assert_eq!(full.to_json().to_string(), gated.to_json().to_string());
        assert_eq!(full.plans_run, gated.plans_run, "gossip must not dominance-prune");
    }

    #[test]
    fn plan_budget_truncates_deterministically() {
        let mut config = SweepConfig::new("fragile-commit");
        config.depth = 1;
        config.seeds_per_plan = 1;
        config.shrink = false;
        config.threads = Some(2);
        config.plan_budget = 5;
        let a = sweep(&config);
        let b = sweep(&config);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.plans_run, 5);
        assert_eq!(a.plans_pruned, a.plans - 5);
        assert_eq!(a.runs, 5);
    }

    #[test]
    fn sweep_finds_fragile_commit_violations() {
        let mut config = SweepConfig::new("fragile-commit");
        config.depth = 1;
        config.seeds_per_plan = 4;
        config.shrink = false;
        config.threads = Some(4);
        let report = sweep(&config);
        assert!(report.count_kind(|k| matches!(k, ViolationKind::Safety { .. })) > 0);
    }

    #[test]
    fn sweep_finds_wait_freedom_violations() {
        let mut config = SweepConfig::new("wait-for-all");
        config.depth = 1;
        config.seeds_per_plan = 1;
        config.shrink = false;
        config.threads = Some(2);
        let report = sweep(&config);
        assert!(report.count_kind(|k| matches!(k, ViolationKind::WaitFreedom { .. })) > 0);
        // And no safety violations: wait-for-all is safe, just not live.
        assert_eq!(report.count_kind(|k| matches!(k, ViolationKind::Safety { .. })), 0);
    }
}
