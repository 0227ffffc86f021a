//! Systematic fault sweeps: bounded-DFS plan search, panic-isolated
//! sequential evaluation, deterministic reports.
//!
//! [`PlanSearch`] *enumerates* fault plans (every combination of up to
//! `depth` atomic faults from a scenario-derived menu) instead of sampling
//! them — the adversary is exhaustive within its bound, so a clean sweep is
//! a statement about a space, not a sample. [`sweep`] evaluates every
//! `(plan, seed)` job in one sequential pass; each job runs under
//! `catch_unwind`, so one torn automaton becomes a [`ViolationKind::Panic`]
//! entry in the report instead of taking the sweep down.
//!
//! Determinism contract: job seeds derive from `(base_seed, seed slot)`,
//! violations are assembled in enumeration order, and the report serializes
//! no timing — a [`SweepReport`] is a pure function of the scenario, depth,
//! seeds per plan, base seed, prune switch and plan budget.

use std::panic::{catch_unwind, AssertUnwindSafe};

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
    /// Ignored: the sweep is one sequential pass, so there is no worker
    /// pool to size. Kept only because the benchmark still sets it.
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
    /// All violations, in enumeration order (shrunk if configured); panics
    /// appear here as [`ViolationKind::Panic`] entries.
    pub violations: Vec<Violation>,
    /// The canonical metrics snapshot of the whole sweep: every job and
    /// the plan accounting record into one registry. Not part of
    /// [`SweepReport::to_json`], whose byte format predates the
    /// observability layer; export it through [`Snapshot::to_json`] instead.
    pub metrics: Snapshot,
}

impl SweepReport {
    /// Violations of a given broad kind.
    pub fn count_kind(&self, pred: impl Fn(&ViolationKind) -> bool) -> usize {
        self.violations.iter().filter(|v| pred(&v.kind)).count()
    }

    /// Canonical serialization — byte-identical for identical inputs.
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

/// Runs one sweep: enumerates plans, evaluates every `(plan, seed)` job in
/// one sequential pass with per-job panic isolation, and returns the
/// violations in enumeration order.
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

    // Evaluate in descending combination size: every potential dominator
    // (a strict superset) has its verdict in by the time a plan is
    // considered. Equal-size sets cannot dominate each other (a subset of
    // equal cardinality is equal), so the order among them is immaterial.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|i| std::cmp::Reverse(plans[*i].1.len()));

    let seeds = config.seeds_per_plan as usize;
    // One registry for the whole sweep: counters and histograms only add,
    // so it holds exactly the sum of what each job recorded.
    let obs = MetricsHandle::counters();
    // Each job's violations at its enumeration-order slot (plan index ×
    // seed slot); a pruned plan's slots stay empty.
    let mut slots: Vec<Vec<Violation>> = vec![Vec::new(); plans.len() * seeds];
    let mut clean_masks: Vec<u128> = Vec::new();
    let mut plans_run = 0usize;
    for pi in order {
        let (plan, combo) = &plans[pi];
        let qm = mask_of(combo);
        // Prune iff some surviving plan's set is a superset whose extras
        // are all pure-loss components: the subset plan cannot newly
        // violate. The pruned plan's own mask joins the clean set — its
        // cleanliness is implied, so it dominates onward.
        let dominated = config.prune
            && maskable
            && clean_masks.iter().any(|pm| qm & !pm == 0 && (pm & !qm) & !monotone == 0);
        if dominated {
            clean_masks.push(qm);
            continue;
        }
        plans_run += 1;
        // A plan survives iff every seed produced zero violations (a panic
        // counts — it is one in the report).
        let mut clean = true;
        for s in 0..seeds {
            let vs = run_job(&sc, config, plan, job_seed(config.base_seed, s), &obs);
            clean &= vs.is_empty();
            slots[pi * seeds + s] = vs;
        }
        if clean && maskable {
            clean_masks.push(qm);
        }
    }

    obs.add(Counter::SweepPlansGenerated, generated as u64);
    obs.add(Counter::SweepPlansPruned, (generated - plans_run) as u64);
    obs.add(Counter::SweepPlansRun, plans_run as u64);
    SweepReport {
        scenario: sc.name,
        plans: generated,
        plans_pruned: generated - plans_run,
        plans_run,
        runs: plans_run * seeds,
        violations: slots.into_iter().flatten().collect(),
        metrics: obs.snapshot().expect("sweep registry is enabled"),
    }
}

/// Evaluates one `(plan, seed)` job under `catch_unwind`, recording into
/// `obs`. A panicking run becomes one [`ViolationKind::Panic`] violation
/// and keeps the counters it reached (the same prefix on every
/// re-execution, so still deterministic).
fn run_job(
    sc: &Scenario,
    config: &SweepConfig,
    plan: &FaultPlan,
    seed: u64,
    obs: &MetricsHandle,
) -> Vec<Violation> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut vs = run_plan_observed(sc, plan, seed, obs).violations;
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
    vs
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
    fn fragile_sweep_report_and_metrics_are_pinned() {
        let mut config = SweepConfig::new("fragile-commit");
        config.depth = 1;
        config.seeds_per_plan = 2;
        config.shrink = false; // keep the test fast; shrinking is deterministic anyway
        let r = sweep(&config);
        // The metrics snapshot is part of the determinism contract.
        assert_eq!(r.metrics.counter("sweep_jobs"), Some(r.runs as u64));
        assert_eq!(r.metrics.counter("sweep_violations"), Some(r.violations.len() as u64));
        assert!(r.metrics.counter("schedule_slots").unwrap_or(0) > 0);
        let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
        assert_eq!(counts, (17, 0, 17, 34, 2));
        let digests = (r.to_json().digest(), r.metrics.to_json().digest());
        assert_eq!(digests, (0xac8e_cbed_ba4a_0ff2, 0x327a_fb67_758e_67cb), "{digests:#x?}");
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
                // Descending-size order fixes every prune decision: the
                // pruned report and metrics are pinned.
                let r = &pruned;
                let counts = (r.plans, r.plans_pruned, r.plans_run, r.runs, r.violations.len());
                assert_eq!(counts, (433, 30, 403, 403, 12));
                let digests = (r.to_json().digest(), r.metrics.to_json().digest());
                let pin = (0x062a_e461_6ed5_58fa, 0x9511_7299_8811_6a6a);
                assert_eq!(digests, pin, "{digests:#x?}");
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
    fn gossip_sweeps_never_dominance_prune() {
        // Loss is not monotone over gossip (it changes observed values via
        // staleness), so the pruned and unpruned sweeps must run the exact
        // same plan set and produce byte-identical reports.
        let mut config = SweepConfig::new("ksa-net-gossip");
        config.depth = 1;
        config.seeds_per_plan = 1;
        config.shrink = false;
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
        let report = sweep(&config);
        assert!(report.count_kind(|k| matches!(k, ViolationKind::Safety { .. })) > 0);
    }

    #[test]
    fn sweep_finds_wait_freedom_violations() {
        let mut config = SweepConfig::new("wait-for-all");
        config.depth = 1;
        config.seeds_per_plan = 1;
        config.shrink = false;
        let report = sweep(&config);
        assert!(report.count_kind(|k| matches!(k, ViolationKind::WaitFreedom { .. })) > 0);
        // And no safety violations: wait-for-all is safe, just not live.
        assert_eq!(report.count_kind(|k| matches!(k, ViolationKind::Safety { .. })), 0);
    }
}
