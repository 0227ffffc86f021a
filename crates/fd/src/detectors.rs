//! Failure-detector history generators.
//!
//! A failure detector `D` maps a failure pattern `F` to a set of histories
//! `D(F)` (§2.1). [`FdGen`] *samples* a history from `D(F)` lazily: each call
//! to [`FdGen::output`] is one query of one S-process's module and returns
//! the value `H(q, τ)`. Generators are adversarial before an explicit
//! *stabilization time* (arbitrary spec-allowed noise) and well-behaved after
//! it — this makes every "eventually" in the paper a measurable quantity.
//!
//! S-process identities inside failure-detector values are encoded as
//! [`Value::Int`] of the S-index (the harness maps S-indices to run [`Pid`]s;
//! `Pid` is not used here so that detector values are independent of process
//! registration order).
//!
//! Every emitted value is recorded, so a finished run carries the sampled
//! history `H`, which the checkers in [`crate::spec`] validate against the
//! formal definition of `D`.
//!
//! [`Pid`]: wfa_kernel::value::Pid

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use wfa_kernel::value::Value;

use crate::pattern::{FailurePattern, SIdx};

/// A source of failure-detector outputs for one failure pattern.
///
/// The EFD harness queries histories only through this trait, so detector
/// *wrappers* — most importantly the fault-injection layer's `FaultyFdGen`,
/// which corrupts, delays or duplicates the samples of an inner [`FdGen`] —
/// can be dropped into any run without the harness knowing.
pub trait FdSource {
    /// Answers the query of S-process `q` at time `t` (i.e. `H(q, t)`).
    fn output(&mut self, q: SIdx, t: u64) -> Value;

    /// The failure pattern this history is sampled for.
    fn pattern(&self) -> &FailurePattern;

    /// The stabilization time of this sample (0 for time-independent
    /// detectors).
    fn stabilization(&self) -> u64 {
        0
    }

    /// Detector name (for reports).
    fn name(&self) -> String {
        "fd".to_string()
    }
}

impl FdSource for FdGen {
    fn output(&mut self, q: SIdx, t: u64) -> Value {
        FdGen::output(self, q, t)
    }

    fn pattern(&self) -> &FailurePattern {
        FdGen::pattern(self)
    }

    fn stabilization(&self) -> u64 {
        FdGen::stabilization(self)
    }

    fn name(&self) -> String {
        FdGen::name(self)
    }
}

/// One recorded query: `H(q, t) = val`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistoryEntry {
    /// The querying S-process.
    pub q: SIdx,
    /// The query time.
    pub t: u64,
    /// The value output by `q`'s module at `t`.
    pub val: Value,
}

/// Which failure detector a generator samples.
#[derive(Clone, Debug)]
enum FdKind {
    /// Always outputs `⊥` (the trivial failure detector, §2.2).
    Trivial,
    /// Outputs the exact crashed-so-far set (perfect detector `P`).
    Perfect,
    /// Noise before stabilization, exact faulty set after (`◇P`).
    EventuallyPerfect,
    /// `Ω`: eventually the same correct leader everywhere.
    Omega { leader: SIdx },
    /// `¬Ωk`: (n−k)-sets eventually never containing some correct process.
    AntiOmegaK { k: usize, shielded: SIdx },
    /// `→Ωk` (vector-Ωk): k-vectors with one position eventually stuck on
    /// the same correct process everywhere. With `adversarial`, the
    /// pre-stabilization noise *rotates* every query (no process holds a
    /// position two queries in a row) — the worst spec-compliant noise for
    /// leader-based algorithms.
    VectorOmegaK { k: usize, pos: usize, leader: SIdx, adversarial: bool },
    /// Deterministic pattern-dependent detector (for counterexamples like
    /// the one in §2.3).
    ByPattern { name: &'static str, f: fn(&FailurePattern, SIdx, u64) -> Value },
    /// Replays a fixed per-process script of values (cycling on the last
    /// value once exhausted) — for deterministic regression scenarios.
    Scripted { scripts: Vec<Vec<Value>>, cursors: Vec<usize> },
}

/// A lazily sampled failure-detector history for one failure pattern.
///
/// # Examples
///
/// ```
/// use wfa_fd::pattern::FailurePattern;
/// use wfa_fd::detectors::FdGen;
/// use wfa_kernel::value::Value;
///
/// let f = FailurePattern::with_crashes(3, &[(2, 0)]);
/// let mut omega = FdGen::omega(f, 100, 7);
/// let v = omega.output(0, 500); // after stabilization: the stable leader
/// assert_eq!(v, omega.output(1, 501));
/// assert!(matches!(v, Value::Int(_)));
/// ```
#[derive(Clone, Debug)]
pub struct FdGen {
    pattern: FailurePattern,
    stab: u64,
    rng: SmallRng,
    kind: FdKind,
    history: Vec<HistoryEntry>,
}

/// Picks a deterministic pseudo-random correct process.
fn pick_correct(pattern: &FailurePattern, seed: u64) -> SIdx {
    let correct = pattern.correct();
    assert!(!correct.is_empty(), "pattern has no correct process");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    correct[rng.gen_range(0..correct.len())]
}

impl FdGen {
    fn new(pattern: FailurePattern, stab: u64, seed: u64, kind: FdKind) -> FdGen {
        FdGen { pattern, stab, rng: SmallRng::seed_from_u64(seed), kind, history: Vec::new() }
    }

    /// The trivial failure detector: always `⊥`.
    pub fn trivial(pattern: FailurePattern) -> FdGen {
        FdGen::new(pattern, 0, 0, FdKind::Trivial)
    }

    /// The perfect detector `P`: the exact crashed-so-far set.
    pub fn perfect(pattern: FailurePattern) -> FdGen {
        FdGen::new(pattern, 0, 0, FdKind::Perfect)
    }

    /// `◇P`: arbitrary suspicion sets before `stab`, the exact faulty set
    /// after.
    pub fn eventually_perfect(pattern: FailurePattern, stab: u64, seed: u64) -> FdGen {
        FdGen::new(pattern, stab, seed, FdKind::EventuallyPerfect)
    }

    /// `Ω`: random process ids before `stab`, a fixed correct leader after.
    pub fn omega(pattern: FailurePattern, stab: u64, seed: u64) -> FdGen {
        let leader = pick_correct(&pattern, seed);
        FdGen::new(pattern, stab, seed, FdKind::Omega { leader })
    }

    /// `¬Ωk` (anti-Ω-k, [Zieliński 2010; Raynal 2007]): outputs (n−k)-sets
    /// of S-processes; after `stab` some fixed correct process is never a
    /// member.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ n`.
    pub fn anti_omega_k(pattern: FailurePattern, k: usize, stab: u64, seed: u64) -> FdGen {
        assert!(k >= 1 && k <= pattern.n(), "need 1 ≤ k ≤ n");
        let shielded = pick_correct(&pattern, seed);
        FdGen::new(pattern, stab, seed, FdKind::AntiOmegaK { k, shielded })
    }

    /// `→Ωk` (vector-Ω-k, [Zieliński 2010], §4.2): outputs k-vectors of
    /// S-processes; after `stab`, one fixed position holds the same fixed
    /// correct process at every query.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ n`.
    pub fn vector_omega_k(pattern: FailurePattern, k: usize, stab: u64, seed: u64) -> FdGen {
        assert!(k >= 1 && k <= pattern.n(), "need 1 ≤ k ≤ n");
        let leader = pick_correct(&pattern, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let pos = rng.gen_range(0..k);
        FdGen::new(pattern, stab, seed, FdKind::VectorOmegaK { k, pos, leader, adversarial: false })
    }

    /// Like [`FdGen::vector_omega_k`], but with *rotating* pre-stabilization
    /// noise: each query shifts every vector position, so no S-process is
    /// named at the same position by two consecutive queries. Measured
    /// effect (see `examples/advice_quality.rs`): our leader algorithms are
    /// immune — ballot agents persist across leadership changes and resume
    /// when a position returns — which is itself a finding worth recording;
    /// the mode remains useful for stress-testing alternative S-process
    /// designs.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ n`.
    pub fn vector_omega_k_adversarial(
        pattern: FailurePattern,
        k: usize,
        stab: u64,
        seed: u64,
    ) -> FdGen {
        assert!(k >= 1 && k <= pattern.n(), "need 1 ≤ k ≤ n");
        let leader = pick_correct(&pattern, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let pos = rng.gen_range(0..k);
        FdGen::new(pattern, stab, seed, FdKind::VectorOmegaK { k, pos, leader, adversarial: true })
    }

    /// A detector replaying per-process value scripts (the last value
    /// repeats once a script is exhausted) — deterministic regression
    /// scenarios and hand-crafted adversarial histories.
    ///
    /// # Panics
    ///
    /// Panics if `scripts.len() != pattern.n()` or any script is empty.
    pub fn scripted(pattern: FailurePattern, scripts: Vec<Vec<Value>>) -> FdGen {
        assert_eq!(scripts.len(), pattern.n(), "one script per S-process");
        assert!(scripts.iter().all(|s| !s.is_empty()), "scripts must be non-empty");
        let cursors = vec![0; scripts.len()];
        FdGen::new(pattern, 0, 0, FdKind::Scripted { scripts, cursors })
    }

    /// A deterministic detector computed from the failure pattern — used for
    /// counterexample detectors such as §2.3's "output `q0` if `q0` is
    /// correct, else `q1`".
    pub fn by_pattern(
        pattern: FailurePattern,
        name: &'static str,
        f: fn(&FailurePattern, SIdx, u64) -> Value,
    ) -> FdGen {
        FdGen::new(pattern, 0, 0, FdKind::ByPattern { name, f })
    }

    /// The failure pattern this history is sampled for.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// The stabilization time of this sample (0 for time-independent
    /// detectors).
    pub fn stabilization(&self) -> u64 {
        self.stab
    }

    /// Detector name (for reports).
    pub fn name(&self) -> String {
        match &self.kind {
            FdKind::Trivial => "trivial".into(),
            FdKind::Perfect => "P".into(),
            FdKind::EventuallyPerfect => "◇P".into(),
            FdKind::Omega { .. } => "Ω".into(),
            FdKind::AntiOmegaK { k, .. } => format!("¬Ω{k}"),
            FdKind::VectorOmegaK { k, adversarial: false, .. } => format!("→Ω{k}"),
            FdKind::VectorOmegaK { k, adversarial: true, .. } => format!("→Ω{k}(adv)"),
            FdKind::ByPattern { name, .. } => (*name).into(),
            FdKind::Scripted { .. } => "scripted".into(),
        }
    }

    /// The recorded history so far (every value ever emitted).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    fn random_sidx(&mut self) -> SIdx {
        self.rng.gen_range(0..self.pattern.n())
    }

    /// A uniformly random `size`-subset of the S-processes, optionally
    /// avoiding one of them.
    fn random_subset(&mut self, size: usize, avoid: Option<SIdx>) -> Vec<SIdx> {
        let mut pool: Vec<SIdx> = (0..self.pattern.n()).filter(|q| Some(*q) != avoid).collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(size);
        pool.sort_unstable();
        pool
    }

    /// Answers the query of S-process `q` at time `t`, recording it.
    ///
    /// # Panics
    ///
    /// Panics if `q` has crashed by `t` — crashed processes take no steps and
    /// therefore never query (§2.1); a query from a dead process is a harness
    /// bug.
    pub fn output(&mut self, q: SIdx, t: u64) -> Value {
        assert!(
            self.pattern.is_alive(q, t),
            "S-process {q} queried its failure detector after crashing (t={t})"
        );
        let n = self.pattern.n();
        if let FdKind::Scripted { scripts, cursors } = &mut self.kind {
            let i = cursors[q].min(scripts[q].len() - 1);
            cursors[q] += 1;
            let val = scripts[q][i].clone();
            self.history.push(HistoryEntry { q, t, val: val.clone() });
            return val;
        }
        let val = match &self.kind {
            FdKind::Trivial => Value::Unit,
            FdKind::Perfect => Value::ints(self.pattern.crashed_by(t).iter().map(|x| *x as i64)),
            FdKind::EventuallyPerfect => {
                if t >= self.stab {
                    Value::ints(self.pattern.faulty().iter().map(|x| *x as i64))
                } else {
                    let size = self.rng.gen_range(0..n);
                    Value::ints(self.random_subset(size, None).iter().map(|x| *x as i64))
                }
            }
            FdKind::Omega { leader } => {
                let leader = *leader;
                if t >= self.stab {
                    Value::Int(leader as i64)
                } else {
                    Value::Int(self.random_sidx() as i64)
                }
            }
            FdKind::AntiOmegaK { k, shielded } => {
                let (k, shielded) = (*k, *shielded);
                let avoid = if t >= self.stab { Some(shielded) } else { None };
                Value::ints(self.random_subset(n - k, avoid).iter().map(|x| *x as i64))
            }
            FdKind::VectorOmegaK { k, pos, leader, adversarial } => {
                let (k, pos, leader, adversarial) = (*k, *pos, *leader, *adversarial);
                let mut vec: Vec<Value> = if adversarial {
                    // Rotate all positions with the query count: position w
                    // names a different process on every consecutive query.
                    let base = self.history.len() as i64;
                    (0..k).map(|w| Value::Int((base + w as i64) % n as i64)).collect()
                } else {
                    (0..k).map(|_| Value::Int(self.random_sidx() as i64)).collect()
                };
                if t >= self.stab {
                    vec[pos] = Value::Int(leader as i64);
                }
                Value::tuple(vec)
            }
            FdKind::ByPattern { f, .. } => f(&self.pattern, q, t),
            FdKind::Scripted { .. } => unreachable!("handled above"),
        };
        self.history.push(HistoryEntry { q, t, val: val.clone() });
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat() -> FailurePattern {
        FailurePattern::with_crashes(4, &[(3, 50)])
    }

    #[test]
    fn trivial_outputs_bottom() {
        let mut fd = FdGen::trivial(pat());
        assert_eq!(fd.output(0, 0), Value::Unit);
        assert_eq!(fd.output(1, 999), Value::Unit);
        assert_eq!(fd.name(), "trivial");
    }

    #[test]
    fn perfect_tracks_crashes() {
        let mut fd = FdGen::perfect(pat());
        assert_eq!(fd.output(0, 10), Value::ints([]));
        assert_eq!(fd.output(0, 60), Value::ints([3]));
    }

    #[test]
    fn omega_stabilizes_on_correct_leader() {
        let mut fd = FdGen::omega(pat(), 100, 9);
        let v1 = fd.output(0, 200);
        let v2 = fd.output(1, 300);
        let v3 = fd.output(2, 10_000);
        assert_eq!(v1, v2);
        assert_eq!(v2, v3);
        let leader = v1.as_int().unwrap() as usize;
        assert!(fd.pattern().is_correct(leader));
    }

    #[test]
    fn anti_omega_k_shape_and_shielding() {
        let n = 5;
        let f = FailurePattern::with_crashes(n, &[(0, 10)]);
        for k in 1..=n {
            let mut fd = FdGen::anti_omega_k(f.clone(), k, 100, 3);
            // Find which process is shielded by observing post-stab outputs.
            let mut excluded: Vec<bool> = vec![true; n];
            for t in 100..200 {
                let v = fd.output(1, t);
                let set = v.as_tuple().unwrap();
                assert_eq!(set.len(), n - k, "¬Ω{k} must output (n−k)-sets");
                for m in set {
                    excluded[m.as_int().unwrap() as usize] = false;
                }
            }
            // Some correct process was never output after stabilization.
            let shielded: Vec<usize> =
                (0..n).filter(|q| excluded[*q] && f.is_correct(*q)).collect();
            assert!(!shielded.is_empty(), "¬Ω{k}: no shielded correct process");
        }
    }

    #[test]
    fn vector_omega_k_has_stable_position() {
        let f = pat();
        let k = 2;
        let mut fd = FdGen::vector_omega_k(f.clone(), k, 100, 11);
        let outs: Vec<Vec<i64>> = (100..160)
            .map(|t| {
                fd.output(0, t)
                    .as_tuple()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_int().unwrap())
                    .collect()
            })
            .collect();
        let stable: Vec<usize> = (0..k)
            .filter(|&pos| outs.iter().all(|o| o[pos] == outs[0][pos]))
            .collect();
        assert!(!stable.is_empty(), "no stable position in →Ωk");
        let leader = outs[0][stable[0]] as usize;
        assert!(f.is_correct(leader));
    }

    #[test]
    fn adversarial_vector_rotates_before_stabilizing() {
        let f = pat();
        let k = 2;
        let mut fd = FdGen::vector_omega_k_adversarial(f.clone(), k, 1_000, 3);
        // Pre-stabilization: consecutive queries never repeat a position's
        // holder.
        let mut prev: Option<Vec<i64>> = None;
        for t in 0..40 {
            let cur: Vec<i64> =
                fd.output(0, t).as_tuple().unwrap().iter().map(|v| v.as_int().unwrap()).collect();
            if let Some(p) = prev {
                for w in 0..k {
                    assert_ne!(p[w], cur[w], "position {w} repeated pre-stabilization");
                }
            }
            prev = Some(cur);
        }
        // Post-stabilization: still a valid →Ωk sample.
        for t in 1_000..1_200 {
            fd.output(0, t);
        }
        let w = crate::spec::check_vector_omega_k(&f, fd.history(), k, 100)
            .expect("adversarial mode still satisfies →Ωk");
        assert!(f.is_correct(w.who));
    }

    #[test]
    fn by_pattern_detector() {
        // §2.3 counterexample: output q0 if q0 is correct, else q1.
        fn d(f: &FailurePattern, _q: SIdx, _t: u64) -> Value {
            Value::Int(if f.is_correct(0) { 0 } else { 1 })
        }
        let f = FailurePattern::with_crashes(2, &[(0, 5)]);
        let mut fd = FdGen::by_pattern(f, "D§2.3", d);
        assert_eq!(fd.output(1, 0), Value::Int(1));
        assert_eq!(fd.name(), "D§2.3");
    }

    #[test]
    fn scripted_detector_replays_then_repeats() {
        let f = FailurePattern::failure_free(2);
        let mut fd = FdGen::scripted(
            f,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(9)]],
        );
        assert_eq!(fd.output(0, 0), Value::Int(1));
        assert_eq!(fd.output(0, 1), Value::Int(2));
        assert_eq!(fd.output(0, 2), Value::Int(2)); // last value repeats
        assert_eq!(fd.output(1, 3), Value::Int(9));
        assert_eq!(fd.name(), "scripted");
    }

    #[test]
    fn history_is_recorded() {
        let mut fd = FdGen::omega(pat(), 10, 1);
        fd.output(0, 5);
        fd.output(2, 20);
        assert_eq!(fd.history().len(), 2);
        assert_eq!(fd.history()[1].q, 2);
        assert_eq!(fd.history()[1].t, 20);
    }

    #[test]
    #[should_panic(expected = "after crashing")]
    fn dead_process_query_panics() {
        let mut fd = FdGen::trivial(pat());
        fd.output(3, 60); // q3 crashed at 50
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        let run = |seed| {
            let mut fd = FdGen::anti_omega_k(pat(), 2, 30, seed);
            (0..50).map(|t| fd.output(0, t)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
