//! Cross-crate property-based tests (proptest) on the core data structures
//! and invariants: the value model, the register file, the prefix order,
//! task validators, the failure-detector reductions, and the network's
//! fault windows.

use proptest::prelude::*;

use wfa::fd::detectors::{FdGen, HistoryEntry};
use wfa::fd::environment::Environment;
use wfa::fd::reduction::{anti_omega_from_vector, omega_from_anti_omega_1, widen_anti_omega};
use wfa::fd::spec::{check_anti_omega_k, check_omega, check_vector_omega_k};
use wfa::kernel::memory::{RegKey, SharedMemory};
use wfa::kernel::value::{Pid, Value};
use wfa::net::config::NetFault;
use wfa::net::windows::FaultWindows;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;
use wfa::tasks::vector::{distinct_values, is_prefix, is_weak_prefix, support};

/// Strategy for small structured values.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(Value::Int),
        (0usize..8).prop_map(|i| Value::Pid(Pid(i))),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::tuple)
    })
}

fn regkey_strategy() -> impl Strategy<Value = RegKey> {
    (0u16..8, 0u32..4, 0u32..4).prop_map(|(ns, a, b)| RegKey::idx(ns, a, b, 0, 0))
}

/// Strategy for one network fault over replicas `0..6` (one past the
/// 5-node cluster the windows are compiled for) at ticks below 50. Ticks
/// on a coarse grid besides the full range make same-tick ties common;
/// corruption windows draw strides 1..4.
fn net_fault_strategy() -> impl Strategy<Value = NetFault> {
    let tick = prop_oneof![0u64..50, (0u64..5).prop_map(|k| k * 10)];
    let cut = prop::collection::vec(0usize..6, 0..4);
    (0u8..6, tick, 0u64..20, 0usize..6, cut, 1u64..4).prop_map(
        |(kind, at, len, node, nodes, every)| {
            let until = at + len;
            match kind {
                0 => NetFault::Partition { at, nodes },
                1 => NetFault::Heal { at },
                2 => NetFault::Drop { at, until, node },
                3 => NetFault::CorruptMessage { at, until, node, every },
                4 => NetFault::CrashReplica { at, node },
                _ => NetFault::RecoverReplica { at, node },
            }
        },
    )
}

/// The specification `FaultWindows` is checked against: a direct scan of
/// the fault list in which the latest partition/heal event at or before
/// `t` wins, and list order breaks ties.
fn spec_isolated(faults: &[NetFault], node: usize, t: u64) -> bool {
    let (mut verdict, mut latest) = (false, 0);
    for f in faults {
        match f {
            NetFault::Partition { at, nodes } if *at <= t && *at >= latest => {
                (verdict, latest) = (nodes.contains(&node), *at);
            }
            NetFault::Heal { at } if *at <= t && *at >= latest => (verdict, latest) = (false, *at),
            _ => {}
        }
    }
    verdict
}

/// The same scan over `node`'s crash/recover events.
fn spec_down(faults: &[NetFault], node: usize, t: u64) -> bool {
    let (mut verdict, mut latest) = (false, 0);
    for f in faults {
        match f {
            NetFault::CrashReplica { at, node: n } if *n == node && *at <= t && *at >= latest => {
                (verdict, latest) = (true, *at);
            }
            NetFault::RecoverReplica { at, node: n } if *n == node && *at <= t && *at >= latest => {
                (verdict, latest) = (false, *at);
            }
            _ => {}
        }
    }
    verdict
}

/// `true` iff `node` has a drop window covering `t`.
fn spec_drop(faults: &[NetFault], node: usize, t: u64) -> bool {
    faults.iter().any(|f| {
        matches!(f, NetFault::Drop { at, until, node: n } if *n == node && *at <= t && t < *until)
    })
}

/// `true` iff message `msg` on `node`'s links at `t` falls in a corruption
/// window whose stride divides the message counter.
fn spec_corrupt(faults: &[NetFault], node: usize, t: u64, msg: u64) -> bool {
    faults.iter().any(|f| match f {
        NetFault::CorruptMessage { at, until, node: n, every } => {
            *n == node && *at <= t && t < *until && msg.is_multiple_of(*every)
        }
        _ => false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every window query agrees with the latest-event-wins scan at every
    /// tick, same-tick ties, out-of-range replicas and corruption strides
    /// (probed with message counters 0..12) included.
    #[test]
    fn fault_windows_match_the_latest_event_wins_scan(
        faults in prop::collection::vec(net_fault_strategy(), 0..9),
    ) {
        let w = FaultWindows::new(&faults, 5);
        for t in 0..60 {
            for node in 0..5 {
                let isolated = spec_isolated(&faults, node, t);
                let down = spec_down(&faults, node, t);
                let lossy = isolated || down || spec_drop(&faults, node, t);
                let got = (w.isolated(node, t), w.down(node, t), w.lossy(node, t));
                prop_assert_eq!(
                    got,
                    (isolated, down, lossy),
                    "node {} at tick {} in {:?}",
                    node,
                    t,
                    faults
                );
                for msg in 0..12 {
                    prop_assert_eq!(
                        w.corrupting(node, t, msg),
                        spec_corrupt(&faults, node, t, msg),
                        "message {} on node {} at tick {} in {:?}",
                        msg,
                        node,
                        t,
                        faults
                    );
                }
            }
        }
    }

    /// Last write wins, iteration is the non-`⊥` cells in key order, and a
    /// clone taken halfway through is unchanged by the later writes.
    #[test]
    fn memory_last_write_wins(
        writes in prop::collection::vec((regkey_strategy(), value_strategy()), 1..20),
        probe in regkey_strategy(),
    ) {
        let mut mem = SharedMemory::new();
        let mut model = std::collections::BTreeMap::new();
        let mut fork = None;
        for (i, (k, v)) in writes.iter().enumerate() {
            if i == writes.len() / 2 {
                fork = Some((mem.clone(), model.clone()));
            }
            mem.write(*k, v.clone());
            if v.is_unit() {
                model.remove(k);
            } else {
                model.insert(*k, v.clone());
            }
        }
        let expect = model.get(&probe).cloned().unwrap_or(Value::Unit);
        prop_assert_eq!(mem.peek(probe), expect);
        let (fork, fork_model) = fork.expect("a write list is never empty");
        for (m, model) in [(&mem, &model), (&fork, &fork_model)] {
            prop_assert_eq!(m.len(), model.len());
            prop_assert!(m.iter().eq(model.iter()), "{:?} vs {:?}", m, model);
        }
    }

    /// Memory fingerprints are write-order-insensitive for disjoint keys.
    #[test]
    fn memory_fingerprint_is_content_based(
        mut kvs in prop::collection::btree_map(regkey_strategy(), value_strategy(), 1..10),
    ) {
        kvs.retain(|_, v| !v.is_unit());
        let mut a = SharedMemory::new();
        for (k, v) in &kvs {
            a.write(*k, v.clone());
        }
        let mut b = SharedMemory::new();
        for (k, v) in kvs.iter().rev() {
            b.write(*k, v.clone());
        }
        let fp = |m: &SharedMemory| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            m.fingerprint(&mut h);
            std::hash::Hasher::finish(&h)
        };
        prop_assert_eq!(fp(&a), fp(&b));
    }

    /// The prefix order is a partial order on ⊥-padded vectors.
    #[test]
    fn prefix_order_properties(
        v in prop::collection::vec(prop_oneof![Just(Value::Unit), (0i64..4).prop_map(Value::Int)], 1..6),
        mask in prop::collection::vec(any::<bool>(), 1..6),
    ) {
        // Build a by masking v: a ⊑ v whenever a has a non-⊥ entry.
        let a: Vec<Value> = v
            .iter()
            .zip(mask.iter().chain(std::iter::repeat(&false)))
            .map(|(x, keep)| if *keep { x.clone() } else { Value::Unit })
            .collect();
        prop_assert!(is_weak_prefix(&a, &v));
        if a.iter().any(|x| !x.is_unit()) {
            prop_assert!(is_prefix(&a, &v));
            // antisymmetry-ish: if also v ⊑ a then equal supports and values
            if is_prefix(&v, &a) {
                prop_assert_eq!(&a, &v);
            }
        }
        prop_assert_eq!(support(&a).len(), a.iter().filter(|x| !x.is_unit()).count());
    }

    /// k-set agreement validation: accepting ⇒ the distinct-values bound and
    /// validity hold (soundness of the validator).
    #[test]
    fn ksa_validator_soundness(
        n in 2usize..6,
        k in 1usize..4,
        choices in prop::collection::vec((0i64..4, any::<bool>(), any::<bool>()), 6),
    ) {
        let task = SetAgreement::new(n, k.min(n));
        let input: Vec<Value> =
            (0..n).map(|i| if choices[i].1 { Value::Int(choices[i].0) } else { Value::Unit }).collect();
        let output: Vec<Value> = (0..n)
            .map(|i| {
                if choices[i].1 && choices[i].2 {
                    input[i].clone()
                } else {
                    Value::Unit
                }
            })
            .collect();
        // Outputs copy inputs of deciders ⇒ validity holds; distinct bound may
        // fail only if > k distinct inputs decided.
        let verdict = task.validate(&input, &output);
        let distinct = distinct_values(&output).len();
        prop_assert_eq!(verdict.is_ok(), distinct <= k.min(n), "distinct={} k={}", distinct, k);
    }

    /// Renaming validator: permutations of distinct names in range validate;
    /// any duplicate fails.
    #[test]
    fn renaming_validator(j in 2usize..5, dup in any::<bool>()) {
        let m = j + 1;
        let task = Renaming::new(m, j, 2 * j - 1);
        let mut input = vec![Value::Unit; m];
        let mut output = vec![Value::Unit; m];
        for i in 0..j {
            input[i] = Value::Int(1000 + i as i64);
            output[i] = Value::Int(if dup && i == 1 { 1 } else { (i + 1) as i64 });
        }
        prop_assert_eq!(task.validate(&input, &output).is_ok(), !dup);
    }

    /// Detector reduction chain: →Ωk histories convert to ¬Ωk and further
    /// widen to ¬Ωx, all spec-compliant.
    #[test]
    fn detector_reduction_chain(seed in 0u64..500, k in 1usize..4, extra in 0usize..2) {
        let n = 5;
        let x = (k + extra).min(n - 1);
        let env = Environment::up_to(n, 2);
        let pattern = env.sample(seed, 40);
        let mut fd = FdGen::vector_omega_k(pattern.clone(), k, 60, seed);
        let mut vec_hist = Vec::new();
        for t in 0..240u64 {
            for q in 0..n {
                if pattern.is_alive(q, t) {
                    vec_hist.push(HistoryEntry { q, t, val: fd.output(q, t) });
                }
            }
        }
        prop_assert!(check_vector_omega_k(&pattern, &vec_hist, k, 100).is_some());
        let anti: Vec<HistoryEntry> = vec_hist
            .iter()
            .map(|e| HistoryEntry { q: e.q, t: e.t, val: anti_omega_from_vector(n, &e.val) })
            .collect();
        prop_assert!(check_anti_omega_k(&pattern, &anti, k, 100).is_some());
        let wide: Vec<HistoryEntry> = anti
            .iter()
            .map(|e| HistoryEntry { q: e.q, t: e.t, val: widen_anti_omega(n, k, x, &e.val) })
            .collect();
        prop_assert!(check_anti_omega_k(&pattern, &wide, x, 100).is_some());
        if k == 1 {
            let omega: Vec<HistoryEntry> = anti
                .iter()
                .map(|e| HistoryEntry { q: e.q, t: e.t, val: omega_from_anti_omega_1(n, &e.val) })
                .collect();
            prop_assert!(check_omega(&pattern, &omega, 100).is_some());
        }
    }

    /// Executor determinism: identical seeds ⇒ identical run fingerprints.
    #[test]
    fn runs_are_deterministic(seed in 0u64..200) {
        use wfa::algorithms::renaming::RenamingFig4;
        use wfa::kernel::executor::Executor;
        use wfa::kernel::sched::{run_schedule, NullEnv, RandomSched};
        let build = || {
            let mut ex = Executor::new();
            for i in 0..3 {
                ex.add_process(Box::new(RenamingFig4::new(i, 4)));
            }
            ex
        };
        let run_fp = |mut ex: Executor| {
            let mut sched = RandomSched::over_all(&ex, seed);
            run_schedule(&mut ex, &mut sched, &mut NullEnv, 50_000);
            ex.fingerprint()
        };
        prop_assert_eq!(run_fp(build()), run_fp(build()));
    }
}
