//! Network configuration: topology, link behaviour, and injected faults.
//!
//! A [`NetConfig`] plays the same role for the simulated network that a
//! schedule seed plays for the kernel: it fully determines every delivery
//! decision the runtime makes, so a network run is replayable from the
//! config alone. All times are *network ticks* — the runtime's internal
//! logical clock, advanced only by message activity (never by wall clock).

use wfa_obs::json::Json;

use crate::retry::RetryPolicy;
use crate::windows::FaultWindows;

/// A declarative network fault, timed in network ticks.
///
/// Faults compose with the process-level `FaultPlan` of `wfa-faults`: a plan
/// carries a list of `NetFault`s which the fault harness hands to the
/// backend at construction time.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NetFault {
    /// From tick `at`, the listed replica nodes are unreachable (every
    /// message to or from them is dropped) until a later [`NetFault::Heal`].
    Partition {
        /// Start of the partition.
        at: u64,
        /// The isolated replica indices.
        nodes: Vec<usize>,
    },
    /// From tick `at`, any active partition is healed.
    Heal {
        /// Time of the heal.
        at: u64,
    },
    /// Node `node`'s links drop every message in the window `[at, until)`.
    Drop {
        /// Start of the lossy window.
        at: u64,
        /// End (exclusive) of the lossy window.
        until: u64,
        /// The affected replica index.
        node: usize,
    },
    /// From tick `at`, replica `node` is crashed: it receives nothing and
    /// sends nothing (checked at the same send+arrival points as
    /// partitions), and under [`Durability::Volatile`] its register store is
    /// wiped. Lasts until a later [`NetFault::RecoverReplica`].
    CrashReplica {
        /// Tick of the crash.
        at: u64,
        /// The crashed replica index.
        node: usize,
    },
    /// From tick `at`, replica `node` is up again — but it refuses to serve
    /// quorum rounds until it has re-synced its tagged register state from a
    /// majority (see the re-sync protocol in `AbdBackend`).
    RecoverReplica {
        /// Tick of the recovery.
        at: u64,
        /// The recovering replica index.
        node: usize,
    },
    /// Every `every`-th message (by the runtime's message counter) arriving
    /// on node `node`'s links in the window `[at, until)` is corrupted in
    /// flight; `every = 1` corrupts them all. The runtime's per-message
    /// checksum detects the corruption at arrival and quarantines the
    /// message instead of delivering it, so — like [`NetFault::Drop`] —
    /// retransmission rounds recover it and linearized outcomes are
    /// unaffected.
    CorruptMessage {
        /// Start of the corrupting window.
        at: u64,
        /// End (exclusive) of the corrupting window.
        until: u64,
        /// The affected replica index.
        node: usize,
        /// Stride over the message counter; at least 1.
        every: u64,
    },
}

impl NetFault {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        match self {
            NetFault::Partition { at, nodes } => Json::Obj(vec![
                ("type".into(), Json::Str("partition".into())),
                ("at".into(), Json::Num(*at)),
                (
                    "nodes".into(),
                    Json::Arr(nodes.iter().map(|n| Json::Num(*n as u64)).collect()),
                ),
            ]),
            NetFault::Heal { at } => Json::Obj(vec![
                ("type".into(), Json::Str("heal".into())),
                ("at".into(), Json::Num(*at)),
            ]),
            NetFault::Drop { at, until, node } => Json::Obj(vec![
                ("type".into(), Json::Str("drop".into())),
                ("at".into(), Json::Num(*at)),
                ("until".into(), Json::Num(*until)),
                ("node".into(), Json::Num(*node as u64)),
            ]),
            NetFault::CrashReplica { at, node } => Json::Obj(vec![
                ("type".into(), Json::Str("crash-replica".into())),
                ("at".into(), Json::Num(*at)),
                ("node".into(), Json::Num(*node as u64)),
            ]),
            NetFault::RecoverReplica { at, node } => Json::Obj(vec![
                ("type".into(), Json::Str("recover-replica".into())),
                ("at".into(), Json::Num(*at)),
                ("node".into(), Json::Num(*node as u64)),
            ]),
            NetFault::CorruptMessage { at, until, node, every } => {
                let mut fields = vec![
                    ("type".into(), Json::Str("corrupt-message".into())),
                    ("at".into(), Json::Num(*at)),
                    ("until".into(), Json::Num(*until)),
                    ("node".into(), Json::Num(*node as u64)),
                ];
                // Omitted at the default, so unstrided windows encode as in
                // artifacts written before strides existed.
                if *every != 1 {
                    fields.push(("every".into(), Json::Num(*every)));
                }
                Json::Obj(fields)
            }
        }
    }

    /// Parses a fault encoded by [`NetFault::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape mismatch.
    pub fn from_json(json: &Json) -> Result<NetFault, String> {
        let typ = json
            .get("type")
            .and_then(Json::str)
            .ok_or("net fault lacks `type`")?;
        let at = json.get("at").and_then(Json::num).ok_or("net fault lacks `at`")?;
        match typ {
            "partition" => {
                let nodes = json
                    .get("nodes")
                    .and_then(Json::arr)
                    .ok_or("partition lacks `nodes`")?
                    .iter()
                    .map(|n| n.num().map(|v| v as usize).ok_or("bad partition node"))
                    .collect::<Result<Vec<usize>, &str>>()?;
                Ok(NetFault::Partition { at, nodes })
            }
            "heal" => Ok(NetFault::Heal { at }),
            "drop" => Ok(NetFault::Drop {
                at,
                until: json.get("until").and_then(Json::num).ok_or("drop lacks `until`")?,
                node: json.get("node").and_then(Json::num).ok_or("drop lacks `node`")? as usize,
            }),
            "crash-replica" => Ok(NetFault::CrashReplica {
                at,
                node: json.get("node").and_then(Json::num).ok_or("crash-replica lacks `node`")?
                    as usize,
            }),
            "recover-replica" => Ok(NetFault::RecoverReplica {
                at,
                node: json.get("node").and_then(Json::num).ok_or("recover-replica lacks `node`")?
                    as usize,
            }),
            "corrupt-message" => Ok(NetFault::CorruptMessage {
                at,
                until: json
                    .get("until")
                    .and_then(Json::num)
                    .ok_or("corrupt-message lacks `until`")?,
                node: json.get("node").and_then(Json::num).ok_or("corrupt-message lacks `node`")?
                    as usize,
                every: match json.get("every") {
                    None => 1,
                    Some(e) => e
                        .num()
                        .filter(|e| *e > 0)
                        .ok_or("corrupt-message `every` must be a positive integer")?,
                },
            }),
            // Never degrade an unrecognized fault to "no fault": replaying a
            // plan without one of its faults would silently change what the
            // artifact certifies.
            other => Err(format!(
                "unknown net fault type `{other}` — the artifact was likely written by a \
                 newer version; refusing to replay the plan with this fault dropped"
            )),
        }
    }

    /// One-line rendering for plan descriptions.
    pub fn describe(&self) -> String {
        match self {
            NetFault::Partition { at, nodes } => {
                let ns: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
                format!("partition({}@{at})", ns.join("+"))
            }
            NetFault::Heal { at } => format!("heal(@{at})"),
            NetFault::Drop { at, until, node } => format!("drop({node}@{at}..{until})"),
            NetFault::CrashReplica { at, node } => format!("crash-replica({node}@{at})"),
            NetFault::RecoverReplica { at, node } => format!("recover-replica({node}@{at})"),
            NetFault::CorruptMessage { at, until, node, every: 1 } => {
                format!("corrupt({node}@{at}..{until})")
            }
            NetFault::CorruptMessage { at, until, node, every } => {
                format!("corrupt({node}@{at}..{until}/{every})")
            }
        }
    }
}

/// What a replica's register store survives across a
/// [`NetFault::CrashReplica`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Durability {
    /// The store is wiped at the crash: recovery starts from nothing and the
    /// re-sync pull is what restores the tagged state. The honest default —
    /// it is the regime where the re-sync protocol carries the
    /// linearizability argument.
    #[default]
    Volatile,
    /// The store survives the crash (stable storage). A re-sync is still
    /// required before serving: the replica may have missed writes while it
    /// was down, and an un-synced ack would break the quorum-intersection
    /// argument.
    Durable,
    /// Partial flush (torn write-behind): the crash deterministically keeps
    /// only a *seeded prefix* of the replica's register writes, wiping up to
    /// `flush_horizon` of the most recently first-written registers — the
    /// suffix that had not reached stable storage. The re-sync barrier's
    /// per-register tag audit detects the stale suffix against quorum−1
    /// peers before the replica serves again.
    PrefixDurable(u64),
}

impl Durability {
    /// Stable name under which soak reports print the policy their seed
    /// drew (the `PrefixDurable` horizon is not part of it).
    pub fn name(&self) -> &'static str {
        match self {
            Durability::Volatile => "volatile",
            Durability::Durable => "durable",
            Durability::PrefixDurable(_) => "prefix-durable",
        }
    }
}

/// Checks the ABD liveness precondition against a fault list under the
/// default link timing: at every instant, the replicas made unavailable by
/// *uncredited* fault windows must leave a strict majority reachable.
///
/// Unlike the PR-4 predicate, heals and recoveries that land inside the
/// retransmission horizon ARE credited statically: with exponential backoff
/// a quorum operation's final round is sent at least
/// [`NetConfig::final_round_offset`] ticks after its anchor, so a partition
/// whose heal lands within [`NetConfig::retransmission_horizon`] of its
/// start cannot strand any operation — either an early round completed
/// before the partition bit, or the final round lands after the heal
/// (DESIGN.md §10 has the two-case proof). Crash windows are credited under
/// the tighter [`NetConfig::recovery_horizon`] (the recovering replica must
/// also fit a re-sync round trip before the stalled op's final round) and
/// only when a serving majority of peers is reachable for that re-sync.
///
/// The check is an *advisory classifier*, not a soundness gate: a
/// misclassified plan degrades to a typed, replayable quorum-lost
/// violation instead of anything worse, and CI fails on any quorum-lost
/// violation in a plan this predicate accepted.
pub fn majority_safe(faults: &[NetFault], nodes: usize) -> bool {
    let mut cfg = NetConfig::new(nodes, 0);
    cfg.faults = faults.to_vec();
    cfg.majority_safe()
}

/// Full description of a simulated network: replica count, link timing,
/// and timed faults. Determines every delivery decision; two runs with
/// equal configs and equal operation sequences are identical.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NetConfig {
    /// Number of replica nodes holding register copies.
    pub nodes: usize,
    /// Seed for per-message delay draws.
    pub seed: u64,
    /// Enforce per-channel FIFO delivery (deliveries on one channel never
    /// reorder); `false` lets later messages overtake.
    pub fifo: bool,
    /// Maximum link delay, in ticks (inclusive); the minimum is one tick.
    pub max_delay: u64,
    /// Broadcast rounds to attempt before declaring a quorum unreachable.
    pub max_rounds: u32,
    /// What replica stores survive a [`NetFault::CrashReplica`].
    pub durability: Durability,
    /// Which replica group this config drives when the register space is
    /// sharded — attribution only (selects the `net_shard{N}_msgs` counter);
    /// `0` for unsharded backends.
    pub shard: usize,
    /// Timed network faults.
    pub faults: Vec<NetFault>,
}

impl NetConfig {
    /// A healthy `nodes`-replica network with the default link timing.
    pub fn new(nodes: usize, seed: u64) -> NetConfig {
        NetConfig {
            nodes,
            seed,
            fifo: true,
            max_delay: 4,
            max_rounds: 3,
            durability: Durability::Volatile,
            shard: 0,
            faults: Vec::new(),
        }
    }

    /// Majority quorum size for this topology.
    pub fn quorum(&self) -> usize {
        self.nodes / 2 + 1
    }

    /// The unified [`RetryPolicy`] this config implies: the single owner of
    /// the backoff span, exponential schedule, and jitter draws (see
    /// `crate::retry`). Every horizon below is derived from it.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::from_config(self)
    }

    /// One broadcast round's worst-case round trip: request out, reply back.
    pub fn round_span(&self) -> u64 {
        self.retry().round_span()
    }

    /// Ticks after a quorum operation's anchor at which its final
    /// retransmission round is sent (exponential backoff: round `r` goes out
    /// `round_span · (2^r − 1)` ticks after the anchor, jitter excluded).
    pub fn final_round_offset(&self) -> u64 {
        self.retry().final_round_offset()
    }

    /// Static credit horizon for partitions: a partition healed within this
    /// many ticks of starting cannot strand any quorum operation. Two cases
    /// close it (DESIGN.md §10): an op anchored more than `2·max_delay`
    /// before the partition completes its round 0 untouched; any later op's
    /// final round is sent at or after the heal.
    pub fn retransmission_horizon(&self) -> u64 {
        self.final_round_offset().saturating_sub(2 * self.max_delay)
    }

    /// Static credit horizon for replica crashes: tighter than
    /// [`NetConfig::retransmission_horizon`] because a recovered replica can
    /// only ack a round *after* the one whose maintenance point observed the
    /// recovery and completed the re-sync pull — so the recovery must land
    /// by the second-to-last round, not the last.
    pub fn recovery_horizon(&self) -> u64 {
        self.retry()
            .backoff(self.max_rounds.saturating_sub(1))
            .saturating_sub(2 * self.max_delay)
    }

    /// See [`majority_safe`]; uses this config's own horizons. Reads the
    /// fault list through [`FaultWindows`], the runtime's own reading.
    pub fn majority_safe(&self) -> bool {
        let nodes = self.nodes;
        let windows = FaultWindows::new(&self.faults, nodes);
        let (parts, crashes) = (windows.partitions(), windows.crashes());
        // Credit short windows. A credited crash additionally needs a
        // serving majority of peers reachable throughout its re-sync round
        // trip `[recovery, recovery + round_span)`.
        let slack = self.round_span();
        let resync_feasible = |r: u64, node: usize| -> bool {
            let hi = r.saturating_add(slack);
            let peers = (0..nodes)
                .filter(|p| {
                    *p != node
                        && !crashes.iter().any(|c| {
                            c.who == *p && c.start < hi && r < c.end.saturating_add(slack)
                        })
                        && !parts.iter().any(|w| w.who.contains(p) && w.start < hi && r < w.end)
                })
                .count();
            peers >= self.quorum().saturating_sub(1)
        };
        let ph = self.retransmission_horizon();
        let rh = self.recovery_horizon();
        // Uncredited unavailability windows `(start, end-exclusive, members)`.
        let mut live: Vec<(u64, u64, &[usize])> = parts
            .iter()
            .filter(|w| w.end == u64::MAX || w.end - w.start > ph)
            .map(|w| (w.start, w.end, w.who.as_slice()))
            .collect();
        for c in crashes {
            let credited =
                c.end != u64::MAX && c.end - c.start <= rh && resync_feasible(c.end, c.who);
            if !credited {
                // Uncredited but finite windows still end — pad by the
                // re-sync allowance before the node counts as back.
                live.push((c.start, c.end.saturating_add(slack), std::slice::from_ref(&c.who)));
            }
        }
        // The union of concurrently unavailable nodes only grows at window
        // starts, so checking each start instant covers every instant.
        live.iter().all(|(start, _, _)| {
            let mut down = vec![false; nodes];
            for (s, e, ms) in &live {
                if *s <= *start && *start < *e {
                    for n in *ms {
                        down[*n] = true;
                    }
                }
            }
            let cut = down.iter().filter(|d| **d).count();
            nodes - cut > nodes / 2
        })
    }

    /// Adds a fault (builder style).
    pub fn with_fault(mut self, fault: NetFault) -> NetConfig {
        self.faults.push(fault);
        self
    }
}

/// Partition of the register space across independent replica groups.
///
/// Each group is a complete, self-contained ABD cluster: its own
/// `nodes_per_shard` replicas, its own majority quorum, its own channels,
/// delay stream, and crash/recovery state. Keys route to groups by the pure
/// `RegKey::shard_index` function in `wfa-kernel`, so a register's quorum
/// cost depends on its group's size — not on the total replica count.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShardMap {
    /// Number of independent replica groups.
    pub shards: usize,
    /// Replicas per group.
    pub nodes_per_shard: usize,
}

impl ShardMap {
    /// A map of `shards` groups of `nodes_per_shard` replicas each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(shards: usize, nodes_per_shard: usize) -> ShardMap {
        assert!(shards > 0 && nodes_per_shard > 0, "shard map dimensions must be positive");
        ShardMap { shards, nodes_per_shard }
    }

    /// Total replicas across all groups.
    pub fn total_nodes(&self) -> usize {
        self.shards * self.nodes_per_shard
    }

    /// The [`NetConfig`] driving group `shard`, derived from `base`.
    ///
    /// The group keeps `base`'s link timing, durability, and
    /// fault list (faults address group-local replica indices and are
    /// replicated per group), but gets its own replica count and a
    /// deterministically derived per-group seed so the groups' delay streams
    /// are independent. Group 0's seed equals the base seed.
    pub fn config_for(&self, base: &NetConfig, shard: usize) -> NetConfig {
        let mut cfg = base.clone();
        cfg.nodes = self.nodes_per_shard;
        cfg.shard = shard;
        cfg.seed = base.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        cfg
    }

    /// All per-group configs, in group order.
    pub fn configs(&self, base: &NetConfig) -> Vec<NetConfig> {
        (0..self.shards).map(|s| self.config_for(base, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_names_are_stable() {
        assert_eq!(Durability::PrefixDurable(5).name(), "prefix-durable");
    }

    #[test]
    fn unknown_fault_variant_is_a_forward_compat_error() {
        let json = Json::parse(r#"{"type":"gamma-ray","at":3}"#).unwrap();
        let err = NetFault::from_json(&json).unwrap_err();
        assert!(err.contains("unknown net fault type `gamma-ray`"), "{err}");
        assert!(err.contains("newer version"), "the message must explain itself: {err}");
        assert!(err.contains("refusing to replay"), "{err}");
    }

    #[test]
    fn corruption_strides_encode_only_when_set() {
        let plain = NetFault::CorruptMessage { at: 2, until: 9, node: 1, every: 1 };
        let text = plain.to_json().to_string();
        assert!(!text.contains("every"), "an unstrided window keeps the old encoding: {text}");
        assert_eq!(NetFault::from_json(&Json::parse(&text).unwrap()), Ok(plain));
        let strided = NetFault::CorruptMessage { at: 0, until: 9, node: 1, every: 5 };
        let text = strided.to_json().to_string();
        assert!(text.contains("\"every\":5"), "{text}");
        assert_eq!(NetFault::from_json(&Json::parse(&text).unwrap()), Ok(strided));
        let zero = Json::parse(r#"{"type":"corrupt-message","at":0,"until":9,"node":1,"every":0}"#)
            .unwrap();
        let err = NetFault::from_json(&zero).unwrap_err();
        assert!(err.contains("`every` must be a positive integer"), "{err}");
    }

    #[test]
    fn shard_map_derives_independent_group_configs() {
        let map = ShardMap::new(4, 3);
        assert_eq!(map.total_nodes(), 12);
        let base = NetConfig::new(12, 42);
        let cfgs = map.configs(&base);
        assert_eq!(cfgs.len(), 4);
        for (i, cfg) in cfgs.iter().enumerate() {
            assert_eq!(cfg.nodes, 3, "each group is its own 3-replica cluster");
            assert_eq!(cfg.shard, i);
            assert_eq!(cfg.quorum(), 2, "quorum is group-local, not cluster-wide");
        }
        assert_eq!(cfgs[0].seed, base.seed, "group 0 keeps the base delay stream");
        let seeds: std::collections::BTreeSet<u64> = cfgs.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 4, "group delay streams are independent");
    }

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(NetConfig::new(3, 0).quorum(), 2);
        assert_eq!(NetConfig::new(4, 0).quorum(), 3);
        assert_eq!(NetConfig::new(5, 0).quorum(), 3);
    }

    #[test]
    fn majority_safety_classification() {
        // Isolating a minority keeps the majority precondition.
        assert!(majority_safe(&[NetFault::Partition { at: 0, nodes: vec![4] }], 5));
        // Isolating a majority with no heal breaks it.
        assert!(!majority_safe(&[NetFault::Partition { at: 0, nodes: vec![0, 1, 2] }], 5));
        // A heal inside the retransmission horizon is credited: no quorum
        // op can strand on a blip the backoff schedule outlives.
        let horizon = NetConfig::new(5, 0).retransmission_horizon();
        assert!(horizon > 7, "defaults must outlive a 7-tick blip");
        assert!(majority_safe(
            &[NetFault::Partition { at: 0, nodes: vec![0, 1, 2] }, NetFault::Heal { at: 7 }],
            5
        ));
        // A heal beyond the horizon is not.
        assert!(!majority_safe(
            &[
                NetFault::Partition { at: 0, nodes: vec![0, 1, 2] },
                NetFault::Heal { at: horizon + 1 }
            ],
            5
        ));
        // Healed *minority* partitions are safe like unhealed ones.
        assert!(majority_safe(
            &[NetFault::Partition { at: 0, nodes: vec![4] }, NetFault::Heal { at: 7 }],
            5
        ));
        // Drops never break the precondition (retransmits recover).
        assert!(majority_safe(&[NetFault::Drop { at: 0, until: 100, node: 0 }], 3));
        // Corruption is quarantined and retransmitted — like drops, it never
        // breaks the precondition.
        assert!(majority_safe(
            &[NetFault::CorruptMessage { at: 0, until: 100, node: 0, every: 1 }],
            3
        ));
    }

    #[test]
    fn crash_recovery_crediting() {
        // A minority crash is safe with or without recovery.
        assert!(majority_safe(&[NetFault::CrashReplica { at: 0, node: 2 }], 3));
        // A majority of replicas crashed forever is not.
        assert!(!majority_safe(
            &[
                NetFault::CrashReplica { at: 0, node: 0 },
                NetFault::CrashReplica { at: 0, node: 1 }
            ],
            3
        ));
        // Recoveries inside the (tighter) recovery horizon are credited —
        // the never-crashed peer can serve both re-sync pulls.
        let rh = NetConfig::new(3, 0).recovery_horizon();
        assert!(rh > 10, "defaults must credit a 10-tick outage");
        assert!(majority_safe(
            &[
                NetFault::CrashReplica { at: 0, node: 0 },
                NetFault::CrashReplica { at: 0, node: 1 },
                NetFault::RecoverReplica { at: 10, node: 0 },
                NetFault::RecoverReplica { at: 10, node: 1 },
            ],
            3
        ));
        // Beyond the recovery horizon the credit is withdrawn.
        assert!(!majority_safe(
            &[
                NetFault::CrashReplica { at: 0, node: 0 },
                NetFault::CrashReplica { at: 0, node: 1 },
                NetFault::RecoverReplica { at: rh + 1, node: 0 },
                NetFault::RecoverReplica { at: rh + 1, node: 1 },
            ],
            3
        ));
        // Crashing 3 of 4 replicas starves the re-sync itself (each pull
        // needs quorum−1 = 2 serving peers, only 1 exists): not creditable
        // even with prompt recoveries.
        assert!(!majority_safe(
            &[
                NetFault::CrashReplica { at: 0, node: 0 },
                NetFault::CrashReplica { at: 0, node: 1 },
                NetFault::CrashReplica { at: 0, node: 2 },
                NetFault::RecoverReplica { at: 5, node: 0 },
                NetFault::RecoverReplica { at: 5, node: 1 },
                NetFault::RecoverReplica { at: 5, node: 2 },
            ],
            4
        ));
    }

    #[test]
    fn horizons_follow_the_backoff_schedule() {
        let cfg = NetConfig::new(3, 0);
        // Defaults: span 9, rounds 3 → final round at 9·(2³−1) = 63.
        assert_eq!(cfg.round_span(), 9);
        assert_eq!(cfg.final_round_offset(), 63);
        assert_eq!(cfg.retransmission_horizon(), 55);
        assert_eq!(cfg.recovery_horizon(), 19);
    }

    #[test]
    fn fault_descriptions() {
        assert_eq!(NetFault::Partition { at: 9, nodes: vec![1, 2] }.describe(), "partition(1+2@9)");
        assert_eq!(NetFault::Heal { at: 30 }.describe(), "heal(@30)");
        assert_eq!(NetFault::Drop { at: 1, until: 4, node: 0 }.describe(), "drop(0@1..4)");
        assert_eq!(NetFault::CrashReplica { at: 40, node: 2 }.describe(), "crash-replica(2@40)");
        assert_eq!(
            NetFault::RecoverReplica { at: 60, node: 2 }.describe(),
            "recover-replica(2@60)"
        );
        assert_eq!(
            NetFault::CorruptMessage { at: 2, until: 9, node: 1, every: 1 }.describe(),
            "corrupt(1@2..9)"
        );
        assert_eq!(
            NetFault::CorruptMessage { at: 0, until: 9, node: 1, every: 5 }.describe(),
            "corrupt(1@0..9/5)"
        );
    }
}
