//! Fault windows: the one reading of a fault list.
//!
//! A [`NetFault`] list is a sequence of timed events. Every consumer —
//! the runtime's loss and corruption checks, the backends' crash/recover
//! maintenance, the static [`crate::config::majority_safe`] classifier and
//! the soak engine's envelopes, write steering and shrink groups — reads it
//! as *windows*: half-open tick intervals `[start, end)` during which some
//! replicas are cut off. [`FaultWindows`] compiles a list into those
//! windows once, under one rule:
//!
//! > The latest event at or before tick `t` wins, and list order breaks
//! > ties between events at the same tick.
//!
//! So a partition runs until the next partition or heal, a replica is down
//! from a crash until its next recovery (a second crash while down changes
//! nothing), and a heal or recovery with nothing to close is a no-op.
//! `Drop` and `CorruptMessage` faults carry both ends themselves; a
//! corruption window also carries a stride over the runtime's message
//! counter, so it can hit every k-th message instead of all of them.

use crate::config::NetFault;

/// A half-open tick interval `[start, end)` during which `who` is cut off.
#[derive(Clone, Debug)]
pub struct Window<W> {
    /// First tick inside the window.
    pub start: u64,
    /// First tick past the window; `u64::MAX` when nothing closes it.
    pub end: u64,
    /// The affected replicas: the isolated set of a partition (sorted,
    /// in range, deduplicated), or the single replica of the other kinds.
    pub who: W,
    /// Index in the fault list of the event that opened the window.
    pub opened_by: usize,
    /// Index of the event that closed it — the next partition or heal for
    /// a partition, the recovery for a crash; `None` when the window never
    /// closes or its own event carries the end (`Drop`, `CorruptMessage`).
    pub closed_by: Option<usize>,
}

impl<W> Window<W> {
    /// `true` iff tick `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }
}

/// A replica crash or recovery, as the backends apply them one by one.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaEvent {
    /// Tick of the event.
    pub at: u64,
    /// The replica.
    pub node: usize,
    /// `true` for a crash, `false` for a recovery.
    pub crash: bool,
}

/// A fault list compiled into windows (see the module docs for the rule).
/// Replicas outside `0..nodes` are ignored: a fault naming one compiles to
/// nothing, and a partition drops them from its cut.
#[derive(Clone, Debug, Default)]
pub struct FaultWindows {
    /// Partition windows in tick order; they never overlap. A partition
    /// replaced or healed at the tick it opens isolates nobody and yields
    /// no window.
    partitions: Vec<Window<Vec<usize>>>,
    /// Crash windows ordered by start. A crash recovered at its own tick
    /// still yields an (empty) window: the replica lost its store and must
    /// re-sync even though it was never down at any tick.
    crashes: Vec<Window<usize>>,
    /// Lossy-link windows, in list order.
    drops: Vec<Window<usize>>,
    /// Corrupting-link windows with their stride, in list order.
    corruptions: Vec<(Window<usize>, u64)>,
    /// Every crash and recovery, stable-sorted by tick.
    replica_events: Vec<ReplicaEvent>,
    /// Length of the compiled fault list.
    len: usize,
}

impl FaultWindows {
    /// Compiles `faults` for a `nodes`-replica cluster.
    pub fn new(faults: &[NetFault], nodes: usize) -> FaultWindows {
        let mut out = FaultWindows { len: faults.len(), ..FaultWindows::default() };
        let link = |start, end, who, i| Window { start, end, who, opened_by: i, closed_by: None };
        let mut fabric: Vec<(u64, usize)> = Vec::new();
        let mut replica: Vec<(ReplicaEvent, usize)> = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            match *f {
                NetFault::Partition { at, .. } | NetFault::Heal { at } => fabric.push((at, i)),
                NetFault::CrashReplica { at, node } if node < nodes => {
                    replica.push((ReplicaEvent { at, node, crash: true }, i));
                }
                NetFault::RecoverReplica { at, node } if node < nodes => {
                    replica.push((ReplicaEvent { at, node, crash: false }, i));
                }
                NetFault::Drop { at, until, node } if node < nodes => {
                    out.drops.push(link(at, until, node, i));
                }
                NetFault::CorruptMessage { at, until, node, every } if node < nodes => {
                    out.corruptions.push((link(at, until, node, i), every));
                }
                _ => {}
            }
        }
        // Stable sorts: list order breaks same-tick ties.
        fabric.sort_by_key(|(at, _)| *at);
        replica.sort_by_key(|(e, _)| e.at);
        for (k, &(start, i)) in fabric.iter().enumerate() {
            if let NetFault::Partition { nodes: cut, .. } = &faults[i] {
                let next = fabric.get(k + 1);
                let end = next.map_or(u64::MAX, |(t, _)| *t);
                if end > start {
                    let mut who: Vec<usize> = cut.iter().copied().filter(|n| *n < nodes).collect();
                    who.sort_unstable();
                    who.dedup();
                    out.partitions.push(Window {
                        start,
                        end,
                        who,
                        opened_by: i,
                        closed_by: next.map(|(_, j)| *j),
                    });
                }
            }
        }
        let mut open: Vec<Option<(u64, usize)>> = vec![None; nodes];
        for &(e, i) in &replica {
            match (e.crash, open[e.node]) {
                (true, None) => open[e.node] = Some((e.at, i)),
                (false, Some((start, by))) => {
                    out.crashes.push(Window {
                        start,
                        end: e.at,
                        who: e.node,
                        opened_by: by,
                        closed_by: Some(i),
                    });
                    open[e.node] = None;
                }
                _ => {}
            }
        }
        for (node, o) in open.iter().enumerate() {
            if let Some((start, by)) = *o {
                out.crashes.push(Window {
                    start,
                    end: u64::MAX,
                    who: node,
                    opened_by: by,
                    closed_by: None,
                });
            }
        }
        out.crashes.sort_by_key(|w| (w.start, w.opened_by));
        out.replica_events = replica.into_iter().map(|(e, _)| e).collect();
        out
    }

    /// Partition windows, in tick order.
    pub fn partitions(&self) -> &[Window<Vec<usize>>] {
        &self.partitions
    }

    /// Crash windows, ordered by start.
    pub fn crashes(&self) -> &[Window<usize>] {
        &self.crashes
    }

    /// Lossy-link windows.
    pub fn drops(&self) -> &[Window<usize>] {
        &self.drops
    }

    /// Corrupting-link windows, each with its stride over the message
    /// counter.
    pub fn corruptions(&self) -> &[(Window<usize>, u64)] {
        &self.corruptions
    }

    /// Every replica crash and recovery, stable-sorted by tick: what the
    /// backends apply, in order, at their maintenance points.
    pub fn replica_events(&self) -> &[ReplicaEvent] {
        &self.replica_events
    }

    /// `true` iff replica `node` is inside an active partition at tick `t`.
    pub fn isolated(&self, node: usize, t: u64) -> bool {
        self.partitions.iter().any(|w| w.contains(t) && w.who.contains(&node))
    }

    /// `true` iff replica `node` is crashed at tick `t`.
    pub fn down(&self, node: usize, t: u64) -> bool {
        self.crashes.iter().any(|w| w.who == node && w.contains(t))
    }

    /// `true` iff a message touching `node`'s links at tick `t` is lost: the
    /// replica is isolated, crashed, or inside a drop window.
    pub fn lossy(&self, node: usize, t: u64) -> bool {
        self.isolated(node, t)
            || self.down(node, t)
            || self.drops.iter().any(|w| w.who == node && w.contains(t))
    }

    /// `true` iff message number `msg` on `node`'s links at tick `t` is
    /// corrupted in flight: a window of the replica covers `t` and its
    /// stride divides `msg`.
    pub fn corrupting(&self, node: usize, t: u64, msg: u64) -> bool {
        self.corruptions
            .iter()
            .any(|(w, every)| w.who == node && w.contains(t) && msg.is_multiple_of(*every))
    }

    /// The fault list split into droppable units, as sorted index groups
    /// ordered by their first index: each window's opening event together
    /// with the event that closed it, unless that event opens a window of
    /// its own (a partition replaced by another stays apart from it).
    /// Every other event — loss and corruption windows, stray heals and
    /// recoveries, a second crash of a downed replica — stands alone.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let spans: Vec<(usize, Option<usize>)> = self
            .partitions
            .iter()
            .map(|w| (w.opened_by, w.closed_by))
            .chain(self.crashes.iter().map(|w| (w.opened_by, w.closed_by)))
            .collect();
        let mut leader: Vec<usize> = (0..self.len).collect();
        for &(by, close) in &spans {
            if let Some(c) = close.filter(|c| spans.iter().all(|(o, _)| o != c)) {
                leader[c] = by;
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut slot = vec![usize::MAX; self.len];
        for (i, l) in leader.into_iter().enumerate() {
            if slot[l] == usize::MAX {
                slot[l] = groups.len();
                groups.push(Vec::new());
            }
            groups[slot[l]].push(i);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The queries are checked against a latest-event-wins scan by the
    // property test in `tests/properties.rs`; these pin the window shapes
    // and the shrink groups built from them.

    #[test]
    fn partitions_run_until_the_next_partition_or_heal() {
        let w = FaultWindows::new(
            &[
                NetFault::Partition { at: 10, nodes: vec![2, 0, 2, 9] },
                NetFault::Partition { at: 20, nodes: vec![1] },
                NetFault::Heal { at: 30 },
                NetFault::Heal { at: 40 },
                NetFault::Partition { at: 50, nodes: vec![0] },
                NetFault::Heal { at: 50 },
                NetFault::Drop { at: 5, until: 9, node: 1 },
            ],
            3,
        );
        let spans: Vec<_> =
            w.partitions().iter().map(|p| (p.start, p.end, p.who.clone(), p.closed_by)).collect();
        assert_eq!(spans, vec![(10, 20, vec![0, 2], Some(1)), (20, 30, vec![1], Some(2))]);
        // A replaced partition stays apart from its replacement, which
        // takes the heal; a partition healed at its own tick opens nothing.
        assert_eq!(w.groups(), vec![vec![0], vec![1, 2], vec![3], vec![4], vec![5], vec![6]]);
    }

    #[test]
    fn crashes_pair_with_the_next_recovery_of_their_replica() {
        let faults = [
            NetFault::CrashReplica { at: 10, node: 1 },
            NetFault::CrashReplica { at: 20, node: 1 },
            NetFault::RecoverReplica { at: 30, node: 1 },
            NetFault::CrashReplica { at: 40, node: 0 },
            NetFault::RecoverReplica { at: 40, node: 0 },
            NetFault::RecoverReplica { at: 50, node: 2 },
            NetFault::CrashReplica { at: 60, node: 7 },
        ];
        let w = FaultWindows::new(&faults, 3);
        let spans: Vec<_> = w.crashes().iter().map(|c| (c.start, c.end, c.who)).collect();
        // The second crash of a downed replica changes nothing; a crash
        // recovered at its own tick keeps its empty window.
        assert_eq!(spans, vec![(10, 30, 1), (40, 40, 0)]);
        assert_eq!(w.replica_events().len(), 6, "the out-of-range crash is ignored");
        assert_eq!(w.groups(), vec![vec![0, 2], vec![1], vec![3, 4], vec![5], vec![6]]);
    }
}
