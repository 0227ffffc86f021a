//! The deterministic simulated message-passing runtime.
//!
//! Models the asynchronous network under the replicated register emulation:
//! one logical client side (the process currently taking a kernel step) and
//! `nodes` replica endpoints, connected by point-to-point channels. Every
//! message draws its link delay from a stateless mix of the config seed and
//! a global message counter — no RNG state is stored, so the runtime hashes
//! and forks like the rest of the kernel — and deliveries respect the
//! configured channel discipline:
//!
//! * **FIFO** (default): per-channel delivery order equals send order (a
//!   later message's delivery time is clamped to the channel's previous
//!   delivery time).
//! * **non-FIFO**: messages overtake freely.
//!
//! Time is *network ticks*: a logical clock advanced only by message
//! activity. Faults ([`crate::config::NetFault`]) are windows on this
//! clock: the runtime compiles its (immutable) fault list into
//! [`FaultWindows`] once and queries them functionally rather than mutating
//! partition state, which keeps replay trivially correct.
//!
//! Observability: the runtime counts messages through
//! [`wfa_obs::local`] — the thread-local context the executor installs
//! around each step — so counters land in whatever registry observes the
//! run, without the runtime holding a handle (it must stay `Clone + Hash`).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use wfa_obs::local as obs_local;
use wfa_obs::metrics::Counter;
use wfa_obs::span::{seq, EventKind, SpanKind};

use crate::config::NetConfig;
use crate::retry::RetryPolicy;
use crate::windows::FaultWindows;

/// SplitMix64 finalizer — the statistically solid 64-bit mixer used to
/// derive per-message delays from `(seed, message counter)` without storing
/// RNG state. Public so sibling protocols over this runtime (the gossip
/// backend's partner selection) draw from the same stateless stream family.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulated network: clock, message counter, and per-channel FIFO
/// watermarks. All remaining behaviour is a pure function of the config.
#[derive(Clone, Debug)]
pub struct NetRuntime {
    cfg: NetConfig,
    /// `cfg.faults` compiled once; shared by forks.
    windows: Arc<FaultWindows>,
    /// The network clock, in ticks; advances when quorum operations
    /// complete or retransmission rounds back off.
    now: u64,
    /// Messages ever sent; drives the stateless delay draws.
    msgs: u64,
    /// Per-channel latest delivery tick: `[to_replica..., to_client...]`.
    fifo_mark: Vec<u64>,
}

/// Hashes the run state only: the config, and the windows compiled from
/// it, are fixed for the whole run.
impl Hash for NetRuntime {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.now.hash(state);
        self.msgs.hash(state);
        self.fifo_mark.hash(state);
    }
}

impl NetRuntime {
    /// A fresh network at tick 0.
    pub fn new(cfg: NetConfig) -> NetRuntime {
        // Client↔replica channel pairs plus the replica↔replica sync
        // channels the re-sync protocol pulls over:
        // `[to_replica.., to_client.., sync_req.., sync_rep..]`.
        let channels = cfg.nodes * 4;
        let windows = Arc::new(FaultWindows::new(&cfg.faults, cfg.nodes));
        NetRuntime { cfg, windows, now: 0, msgs: 0, fifo_mark: vec![0; channels] }
    }

    /// The configuration this runtime replays.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The config's fault list, compiled into windows.
    pub fn windows(&self) -> &FaultWindows {
        &self.windows
    }

    /// The current network tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.msgs
    }

    /// Link delay of the `c`-th message: a seeded draw in `[1, max_delay]`.
    fn delay(&self, c: u64) -> u64 {
        let draw = mix(self.cfg.seed ^ c.wrapping_mul(0x517c_c1b7_2722_0a95));
        1 + draw % self.cfg.max_delay.max(1)
    }

    /// Checksum of message `c`: a splitmix64 digest of `(seed, message id)`,
    /// recomputable by the receiver without carrying payload bytes around.
    fn digest(&self, c: u64) -> u64 {
        mix(self.cfg.seed ^ c.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    /// Verifies the current message's checksum at arrival on `endpoints`'
    /// links at tick `arrive`. In-flight corruption (an active
    /// [`crate::config::NetFault::CorruptMessage`] window on an endpoint
    /// whose stride divides the message counter) XORs a nonzero seeded
    /// flip into the payload, so the receiver's recomputed digest can never
    /// match; the mismatch is counted and the message quarantined (`false`)
    /// — the caller treats it like a drop, and a retransmission round
    /// recovers it. Messages outside every corruption window verify
    /// trivially, leaving healthy runs byte-identical.
    fn verify(&self, endpoints: &[usize], arrive: u64) -> bool {
        if !endpoints.iter().any(|n| self.windows.corrupting(*n, arrive, self.msgs)) {
            return true;
        }
        let expected = self.digest(self.msgs);
        let flip = mix(self.msgs.wrapping_mul(0xa076_1d64_78bd_642f) ^ self.cfg.seed) | 1;
        let received = expected ^ flip;
        debug_assert_ne!(received, expected, "a nonzero flip never passes verification");
        obs_local::bump(Counter::NetCorruptMsgsDetected);
        obs_local::bump(Counter::NetCorruptMsgsQuarantined);
        received == expected
    }

    /// Sends one message at tick `sent` over FIFO channel `channel`
    /// between the replicas in `endpoints` (one replica for client↔replica
    /// traffic, both for replica↔replica traffic); returns its delivery
    /// tick, or `None` if a link dropped it. Every endpoint's links are
    /// consulted at send and at arrival, so partitions, crash windows, drop
    /// windows and in-flight corruption apply the same way to every
    /// protocol. The one send path: loss at send, the delay draw, the FIFO
    /// clamp, in-flight loss, checksum verification and the counters.
    fn send(&mut self, endpoints: &[usize], channel: usize, sent: u64) -> Option<u64> {
        self.msgs += 1;
        obs_local::bump(Counter::NetMsgsSent);
        obs_local::bump(Counter::shard_msgs(self.cfg.shard));
        if endpoints.iter().any(|n| self.windows.lossy(*n, sent)) {
            obs_local::bump(Counter::NetMsgsDropped);
            return None;
        }
        let dur = self.delay(self.msgs);
        let mut arrive = sent + dur;
        if self.cfg.fifo {
            // FIFO: never deliver before the channel's previous delivery.
            arrive = arrive.max(self.fifo_mark[channel]);
        }
        self.fifo_mark[channel] = arrive;
        // A partition may have started while the message was in flight.
        if endpoints.iter().any(|n| self.windows.lossy(*n, arrive)) {
            obs_local::bump(Counter::NetMsgsDropped);
            return None;
        }
        if !self.verify(endpoints, arrive) {
            return None; // corrupt in flight: quarantined, never delivered
        }
        obs_local::bump(Counter::NetMsgsDelivered);
        obs_local::event(seq::NET, EventKind::Span { kind: SpanKind::Channel, dur });
        Some(arrive)
    }

    /// The unified [`RetryPolicy`] this runtime's config implies: the
    /// single owner of the backoff span, exponential schedule, and jitter
    /// draws every retry loop in the system shares.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::from_config(&self.cfg)
    }

    /// Send tick of retransmission round `round` of an operation anchored at
    /// `start` — delegated to the shared [`RetryPolicy`] schedule
    /// (exponential backoff plus a seeded, stateless jitter draw; round 0 is
    /// the original broadcast, sent at the anchor).
    pub fn round_send_tick(&self, start: u64, round: u32) -> u64 {
        self.retry().send_tick(start, round)
    }

    /// Advances the network clock (monotonically) to `t` — the caller drives
    /// rounds and commits the resulting completion or horizon tick here.
    pub fn advance_to(&mut self, t: u64) {
        debug_assert!(t >= self.now, "network clock must be monotone");
        self.now = t;
    }

    /// One broadcast round trip to all replicas at tick `sent`.
    ///
    /// `serving_from[n]` gates replica `n`: it accepts (and replies) only if
    /// it has been serving since before the request arrived — recovering
    /// replicas are silent until their re-sync completes (an empty slice
    /// means everyone serves). Clears the caller's buffers, then fills
    /// `acks` with the replies as `(arrival, node)` sorted by arrival and
    /// `accepted` with the replicas that accepted the request, in node
    /// order (they applied it even when their reply was lost — supersets of
    /// quorums are what make the emulation's writes stick). The caller owns
    /// the buffers, so a warm caller runs rounds without allocating.
    pub fn round(
        &mut self,
        sent: u64,
        serving_from: &[u64],
        acks: &mut Vec<(u64, usize)>,
        accepted: &mut Vec<usize>,
    ) {
        acks.clear();
        accepted.clear();
        let nodes = self.cfg.nodes;
        for node in 0..nodes {
            if let Some(at_replica) = self.send(&[node], node, sent) {
                if serving_from.get(node).copied().unwrap_or(0) > at_replica {
                    continue; // refused: recovered but not yet re-synced
                }
                accepted.push(node);
                if let Some(done) = self.send(&[node], nodes + node, at_replica) {
                    acks.push((done, node));
                }
            }
        }
        acks.sort_unstable();
    }

    /// One state-pull round for recovering replica `node`, anchored at
    /// `sent`: requests to every peer over the dedicated sync channels,
    /// tagged-state replies back. A peer answers only if it is itself
    /// serving by the request's arrival. Succeeds when `quorum() − 1` peers
    /// answered (the recovering replica's own copy completes the majority),
    /// returning the answering peers (fastest first) and the completion
    /// tick; `None` leaves the replica barred for a later retry.
    pub fn sync_round(
        &mut self,
        node: usize,
        sent: u64,
        serving_from: &[u64],
    ) -> Option<(Vec<usize>, u64)> {
        let need = self.cfg.quorum().saturating_sub(1);
        let mut acks: Vec<(u64, usize)> = Vec::new();
        for peer in (0..self.cfg.nodes).filter(|p| *p != node) {
            if let Some(at_peer) = self.transmit_sync(node, peer, false, sent) {
                if serving_from.get(peer).copied().unwrap_or(0) > at_peer {
                    continue; // peer is itself awaiting re-sync
                }
                if let Some(done) = self.transmit_sync(node, peer, true, at_peer) {
                    acks.push((done, peer));
                }
            }
        }
        acks.sort_unstable();
        if acks.len() < need {
            return None;
        }
        let completion = if need == 0 { sent } else { acks[need - 1].0 };
        Some((acks[..need].iter().map(|(_, p)| *p).collect(), completion))
    }

    /// Sends one replica-to-replica message from `from` to `to` at tick
    /// `sent` (request when `reply` is false, reply leg when true) and
    /// returns its delivery tick, or `None` if a link dropped it. The
    /// general pairwise primitive behind protocols that are not quorum
    /// round trips — the gossip backend's anti-entropy exchanges ride it.
    /// Shares the dedicated replica↔replica channels (and their FIFO marks)
    /// with the re-sync protocol, but does not count as re-sync traffic.
    /// Both endpoints' links are consulted at send and arrival, so
    /// partitions, crash windows, drop windows and in-flight corruption all
    /// apply exactly as they do to quorum traffic.
    pub fn peer_send(&mut self, from: usize, to: usize, reply: bool, sent: u64) -> Option<u64> {
        let channel = if reply { 3 * self.cfg.nodes + to } else { 2 * self.cfg.nodes + to };
        self.send(&[from, to], channel, sent)
    }

    /// Sends one re-sync message between recovering replica `puller` and
    /// `peer` (request when `reply` is false, tagged-state reply back when
    /// true): a [`NetRuntime::peer_send`] counted as re-sync traffic.
    fn transmit_sync(&mut self, puller: usize, peer: usize, reply: bool, sent: u64) -> Option<u64> {
        obs_local::bump(Counter::NetResyncMsgs);
        self.peer_send(puller, peer, reply, sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetFault;
    use wfa_obs::metrics::MetricsHandle;

    fn healthy(nodes: usize) -> NetRuntime {
        NetRuntime::new(NetConfig::new(nodes, 7))
    }

    /// Runs broadcast rounds (with the backoff schedule) until a majority
    /// replies, and advances the clock to the tick the quorum completed —
    /// the `AbdBackend` phase loop without its replica maintenance.
    ///
    /// Returns `(responders, delivered, completion)`: the quorum in (reply
    /// tick, index) order, every replica that accepted the request in any
    /// round, and the tick the `quorum()`-th reply arrived. After
    /// `max_rounds` retransmissions without a quorum, advances the clock to
    /// the end of the final round's window and returns the number of
    /// replicas that answered in that round.
    fn quorum_round(rt: &mut NetRuntime) -> Result<(Vec<usize>, Vec<usize>, u64), usize> {
        let need = rt.cfg.quorum();
        let start = rt.now;
        let (mut acks, mut accepted, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..=rt.cfg.max_rounds {
            if round > 0 {
                obs_local::bump(Counter::NetRetransmits);
            }
            let sent = rt.round_send_tick(start, round);
            rt.round(sent, &[], &mut acks, &mut accepted);
            for node in &accepted {
                if !delivered.contains(node) {
                    delivered.push(*node);
                }
            }
            if acks.len() >= need {
                let completion = acks[need - 1].0;
                let responders = acks[..need].iter().map(|(_, n)| *n).collect();
                rt.advance_to(completion);
                return Ok((responders, delivered, completion));
            }
        }
        let answered = acks.len();
        rt.advance_to(rt.retry().exhaustion_horizon(start));
        Err(answered)
    }

    #[test]
    fn delays_are_seeded_and_bounded() {
        let rt = healthy(3);
        for c in 0..200 {
            let d = rt.delay(c);
            assert!((1..=4).contains(&d), "delay {d} out of range");
        }
        let other = NetRuntime::new(NetConfig::new(3, 8));
        assert!((0..200).any(|c| rt.delay(c) != other.delay(c)), "seeds must matter");
    }

    #[test]
    fn healthy_quorum_completes_without_retransmits() {
        let obs = MetricsHandle::counters();
        let mut rt = healthy(5);
        let _g = obs_local::enter(&obs, 0, 0);
        let (responders, delivered, done) = quorum_round(&mut rt).expect("healthy net");
        assert_eq!(responders.len(), 3);
        assert_eq!(delivered.len(), 5);
        assert!(done >= 2, "two link delays minimum");
        assert_eq!(rt.now(), done);
        assert_eq!(obs.get(Counter::NetRetransmits), 0);
        assert_eq!(obs.get(Counter::NetMsgsSent), 10);
        assert_eq!(obs.get(Counter::NetMsgsDelivered), 10);
    }

    #[test]
    fn quorum_rounds_are_deterministic() {
        let run = || {
            let mut rt = healthy(5);
            let mut log = Vec::new();
            for _ in 0..10 {
                log.push(quorum_round(&mut rt).expect("healthy net"));
            }
            (log, rt.now(), rt.messages_sent())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fifo_deliveries_never_reorder_per_channel() {
        let mut cfg = NetConfig::new(1, 3);
        cfg.max_delay = 9; // wide spread to force overtakes without FIFO
        let mut rt = NetRuntime::new(cfg.clone());
        let mut last = 0;
        for t in 0..50 {
            if let Some(at) = rt.send(&[0], 0, t) {
                assert!(at >= last, "FIFO channel reordered: {at} after {last}");
                last = at;
            }
        }
        // The same schedule without FIFO does reorder somewhere.
        cfg.fifo = false;
        let mut free = NetRuntime::new(cfg);
        let mut reordered = false;
        let mut prev = 0;
        for t in 0..50 {
            if let Some(at) = free.send(&[0], 0, t) {
                reordered |= at < prev;
                prev = at;
            }
        }
        assert!(reordered, "non-FIFO run should overtake at least once");
    }

    #[test]
    fn minority_partition_is_tolerated() {
        let cfg = NetConfig::new(5, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![3, 4] });
        let mut rt = NetRuntime::new(cfg);
        let (responders, delivered, _) = quorum_round(&mut rt).expect("majority reachable");
        assert_eq!(responders.len(), 3);
        assert!(responders.iter().all(|n| *n < 3));
        assert_eq!(delivered.len(), 3);
    }

    #[test]
    fn majority_partition_strands_the_quorum() {
        let cfg = NetConfig::new(5, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1, 2] });
        let mut rt = NetRuntime::new(cfg);
        let answered = quorum_round(&mut rt).expect_err("quorum must be unreachable");
        assert!(answered <= 2);
    }

    #[test]
    fn heal_restores_the_quorum_via_retransmission() {
        let obs = MetricsHandle::counters();
        let cfg = NetConfig::new(5, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![0, 1, 2] })
            .with_fault(NetFault::Heal { at: 10 });
        let mut rt = NetRuntime::new(cfg);
        let _g = obs_local::enter(&obs, 0, 0);
        let (responders, _, _) = quorum_round(&mut rt).expect("healed in time");
        assert_eq!(responders.len(), 3);
        assert!(obs.get(Counter::NetRetransmits) > 0, "recovery needed retransmits");
        assert!(obs.get(Counter::NetMsgsDropped) > 0);
    }

    #[test]
    fn crashed_replicas_drop_messages_at_both_points() {
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::CrashReplica { at: 0, node: 2 })
            .with_fault(NetFault::RecoverReplica { at: 50, node: 2 });
        let rt = NetRuntime::new(cfg);
        let w = rt.windows();
        assert!(w.down(2, 0) && w.down(2, 49), "crash window covers [0, 50)");
        assert!(!w.down(2, 50), "recovered at 50");
        assert!(!w.down(1, 10), "other replicas unaffected");
        assert!(w.lossy(2, 10) && !w.lossy(2, 60), "crashes cut the links");
    }

    #[test]
    fn backoff_rounds_are_exponential_and_jittered() {
        let rt = healthy(3);
        assert_eq!(rt.round_send_tick(100, 0), 100, "round 0 is the anchor");
        let mut prev = 100;
        for r in 1..=4 {
            let t = rt.round_send_tick(100, r);
            let base = 100 + 9 * ((1u64 << r) - 1);
            assert!((base..base + 5).contains(&t), "round {r} at {t} outside jitter window");
            assert!(t > prev, "rounds must be strictly ordered");
            prev = t;
        }
        // Jitter is seeded: a different anchor may draw differently, but the
        // draw is a pure function of (seed, anchor, round).
        assert_eq!(rt.round_send_tick(100, 2), rt.round_send_tick(100, 2));
    }

    #[test]
    fn barred_replicas_neither_accept_nor_reply() {
        let mut rt = healthy(3);
        let serving = vec![0, u64::MAX, 0];
        let (mut acks, mut delivered) = (Vec::new(), Vec::new());
        rt.round(0, &serving, &mut acks, &mut delivered);
        assert!(acks.iter().all(|(_, n)| *n != 1), "barred replica must not ack");
        assert!(!delivered.contains(&1), "barred replica must not apply");
        assert_eq!(delivered.len(), 2);
    }

    #[test]
    fn sync_round_pulls_from_a_majority_of_peers() {
        let obs = MetricsHandle::counters();
        let mut rt = healthy(3);
        let _g = obs_local::enter(&obs, 0, 0);
        let (peers, done) = rt.sync_round(0, 5, &[0, 0, 0]).expect("healthy peers serve the pull");
        assert_eq!(peers.len(), 1, "quorum(3) − 1 peers complete the majority");
        assert!(done > 5);
        // 2 requests out, 2 tagged-state replies back.
        assert_eq!(obs.get(Counter::NetResyncMsgs), 4);
        assert_eq!(obs.get(Counter::NetMsgsSent), 4, "sync messages count in the totals too");
    }

    #[test]
    fn sync_round_fails_while_peers_are_unreachable() {
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::Partition { at: 0, nodes: vec![1, 2] });
        let mut rt = NetRuntime::new(cfg);
        assert!(rt.sync_round(0, 5, &[0, 0, 0]).is_none(), "no peer reachable");
        // A peer that is itself awaiting re-sync refuses the pull.
        let mut healthy_rt = healthy(3);
        assert!(healthy_rt.sync_round(0, 5, &[0, u64::MAX, u64::MAX]).is_none());
    }

    #[test]
    fn strided_corruption_is_quarantined_and_recovered() {
        let obs = MetricsHandle::counters();
        let mut cfg = NetConfig::new(3, 7);
        cfg.faults = (0..3)
            .map(|node| NetFault::CorruptMessage { at: 0, until: u64::MAX, node, every: 4 })
            .collect();
        cfg.max_rounds = 6;
        let mut rt = NetRuntime::new(cfg);
        let _g = obs_local::enter(&obs, 0, 0);
        for _ in 0..20 {
            quorum_round(&mut rt).expect("corruption must be recovered by retransmits");
        }
        let detected = obs.get(Counter::NetCorruptMsgsDetected);
        // Every message crosses a corrupting window: exactly every 4th is hit.
        assert_eq!(detected, obs.get(Counter::NetMsgsSent) / 4);
        assert_eq!(
            detected,
            obs.get(Counter::NetCorruptMsgsQuarantined),
            "every detected corruption is quarantined"
        );
        // Quarantined messages were sent but never delivered.
        let sent = obs.get(Counter::NetMsgsSent);
        let delivered = obs.get(Counter::NetMsgsDelivered);
        assert!(sent >= delivered + detected, "sent={sent} delivered={delivered}");
    }

    #[test]
    fn corruption_windows_behave_like_drops() {
        let obs = MetricsHandle::counters();
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::CorruptMessage { at: 0, until: 10, node: 0, every: 1 });
        let mut rt = NetRuntime::new(cfg);
        let _g = obs_local::enter(&obs, 0, 0);
        let (responders, _, _) =
            quorum_round(&mut rt).expect("two healthy replicas keep the quorum");
        assert!(!responders.contains(&0), "node 0's replies were quarantined");
        assert!(obs.get(Counter::NetCorruptMsgsDetected) > 0);
        // Quarantine is not link loss: the drop counter stays at zero.
        assert_eq!(obs.get(Counter::NetMsgsDropped), 0);
    }

    #[test]
    fn healthy_runs_see_no_corruption() {
        let obs = MetricsHandle::counters();
        let mut rt = healthy(5);
        let _g = obs_local::enter(&obs, 0, 0);
        for _ in 0..10 {
            quorum_round(&mut rt).expect("healthy net");
        }
        assert_eq!(obs.get(Counter::NetCorruptMsgsDetected), 0);
        assert_eq!(obs.get(Counter::NetCorruptMsgsQuarantined), 0);
    }

    #[test]
    fn majority_drop_windows_are_recovered_by_retransmission() {
        let obs = MetricsHandle::counters();
        let cfg = NetConfig::new(3, 7)
            .with_fault(NetFault::Drop { at: 0, until: 10, node: 0 })
            .with_fault(NetFault::Drop { at: 0, until: 10, node: 1 });
        let mut rt = NetRuntime::new(cfg);
        let _g = obs_local::enter(&obs, 0, 0);
        for _ in 0..20 {
            quorum_round(&mut rt).expect("drops must be recovered by retransmits");
        }
        assert!(obs.get(Counter::NetRetransmits) > 0, "the first round lost its quorum");
        assert!(obs.get(Counter::NetMsgsDropped) > 0);
    }
}
