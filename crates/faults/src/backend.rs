//! One builder for every register substrate.
//!
//! A [`BackendSpec`] names the substrate a run's registers live on — the
//! in-process shared memory, the ABD quorum emulation (optionally sharded),
//! or the delta-CRDT gossip substrate — together with its shape.
//! [`BackendSpec::build`] is the single place a spec becomes a
//! [`MemoryBackend`]: it derives the network seed from the run seed,
//! installs the fault plan's network faults, shards ABD, and wires gossip
//! over its network. Scenarios, the CLI and the bench drivers all build
//! through it, so a run seed names the same network everywhere and a
//! violation artifact replays it exactly.

use std::fmt;

use wfa_gossip::backend::GossipBackend;
use wfa_gossip::config::GossipConfig;
use wfa_kernel::backend::MemoryBackend;
use wfa_kernel::memory::SharedMemory;
use wfa_net::abd::{sharded_backend, AbdBackend};
use wfa_net::config::{NetConfig, NetFault, ShardMap};

/// The substrate and shape of a run's register file.
///
/// The `seed` and `faults` of the configs a spec carries are placeholders:
/// [`BackendSpec::build`] replaces both.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BackendSpec {
    /// The in-process shared memory of the base model (§2.1).
    Shm,
    /// The ABD quorum emulation: `shards` independent clusters of
    /// `cfg.nodes` replicas each (`1` runs a single cluster). Keys route by
    /// `RegKey::shard_index`, and every cluster gets the same faults,
    /// addressed by group-local replica index.
    Net {
        /// Replica count, link timing and corruption knobs.
        cfg: NetConfig,
        /// Independent replica groups.
        shards: usize,
    },
    /// The delta-CRDT gossip substrate over the network in `GossipConfig::net`.
    Gossip(GossipConfig),
}

impl BackendSpec {
    /// A single healthy `nodes`-replica ABD cluster.
    pub fn net(nodes: usize) -> BackendSpec {
        BackendSpec::Net { cfg: NetConfig::new(nodes, 0), shards: 1 }
    }

    /// An eager gossip substrate over `nodes` replicas.
    pub fn gossip(nodes: usize) -> BackendSpec {
        BackendSpec::Gossip(GossipConfig::new(nodes, 0))
    }

    /// Replicas per group — the index space network faults address (`0` on
    /// shared memory).
    pub fn nodes(&self) -> usize {
        match self {
            BackendSpec::Shm => 0,
            BackendSpec::Net { cfg, .. } => cfg.nodes,
            BackendSpec::Gossip(g) => g.net.nodes,
        }
    }

    /// Builds the backend for run `seed` with the network `faults` (ignored
    /// on shared memory, which has no network). The network seed is
    /// `seed ^ 0x7e7`, so every caller that shares a run seed shares the
    /// network's delay draws.
    pub fn build(&self, seed: u64, faults: &[NetFault]) -> Box<dyn MemoryBackend> {
        let seeded = |cfg: &NetConfig| NetConfig {
            seed: seed ^ 0x7e7,
            faults: faults.to_vec(),
            ..cfg.clone()
        };
        match self {
            BackendSpec::Shm => Box::new(SharedMemory::new()),
            BackendSpec::Net { cfg, shards } if *shards > 1 => {
                Box::new(sharded_backend(&seeded(cfg), &ShardMap::new(*shards, cfg.nodes)))
            }
            BackendSpec::Net { cfg, .. } => Box::new(AbdBackend::new(seeded(cfg))),
            BackendSpec::Gossip(g) => {
                Box::new(GossipBackend::new(GossipConfig { net: seeded(&g.net), ..g.clone() }))
            }
        }
    }
}

/// `shm`, `net(N[,reorder][,corrupt=C][,shards=S])` or
/// `gossip(N)`: the replica count plus every knob the catalog scenarios set
/// away from its default.
impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Shm => write!(f, "shm"),
            BackendSpec::Net { cfg, shards } => {
                write!(f, "net({}", cfg.nodes)?;
                if !cfg.fifo {
                    write!(f, ",reorder")?;
                }
                if cfg.corrupt_every > 0 {
                    write!(f, ",corrupt={}", cfg.corrupt_every)?;
                }
                if *shards > 1 {
                    write!(f, ",shards={shards}")?;
                }
                write!(f, ")")
            }
            BackendSpec::Gossip(g) => write!(f, "gossip({})", g.net.nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_kernel::memory::RegKey;
    use wfa_kernel::value::{Pid, Value};

    #[test]
    fn build_derives_the_network_seed_and_installs_the_faults() {
        let fault = NetFault::Partition { at: 0, nodes: vec![0, 1] };
        let spec = BackendSpec::net(3);
        let mut built = spec.build(9, std::slice::from_ref(&fault));
        let mut direct = AbdBackend::new(NetConfig::new(3, 9 ^ 0x7e7).with_fault(fault));
        built.write(Pid(0), 0, RegKey::new(0), Value::Int(1));
        direct.write(Pid(0), 0, RegKey::new(0), Value::Int(1));
        assert_eq!(built.drain_degradations(), direct.drain_degradations());
        let fp = |b: &dyn MemoryBackend| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            b.fingerprint(&mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(fp(built.as_ref()), fp(&direct));
    }

    #[test]
    fn each_substrate_builds_under_its_label() {
        let sharded = BackendSpec::Net { cfg: NetConfig::new(3, 0), shards: 2 };
        for (spec, label) in [
            (BackendSpec::Shm, "shm"),
            (BackendSpec::net(3), "abd"),
            (sharded, "sharded"),
            (BackendSpec::gossip(4), "gossip"),
        ] {
            let b = spec.build(1, &[]);
            assert!(b.label().starts_with(label), "{spec}: {}", b.label());
        }
        assert_eq!(BackendSpec::Shm.nodes(), 0);
        assert_eq!(BackendSpec::gossip(4).nodes(), 4);
    }
}
