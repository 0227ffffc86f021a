//! Experiment E19 — the chaos-soak engine's contract.
//!
//! The soak engine (`wfa-faults::chaos`) drives long-horizon op streams
//! against all three memory backends under a seeded stream of composed
//! faults, with online oracles checking invariants continuously and a
//! flight recorder of copy-on-write checkpoints backing violation replay.
//! This suite pins the contract:
//!
//! 1. **Clean soaks** — 10k-tick fixed-seed soaks over shm, net and gossip
//!    complete with zero oracle violations, and the report (metrics
//!    included) is byte-identical across repeated runs.
//! 2. **Checkpointed replay** — injected-bug runs surface their violation,
//!    and the replay certified against the newest checkpoint reproduces it
//!    in a small fraction of the original op stream.
//! 3. **Shrinking** — a soak artifact shrinks to fewer faults while still
//!    reproducing the same violation kind.
//! 4. **Artifact replay** — a faithful artifact replays with an empty
//!    diff; a tampered one yields a structured field diff.
//! 5. **MTTR accounting** — storm-phase net soaks close quorum-lost
//!    spells, gossip soaks close advice-stale spells, and the recoveries
//!    array survives the JSON round trip (legacy artifacts without it
//!    still parse).

use wfa::faults::chaos::{
    is_soak_artifact, replay_soak, shrink_soak, soak, timeline, Intensity, SoakBackend,
    SoakConfig, SoakReport,
};
use wfa::faults::json::Json;
use wfa::net::windows::FaultWindows;

fn cfg(backend: SoakBackend, ticks: u64) -> SoakConfig {
    let mut c = SoakConfig::new(backend);
    c.ticks = ticks;
    c
}

#[test]
fn e19_ten_k_tick_soaks_are_clean_on_every_backend() {
    for backend in [SoakBackend::Shm, SoakBackend::Net, SoakBackend::Gossip] {
        for intensity in [Intensity::Calm, Intensity::Storm, Intensity::Mixed] {
            let mut c = cfg(backend, 10_000);
            c.intensity = intensity;
            let r = soak(&c);
            assert!(
                r.violation.is_none(),
                "{}/{}: {:?}",
                backend.name(),
                intensity.name(),
                r.violation
            );
            assert!(r.ops > 0);
            assert!(r.checkpoints > 0, "the flight recorder must have run");
        }
    }
}

#[test]
fn e19_soak_reports_are_byte_deterministic() {
    // The whole report — metrics snapshot included — must be reproducible
    // bit for bit. (The CI smoke job additionally diffs these reports
    // across WFA_THREADS=1 and 8; the engine is single-threaded by
    // construction, so both comparisons guard the same invariant.)
    for backend in [SoakBackend::Shm, SoakBackend::Net, SoakBackend::Gossip] {
        let c = cfg(backend, 4_000);
        let (a, b) = (soak(&c), soak(&c));
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "{}: non-deterministic soak report",
            backend.name()
        );
    }
}

#[test]
fn e19_injected_bugs_replay_from_their_checkpoint() {
    // The flight-recorder contract: the violation reproduces from the
    // newest checkpoint, re-running a small suffix of the op stream
    // instead of the whole soak.
    for (backend, kind) in [
        (SoakBackend::Shm, "read-divergence"),
        (SoakBackend::Net, "quorum-lost"),
        (SoakBackend::Gossip, "gossip-divergence"),
    ] {
        let mut c = cfg(backend, 4_000);
        c.inject_bug = true;
        c.checkpoint_every = 16;
        let r = soak(&c);
        let v = r.violation.as_ref().unwrap_or_else(|| {
            panic!("{}: the injected bug must surface", backend.name())
        });
        assert_eq!(v.kind, kind, "{}", backend.name());
        let rep = r.replay.as_ref().expect("the recorder held a resume point");
        assert!(rep.reproduced, "{}: must reproduce from the checkpoint", backend.name());
        assert!(
            rep.replayed_ops * 5 < r.ops,
            "{}: resume point too far back: {} of {} ops",
            backend.name(),
            rep.replayed_ops,
            r.ops
        );
    }
}

#[test]
fn e19_injected_partitions_are_never_healed() {
    // A long gossip window opened just before the generation cutoff heals
    // past 85% of the horizon; the injected partition opens after it, so
    // under latest-event-wins nothing ever closes it.
    for ticks in [2_000, 10_000] {
        for seed in 0..2_000 {
            for backend in [SoakBackend::Net, SoakBackend::Gossip] {
                for intensity in [Intensity::Calm, Intensity::Mixed, Intensity::Storm] {
                    let mut c = cfg(backend, ticks);
                    c.seed = seed;
                    c.intensity = intensity;
                    c.inject_bug = true;
                    let tl = timeline(&c);
                    let last = FaultWindows::new(&tl.faults, c.nodes).partitions().last().cloned();
                    let bug = last.expect("the injected partition opens a window");
                    assert!(
                        bug.opened_by == tl.faults.len() - 1 && bug.closed_by.is_none(),
                        "{}/{}/{ticks}/{seed}: the injected partition was healed",
                        backend.name(),
                        intensity.name()
                    );
                }
            }
        }
    }
}

#[test]
fn e19_injected_bugs_past_a_late_heal_are_caught() {
    // These storm timelines draw a window that heals after 85% of the
    // horizon, a heal that would close an injected partition opened at that
    // mark and let the soak come back clean.
    for seed in [281, 417, 539] {
        let mut c = cfg(SoakBackend::Gossip, 10_000);
        c.seed = seed;
        c.intensity = Intensity::Storm;
        c.inject_bug = true;
        let r = soak(&c);
        let v = r.violation.as_ref().unwrap_or_else(|| panic!("seed {seed}: bug not caught"));
        assert_eq!(v.kind, "gossip-divergence", "seed {seed}");
    }
}

#[test]
fn e19_soak_artifacts_shrink_to_fewer_faults() {
    let mut c = cfg(SoakBackend::Net, 4_000);
    c.inject_bug = true;
    let full = soak(&c);
    let v = full.violation.as_ref().expect("the unhealed majority partition must surface");
    let (small, replays) = shrink_soak(&full);
    assert!(replays > 0, "shrinking re-soaks");
    let sv = small.violation.as_ref().expect("the shrunken artifact still violates");
    assert_eq!(sv.kind, v.kind, "shrinking preserves the violation kind");
    assert!(
        small.timeline.faults.len() < full.timeline.faults.len(),
        "shrinking must drop fault windows: {} -> {}",
        full.timeline.faults.len(),
        small.timeline.faults.len()
    );
    // The shrunken artifact is self-contained: replaying it reproduces.
    let (_, diff) = replay_soak(&small.to_json()).expect("well-formed artifact");
    assert!(diff.is_empty(), "shrunken artifact must replay faithfully: {diff:?}");
}

#[test]
fn e19_artifact_replay_diffs_structurally() {
    let mut c = cfg(SoakBackend::Shm, 2_000);
    c.inject_bug = true;
    let r = soak(&c);
    assert!(r.violation.is_some());
    let artifact = r.to_json();
    assert!(is_soak_artifact(&artifact));
    // Faithful replay: empty diff.
    let (fresh, diff) = replay_soak(&artifact).expect("well-formed artifact");
    assert!(diff.is_empty(), "faithful artifact must reproduce: {diff:?}");
    assert_eq!(fresh.violation.as_ref().map(|v| v.op), r.violation.as_ref().map(|v| v.op));
    // Tampered replay: the recorded violation op is edited; the diff names
    // the field with both values.
    let mut tampered = artifact.clone();
    if let Json::Obj(fields) = &mut tampered {
        for (k, v) in fields.iter_mut() {
            if k == "violation" {
                if let Json::Obj(vf) = v {
                    for (vk, vv) in vf.iter_mut() {
                        if vk == "op" {
                            *vv = Json::Num(7);
                        }
                    }
                }
            }
        }
    }
    let (_, diff) = replay_soak(&tampered).expect("still well-formed");
    assert_eq!(diff.len(), 1, "exactly the tampered field differs: {diff:?}");
    assert_eq!(diff[0].0, "violation-op");
}

#[test]
fn e19_mttr_spells_close_on_net_and_gossip() {
    // Storm-phase net soaks trip and recover the quorum breaker; gossip
    // soaks strand and recover stale homes. Both must land in the
    // recoveries array with positive-extent spells, and survive the JSON
    // round trip.
    let mut net = cfg(SoakBackend::Net, 10_000);
    net.intensity = Intensity::Storm;
    let gossip = cfg(SoakBackend::Gossip, 10_000);
    for (r, class) in [(soak(&net), "quorum-lost"), (soak(&gossip), "advice-stale")] {
        assert!(r.violation.is_none(), "{class}: {:?}", r.violation);
        assert!(!r.recoveries.is_empty(), "{class}: no recovery samples");
        assert!(r.recoveries.iter().all(|s| s.class == class), "{class}: {:?}", r.recoveries);
        assert!(r.recoveries.iter().all(|s| s.degrade_tick < s.resolve_tick));
        assert_eq!(r.mttr.len(), 1, "one fault class: {:?}", r.mttr);
        assert_eq!(r.mttr[0].class, class);
        assert_eq!(r.mttr[0].count, r.recoveries.len() as u64);
        let back = SoakReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back.recoveries.len(), r.recoveries.len());
        assert_eq!(back.to_json().to_string(), r.to_json().to_string());
    }
}

#[test]
fn e19_legacy_artifacts_without_recoveries_still_parse() {
    let r = soak(&cfg(SoakBackend::Net, 2_000));
    let mut legacy = r.to_json();
    if let Json::Obj(fields) = &mut legacy {
        fields.retain(|(k, _)| k != "recoveries" && k != "mttr" && k != "replay");
    }
    let old = SoakReport::from_json(&legacy).expect("legacy artifacts must parse");
    assert!(old.recoveries.is_empty());
    assert!(old.mttr.is_empty());
    // And they still replay: the timeline is intact.
    let (fresh, _) = replay_soak(&legacy).expect("legacy artifacts must replay");
    assert!(fresh.violation.is_none());
}

#[test]
fn e19_freeze_windows_suppress_writes() {
    // Freeze windows are the delayed-advice fault: the op stream issues
    // only reads inside them. A frozen shm soak therefore performs fewer
    // writes than its tick count alone would predict — and the timeline
    // derivation is a pure function of the config.
    let c = cfg(SoakBackend::Shm, 2_000);
    let (t1, t2) = (timeline(&c), timeline(&c));
    assert_eq!(t1, t2, "timelines are a pure function of the config");
    assert_eq!(t1.freezes.len(), 3, "three freeze windows ride every soak");
    assert!(t1.faults.is_empty(), "shm has no network fault menu");
    let r = soak(&c);
    assert!(r.violation.is_none());
    let frozen_ticks: u64 = t1.freezes.iter().map(|(a, b)| b - a).sum();
    assert!(frozen_ticks > 0);
    let writes = r.metrics.counter("op_writes");
    // Without freezes every third op writes; freezes can only reduce that.
    assert!(
        writes.is_none() || writes.unwrap_or(0) <= r.ops.div_ceil(3),
        "freeze windows must not add writes"
    );
}
