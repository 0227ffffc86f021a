//! Replay a model-checker counterexample with full observability.
//!
//! Takes the violating schedule found by the Lemma-11 refutation (a
//! concrete interleaving on which the consensus protocol derived from a
//! renaming candidate disagrees), replays it step by step with the
//! observability layer recording every effective step, and prints the
//! space-time timeline — the adversary's schedule made visible.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use wfa::kernel::process::DynProcess;
use wfa::kernel::sched::{run_schedule, NullEnv, Replay};
use wfa::kernel::value::Value;
use wfa::modelcheck::explorer::Limits;
use wfa::modelcheck::lemma11::{lemma11, refute_strong_2_renaming};
use wfa::obs::metrics::MetricsHandle;
use wfa::obs::span::timeline;
use wfa_algorithms::renaming::RenamingFig4;

fn main() {
    // 1. Find the counterexample.
    let candidate = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let refutation = refute_strong_2_renaming(&candidate, &[0, 1, 2], Limits::default());
    let (reason, schedule) =
        refutation.report.violation.clone().expect("Lemma 11 guarantees a counterexample");
    let (a, b) = refutation.colliding;
    println!("counterexample: {reason}");
    println!("colliding solo slots: p{a}, p{b}; schedule length {}\n", schedule.len());

    // 2. Rebuild the derived consensus instance and replay under the
    //    observability layer: every effective step becomes a stable-keyed
    //    event, and the counters double-check what the replay did.
    let obs = MetricsHandle::with_events(4096);
    let mut ex = lemma11(&candidate, (a, b));
    ex.set_metrics(obs.clone());
    let mut replay = Replay::new(schedule);
    run_schedule(&mut ex, &mut replay, &mut NullEnv, 10_000);

    // 3. Show what happened.
    println!("space-time timeline (r = read, w = write, s = snapshot, D = decide):\n");
    println!("{}", timeline(&obs.events(), 2));
    println!();
    for pid in ex.pids() {
        match ex.status(pid).decision() {
            Some(v) => println!("{pid} decided {v} (input was {})", pid.0),
            None => println!("{pid} undecided"),
        }
    }
    let snap = obs.snapshot().expect("metrics enabled");
    println!(
        "\ncounters: {} slots, {} effective steps, {} decisions",
        snap.counter("schedule_slots").unwrap_or(0),
        snap.counter("effective_steps").unwrap_or(0),
        snap.counter("decisions").unwrap_or(0),
    );
    let d: Vec<Value> = ex
        .pids()
        .filter_map(|p| ex.status(p).decision().cloned())
        .collect();
    assert_eq!(d.len(), 2, "replay must reach both decisions");
    assert_ne!(d[0], d[1], "replay must reproduce the disagreement");
    println!("\nDisagreement reproduced: wait-free 2-process consensus is impossible,");
    println!("so no algorithm can solve strong 2-renaming 2-concurrently (Lemma 11).");
}
