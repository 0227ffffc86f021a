//! Advice quality vs. decision latency.
//!
//! The liveness of every EFD construction hinges on a single "eventually":
//! the advice (`→Ωk`) stabilizing on a correct S-process. This example makes
//! that dependence measurable — it sweeps the detector's stabilization time
//! and reports how many schedule slots the slowest C-process needs before
//! deciding k-set agreement, plus the wait-free constant that does *not*
//! change: the number of the C-process's own steps after the decision is
//! published.
//!
//! ```sh
//! cargo run --release --example advice_quality
//! ```

use wfa::core::harness::EfdRun;
use wfa::core::solver::ksa_system;
use wfa::fd::detectors::FdGen;
use wfa::fd::pattern::FailurePattern;
use wfa::kernel::value::Value;

fn decision_time(n: usize, k: usize, stab: u64, seed: u64, adversarial: bool) -> Option<(u64, u64)> {
    let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let (c, s) = ksa_system(n, k, &inputs);
    let fd = if adversarial {
        FdGen::vector_omega_k_adversarial(FailurePattern::failure_free(n), k, stab, seed)
    } else {
        FdGen::vector_omega_k(FailurePattern::failure_free(n), k, stab, seed)
    };
    let mut run = EfdRun::new(c, s, fd);
    let mut sched = run.fair_sched(seed ^ 0x51ab);
    let slots = run.run_until_decided(&mut sched, 3_000_000)?;
    let max_c_steps = run.roles.c_pids().iter().map(|p| run.executor.steps(*p)).max().unwrap();
    Some((slots, max_c_steps))
}

fn main() {
    let n = 4;
    let k = 2;
    let seeds = 8;
    println!("k-set agreement (n = {n}, k = {k}): latency vs. advice stabilization\n");
    println!(
        "{:>12} {:>18} {:>18} {:>16}",
        "stab time", "slots (uniform)", "slots (adv)", "max own C-steps"
    );
    println!("{}", "-".repeat(68));
    for stab in [0u64, 100, 400, 1_600, 6_400, 25_600] {
        let mut slots = Vec::new();
        let mut slots_adv = Vec::new();
        let mut steps = Vec::new();
        for seed in 0..seeds {
            if let Some((clock, c_steps)) = decision_time(n, k, stab, seed, false) {
                slots.push(clock);
                steps.push(c_steps);
            }
            if let Some((clock, _)) = decision_time(n, k, stab, seed, true) {
                slots_adv.push(clock);
            }
        }
        let avg = |v: &[u64]| v.iter().sum::<u64>() / v.len().max(1) as u64;
        println!("{:>12} {:>18} {:>18} {:>16}", stab, avg(&slots), avg(&slots_adv), avg(&steps));
    }
    println!("\nShape check: latency grows with the stabilization time, then");
    println!("plateaus — decisions often land *before* stabilization because");
    println!("ballot agents persist across leadership changes: even advice that");
    println!("rotates on every query (the adversarial column) cannot starve the");
    println!("system, since interrupted leaders resume their ballots when any");
    println!("position returns to them. Each C-process's own work stays small —");
    println!("wait-freedom means late advice costs a C-process only polling.");
}
