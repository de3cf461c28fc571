//! Per-model phase attribution and VP→DP durability lag.
//!
//! The observability companion to Figure 6: for each of the 25 DDP
//! models, where the nanoseconds of a request go (service, same-key
//! queueing, invalidation round-trip, durability stall, NVM bank
//! queueing, read stalls) and how long the average write stays readable
//! before it can survive failure — the paper's visible-but-not-durable
//! window, measured.

use ddp_harness::{figure_config, print_rule, Harness, Sweep};

fn main() {
    let mut harness = Harness::from_env("phases");
    println!("Phase attribution and VP->DP durability lag of the 25 DDP models");
    println!("(YCSB-A, 100 clients, 5 servers; all values in microseconds)\n");

    let records = harness.run(Sweep::grid25(figure_config));

    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model",
        "service",
        "queue",
        "network",
        "persist",
        "nvm_q",
        "rd_stall",
        "lag_mean",
        "lag_p95"
    );
    print_rule(8);
    let us = |ns: f64| ns / 1_000.0;
    for r in &records {
        let s = &r.summary;
        println!(
            "{:<28} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.label,
            us(s.phase_service_ns),
            us(s.phase_queue_ns),
            us(s.phase_network_ns),
            us(s.phase_persist_stall_ns),
            us(s.phase_nvm_queue_ns),
            us(s.phase_read_stall_ns),
            us(s.vp_dp_lag_mean_ns),
            us(s.vp_dp_lag_p95_ns),
        );
    }
    println!();
    println!("service/queue/network/persist are per completed write; nvm_q is per issued persist;");
    println!(
        "rd_stall is per completed read; lag is how long a write was readable before durable."
    );
    harness.finish();
}
