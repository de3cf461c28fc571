//! Figure 8 — sensitivity to the NIC-to-NIC round-trip latency
//! (0.5 µs / 1 µs / 2 µs).
//!
//! Linearizable and Causal consistency with all five persistency models;
//! normalized to `<Linearizable, Synchronous>` at 1 µs.

use ddp_core::{Consistency, DdpModel, Persistency};
use ddp_harness::{figure_config, print_row, print_rule, ratio, Harness, Sweep};
use ddp_sim::Duration;

const RTT_NS: [u64; 3] = [500, 1_000, 2_000];
const CONSISTENCY: [Consistency; 2] = [Consistency::Linearizable, Consistency::Causal];

/// Trial index of `(rtt, consistency, persistency)` in the sweep grid.
fn idx(rtt_i: usize, cons_i: usize, p: Persistency) -> usize {
    (rtt_i * CONSISTENCY.len() + cons_i) * Persistency::ALL.len() + p.index()
}

fn main() {
    let mut harness = Harness::from_env("fig8");
    println!("Figure 8: throughput sensitivity to NIC-to-NIC round-trip latency");
    println!("(normalized to <Linearizable, Synchronous> at 1us)\n");

    let mut sweep = Sweep::new();
    for rtt_ns in RTT_NS {
        for c in CONSISTENCY {
            for p in Persistency::ALL {
                let model = DdpModel::new(c, p);
                sweep.push(
                    format!("{model} rtt={rtt_ns}ns"),
                    figure_config(model).with_round_trip(Duration::from_nanos(rtt_ns)),
                );
            }
        }
    }
    let records = harness.run(sweep);
    // The baseline <Lin, Sync> at the paper's 1us RTT is part of the grid.
    let base = records[idx(1, 0, Persistency::Synchronous)]
        .summary
        .throughput;

    print!("{:<28}", "");
    for p in Persistency::ALL {
        print!(" {:>8}", p.short_name());
    }
    println!();
    for (ri, rtt_ns) in RTT_NS.into_iter().enumerate() {
        println!("--- RTT {:.1} us ---", rtt_ns as f64 / 1_000.0);
        for (gi, c) in CONSISTENCY.into_iter().enumerate() {
            let values: Vec<f64> = Persistency::ALL
                .iter()
                .map(|&p| ratio(records[idx(ri, gi, p)].summary.throughput, base))
                .collect();
            print_row(&c.to_string(), &values);
        }
    }
    print_rule(5);
    println!("paper anchors: <Lin,Sync> loses ~12% going 1us -> 2us;");
    println!(
        "               Causal models are barely affected (updates travel in the background)."
    );
    harness.finish();
}
