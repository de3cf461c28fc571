//! Figure 9 — sensitivity to the read/write mix: workload-B (95 % reads),
//! workload-A (50 %), and the paper's workload-W (95 % writes).
//!
//! Linearizable and Causal consistency with all five persistency models;
//! normalized to `<Linearizable, Synchronous>` under workload-A.

use ddp_core::{Consistency, DdpModel, Persistency};
use ddp_harness::{figure_config, print_row, print_rule, ratio, Harness, Sweep};
use ddp_workload::WorkloadSpec;

const CONSISTENCY: [Consistency; 2] = [Consistency::Linearizable, Consistency::Causal];

/// Trial index of `(workload, consistency, persistency)` in the sweep grid.
fn idx(wl_i: usize, cons_i: usize, p: Persistency) -> usize {
    (wl_i * CONSISTENCY.len() + cons_i) * Persistency::ALL.len() + p.index()
}

fn main() {
    let mut harness = Harness::from_env("fig9");
    println!("Figure 9: throughput sensitivity to the read/write mix");
    println!("(normalized to <Linearizable, Synchronous> under workload-A)\n");

    let workloads = [
        ("workload-B (95% rd)", WorkloadSpec::ycsb_b()),
        ("workload-A (50% rd)", WorkloadSpec::ycsb_a()),
        ("workload-W (5% rd)", WorkloadSpec::workload_w()),
    ];

    let mut sweep = Sweep::new();
    for (name, wl) in &workloads {
        for c in CONSISTENCY {
            for p in Persistency::ALL {
                let model = DdpModel::new(c, p);
                sweep.push(
                    format!("{model} {name}"),
                    figure_config(model).with_workload(wl.clone()),
                );
            }
        }
    }
    let records = harness.run(sweep);
    // The baseline <Lin, Sync> under workload-A is part of the grid.
    let base = records[idx(1, 0, Persistency::Synchronous)]
        .summary
        .throughput;

    print!("{:<28}", "");
    for p in Persistency::ALL {
        print!(" {:>8}", p.short_name());
    }
    println!();
    for (wi, (name, _)) in workloads.iter().enumerate() {
        println!("--- {name} ---");
        for (gi, c) in CONSISTENCY.into_iter().enumerate() {
            let values: Vec<f64> = Persistency::ALL
                .iter()
                .map(|&p| ratio(records[idx(wi, gi, p)].summary.throughput, base))
                .collect();
            print_row(&c.to_string(), &values);
        }
    }
    print_rule(5);
    println!("paper anchor: the more read-intensive the workload, the less the models differ.");
    harness.finish();
}
