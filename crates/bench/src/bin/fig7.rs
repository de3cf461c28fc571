//! Figure 7 — sensitivity to the number of clients (10 / 100 / 150).
//!
//! As in the paper, shows Linearizable and Causal consistency with all five
//! persistency models; every bar is normalized to
//! `<Linearizable, Synchronous>` at 100 clients.

use ddp_core::{Consistency, DdpModel, Persistency};
use ddp_harness::{figure_config, print_row, print_rule, ratio, Harness, Sweep};

const CLIENTS: [u32; 3] = [10, 100, 150];
const CONSISTENCY: [Consistency; 2] = [Consistency::Linearizable, Consistency::Causal];

/// Trial index of `(clients, consistency, persistency)` in the sweep grid.
fn idx(clients_i: usize, cons_i: usize, p: Persistency) -> usize {
    (clients_i * CONSISTENCY.len() + cons_i) * Persistency::ALL.len() + p.index()
}

fn main() {
    let mut harness = Harness::from_env("fig7");
    println!("Figure 7: throughput sensitivity to the number of clients");
    println!("(normalized to <Linearizable, Synchronous> at 100 clients)\n");

    let mut sweep = Sweep::new();
    for clients in CLIENTS {
        for c in CONSISTENCY {
            for p in Persistency::ALL {
                let model = DdpModel::new(c, p);
                sweep.push(
                    format!("{model} clients={clients}"),
                    figure_config(model).with_clients(clients),
                );
            }
        }
    }
    let records = harness.run(sweep);
    // The baseline <Lin, Sync> at 100 clients is part of the grid.
    let base = records[idx(1, 0, Persistency::Synchronous)]
        .summary
        .throughput;

    print!("{:<28}", "");
    for p in Persistency::ALL {
        print!(" {:>8}", p.short_name());
    }
    println!();
    for (ci, clients) in CLIENTS.into_iter().enumerate() {
        println!("--- {clients} clients ---");
        for (gi, c) in CONSISTENCY.into_iter().enumerate() {
            let values: Vec<f64> = Persistency::ALL
                .iter()
                .map(|&p| ratio(records[idx(ci, gi, p)].summary.throughput, base))
                .collect();
            print_row(&c.to_string(), &values);
        }
    }
    print_rule(5);
    println!("paper anchors: <Lin,Sync> gains ~2.2x going 100 -> 10 clients;");
    println!("               <Causal,Sync> and <Causal,Eventual> barely move.");
    harness.finish();
}
