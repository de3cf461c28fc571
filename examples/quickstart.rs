//! Quickstart: run one DDP experiment and print its headline numbers.
//!
//! ```text
//! cargo run -p ddp-examples --release --bin quickstart
//! ```
//!
//! A Distributed Data Persistency (DDP) model binds a data *consistency*
//! model (when replicas may serve an update) with a memory *persistency*
//! model (when the update survives a crash). This example runs the paper's
//! recommended general-purpose binding, `<Causal, Synchronous>`, against
//! the strictest one, `<Linearizable, Synchronous>`, on the simulated
//! 5-server RDMA + NVM cluster — both trials through the parallel sweep
//! harness, one per core.

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};
use ddp_harness::{default_threads, run_sweep, RunRecord, Sweep};

fn main() {
    println!("DDP quickstart: two models on the paper's 5-server cluster\n");

    let mut sweep = Sweep::new();
    for model in [
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
    ] {
        // ClusterConfig::micro21 reproduces the paper's Table 5 setup:
        // 5 servers x 20 cores, 100 closed-loop YCSB-A clients, 1us RTT
        // RDMA, NVM with 400ns writes.
        sweep.push(model.to_string(), ClusterConfig::micro21(model));
    }
    let records: Vec<RunRecord> = run_sweep("quickstart", sweep, default_threads())
        .into_iter()
        .map(|t| t.record)
        .collect();

    for r in &records {
        let model = r.model;
        let s = &r.summary;
        println!("{model}");
        println!(
            "  visibility point : {}",
            model.consistency.visibility_point()
        );
        println!(
            "  durability point : {}",
            model.persistency.durability_point()
        );
        println!("  throughput       : {:.2} M req/s", s.throughput / 1e6);
        println!("  mean read        : {:.2} us", s.mean_read_ns / 1e3);
        println!("  mean write       : {:.2} us", s.mean_write_ns / 1e3);
        println!("  p95 write        : {:.2} us", s.p95_write_ns / 1e3);
        println!();
    }

    println!("Causal consistency with Synchronous persistency keeps reads and");
    println!("writes stall-free while every read is recoverable - the paper's");
    println!("sweet spot for a broad class of applications (Section 9).");
}
