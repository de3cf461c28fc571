//! Explore any of the 25 DDP models from the command line.
//!
//! ```text
//! cargo run -p ddp-examples --release --bin model_explorer -- causal sync
//! cargo run -p ddp-examples --release --bin model_explorer -- lin re --clients 150
//! ```
//!
//! Prints the model's Table 2 semantics, its derived Table 4 traits, and a
//! measured performance summary.

use ddp_core::{ClusterConfig, Consistency, DdpModel, ModelTraits, Persistency};
use ddp_harness::{run_sweep, Sweep};

fn parse_consistency(s: &str) -> Option<Consistency> {
    Some(match s.to_ascii_lowercase().as_str() {
        "lin" | "linearizable" => Consistency::Linearizable,
        "re" | "read-enforced" | "readenforced" => Consistency::ReadEnforced,
        "txn" | "transactional" | "xactional" => Consistency::Transactional,
        "causal" => Consistency::Causal,
        "ev" | "eventual" => Consistency::Eventual,
        _ => return None,
    })
}

fn parse_persistency(s: &str) -> Option<Persistency> {
    Some(match s.to_ascii_lowercase().as_str() {
        "strict" => Persistency::Strict,
        "sync" | "synchronous" => Persistency::Synchronous,
        "re" | "read-enforced" | "readenforced" => Persistency::ReadEnforced,
        "scope" => Persistency::Scope,
        "ev" | "eventual" => Persistency::Eventual,
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: model_explorer <consistency> <persistency> [--clients N]\n\
                 consistency: lin | re | txn | causal | ev\n\
                 persistency: strict | sync | re | scope | ev";
    let (Some(c), Some(p)) = (
        args.first().and_then(|s| parse_consistency(s)),
        args.get(1).and_then(|s| parse_persistency(s)),
    ) else {
        eprintln!("{usage}");
        // Default demo when run without arguments.
        explore(
            DdpModel::new(Consistency::Causal, Persistency::Synchronous),
            100,
        );
        return;
    };
    let clients = args
        .iter()
        .position(|a| a == "--clients")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    explore(DdpModel::new(c, p), clients);
}

fn explore(model: DdpModel, clients: u32) {
    println!("\n=== {model} ===\n");
    println!("Table 2 semantics:");
    println!("  VP: {}", model.consistency.visibility_point());
    println!("  DP: {}", model.persistency.durability_point());

    let t = ModelTraits::derive(model);
    println!("\nDerived Table 4 traits:");
    println!("  durability       : {}", t.durability);
    println!("  writes optimized : {}", t.writes_optimized);
    println!("  reads optimized  : {}", t.reads_optimized);
    println!("  monotonic reads  : {}", t.monotonic_reads);
    println!("  non-stale reads  : {}", t.non_stale_reads);
    println!("  intuitiveness    : {}", t.intuitiveness);
    println!("  programmability  : {}", t.programmability);
    println!("  implementability : {}", t.implementability);

    println!("\nMeasured ({clients} clients, YCSB-A):");
    let trials = run_sweep(
        "model_explorer",
        Sweep::new().trial(
            model.to_string(),
            ClusterConfig::micro21(model).with_clients(clients),
        ),
        1,
    );
    let s = &trials[0].record.summary;
    println!("  throughput : {:.2} M req/s", s.throughput / 1e6);
    println!(
        "  mean read  : {:.2} us   (p95 {:.2} us)",
        s.mean_read_ns / 1e3,
        s.p95_read_ns / 1e3
    );
    println!(
        "  mean write : {:.2} us   (p95 {:.2} us)",
        s.mean_write_ns / 1e3,
        s.p95_write_ns / 1e3
    );
    println!("  traffic    : {:.0} B/request", s.traffic_bytes_per_req);
}
