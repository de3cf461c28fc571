//! Fault sweep — robustness of the 25 DDP models under a lossy fabric
//! and a mid-run node crash.
//!
//! Part 1 sweeps the fabric loss rate (each lost message is matched by an
//! equal duplication rate) and prints throughput retention relative to the
//! fault-free run of the same model, plus the raw fault counters.
//!
//! Part 2 crashes one node mid-measurement and lets it rejoin, printing
//! the crash/rejoin timestamps and how many keys the rejoining node had to
//! catch up from its peers. The crash schedule is scaled to each model's
//! fault-free run length, which part 1 already measured — the harness
//! records carry it, so no extra probe runs are needed.

use ddp_core::{ClusterConfig, DdpModel};
use ddp_harness::{print_rule, ratio, Harness, Sweep};
use ddp_sim::Duration;

const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

fn sweep_config(model: DdpModel) -> ClusterConfig {
    // Shorter than the figure harnesses: the sweep runs 125 experiments.
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 500;
    cfg.measured_requests = 5_000;
    cfg
}

fn main() {
    let mut harness = Harness::from_env("faults");
    println!("Fault sweep: 25 DDP models under fabric loss and a mid-run crash\n");

    // Part 1 grid: model-major, loss-minor — trial index = model_grid_index
    // * LOSS_RATES.len() + loss_index, with loss 0.0 as the per-model
    // fault-free baseline.
    let mut loss_sweep = Sweep::new();
    for model in DdpModel::all() {
        for loss in LOSS_RATES {
            let cfg = if loss > 0.0 {
                sweep_config(model).with_loss(loss)
            } else {
                sweep_config(model)
            };
            loss_sweep.push(format!("{model} p={loss}"), cfg);
        }
    }
    let loss_records = harness.run(loss_sweep);
    let stride = LOSS_RATES.len();

    println!("Part 1 - lossy fabric (drop = dup = p, throughput relative to p=0)");
    print!("{:<28}", "model");
    for p in &LOSS_RATES[1..] {
        print!(" {:>8}", format!("p={p}"));
    }
    println!(" {:>8} {:>8} {:>8} {:>8}", "drops", "dups", "rtx", "t/o");
    print_rule(7);
    for model in DdpModel::all() {
        let row = &loss_records[model.grid_index() * stride..(model.grid_index() + 1) * stride];
        let base = &row[0];
        print!("{:<28}", model.to_string());
        for lossy in &row[1..] {
            print!(
                " {:>8.2}",
                ratio(lossy.summary.throughput, base.summary.throughput)
            );
        }
        let worst = &row[stride - 1].summary;
        println!(
            " {:>8} {:>8} {:>8} {:>8}",
            worst.messages_dropped,
            worst.messages_duplicated,
            worst.retransmits,
            worst.client_timeouts
        );
    }

    // Part 2 grid: one crash trial per model. Model throughputs span >10x,
    // so a fixed crash time would fall after fast models finish and inside
    // slow models' warmup; scale it to the model's fault-free run length
    // from the part-1 baseline record instead.
    let mut crash_sweep = Sweep::new();
    for model in DdpModel::all() {
        let run_ns = loss_records[model.grid_index() * stride].summary.run_ns() as f64;
        let at = Duration::from_nanos((run_ns * 0.40) as u64);
        let down_for = Duration::from_nanos((run_ns * 0.25) as u64);
        crash_sweep.push(
            format!("{model} crash"),
            sweep_config(model)
                .with_loss(0.01)
                .with_crash(2, at, down_for),
        );
    }
    let crash_records = harness.run(crash_sweep);

    println!("\nPart 2 - mid-run crash of node 2 under 1% loss");
    println!("(crash at 40% of the model's fault-free run, down for 25% of it)");
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "thr", "rtx", "t/o", "lease", "catchup", "down(us)"
    );
    print_rule(6);
    for model in DdpModel::all() {
        let record = &crash_records[model.grid_index()];
        let c = &record.summary;
        // One scheduled crash -> exactly one (node, time) pair each.
        let downtime_ns: u64 = c
            .crashes
            .iter()
            .zip(&c.rejoins)
            .map(|(&(n, down), &(m, up))| {
                assert_eq!(n, m, "crash/rejoin traces must pair up");
                up.saturating_sub(down)
            })
            .sum();
        println!(
            "{:<28} {:>8.2e} {:>8} {:>8} {:>8} {:>8} {:>8.1}",
            model.to_string(),
            record.summary.throughput,
            c.retransmits,
            c.client_timeouts,
            c.transient_expirations,
            c.catchup_keys,
            downtime_ns as f64 / 1_000.0,
        );
    }
    println!(
        "\ntakeaway: ACK-round models (Lin/RdEnf/Txn) absorb loss via retransmission;\n\
         UPD-based models (Causal/Eventual) shed it as staleness instead, so their\n\
         throughput barely moves. A crashed node costs its share of capacity while\n\
         down and a bounded catch-up on rejoin."
    );
    harness.finish();
}
