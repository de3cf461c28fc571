//! Sharded-run integration tests: executor byte-identity at different
//! thread counts (records and the exported per-shard streams), per-shard
//! open-loop conservation under faults, weak-scaling sanity, and config
//! validation.

use std::path::PathBuf;

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, OpenLoopPlan, Persistency, Placement, Simulation,
};
use ddp_harness::{run_sweep, Harness, HarnessArgs, RunRecord, Sweep};
use ddp_sim::Duration;

fn small_cfg(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 50;
    cfg.measured_requests = 600;
    cfg
}

/// `--shards 1` must be the degenerate case: over the whole 25-model grid
/// a one-shard trial (under either placement) run through the executor
/// yields the record of a solo simulation built and run directly, field
/// for field (both sides run the same event sequence, so `PartialEq` over
/// the full record is exact, not approximate).
#[test]
fn one_shard_fleet_matches_solo_grid() {
    let mut sweep = Sweep::new();
    for model in DdpModel::all() {
        for placement in [Placement::Hash, Placement::Range] {
            let cfg = small_cfg(model).with_shards(1).with_placement(placement);
            sweep.push(format!("{model} S=1 {}", placement.name()), cfg);
        }
    }
    let outputs = run_sweep("one-shard-grid", sweep, 2);
    assert_eq!(outputs.len(), 50);
    for (i, out) in outputs.iter().enumerate() {
        let model = out.record.model;
        let mut solo = Simulation::new(small_cfg(model));
        let expected = RunRecord::from_simulation(i, out.record.label.clone(), &mut solo);
        assert_eq!(
            out.record, expected,
            "model {model} diverged between 1-shard trial and solo run"
        );
        assert!(out.record.shards.is_none());
    }
}

/// Sharded sweeps honour the executor determinism contract: records over
/// the 25-model grid are bit-identical at 1 and 4 worker threads.
#[test]
fn sharded_sweeps_are_bit_identical_across_thread_counts() {
    let sweep = || {
        let mut sweep = Sweep::new();
        for model in DdpModel::all() {
            let mut cfg = small_cfg(model);
            cfg.warmup_requests = 20;
            cfg.measured_requests = 300;
            sweep.push(format!("{model} S=3"), cfg.with_shards(3));
        }
        sweep
    };
    let serial = run_sweep("fleet-determinism", sweep(), 1);
    let parallel = run_sweep("fleet-determinism", sweep(), 4);
    assert_eq!(serial.len(), 25);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.record, b.record,
            "trial {} diverged across thread counts",
            a.record.label
        );
    }
}

/// The files a traced 3-shard sweep writes through the harness are
/// byte-identical at 1 and 4 threads, carry one stream per shard (each
/// line led by its shard), and close every `(trial, shard)` stream with
/// exactly one trailer.
#[test]
fn sharded_exports_are_byte_identical_across_thread_counts() {
    let sweep = || {
        let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
        let mut sweep = Sweep::new();
        for model in [DdpModel::baseline(), causal] {
            let mut cfg = small_cfg(model);
            cfg.warmup_requests = 20;
            cfg.measured_requests = 300;
            sweep.push(format!("{model} S=3"), cfg.with_shards(3));
        }
        sweep
    };
    let export = |threads: usize| {
        let dir =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fleet-export-{threads}"));
        std::fs::create_dir_all(&dir).expect("create output dir");
        let args = HarnessArgs {
            threads,
            trace: Some(dir.join("trace.jsonl")),
            timeline: Some(dir.join("timeline.jsonl")),
            ..HarnessArgs::sequential()
        };
        let mut harness = Harness::new("fleet-export", args.clone());
        harness.run(sweep());
        harness.finish();
        [args.trace, args.timeline]
            .map(|p| std::fs::read_to_string(p.expect("path set")).expect("read output"))
    };
    let serial = export(1);
    let parallel = export(4);
    assert_eq!(serial, parallel, "exports diverged across thread counts");

    for (stream, end_kind) in serial.iter().zip(["trace_end", "timeline_end"]) {
        for shard in 0..3 {
            assert!(
                stream.contains(&format!("{{\"shard\":{shard},")),
                "no shard {shard} lines in the {end_kind} stream"
            );
        }
        assert!(stream.lines().all(|l| l.starts_with("{\"shard\":")));
        for trial in 0..2 {
            for shard in 0..3 {
                let head = format!("{{\"shard\":{shard},\"trial\":{trial},\"kind\":\"{end_kind}\"");
                let ends = stream.lines().filter(|l| l.starts_with(&head)).count();
                assert_eq!(
                    ends, 1,
                    "trial {trial} shard {shard}: {ends} {end_kind} lines"
                );
            }
        }
        let total = stream.matches(&format!("\"kind\":\"{end_kind}\"")).count();
        assert_eq!(total, 6, "{end_kind} lines");
    }
}

/// Every shard of an open-loop fleet keeps its own conservation invariant
/// (`arrivals == completed + shed + queued + retry_pending + in_flight`),
/// including under a mid-run node crash, and the fleet totals are the sum
/// of the per-shard books.
#[test]
fn per_shard_conservation_under_open_loop_arrivals_and_faults() {
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Strict);
    let mut cfg = small_cfg(model)
        .with_open_loop(
            OpenLoopPlan::poisson(20_000_000.0)
                .with_queue_capacity(Some(8))
                .with_retries(2),
        )
        .with_loss(0.02)
        .with_crash(1, Duration::from_micros(30), Duration::from_micros(40));
    cfg.clients = 40;
    let shards = 4;
    let mut sim = Simulation::new(cfg.with_shards(shards));
    let report = sim.run();

    let mut arrivals_total = 0;
    let mut completed_total = 0;
    for (s, cluster) in sim.clusters().iter().enumerate() {
        let acct = cluster
            .open_loop_accounting()
            .expect("open-loop fleet shard must expose accounting");
        assert_eq!(
            acct.arrivals,
            acct.completed_sessions + acct.shed + acct.queued + acct.retry_pending + acct.in_flight,
            "conservation violated on shard {s}: {acct:?}"
        );
        assert!(acct.arrivals > 0, "shard {s} generated no arrivals");
        arrivals_total += acct.arrivals;
        completed_total += acct.completed_sessions;
    }
    assert!(completed_total > 0);
    assert!(arrivals_total >= completed_total);
    let breakdown = report.shards.expect("sharded run has a breakdown");
    assert_eq!(breakdown.shard_completed.len(), usize::from(shards));
}

/// Weak-scaling sanity behind the `scaling` bin's acceptance criterion:
/// holding the per-shard problem size constant, aggregate throughput
/// grows monotonically from 1 to 4 shards under uniform YCSB-A.
#[test]
fn weak_scaled_uniform_fleet_grows_aggregate_throughput() {
    let run = |shards: u16| {
        let mut cfg = small_cfg(DdpModel::baseline());
        cfg.workload.zipf_theta = None;
        cfg.clients *= u32::from(shards);
        cfg.warmup_requests *= u64::from(shards);
        cfg.measured_requests *= u64::from(shards);
        Simulation::new(cfg.with_shards(shards))
            .run()
            .summary
            .throughput
    };
    let t1 = run(1);
    let t2 = run(2);
    let t4 = run(4);
    assert!(t2 > t1 * 1.5, "2 shards {t2} vs 1 shard {t1}");
    assert!(t4 > t2 * 1.5, "4 shards {t4} vs 2 shards {t2}");
}

/// Degenerate fleet setups fail validation with a clear message instead
/// of a downstream panic.
#[test]
fn fleet_validation_rejects_degenerate_setups() {
    let base = small_cfg(DdpModel::baseline());

    let err = base.clone().with_shards(0).validate().unwrap_err();
    assert!(err.contains("at least one shard"), "{err}");

    let mut tiny_keys = base.clone();
    tiny_keys.workload.key_space = 4;
    let err = tiny_keys.with_shards(8).validate().unwrap_err();
    assert!(err.contains("key space"), "{err}");

    let mut few_clients = base.clone();
    few_clients.clients = 2;
    let err = few_clients.with_shards(8).validate().unwrap_err();
    assert!(err.contains("clients"), "{err}");

    assert!(base
        .clone()
        .with_shards(4)
        .with_placement(Placement::Range)
        .validate()
        .is_ok());

    let mut no_keys = base;
    no_keys.workload.key_space = 0;
    let err = no_keys.validate().unwrap_err();
    assert!(err.contains("key_space"), "{err}");
}
