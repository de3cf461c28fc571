//! Golden bytes: FNV-1a digests of everything `Harness::run` writes
//! (`--json`, `--csv`, `--trace`, `--timeline`) for a small solo grid and
//! a small 3-shard sweep, both with tracing, gauge sampling and the
//! timeline on. Any change to what a run simulates or how it is
//! serialized moves a digest here first.

use std::path::PathBuf;

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};
use ddp_harness::{Harness, HarnessArgs, Sweep};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs `sweep` through a harness writing all four streams under `dir`
/// and returns the digests of the `[json, csv, trace, timeline]` files.
fn harness_digests(dir: &str, sweep: Sweep) -> [u64; 4] {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&base).expect("create output dir");
    let args = HarnessArgs {
        threads: 2,
        json: Some(base.join("out.jsonl")),
        csv: Some(base.join("out.csv")),
        trace: Some(base.join("trace.jsonl")),
        trace_sample: Some(5_000),
        timeline: Some(base.join("timeline.jsonl")),
        window_ns: Some(20_000),
        ..HarnessArgs::sequential()
    };
    let mut harness = Harness::new("golden", args.clone());
    harness.run(sweep);
    harness.finish();
    [args.json, args.csv, args.trace, args.timeline]
        .map(|path| fnv1a(&std::fs::read(path.expect("path set")).expect("read output")))
}

fn small(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).quick();
    cfg.warmup_requests = 20;
    cfg.measured_requests = 300;
    cfg
}

#[test]
fn harness_output_bytes_are_pinned() {
    // Computed on the commit before `Simulation` absorbed the sharded
    // fleet path: the solo grid's four streams are unchanged by it.
    let solo = harness_digests("golden-solo", Sweep::grid25(small));
    assert_eq!(
        solo,
        [
            0x5672_c438_aac9_a02b,
            0x5ca4_b533_7ba6_705f,
            0xf60e_163d_4e7b_6533,
            0xb08e_bb1e_5a80_dcd4,
        ],
        "solo {solo:#x?}"
    );

    let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
    let mut sweep = Sweep::new();
    for model in [DdpModel::baseline(), causal] {
        sweep.push(format!("{model} S=3"), small(model).with_shards(3));
    }
    let [json, csv, trace, timeline] = harness_digests("golden-sharded", sweep);
    // Trace and timeline: computed on the same earlier commit, whose
    // fleet executor wrote these streams through its own serializers.
    assert_eq!(
        [trace, timeline],
        [0xae86_5307_e42d_6abb, 0x7da9_3334_8d41_b901],
        "sharded trace/timeline {trace:#x} {timeline:#x}"
    );
    // JSON and CSV: sharded trials emit the shared record schema (the
    // JSON followed by the per-shard breakdown) since that change.
    assert_eq!(
        [json, csv],
        [0x514d_ded5_babb_dbea, 0x60d3_b273_95e4_4ec6],
        "sharded json/csv {json:#x} {csv:#x}"
    );
}
