//! Golden bytes of the `--json` rows that are not run records: the
//! `seed_aggregate` rows `Harness::run_seeded` appends under `--seeds`,
//! and the derived rows of the `table4` binary. Like
//! `tests/tests/golden.rs`, any change to how these rows are serialized
//! moves a digest here first.

use std::path::PathBuf;
use std::process::Command;

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};
use ddp_harness::{Harness, HarnessArgs, Sweep};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn out_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-rows");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir.join(name)
}

fn small(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).quick();
    cfg.warmup_requests = 20;
    cfg.measured_requests = 300;
    cfg
}

#[test]
fn derived_json_rows_are_pinned() {
    // Two cells under two seeds: four run records, then one
    // `seed_aggregate` row per cell.
    let json = out_path("seeded.jsonl");
    let args = HarnessArgs {
        threads: 2,
        seeds: 2,
        json: Some(json.clone()),
        ..HarnessArgs::sequential()
    };
    let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
    let sweep = Sweep::new()
        .trial("base", small(DdpModel::baseline()))
        .trial("causal", small(causal));
    let mut harness = Harness::new("golden-rows", args);
    let (_, aggregates) = harness.run_seeded(sweep);
    harness.finish();
    assert_eq!(aggregates.len(), 2);
    let seeded = std::fs::read(&json).expect("read seeded output");
    let lines = seeded.split(|&b| b == b'\n').filter(|l| !l.is_empty());
    assert_eq!(lines.count(), 6);

    let table4 = out_path("table4.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_table4"))
        .arg("--json")
        .arg(&table4)
        .output()
        .expect("run table4")
        .status;
    assert!(status.success(), "table4 exited with {status}");
    let table4 = std::fs::read(&table4).expect("read table4 output");

    // Computed before the row writer replaced the per-row builders.
    let digests = [fnv1a(&seeded), fnv1a(&table4)];
    assert_eq!(
        digests,
        [0x6987_e427_3d01_614b, 0x1241_d96c_501c_0faf],
        "seeded/table4 {digests:#x?}"
    );
}
