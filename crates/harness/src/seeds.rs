//! Multi-seed replication (`--seeds N`): mean ± spread per grid cell.
//!
//! A single seeded run is deterministic but still one sample of the
//! arrival/workload process. Replicating every trial under `N` derived
//! seeds turns each grid cell into a small population, and the aggregate
//! carries the mean, sample standard deviation, and min/max range of the
//! metrics the figures plot — enough to tell a real knee from seed noise.
//!
//! Seed `k` of a trial runs with `cfg.seed ^ (k * GOLDEN)`, so replica 0
//! is byte-identical to the unreplicated sweep and every `--seeds 1` run
//! reproduces existing output exactly.

use ddp_core::{ClusterConfig, DdpModel};

use crate::json::JsonObject;
use crate::record::RunRecord;
use crate::sweep::Sweep;

/// The seed-derivation stride (the 64-bit golden-ratio constant, the same
/// odd multiplier splitmix64 uses): `replica k` xors `k * GOLDEN` into the
/// configured seed, so replicas are decorrelated but replica 0 keeps the
/// configured seed untouched.
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives replica `k`'s configuration: replica 0 is the input unchanged.
#[must_use]
pub fn reseed(mut cfg: ClusterConfig, replica: u32) -> ClusterConfig {
    cfg.seed ^= u64::from(replica).wrapping_mul(SEED_STRIDE);
    cfg
}

/// Replicates a sweep `seeds` times, seed-major: cells `0..n` under
/// replica 0 (labels untouched), then cells `0..n` under replica 1
/// (labels suffixed `#s1`), and so on. The flat layout keeps the executor
/// free to run all `n * seeds` trials in parallel.
#[must_use]
pub fn replicate(sweep: &Sweep, seeds: u32) -> Sweep {
    let mut out = Sweep::new();
    for k in 0..seeds {
        for t in sweep.trials() {
            let label = if k == 0 {
                t.label.clone()
            } else {
                format!("{}#s{k}", t.label)
            };
            out.push(label, reseed(t.cfg.clone(), k));
        }
    }
    out
}

/// Mean, sample standard deviation, and range of one metric across the
/// seed replicas of one grid cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeedStat {
    /// Arithmetic mean across replicas.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replica).
    pub stddev: f64,
    /// Smallest replica value.
    pub min: f64,
    /// Largest replica value.
    pub max: f64,
}

impl SeedStat {
    /// Condenses one metric's per-replica samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a seed cell needs at least one run");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let stddev = if samples.len() > 1 {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SeedStat {
            mean,
            stddev,
            min,
            max,
        }
    }

    /// `max - min`: the spread the tables print next to the mean.
    #[must_use]
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }

    /// `mean ±stddev` formatted for tables, e.g. `"12.3 ±0.4"`.
    #[must_use]
    pub fn pm(&self) -> String {
        format!("{:.1} \u{b1}{:.1}", self.mean, self.stddev)
    }
}

/// One grid cell's metrics condensed across its seed replicas.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedAggregate {
    /// Cell index in the original (unreplicated) sweep.
    pub index: usize,
    /// The cell's original label (replica suffixes stripped).
    pub label: String,
    /// The DDP model the cell ran.
    pub model: DdpModel,
    /// Number of seed replicas aggregated.
    pub seeds: u32,
    /// Goodput (completed requests per simulated second).
    pub throughput: SeedStat,
    /// Mean access latency.
    pub mean_access_ns: SeedStat,
    /// p95 write latency.
    pub p95_write_ns: SeedStat,
    /// p99.9 write latency.
    pub p999_write_ns: SeedStat,
    /// Offered load measured off the arrival stream (0 closed-loop).
    pub offered_per_sec: SeedStat,
    /// Fraction of arrivals shed (0 closed-loop).
    pub shed_rate: SeedStat,
}

/// Condenses the flat record stream of a [`replicate`]d sweep back into
/// one aggregate per original cell. `records` must hold `cells * seeds`
/// entries in the seed-major order [`replicate`] produces.
///
/// # Panics
///
/// Panics if the record count does not factor into `cells * seeds`.
#[must_use]
pub fn aggregate_records(records: &[RunRecord], cells: usize, seeds: u32) -> Vec<SeedAggregate> {
    assert_eq!(
        records.len(),
        cells * seeds as usize,
        "record stream does not match cells × seeds"
    );
    let metric = |cell: usize, f: fn(&RunRecord) -> f64| {
        let samples: Vec<f64> = (0..seeds as usize)
            .map(|k| f(&records[k * cells + cell]))
            .collect();
        SeedStat::from_samples(&samples)
    };
    (0..cells)
        .map(|cell| {
            let first = &records[cell];
            SeedAggregate {
                index: cell,
                label: first.label.clone(),
                model: first.model,
                seeds,
                throughput: metric(cell, |r| r.summary.throughput),
                mean_access_ns: metric(cell, |r| r.summary.mean_access_ns),
                p95_write_ns: metric(cell, |r| r.summary.p95_write_ns),
                p999_write_ns: metric(cell, |r| r.summary.p999_write_ns),
                offered_per_sec: metric(cell, |r| r.summary.offered_per_sec),
                shed_rate: metric(cell, |r| r.summary.shed_rate),
            }
        })
        .collect()
}

/// Serializes one aggregate as a JSON-lines row (`"kind":"seed_aggregate"`)
/// for the `--json` stream, alongside the per-replica run records.
#[must_use]
pub fn aggregate_to_json(a: &SeedAggregate) -> String {
    let mut o = JsonObject::new();
    o.str("kind", "seed_aggregate");
    o.u64("index", a.index as u64);
    o.str("label", &a.label);
    o.str("consistency", &a.model.consistency.to_string());
    o.str("persistency", &a.model.persistency.to_string());
    o.u64("seeds", u64::from(a.seeds));
    let mut stat = |name: &str, s: &SeedStat| {
        o.f64(&format!("{name}_mean"), s.mean);
        o.f64(&format!("{name}_stddev"), s.stddev);
        o.f64(&format!("{name}_min"), s.min);
        o.f64(&format!("{name}_max"), s.max);
    };
    stat("throughput", &a.throughput);
    stat("mean_access_ns", &a.mean_access_ns);
    stat("p95_write_ns", &a.p95_write_ns);
    stat("p999_write_ns", &a.p999_write_ns);
    stat("offered_per_sec", &a.offered_per_sec);
    stat("shed_rate", &a.shed_rate);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::{Consistency, Persistency};

    /// `tiny_sweep` through [`Harness::run_seeded`](crate::Harness::run_seeded).
    fn run_seeded(threads: usize, seeds: u32) -> (Vec<RunRecord>, Vec<SeedAggregate>) {
        let args = crate::HarnessArgs {
            threads,
            seeds,
            ..crate::HarnessArgs::sequential()
        };
        crate::Harness::new("seeds-test", args).run_seeded(tiny_sweep())
    }

    fn tiny_sweep() -> Sweep {
        let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        cfg.warmup_requests = 20;
        cfg.measured_requests = 150;
        let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
        let mut causal_cfg = ClusterConfig::micro21(causal).quick();
        causal_cfg.warmup_requests = 20;
        causal_cfg.measured_requests = 150;
        Sweep::new().trial("base", cfg).trial("causal", causal_cfg)
    }

    #[test]
    fn replica_zero_is_the_configured_seed() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline()).with_seed(42);
        assert_eq!(reseed(cfg.clone(), 0).seed, 42);
        let derived: Vec<u64> = (1..5).map(|k| reseed(cfg.clone(), k).seed).collect();
        for (i, s) in derived.iter().enumerate() {
            assert_ne!(*s, 42, "replica {} kept the base seed", i + 1);
        }
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), derived.len(), "replica seeds collide");
    }

    #[test]
    fn replicate_is_seed_major_with_suffixed_labels() {
        let replicated = replicate(&tiny_sweep(), 3);
        assert_eq!(replicated.len(), 6);
        let labels: Vec<&str> = replicated
            .trials()
            .iter()
            .map(|t| t.label.as_str())
            .collect();
        assert_eq!(
            labels,
            [
                "base",
                "causal",
                "base#s1",
                "causal#s1",
                "base#s2",
                "causal#s2"
            ]
        );
    }

    #[test]
    fn seed_stat_condenses_samples() {
        let s = SeedStat::from_samples(&[1.0, 3.0, 2.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert!((s.spread() - 2.0).abs() < 1e-12);

        let single = SeedStat::from_samples(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.mean, 5.0);
    }

    #[test]
    fn seeded_run_aggregates_per_cell() {
        let (records, aggregates) = run_seeded(4, 3);
        assert_eq!(records.len(), 6);
        assert_eq!(aggregates.len(), 2);
        for a in &aggregates {
            assert_eq!(a.seeds, 3);
            assert!(a.throughput.mean > 0.0);
            assert!(a.throughput.min <= a.throughput.mean);
            assert!(a.throughput.mean <= a.throughput.max);
        }
        assert_eq!(aggregates[0].label, "base");
        assert_eq!(aggregates[1].label, "causal");
        // Different seeds genuinely vary the workload: across both cells
        // and three replicas, at least one cell must show spread.
        assert!(
            aggregates.iter().any(|a| a.throughput.spread() > 0.0),
            "three replicas produced identical throughput everywhere"
        );
    }

    #[test]
    fn one_seed_matches_the_unreplicated_sweep() {
        let plain: Vec<RunRecord> = crate::exec::run_sweep("seeds-plain", tiny_sweep(), 1)
            .into_iter()
            .map(|t| t.record)
            .collect();
        let (records, aggregates) = run_seeded(1, 1);
        assert_eq!(plain, records);
        for (a, r) in aggregates.iter().zip(&plain) {
            assert_eq!(a.throughput.mean, r.summary.throughput);
            assert_eq!(a.throughput.stddev, 0.0);
        }
    }

    #[test]
    fn aggregate_json_row_is_tagged() {
        let (_, aggregates) = run_seeded(2, 2);
        let line = aggregate_to_json(&aggregates[0]);
        assert!(line.contains("\"kind\":\"seed_aggregate\""), "{line}");
        assert!(line.contains("\"seeds\":2"), "{line}");
        assert!(line.contains("\"throughput_mean\":"), "{line}");
        assert!(line.contains("\"shed_rate_max\":"), "{line}");
    }
}
