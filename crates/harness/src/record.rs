//! The per-trial result record the executor produces.

use ddp_core::{DdpModel, RunStats, RunSummary, ShardBreakdown, Simulation};

/// One completed trial: the grid position, the model, the condensed
/// summary, and — for a sharded trial — the per-shard breakdown.
///
/// Records are pure simulation output — no host wall-clock, no thread
/// ids — so a sweep's record stream is byte-identical no matter how many
/// executor threads produced it or in which order trials finished.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Position of the trial in its sweep (stable under parallelism).
    pub index: usize,
    /// The trial's label.
    pub label: String,
    /// The DDP model that ran.
    pub model: DdpModel,
    /// Every run metric: what the figures plot, the fault/transaction
    /// counters, and the run length (over the merged statistics of a
    /// sharded trial).
    pub summary: RunSummary,
    /// The per-shard breakdown; `None` for a single replica group. JSON
    /// only: appended after the [`record_fields`] columns, so CSV rows and
    /// single-group JSON lines do not carry it.
    ///
    /// [`record_fields`]: crate::fields::record_fields
    pub shards: Option<ShardBreakdown>,
}

impl RunRecord {
    /// A default-valued record used where only the field *shape* matters
    /// (e.g. deriving the CSV header from the shared field schema).
    #[must_use]
    pub fn empty_schema_probe() -> Self {
        RunRecord {
            index: 0,
            label: String::new(),
            model: DdpModel::baseline(),
            summary: RunSummary::from_stats(&RunStats::default()),
            shards: None,
        }
    }

    /// Runs one finished simulation into a record. The simulation must
    /// already have run (the executor guarantees this); calling `run` here
    /// again is a no-op that returns the cached report.
    #[must_use]
    pub fn from_simulation(index: usize, label: String, sim: &mut Simulation) -> Self {
        let report = sim.run();
        RunRecord {
            index,
            label,
            model: report.model,
            summary: report.summary,
            shards: report.shards,
        }
    }
}
