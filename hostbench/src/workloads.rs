//! The benchmark's three workloads: which cells each one runs, on how many
//! pool workers, and what each must exercise to count as a valid run.

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency, StoreKind, TraceConfig};
use ddp_harness::Sweep;
use ddp_sim::Duration;
use ddp_workload::WorkloadSpec;

/// The repository's default workload seed (`ClusterConfig::micro21`).
pub const DEFAULT_SEED: u64 = 0xDD9;

/// Timeline window width of `lsm_w_traced` (the harness default).
const TIMELINE_WINDOW: Duration = Duration::from_micros(50);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 25 models at the quick size on two pool workers.
    Grid25Quick,
    /// Four non-transactional models, YCSB-B, a million measured requests.
    LongRead,
    /// The Causal row on workload-W over the LSM store, traced and exported.
    LsmWTraced,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Grid25Quick,
        Workload::LongRead,
        Workload::LsmWTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid25Quick => "grid25_quick",
            Workload::LongRead => "long_read",
            Workload::LsmWTraced => "lsm_w_traced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Workers of the harness pool the cells run on.
    pub fn workers(self) -> usize {
        match self {
            Workload::Grid25Quick => 2,
            Workload::LongRead | Workload::LsmWTraced => 1,
        }
    }

    /// The workload's cells, every one seeded with `seed`.
    pub fn sweep(self, seed: u64) -> Sweep {
        match self {
            Workload::Grid25Quick => {
                Sweep::grid25(|m| ClusterConfig::micro21(m).quick().with_seed(seed))
            }
            Workload::LongRead => {
                let models = [
                    (Consistency::Linearizable, Persistency::Synchronous),
                    (Consistency::ReadEnforced, Persistency::ReadEnforced),
                    (Consistency::Causal, Persistency::Strict),
                    (Consistency::Eventual, Persistency::Scope),
                ];
                let mut sweep = Sweep::new();
                for (c, p) in models {
                    let model = DdpModel::new(c, p);
                    let mut cfg = ClusterConfig::micro21(model)
                        .with_workload(WorkloadSpec::ycsb_b())
                        .with_seed(seed);
                    cfg.warmup_requests = 2_000;
                    cfg.measured_requests = 1_000_000;
                    sweep.push(model.to_string(), cfg);
                }
                sweep
            }
            Workload::LsmWTraced => {
                let mut sweep = Sweep::new();
                for p in Persistency::ALL {
                    let model = DdpModel::new(Consistency::Causal, p);
                    let cfg = ClusterConfig::micro21(model)
                        .with_workload(WorkloadSpec::workload_w())
                        .with_store(StoreKind::Lsm)
                        .with_trace(TraceConfig::enabled().with_timeline(TIMELINE_WINDOW))
                        .with_seed(seed);
                    sweep.push(model.to_string(), cfg);
                }
                sweep
            }
        }
    }
}

/// Short name of a consistency row, as used in per-row metric names.
pub fn row_name(c: Consistency) -> &'static str {
    match c {
        Consistency::Linearizable => "lin",
        Consistency::ReadEnforced => "re",
        Consistency::Transactional => "txn",
        Consistency::Causal => "causal",
        Consistency::Eventual => "eventual",
    }
}
