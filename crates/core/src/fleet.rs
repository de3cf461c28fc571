//! Shards: many independent replica groups in one simulation.
//!
//! The paper evaluates one replica group — every node holds every key.
//! Real deployments shard: the key space splits over `S` independent
//! groups, each running the full DDP protocol for its slice of the keys.
//! A [`ClusterConfig`] with `shards > 1` describes such a fleet, and
//! [`Simulation`] runs it on its one event loop while preserving the
//! repo's central invariant — byte-identical results for a given config at
//! any host thread count:
//!
//! * `ClusterConfig::into_shards` derives each shard's one-group config
//!   from the fleet-wide template: per-shard seeds, popularity-proportional
//!   client/request/rate splits, and per-shard workload slices. At one
//!   shard it returns the template untouched, with mass `[1.0]`.
//! * [`Simulation`] builds one [`Cluster`] per shard and tags every queue
//!   entry with its shard's lane (see [`ddp_sim::Context::lane`]), so each
//!   dispatch goes straight to its home cluster and equal-time events keep
//!   their FIFO order across shards.
//! * A sharded run's summary pools the shards' statistics (histograms
//!   merged, counters summed, measured windows unioned), and its
//!   [`ShardBreakdown`] carries what pooling hides: per-shard completions
//!   and throughput, the offered popularity mass, a shard-imbalance index,
//!   and the count of transaction groups that would have crossed shards.
//!
//! Cross-shard transactions are out of scope for the protocol layer (each
//! shard's group runs its own coordination); the workload layer re-homes
//! would-be cross-shard groups onto their anchor's shard and counts them
//! (see [`ShardSlice`]), so the breakdown quantifies what single-shard
//! routing rejected.
//!
//! [`Simulation`]: crate::protocol::Simulation

use crate::config::ClusterConfig;
use crate::model::{Consistency, Persistency};
use crate::protocol::Cluster;
use crate::stats::{RunStats, RunSummary};
use ddp_workload::{Placement, ShardRouter, ShardSlice};

/// Seed stride for deriving per-shard seeds from the fleet seed: shard `s`
/// runs with `seed ^ (s * SHARD_SEED_STRIDE)`. Shard 0 keeps the fleet
/// seed unchanged. Deliberately a different odd constant from the
/// harness's seed-replica stride (`0x9E37_79B9_7F4A_7C15`): XOR-derived
/// strides compose, and equal strides would alias `(replica r, shard s)`
/// with `(replica s, shard r)`.
pub const SHARD_SEED_STRIDE: u64 = 0xD6E8_FEB8_6659_FD93;

/// Per-shard seed for shard `s` of a fleet seeded with `fleet_seed`.
#[must_use]
pub fn shard_seed(fleet_seed: u64, shard: u16) -> u64 {
    fleet_seed ^ u64::from(shard).wrapping_mul(SHARD_SEED_STRIDE)
}

impl ClusterConfig {
    /// The key→shard placement function this config uses.
    fn router(&self) -> ShardRouter {
        ShardRouter::new(self.placement, self.shards, self.workload.key_space)
    }

    /// The fraction of key draws homed on each shard (sums to 1); see
    /// [`ShardRouter::popularity_mass`]. A single shard owns everything,
    /// so one shard takes `[1.0]` without sampling.
    fn popularity_mass(&self) -> Vec<f64> {
        if self.shards == 1 {
            return vec![1.0];
        }
        self.router().popularity_mass(&self.workload.chooser())
    }

    /// Requests per transaction group for cross-shard accounting:
    /// transactions group `txn_size` requests, Scope persistency groups
    /// `scope_size`, everything else is ungrouped.
    fn group_size(&self) -> u32 {
        if self.model.consistency == Consistency::Transactional {
            self.txn_size
        } else if self.model.persistency == Persistency::Scope {
            self.scope_size
        } else {
            1
        }
    }

    /// Splits a validated config into one single-group config per shard,
    /// returned with the popularity mass each shard was provisioned for.
    ///
    /// One shard returns the template untouched (no workload slice, same
    /// seed) with mass `[1.0]`. For `S > 1`, shard `s` gets:
    ///
    /// * seed `shard_seed(seed, s)` — independent RNG streams;
    /// * a popularity-proportional share of the clients, warm-up and
    ///   measured requests (largest-remainder apportionment; every shard
    ///   keeps at least one client, or `nodes` session slots on open
    ///   loops), and of the open-loop offered rate;
    /// * a [`ShardSlice`] restricting its workload to keys homed on `s`
    ///   and counting rejected cross-shard groups;
    /// * `shards = 1`: each derived config describes one group.
    pub(crate) fn into_shards(self) -> (Vec<ClusterConfig>, Vec<f64>) {
        if self.shards == 1 {
            return (vec![self], vec![1.0]);
        }
        let mass = self.popularity_mass();
        let router = self.router();
        let group = self.group_size();
        let min_clients = if self.open_loop.is_some() {
            u64::from(self.nodes)
        } else {
            1
        };
        let clients = apportion(u64::from(self.clients), &mass, min_clients);
        let warmup = apportion(self.warmup_requests, &mass, 0);
        let measured = apportion(self.measured_requests, &mass, 1);
        let configs = (0..self.shards)
            .map(|s| {
                let i = usize::from(s);
                let mut cfg = self.clone();
                cfg.shards = 1;
                cfg.seed = shard_seed(self.seed, s);
                cfg.clients = u32::try_from(clients[i]).expect("client split fits");
                cfg.warmup_requests = warmup[i];
                cfg.measured_requests = measured[i];
                cfg.workload = cfg
                    .workload
                    .with_shard(ShardSlice::new(router, s).with_group(group));
                if let Some(plan) = cfg.open_loop.as_mut() {
                    plan.offered_per_sec *= mass[i];
                }
                cfg
            })
            .collect();
        (configs, mass)
    }
}

/// Splits `total` into `mass.len()` integer shares proportional to `mass`,
/// each at least `min`, summing exactly to `total` (largest-remainder
/// apportionment; ties break toward lower indices, so the split is a pure
/// function of its inputs).
///
/// Callers must guarantee `total >= min * mass.len()`; shard validation
/// enforces that for every split performed here.
fn apportion(total: u64, mass: &[f64], min: u64) -> Vec<u64> {
    let n = mass.len();
    debug_assert!(total >= min * n as u64, "apportion under-provisioned");
    let mut out = vec![min; n];
    let rest = total - min * n as u64;
    if rest == 0 {
        return out;
    }
    let quotas: Vec<f64> = mass.iter().map(|m| rest as f64 * m).collect();
    let mut assigned = 0u64;
    for (o, q) in out.iter_mut().zip(&quotas) {
        // Guard the floor against mass vectors that sum slightly above 1.
        let floor = (*q as u64).min(rest - assigned);
        *o += floor;
        assigned += floor;
    }
    // Hand out the remainder by descending fractional part (index-ordered
    // on ties). One pass suffices: the remainder is < n.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = quotas[a].fract();
        let fb = quotas[b].fract();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut left = rest - assigned;
    let mut k = 0;
    while left > 0 {
        out[order[k % n]] += 1;
        left -= 1;
        k += 1;
    }
    out
}

/// What pooling a sharded run's statistics hides: the per-shard split.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardBreakdown {
    /// The key→shard placement used.
    pub placement: Placement,
    /// Completed requests per shard (the imbalance raw material).
    pub shard_completed: Vec<u64>,
    /// Per-shard throughput, requests per simulated second.
    pub shard_throughput: Vec<f64>,
    /// The popularity mass each shard was provisioned for.
    pub offered_mass: Vec<f64>,
    /// Shard-imbalance index: max over shards of completed requests,
    /// divided by the mean (1.0 = perfectly balanced; 0.0 if nothing
    /// completed anywhere).
    pub imbalance: f64,
    /// Transaction/scope groups whose natural keys spanned shards and
    /// were re-homed (rejected as cross-shard) by the routing layer.
    pub cross_shard_groups: u64,
}

/// Fleet-wide merged statistics: counters summed, histograms pooled, the
/// measured window unioned (see [`RunStats::absorb`]). The four level
/// gauges (`causal_buffered`, `admission_queue`, `nvm_bank_queue`,
/// `compactions_active`) are left default — occupancy does not pool; the
/// pooled summary sums the per-shard values instead.
pub(crate) fn merged_stats(clusters: &[Cluster]) -> RunStats {
    let mut merged = RunStats {
        // Seed the accumulator's (empty) window at shard 0's start so the
        // union below is exactly the union of real windows.
        window_start: clusters[0].stats.window_start,
        ..RunStats::default()
    };
    for c in clusters {
        merged.absorb(&c.stats);
    }
    merged
}

/// The pooled summary and per-shard breakdown of a sharded run.
///
/// The summary is taken over [`merged_stats`]; its eight gauge-derived
/// occupancy fields (`mean/max_buffered_writes`, `mean/max_admission_queue`,
/// `mean/max_nvm_bank_queue`, `mean/max_active_compactions`) are sums of
/// the per-shard values, since time-weighted gauges do not pool.
pub(crate) fn shard_report(clusters: &[Cluster], mass: &[f64]) -> (RunSummary, ShardBreakdown) {
    let per_shard: Vec<RunSummary> = clusters
        .iter()
        .map(|c| RunSummary::from_stats(&c.stats))
        .collect();
    let mut summary = RunSummary::from_stats(&merged_stats(clusters));
    summary.mean_buffered_writes = per_shard.iter().map(|s| s.mean_buffered_writes).sum();
    summary.max_buffered_writes = per_shard.iter().map(|s| s.max_buffered_writes).sum();
    summary.mean_admission_queue = per_shard.iter().map(|s| s.mean_admission_queue).sum();
    summary.max_admission_queue = per_shard.iter().map(|s| s.max_admission_queue).sum();
    summary.mean_nvm_bank_queue = per_shard.iter().map(|s| s.mean_nvm_bank_queue).sum();
    summary.max_nvm_bank_queue = per_shard.iter().map(|s| s.max_nvm_bank_queue).sum();
    summary.mean_active_compactions = per_shard.iter().map(|s| s.mean_active_compactions).sum();
    summary.max_active_compactions = per_shard.iter().map(|s| s.max_active_compactions).sum();

    let shard_completed: Vec<u64> = clusters.iter().map(|c| c.stats.completed()).collect();
    let total: u64 = shard_completed.iter().sum();
    let imbalance = if total == 0 {
        0.0
    } else {
        let mean = total as f64 / shard_completed.len() as f64;
        *shard_completed.iter().max().expect("at least one shard") as f64 / mean
    };
    let breakdown = ShardBreakdown {
        placement: clusters[0].cfg.placement,
        shard_throughput: per_shard.iter().map(|s| s.throughput).collect(),
        shard_completed,
        offered_mass: mass.to_vec(),
        imbalance,
        cross_shard_groups: clusters.iter().map(|c| c.clients.total_cross_shard()).sum(),
    };
    (summary, breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DdpModel;
    use crate::protocol::{RunReport, Simulation};

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig::micro21(DdpModel::baseline()).quick()
    }

    fn run(cfg: ClusterConfig) -> (RunReport, ShardBreakdown) {
        let report = Simulation::new(cfg).run();
        let breakdown = report.shards.clone().expect("sharded run has a breakdown");
        (report, breakdown)
    }

    #[test]
    fn one_shard_fleet_matches_solo_simulation() {
        // An explicit one-shard config, whatever its placement, is the solo
        // run: same summary field for field, and no per-shard breakdown.
        let cfg = quick_cfg();
        let solo = Simulation::new(cfg.clone()).run();
        for placement in [Placement::Hash, Placement::Range] {
            let fleet = Simulation::new(cfg.clone().with_shards(1).with_placement(placement)).run();
            assert_eq!(fleet.summary, solo.summary, "placement {placement:?}");
            assert!(fleet.shards.is_none());
        }
    }

    #[test]
    fn shards_partition_the_fleet_totals() {
        let mut cfg = quick_cfg();
        cfg.clients = 103; // deliberately not divisible
        cfg.warmup_requests = 501;
        cfg.measured_requests = 2_003;
        let fleet = cfg.with_shards(4);
        let (configs, mass) = fleet.clone().into_shards();
        assert_eq!(configs.len(), 4);
        assert_eq!(mass.len(), 4);
        assert_eq!(
            configs.iter().map(|c| u64::from(c.clients)).sum::<u64>(),
            103
        );
        assert_eq!(configs.iter().map(|c| c.warmup_requests).sum::<u64>(), 501);
        assert_eq!(
            configs.iter().map(|c| c.measured_requests).sum::<u64>(),
            2_003
        );
        assert!(configs.iter().all(|c| c.clients >= 1));
        assert!(configs.iter().all(|c| c.measured_requests >= 1));
        assert!(configs.iter().all(|c| c.shards == 1));
        // Distinct seeds, shard 0 unchanged.
        assert_eq!(configs[0].seed, fleet.seed);
        for (i, c) in configs.iter().enumerate() {
            for (j, d) in configs.iter().enumerate() {
                if i != j {
                    assert_ne!(c.seed, d.seed);
                }
            }
            let slice = c.workload.shard.expect("sharded workload");
            assert_eq!(slice.shard, i as u16);
        }
    }

    #[test]
    fn multi_shard_fleet_completes_and_balances_roughly() {
        let mut cfg = quick_cfg();
        cfg.workload.zipf_theta = None; // uniform: near-perfect balance
        let (report, shards) = run(cfg.clone().with_shards(4));
        assert_eq!(shards.shard_completed.len(), 4);
        assert_eq!(shards.shard_throughput.len(), 4);
        let total: u64 = shards.shard_completed.iter().sum();
        assert!(
            total >= cfg.measured_requests,
            "fleet must finish its quota"
        );
        assert!(report.summary.throughput > 0.0);
        assert!(shards.imbalance >= 1.0);
        assert!(
            shards.imbalance < 1.5,
            "uniform placement should balance, got {}",
            shards.imbalance
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick_cfg().with_shards(3);
        let (a, a_shards) = run(cfg.clone());
        let (b, b_shards) = run(cfg);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a_shards.shard_completed, b_shards.shard_completed);
        assert_eq!(a_shards.cross_shard_groups, b_shards.cross_shard_groups);
    }

    #[test]
    fn transactional_fleets_count_cross_shard_groups() {
        let mut cfg = quick_cfg();
        cfg.model = DdpModel::new(Consistency::Transactional, Persistency::Eventual);
        let (_, shards) = run(cfg.with_shards(4));
        // Txn groups of 5 keys over 4 hash shards: most natural groups
        // span shards, so the rejection counter must move.
        assert!(
            shards.cross_shard_groups > 0,
            "expected rejected cross-shard groups"
        );
    }

    #[test]
    fn validation_rejects_degenerate_fleets() {
        let cfg = quick_cfg();
        assert!(cfg.clone().with_shards(0).validate().is_err());
        let mut tiny = cfg.clone();
        tiny.workload.key_space = 3;
        assert!(tiny.with_shards(8).validate().is_err());
        let mut few = cfg.clone();
        few.clients = 2;
        assert!(few.with_shards(4).validate().is_err());
        assert!(cfg.with_shards(4).validate().is_ok());
    }

    #[test]
    fn one_shard_takes_all_the_mass_and_no_breakdown() {
        let cfg = quick_cfg();
        assert_eq!(cfg.popularity_mass(), vec![1.0]);
        let (configs, mass) = cfg.clone().into_shards();
        assert_eq!(mass, vec![1.0]);
        assert_eq!(configs[0].seed, cfg.seed);
        assert!(configs[0].workload.shard.is_none());
        assert!(Simulation::new(cfg).run().shards.is_none());
    }

    #[test]
    fn apportion_is_exact_and_respects_minimums() {
        let mass = vec![0.5, 0.3, 0.2];
        let split = apportion(10, &mass, 1);
        assert_eq!(split.iter().sum::<u64>(), 10);
        assert!(split.iter().all(|&x| x >= 1));
        assert_eq!(apportion(3, &[0.9, 0.05, 0.05], 1), vec![1, 1, 1]);
        assert_eq!(apportion(0, &[1.0], 0), vec![0]);
    }
}
