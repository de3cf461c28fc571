//! Sharded trials in the harness's one record and stream formats.
//!
//! A trial whose config has `shards > 1` runs through the same executor
//! and yields the same [`RunRecord`](crate::RunRecord) as any other; the
//! record's pooled summary is followed, in JSON only, by the per-shard
//! [`ShardBreakdown`] columns of `breakdown_fields`. Its trace and
//! timeline come as one stream per shard, each row led by a `"shard"`
//! column. Single-group trials carry neither, so their JSON, CSV, trace
//! and timeline bytes are those of an unsharded harness.

use ddp_core::{FieldValue, ShardBreakdown};

use crate::fields::Column;

/// A sharded record's breakdown columns, which follow the
/// [`record_fields`](crate::fields::record_fields) columns in its JSON
/// row.
pub(crate) fn breakdown_fields(b: &ShardBreakdown) -> [Column<'_>; 7] {
    use FieldValue::{F64s, Str, U64s, F64, U64};
    [
        ("shards", U64(b.shard_completed.len() as u64)),
        ("placement", Str(b.placement.name().into())),
        ("imbalance", F64(b.imbalance)),
        ("cross_shard_groups", U64(b.cross_shard_groups)),
        ("shard_completed", U64s(&b.shard_completed)),
        ("shard_throughput", F64s(&b.shard_throughput)),
        ("offered_mass", F64s(&b.offered_mass)),
    ]
}

#[cfg(test)]
mod tests {
    use crate::exec::run_sweep;
    use crate::json::record_to_json;
    use crate::record::RunRecord;
    use crate::sweep::Sweep;
    use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};

    fn tiny_fleet(shards: u16) -> Sweep {
        let mut sweep = Sweep::new();
        let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
        for model in [DdpModel::baseline(), causal] {
            let mut cfg = ClusterConfig::micro21(model).quick();
            cfg.warmup_requests = 20;
            cfg.measured_requests = 200;
            sweep.push(format!("{model} x{shards}"), cfg.with_shards(shards));
        }
        sweep
    }

    fn records(sweep: Sweep, threads: usize) -> Vec<RunRecord> {
        run_sweep("fleet-test", sweep, threads)
            .into_iter()
            .map(|t| t.record)
            .collect()
    }

    #[test]
    fn records_come_back_in_order_and_complete() {
        let records = records(tiny_fleet(3), 2);
        assert_eq!(records.len(), 2);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            let shards = r.shards.as_ref().expect("sharded record");
            assert_eq!(shards.shard_completed.len(), 3);
            assert!(r.summary.throughput > 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_fleet_results() {
        let sequential = records(tiny_fleet(4), 1);
        let parallel = records(tiny_fleet(4), 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn record_json_carries_the_breakdown() {
        let records = records(tiny_fleet(2), 1);
        let line = record_to_json(&records[0]);
        assert!(line.contains("\"max_active_compactions\":"), "{line}");
        assert!(line.contains("\"shards\":2"), "{line}");
        assert!(line.contains("\"placement\":\"hash\""), "{line}");
        assert!(line.contains("\"imbalance\":"), "{line}");
        assert!(line.contains("\"shard_completed\":["), "{line}");
        assert!(line.contains("\"offered_mass\":["), "{line}");
        // The breakdown follows every shared column.
        assert!(
            line.find("\"max_active_compactions\"") < line.find("\"shards\""),
            "{line}"
        );
    }
}
