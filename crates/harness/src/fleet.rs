//! Sharded trials in the harness's one record and stream formats.
//!
//! A trial whose config has `shards > 1` runs through the same executor
//! and yields the same [`RunRecord`](crate::RunRecord) as any other; the
//! record's pooled summary is followed, in JSON only, by the per-shard
//! [`ShardBreakdown`] (see `breakdown_json`). Its trace and timeline
//! come as one stream per shard, each line led by a `"shard"` field (see
//! `shard_line`). Single-group trials carry neither, so their JSON,
//! CSV, trace and timeline bytes are those of an unsharded harness.

use ddp_core::ShardBreakdown;

use crate::json::{json_f64, JsonObject};

/// Prepends a `"shard"` field to one serialized JSON object (a trace or
/// timeline line of a sharded trial); nothing else about the line
/// changes.
pub(crate) fn shard_line(shard: usize, line: &str) -> String {
    let rest = line
        .strip_prefix('{')
        .expect("stream lines are JSON objects");
    format!("{{\"shard\":{shard},{rest}")
}

/// Appends a sharded record's breakdown fields to its JSON object, after
/// the [`record_fields`](crate::fields::record_fields) columns.
pub(crate) fn breakdown_json(o: &mut JsonObject, b: &ShardBreakdown) {
    o.u64("shards", b.shard_completed.len() as u64);
    o.str("placement", b.placement.name());
    o.f64("imbalance", b.imbalance);
    o.u64("cross_shard_groups", b.cross_shard_groups);
    o.raw("shard_completed", &u64_array(&b.shard_completed));
    o.raw("shard_throughput", &f64_array(&b.shard_throughput));
    o.raw("offered_mass", &f64_array(&b.offered_mass));
}

fn u64_array(values: &[u64]) -> String {
    let body: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", body.join(","))
}

fn f64_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", body.join(","))
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
