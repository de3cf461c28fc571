//! Per-phase latency attribution: where a request's nanoseconds went.
//!
//! Every completed write decomposes into non-overlapping intervals along
//! its critical path; reads contribute their stall time split by cause.
//! The raw accumulator ([`PhaseAccum`]) lives in `RunStats` and sums
//! simulated durations; `RunSummary` condenses it into per-op means (its
//! `phase_*` fields) next to the throughput/latency fields.

use ddp_sim::Duration;

/// Raw phase-time accumulators over the measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAccum {
    /// Client link + coordinator admission + service time, from issue to
    /// the start of the write round.
    pub write_service: Duration,
    /// Time a Linearizable write waited behind an earlier write to the
    /// same key before its round could start.
    pub write_queue: Duration,
    /// Time from the write's VP until its consistency condition held
    /// (all follower ACKs in) — the invalidation round-trip.
    pub write_network: Duration,
    /// Additional time the client ack waited for the durability
    /// condition after consistency was satisfied.
    pub write_persist_stall: Duration,
    /// Completed writes folded into the write phases above.
    pub writes: u64,
    /// Read time stalled on a transient (consistency) key.
    pub read_stall_consistency: Duration,
    /// Read time stalled on a visible-but-unpersisted write.
    pub read_stall_persist: Duration,
    /// Reads that stalled at least once.
    pub reads_stalled: u64,
}

impl PhaseAccum {
    /// Folds one completed write's decomposition in.
    pub fn record_write(
        &mut self,
        service: Duration,
        queue: Duration,
        network: Duration,
        persist_stall: Duration,
    ) {
        self.write_service += service;
        self.write_queue += queue;
        self.write_network += network;
        self.write_persist_stall += persist_stall;
        self.writes += 1;
    }

    /// Folds one resumed read stall in, split by cause.
    pub fn record_read_stall(&mut self, consistency: Duration, persist: Duration) {
        self.read_stall_consistency += consistency;
        self.read_stall_persist += persist;
        self.reads_stalled += 1;
    }

    /// Folds another accumulator in, field by field. Used when aggregating
    /// independent runs (e.g. the shards of a fleet) into one total.
    pub fn merge(&mut self, other: &PhaseAccum) {
        self.write_service += other.write_service;
        self.write_queue += other.write_queue;
        self.write_network += other.write_network;
        self.write_persist_stall += other.write_persist_stall;
        self.writes += other.writes;
        self.read_stall_consistency += other.read_stall_consistency;
        self.read_stall_persist += other.read_stall_persist;
        self.reads_stalled += other.reads_stalled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = PhaseAccum::default();
        a.record_write(
            Duration::from_nanos(100),
            Duration::from_nanos(20),
            Duration::from_nanos(300),
            Duration::from_nanos(60),
        );
        let mut b = PhaseAccum::default();
        b.record_write(
            Duration::from_nanos(300),
            Duration::ZERO,
            Duration::from_nanos(500),
            Duration::ZERO,
        );
        b.record_read_stall(Duration::from_nanos(40), Duration::from_nanos(80));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.writes, 2);
        assert_eq!(merged.write_service, Duration::from_nanos(400));
        assert_eq!(merged.write_network, Duration::from_nanos(800));
        assert_eq!(merged.reads_stalled, 1);
        assert_eq!(merged.read_stall_persist, Duration::from_nanos(80));
    }
}
