//! # ddp-trace — observability for the DDP simulator
//!
//! The paper's argument is about *when* things happen: an update reaches
//! its **Visibility Point (VP)** when the protocol makes it readable and
//! its **Durability Point (DP)** when a copy first survives failure.
//! End-of-run aggregates can rank the 25 models but cannot explain them;
//! this crate records the events in between, deterministically and
//! without perturbing the simulation:
//!
//! * [`Tracer`] — a ring-buffered, zero-overhead-when-off event recorder
//!   ([`TraceRecord`] is `Copy`; no allocation per record on the hot
//!   path). Drained after a run into a [`TraceDump`].
//! * [`WriteLifecycles`] — the open-write table that pairs each VP with
//!   the first persist completion of that version anywhere in the
//!   cluster, yielding the VP→DP durability-lag histogram.
//! * [`PhaseAccum`] — per-op latency attribution: service, same-key
//!   queueing, invalidation round-trip, durability stall, NVM bank
//!   queueing, and read stalls by cause.
//! * [`SampleClock`] — fixed-interval gauge sampling evaluated *lazily*
//!   at event-dispatch boundaries, so sampling never injects events into
//!   the simulation (timestamps and results stay bit-identical).
//! * [`Timeline`] — a windowed metrics aggregator: fixed sim-time
//!   windows, each accumulating throughput, shed/retry counts, the
//!   per-phase latency breakdown, VP→DP lag percentiles, and close-of-
//!   window gauge snapshots — the time-resolved view that explains
//!   *when* a run saturates.
//!
//! The tracer is strictly read-only with respect to the simulation: it
//! never schedules events or mutates protocol state, so enabling it
//! changes nothing but the trace output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lifecycle;
mod phase;
mod record;
mod ring;
mod timeline;

pub use lifecycle::{OpenWrite, WriteLifecycles};
pub use phase::PhaseAccum;
pub use record::{Slot, StallCause, TraceEventKind, TraceRecord};
pub use ring::{TraceDump, Tracer};
pub use timeline::{Timeline, TimelineDump, TimelineWindow};

use ddp_sim::Duration;

/// Ring capacity in records: once full, the oldest records are
/// overwritten and counted as dropped.
pub const RING_CAPACITY: usize = 1 << 20;

/// Maximum timeline windows kept per run: later events fold into the
/// final window and are counted as clipped.
pub const TIMELINE_MAX_WINDOWS: usize = 1 << 12;

/// Tracing configuration carried by the cluster config. Inert by default:
/// the simulation behaves (and performs) as if this crate did not exist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record lifecycle events into a ring of [`RING_CAPACITY`] records.
    pub events: bool,
    /// Emit gauge samples every this often (simulated time); `None`
    /// disables sampling.
    pub sample_interval: Option<Duration>,
    /// Aggregate a windowed metrics [`Timeline`] with this window width;
    /// `None` disables the timeline.
    pub timeline_window: Option<Duration>,
}

impl TraceConfig {
    /// Event tracing on, sampling off.
    #[must_use]
    pub fn enabled() -> Self {
        TraceConfig {
            events: true,
            ..TraceConfig::default()
        }
    }

    /// Builder: sets the gauge sample interval.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// Builder: enables the windowed metrics timeline.
    #[must_use]
    pub fn with_timeline(mut self, window: Duration) -> Self {
        self.timeline_window = Some(window);
        self
    }

    /// The timeline this configuration asks for (disabled when
    /// `timeline_window` is `None`).
    #[must_use]
    pub fn build_timeline(&self) -> Timeline {
        match self.timeline_window {
            Some(window) => Timeline::new(window, TIMELINE_MAX_WINDOWS),
            None => Timeline::disabled(),
        }
    }
}

/// Fixed-interval sample scheduler, advanced lazily from event dispatch.
///
/// Instead of scheduling sampler events (which would change the engine's
/// event stream and break bit-identical-results guarantees), the model
/// asks the clock at each dispatch which sample boundaries have passed
/// and emits one gauge record per boundary, stamped at the boundary time.
#[derive(Clone, Copy, Debug)]
pub struct SampleClock {
    interval_ns: u64,
    next_ns: u64,
}

impl SampleClock {
    /// A clock that fires every `interval` of simulated time, starting at
    /// `interval` (not at zero, which would sample an empty cluster).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        let interval_ns = interval.as_nanos();
        assert!(interval_ns > 0, "sample interval must be non-zero");
        SampleClock {
            interval_ns,
            next_ns: interval_ns,
        }
    }

    /// Returns the next sample boundary at or before `now_ns` and
    /// advances past it, or `None` if no boundary is due. Call in a loop
    /// to catch up over idle gaps longer than one interval.
    #[must_use]
    pub fn due(&mut self, now_ns: u64) -> Option<u64> {
        if now_ns < self.next_ns {
            return None;
        }
        let at = self.next_ns;
        self.next_ns += self.interval_ns;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = TraceConfig::default();
        assert!(!cfg.events);
        assert!(cfg.sample_interval.is_none());
        assert!(cfg.timeline_window.is_none());
        assert!(!cfg.build_timeline().is_enabled());
    }

    #[test]
    fn with_timeline_builds_an_enabled_timeline() {
        let cfg = TraceConfig::default().with_timeline(Duration::from_nanos(500));
        assert!(cfg.build_timeline().is_enabled());
    }

    #[test]
    fn sample_clock_catches_up_over_gaps() {
        let mut clock = SampleClock::new(Duration::from_nanos(100));
        assert_eq!(clock.due(50), None);
        assert_eq!(clock.due(100), Some(100));
        assert_eq!(clock.due(100), None, "a boundary fires exactly once");
        // A long gap yields every missed boundary in order.
        assert_eq!(clock.due(450), Some(200));
        assert_eq!(clock.due(450), Some(300));
        assert_eq!(clock.due(450), Some(400));
        assert_eq!(clock.due(450), None);
    }
}
