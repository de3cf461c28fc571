//! The windowed metrics timeline: time-resolved aggregation.
//!
//! Whole-run aggregates can rank the 25 DDP models but cannot explain
//! *when* a run saturates: which phase share grows first at the overload
//! knee, what an MMPP burst does to the admission queues, how NVM bank
//! pressure builds behind a persist storm. [`Timeline`] buckets simulated
//! time into fixed windows anchored at the start of the measured interval
//! and, per window, accumulates:
//!
//! * throughput (reads / writes completed) and open-loop flow counters
//!   (arrivals, rejections, retries, shed);
//! * the per-phase latency breakdown (service, same-key queueing,
//!   invalidation round-trip, persist stall, NVM bank queueing, read
//!   stall) in total nanoseconds attributed to ops completing in the
//!   window;
//! * a VP→DP durability-lag histogram (per-window percentiles);
//! * level-gauge snapshots at each window close (admission queue depth,
//!   client ops in flight, NVM bank queue depth).
//!
//! Like the [`Tracer`], the timeline is strictly read-only with respect
//! to the simulation: window boundaries are evaluated *lazily* at event
//! dispatch (never via scheduled events), every hook is gated on the same
//! `measuring` flag as `RunStats` (so per-window sums equal the run
//! totals by construction), and a disabled timeline costs one predictable
//! branch per hook. Memory is bounded: at most `max_windows` windows are
//! ever allocated; events past the cap fold into the final window and are
//! counted in [`TimelineDump::clipped`].
//!
//! [`Tracer`]: crate::Tracer

use ddp_sim::{Duration, Histogram};

/// One fixed-duration window of the timeline.
///
/// All counters cover events whose timestamp falls inside
/// `[start_ns, start_ns + window_ns)`; the three gauge fields are
/// snapshots taken at the window's close (or at run end for the final
/// partial window). The VP→DP lag histogram is kept private (it is not a
/// scalar column); read it through the `lag_*` accessors.
#[derive(Clone, Debug)]
pub struct TimelineWindow {
    /// Window start in simulated nanoseconds (absolute, not
    /// origin-relative).
    pub start_ns: u64,
    /// Client reads completed in this window.
    pub reads_completed: u64,
    /// Client writes completed in this window.
    pub writes_completed: u64,
    /// Open-loop arrivals in this window.
    pub ol_arrivals: u64,
    /// Arrivals that found their admission queue full in this window.
    pub ol_rejections: u64,
    /// Retries scheduled in this window.
    pub ol_retries: u64,
    /// Arrivals shed (retry budget exhausted) in this window.
    pub ol_shed: u64,
    /// Persists submitted to NVM in this window.
    pub persists_issued: u64,
    /// Service time of writes completing in this window, total ns.
    pub service_ns: u64,
    /// Same-key coordinator queueing of those writes, total ns.
    pub queue_ns: u64,
    /// Invalidation round-trip time of those writes, total ns.
    pub network_ns: u64,
    /// Durability stall of those writes, total ns.
    pub persist_stall_ns: u64,
    /// NVM bank queue wait of persists issued in this window, total ns.
    pub nvm_queue_ns: u64,
    /// Read stall time of reads resuming in this window, total ns.
    pub read_stall_ns: u64,
    /// Admission queue depth at window close.
    pub admission_queue: u64,
    /// Client ops in flight at window close.
    pub in_flight: u64,
    /// NVM bank queue depth (requests queued behind busy banks, all
    /// nodes) at window close.
    pub nvm_bank_queue: u64,
    /// NVM bytes scheduled by LSM background compactions (memtable seals
    /// and level merges) starting in this window.
    pub compaction_bytes: u64,
    /// In-flight background compactions (all nodes) at window close.
    pub active_compactions: u64,
    /// VP→DP lags of writes reaching their DP in this window.
    lag: Histogram,
}

impl TimelineWindow {
    fn new(start_ns: u64) -> Self {
        TimelineWindow {
            start_ns,
            reads_completed: 0,
            writes_completed: 0,
            ol_arrivals: 0,
            ol_rejections: 0,
            ol_retries: 0,
            ol_shed: 0,
            persists_issued: 0,
            service_ns: 0,
            queue_ns: 0,
            network_ns: 0,
            persist_stall_ns: 0,
            nvm_queue_ns: 0,
            read_stall_ns: 0,
            admission_queue: 0,
            in_flight: 0,
            nvm_bank_queue: 0,
            compaction_bytes: 0,
            active_compactions: 0,
            lag: Histogram::new(),
        }
    }

    /// Number of VP→DP lag samples recorded in this window.
    #[must_use]
    pub fn lag_count(&self) -> u64 {
        self.lag.count()
    }

    /// Median VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_p50_ns(&self) -> u64 {
        self.lag.percentile(0.50).as_nanos()
    }

    /// 99th-percentile VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_p99_ns(&self) -> u64 {
        self.lag.percentile(0.99).as_nanos()
    }

    /// Largest VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_max_ns(&self) -> u64 {
        self.lag.max().as_nanos()
    }

    /// The six latency phases of this window as `(name, total ns)`, in
    /// field order: `service`, `queue`, `network`, `persist_stall`,
    /// `nvm_queue`, `read_stall`.
    #[must_use]
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("service", self.service_ns),
            ("queue", self.queue_ns),
            ("network", self.network_ns),
            ("persist_stall", self.persist_stall_ns),
            ("nvm_queue", self.nvm_queue_ns),
            ("read_stall", self.read_stall_ns),
        ]
    }

    /// Total nanoseconds attributed across the six phases in this window.
    #[must_use]
    pub fn phase_total_ns(&self) -> u64 {
        self.phases().iter().map(|&(_, ns)| ns).sum()
    }

    /// The ordered `(name, value)` column list of this window — the
    /// `--timeline` row schema: every public field, plus the lag
    /// histogram through its `lag_*` accessors.
    #[must_use]
    pub fn columns(&self) -> [(&'static str, u64); 23] {
        [
            ("start_ns", self.start_ns),
            ("reads_completed", self.reads_completed),
            ("writes_completed", self.writes_completed),
            ("ol_arrivals", self.ol_arrivals),
            ("ol_rejections", self.ol_rejections),
            ("ol_retries", self.ol_retries),
            ("ol_shed", self.ol_shed),
            ("persists_issued", self.persists_issued),
            ("service_ns", self.service_ns),
            ("queue_ns", self.queue_ns),
            ("network_ns", self.network_ns),
            ("persist_stall_ns", self.persist_stall_ns),
            ("nvm_queue_ns", self.nvm_queue_ns),
            ("read_stall_ns", self.read_stall_ns),
            ("admission_queue", self.admission_queue),
            ("in_flight", self.in_flight),
            ("nvm_bank_queue", self.nvm_bank_queue),
            ("lag_count", self.lag_count()),
            ("lag_p50_ns", self.lag_p50_ns()),
            ("lag_p99_ns", self.lag_p99_ns()),
            ("lag_max_ns", self.lag_max_ns()),
            ("compaction_bytes", self.compaction_bytes),
            ("active_compactions", self.active_compactions),
        ]
    }
}

/// The drained contents of a timeline after a run.
#[derive(Clone, Debug, Default)]
pub struct TimelineDump {
    /// Window width in simulated nanoseconds (0 when the timeline was
    /// disabled).
    pub window_ns: u64,
    /// Absolute time of window 0's start (the measurement start).
    pub origin_ns: u64,
    /// Simulated time the run ended at.
    pub end_ns: u64,
    /// Events folded into the final window because the run outlived
    /// `max_windows` (0 means no window was clipped).
    pub clipped: u64,
    /// The windows, oldest first, gap-free from the origin.
    pub windows: Vec<TimelineWindow>,
}

/// Windowed metrics aggregator. Disabled by default; every recording
/// method is a single branch when off.
#[derive(Clone, Debug)]
pub struct Timeline {
    enabled: bool,
    window_ns: u64,
    max_windows: usize,
    origin_ns: u64,
    next_boundary_ns: u64,
    end_ns: u64,
    clipped: u64,
    windows: Vec<TimelineWindow>,
}

impl Timeline {
    /// A disabled timeline: every hook is one predictable branch.
    #[must_use]
    pub fn disabled() -> Self {
        Timeline {
            enabled: false,
            window_ns: 0,
            max_windows: 0,
            origin_ns: 0,
            next_boundary_ns: 0,
            end_ns: 0,
            clipped: 0,
            windows: Vec::new(),
        }
    }

    /// An enabled timeline with `window`-wide buckets and at most
    /// `max_windows` windows (later events fold into the last one).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `max_windows` is zero.
    #[must_use]
    pub fn new(window: Duration, max_windows: usize) -> Self {
        let window_ns = window.as_nanos();
        assert!(window_ns > 0, "timeline window must be non-zero");
        assert!(max_windows > 0, "timeline needs at least one window");
        Timeline {
            enabled: true,
            window_ns,
            max_windows,
            origin_ns: 0,
            next_boundary_ns: window_ns,
            end_ns: 0,
            clipped: 0,
            windows: Vec::new(),
        }
    }

    /// Whether the timeline records anything. Call sites gate hook
    /// argument computation on this.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Re-anchors window 0 at `origin_ns` and discards anything recorded
    /// before — called when the measured interval begins, so the timeline
    /// covers exactly the same window as `RunStats`.
    pub fn anchor(&mut self, origin_ns: u64) {
        if !self.enabled {
            return;
        }
        self.origin_ns = origin_ns;
        self.next_boundary_ns = origin_ns + self.window_ns;
        self.end_ns = origin_ns;
        self.clipped = 0;
        self.windows.clear();
    }

    /// Returns the next window boundary at or before `now_ns` and
    /// advances past it, or `None` when no boundary has been crossed.
    /// Call in a loop (like `SampleClock::due`) so idle gaps longer than
    /// one window still close every window once. The caller snapshots its
    /// gauges at each returned boundary via [`Timeline::snapshot`].
    #[must_use]
    pub fn boundary_due(&mut self, now_ns: u64) -> Option<u64> {
        if !self.enabled || now_ns < self.next_boundary_ns {
            return None;
        }
        let at = self.next_boundary_ns;
        self.next_boundary_ns += self.window_ns;
        Some(at)
    }

    /// The window covering `at_ns`, clamped into the final window when
    /// the run outlives `max_windows` (clipped events are counted).
    fn window_mut(&mut self, at_ns: u64) -> &mut TimelineWindow {
        let rel = at_ns.saturating_sub(self.origin_ns);
        let mut idx = (rel / self.window_ns) as usize;
        if idx >= self.max_windows {
            idx = self.max_windows - 1;
            self.clipped += 1;
        }
        while self.windows.len() <= idx {
            let start = self.origin_ns + self.windows.len() as u64 * self.window_ns;
            self.windows.push(TimelineWindow::new(start));
        }
        &mut self.windows[idx]
    }

    /// The window a close-of-window snapshot at `at_ns` belongs to: a
    /// boundary is the first instant of the *next* window, so the levels
    /// describe the window that just ended.
    fn closing_window_mut(&mut self, at_ns: u64) -> &mut TimelineWindow {
        self.window_mut(at_ns.saturating_sub(self.origin_ns).saturating_sub(1) + self.origin_ns)
    }

    /// Records a client op completion at `at_ns`.
    #[inline]
    pub fn completion(&mut self, at_ns: u64, is_write: bool) {
        if !self.enabled {
            return;
        }
        let w = self.window_mut(at_ns);
        if is_write {
            w.writes_completed += 1;
        } else {
            w.reads_completed += 1;
        }
    }

    /// Records the phase breakdown of a write completing at `at_ns`.
    #[inline]
    pub fn write_phases(
        &mut self,
        at_ns: u64,
        service: Duration,
        queue: Duration,
        network: Duration,
        persist_stall: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let w = self.window_mut(at_ns);
        w.service_ns += service.as_nanos();
        w.queue_ns += queue.as_nanos();
        w.network_ns += network.as_nanos();
        w.persist_stall_ns += persist_stall.as_nanos();
    }

    /// Records a read stall of `stall` ns ending at `at_ns`.
    #[inline]
    pub fn read_stall(&mut self, at_ns: u64, stall: Duration) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).read_stall_ns += stall.as_nanos();
    }

    /// Records a persist submitted at `at_ns` that waited `queue_wait`
    /// behind busy NVM banks.
    #[inline]
    pub fn persist(&mut self, at_ns: u64, queue_wait: Duration) {
        if !self.enabled {
            return;
        }
        let w = self.window_mut(at_ns);
        w.persists_issued += 1;
        w.nvm_queue_ns += queue_wait.as_nanos();
    }

    /// Records an LSM background compaction scheduled at `at_ns` that
    /// will write `bytes` to NVM.
    #[inline]
    pub fn compaction(&mut self, at_ns: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).compaction_bytes += bytes;
    }

    /// Records a write reaching its DP at `at_ns` with the given VP→DP
    /// lag.
    #[inline]
    pub fn lag(&mut self, at_ns: u64, lag: Duration) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).lag.record(lag);
    }

    /// Records an open-loop arrival at `at_ns`.
    #[inline]
    pub fn arrival(&mut self, at_ns: u64) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).ol_arrivals += 1;
    }

    /// Records an arrival bouncing off a full admission queue at `at_ns`.
    #[inline]
    pub fn rejection(&mut self, at_ns: u64) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).ol_rejections += 1;
    }

    /// Records a retry scheduled at `at_ns`.
    #[inline]
    pub fn retry(&mut self, at_ns: u64) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).ol_retries += 1;
    }

    /// Records an arrival shed at `at_ns`.
    #[inline]
    pub fn shed(&mut self, at_ns: u64) {
        if !self.enabled {
            return;
        }
        self.window_mut(at_ns).ol_shed += 1;
    }

    /// Stamps the close-of-window gauge levels for the window ending at
    /// `at_ns` (a boundary returned by [`Timeline::boundary_due`], or the
    /// final run time from [`Timeline::finish`]).
    pub fn snapshot(
        &mut self,
        at_ns: u64,
        admission_queue: u64,
        in_flight: u64,
        nvm_queue: u64,
        active_compactions: u64,
    ) {
        if !self.enabled {
            return;
        }
        let w = self.closing_window_mut(at_ns);
        w.admission_queue = admission_queue;
        w.in_flight = in_flight;
        w.nvm_bank_queue = nvm_queue;
        w.active_compactions = active_compactions;
    }

    /// Closes the timeline at run end: stamps the final (possibly
    /// partial) window's gauge levels and records the end time.
    pub fn finish(
        &mut self,
        now_ns: u64,
        admission_queue: u64,
        in_flight: u64,
        nvm_queue: u64,
        active_compactions: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.end_ns = now_ns;
        if now_ns > self.origin_ns {
            self.snapshot(
                now_ns,
                admission_queue,
                in_flight,
                nvm_queue,
                active_compactions,
            );
        }
    }

    /// Drains the windows into a [`TimelineDump`] and resets the timeline
    /// for reuse (still anchored at the old origin until re-anchored).
    #[must_use]
    pub fn take(&mut self) -> TimelineDump {
        if !self.enabled {
            return TimelineDump::default();
        }
        let dump = TimelineDump {
            window_ns: self.window_ns,
            origin_ns: self.origin_ns,
            end_ns: self.end_ns,
            clipped: self.clipped,
            windows: std::mem::take(&mut self.windows),
        };
        self.clipped = 0;
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        let mut t = Timeline::new(Duration::from_nanos(100), 8);
        t.anchor(1_000);
        t
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut t = Timeline::disabled();
        assert!(!t.is_enabled());
        t.completion(10, true);
        t.arrival(10);
        t.lag(10, Duration::from_nanos(5));
        assert!(t.boundary_due(1_000_000).is_none());
        let dump = t.take();
        assert!(dump.windows.is_empty());
        assert_eq!(dump.window_ns, 0);
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut t = timeline();
        t.completion(1_000, false); // window 0 start
        t.completion(1_099, true); // window 0 end
        t.completion(1_100, true); // window 1 start
        t.read_stall(1_250, Duration::from_nanos(40)); // window 2
        let dump = t.take();
        assert_eq!(dump.windows.len(), 3);
        assert_eq!(dump.windows[0].reads_completed, 1);
        assert_eq!(dump.windows[0].writes_completed, 1);
        assert_eq!(dump.windows[1].writes_completed, 1);
        assert_eq!(dump.windows[2].read_stall_ns, 40);
        assert_eq!(dump.windows[0].start_ns, 1_000);
        assert_eq!(dump.windows[2].start_ns, 1_200);
    }

    #[test]
    fn windows_are_gap_free() {
        let mut t = timeline();
        t.completion(1_550, false); // window 5; 0..=4 must exist too
        let dump = t.take();
        assert_eq!(dump.windows.len(), 6);
        for (i, w) in dump.windows.iter().enumerate() {
            assert_eq!(w.start_ns, 1_000 + 100 * i as u64);
        }
    }

    #[test]
    fn events_past_the_cap_fold_into_the_last_window() {
        let mut t = timeline();
        t.completion(999_999, true); // far past 8 windows
        t.completion(999_999, true);
        let dump = t.take();
        assert_eq!(dump.windows.len(), 8);
        assert_eq!(dump.windows[7].writes_completed, 2);
        assert_eq!(dump.clipped, 2);
    }

    #[test]
    fn boundaries_fire_once_each_and_catch_up() {
        let mut t = timeline();
        assert_eq!(t.boundary_due(1_050), None);
        assert_eq!(t.boundary_due(1_100), Some(1_100));
        assert_eq!(t.boundary_due(1_100), None, "a boundary fires once");
        assert_eq!(t.boundary_due(1_350), Some(1_200));
        assert_eq!(t.boundary_due(1_350), Some(1_300));
        assert_eq!(t.boundary_due(1_350), None);
    }

    #[test]
    fn snapshot_lands_in_the_closing_window() {
        let mut t = timeline();
        t.completion(1_050, true);
        // The boundary at 1_100 closes window 0.
        t.snapshot(1_100, 3, 7, 11, 2);
        let dump = t.take();
        assert_eq!(dump.windows[0].admission_queue, 3);
        assert_eq!(dump.windows[0].in_flight, 7);
        assert_eq!(dump.windows[0].nvm_bank_queue, 11);
        assert_eq!(dump.windows[0].active_compactions, 2);
    }

    #[test]
    fn finish_stamps_the_partial_window_and_end_time() {
        let mut t = timeline();
        t.completion(1_120, true);
        t.finish(1_150, 1, 2, 3, 0);
        let dump = t.take();
        assert_eq!(dump.end_ns, 1_150);
        assert_eq!(dump.windows.len(), 2);
        assert_eq!(dump.windows[1].admission_queue, 1);
        assert_eq!(dump.windows[1].nvm_bank_queue, 3);
    }

    #[test]
    fn anchor_resets_and_realigns() {
        let mut t = timeline();
        t.completion(1_050, true);
        t.anchor(5_000);
        assert_eq!(t.boundary_due(5_099), None);
        assert_eq!(t.boundary_due(5_100), Some(5_100));
        t.completion(5_010, false);
        let dump = t.take();
        assert_eq!(dump.origin_ns, 5_000);
        assert_eq!(dump.windows.len(), 1);
        assert_eq!(dump.windows[0].reads_completed, 1);
        assert_eq!(
            dump.windows[0].writes_completed, 0,
            "pre-anchor events dropped"
        );
    }

    #[test]
    fn lag_percentiles_are_per_window() {
        let mut t = timeline();
        for n in 1..=100u64 {
            t.lag(1_010, Duration::from_nanos(n));
        }
        t.lag(1_150, Duration::from_nanos(1_000));
        let dump = t.take();
        assert_eq!(dump.windows[0].lag_count(), 100);
        assert_eq!(dump.windows[0].lag_p50_ns(), 50);
        assert!(dump.windows[0].lag_max_ns() >= 99);
        assert_eq!(dump.windows[1].lag_count(), 1);
        assert!(dump.windows[1].lag_p50_ns() >= 970);
    }

    #[test]
    fn phase_total_sums_the_six_phases() {
        let mut t = timeline();
        t.write_phases(
            1_010,
            Duration::from_nanos(1),
            Duration::from_nanos(2),
            Duration::from_nanos(3),
            Duration::from_nanos(4),
        );
        t.persist(1_020, Duration::from_nanos(5));
        t.read_stall(1_030, Duration::from_nanos(6));
        let dump = t.take();
        assert_eq!(dump.windows[0].phase_total_ns(), 21);
        let names = dump.windows[0].phases().map(|(name, _)| name);
        let columns = dump.windows[0].columns().map(|(name, _)| name);
        for name in names {
            assert!(columns.contains(&format!("{name}_ns").as_str()), "{name}");
        }
        assert_eq!(dump.windows[0].persists_issued, 1);
    }

    #[test]
    fn compaction_bytes_accumulate_per_window() {
        let mut t = timeline();
        t.compaction(1_010, 4_096);
        t.compaction(1_020, 1_024);
        t.compaction(1_150, 64);
        let dump = t.take();
        assert_eq!(dump.windows[0].compaction_bytes, 5_120);
        assert_eq!(dump.windows[1].compaction_bytes, 64);
    }
}
