//! The parallel deterministic executor: one entry point, [`run_sweep`],
//! and the per-bin facade [`Harness`] on top of it.
//!
//! Trials are independent seeded simulations, so a sweep parallelizes
//! perfectly — the only thing that must *not* change with the thread
//! count is the output. Every trial, single-group or sharded, runs the
//! same way: one [`Simulation`] of its config, condensed into one
//! [`RunRecord`] plus the trace and timeline dumps of each shard (a
//! [`TrialOutput`]). The executor:
//!
//! * pulls trials off a shared atomic work queue (no static partitioning,
//!   so a slow model cannot strand an idle worker);
//! * writes each finished [`TrialOutput`] into the result slot keyed by
//!   the trial's grid index, making the returned stream independent of
//!   completion order;
//! * keeps host wall-clock out of the records entirely — progress and
//!   timing go to **stderr**, so stdout tables and `--json` streams stay
//!   byte-identical for any `--threads N`.
//!
//! The work queue, the worker threads, and all wall-clock access live in
//! [`crate::progress`] — the one module the `clippy.toml` determinism bans
//! let touch host time and threads. This file only decides *what* each
//! worker runs.

use std::io;
use std::path::Path;

use ddp_core::{Cluster, ClusterConfig, Simulation, TimelineDump, TraceDump};

use crate::args::HarnessArgs;
use crate::csv::CsvWriter;
use crate::fleet::shard_line;
use crate::json::JsonLinesWriter;
use crate::progress::{run_pool, Stopwatch};
use crate::record::RunRecord;
use crate::seeds::SeedAggregate;
use crate::sweep::Sweep;
use crate::timeline::{timeline_end_to_json, timeline_window_to_json};
use crate::trace::{trace_end_to_json, trace_event_to_json};

/// The default timeline window width when `--timeline` is given without
/// `--window-ns`: 50 µs of simulated time, a few hundred windows on a
/// figure-scale run.
pub const DEFAULT_WINDOW_NS: u64 = 50_000;

/// What one trial produced: its record plus its drained trace and
/// timeline dumps, one per shard (each list empty unless the trial's
/// config enabled that instrument).
#[derive(Debug)]
pub struct TrialOutput {
    /// The trial's record.
    pub record: RunRecord,
    /// Trace dumps, indexed by shard.
    pub traces: Vec<TraceDump>,
    /// Timeline dumps, indexed by shard.
    pub timelines: Vec<TimelineDump>,
}

/// Runs every trial of a sweep on `threads` workers and returns, in grid
/// order, each trial's [`TrialOutput`] (index `i` of the result is trial
/// `i` of the sweep, regardless of which worker ran it or when it
/// finished). The dumps must be drained inside the worker — the
/// `Simulation` is dropped with the trial — so this is the executor's one
/// entry point.
///
/// Progress is reported on stderr as `[name] trial k/N <label> (t s)`
/// plus a closing total; stdout is never touched.
///
/// # Panics
///
/// Panics (inside the worker) if a trial's config fails validation; see
/// [`Sweep::validate`] to refuse a bad sweep up front.
#[must_use]
pub fn run_sweep(name: &str, sweep: Sweep, threads: usize) -> Vec<TrialOutput> {
    let trials = sweep.into_trials();
    let labels: Vec<String> = trials.iter().map(|t| t.label.clone()).collect();
    run_pool(name, "trials", &labels, threads, |i| {
        let trial = &trials[i];
        let mut sim = Simulation::new(trial.cfg.clone());
        sim.run();
        let record = RunRecord::from_simulation(trial.index, trial.label.clone(), &mut sim);
        let clusters = sim.clusters_mut();
        let traces = clusters
            .iter_mut()
            .filter_map(Cluster::take_trace)
            .collect();
        let timelines = clusters
            .iter_mut()
            .filter_map(Cluster::take_timeline)
            .collect();
        TrialOutput {
            record,
            traces,
            timelines,
        }
    })
}

/// The per-binary facade every bench bin runs through: parses the shared
/// flags, owns the optional JSON-lines writer, applies `--quick`, and
/// reports total wall-clock on exit.
///
/// ```no_run
/// use ddp_core::ClusterConfig;
/// use ddp_harness::{Harness, Sweep};
///
/// let mut harness = Harness::from_env("fig6");
/// let records = harness.run(Sweep::grid25(ClusterConfig::micro21));
/// // ... print tables from `records` ...
/// harness.finish();
/// ```
#[derive(Debug)]
pub struct Harness {
    name: &'static str,
    args: HarnessArgs,
    writer: Option<JsonLinesWriter>,
    csv_writer: Option<CsvWriter>,
    trace_writer: Option<JsonLinesWriter>,
    timeline_writer: Option<JsonLinesWriter>,
    started: Stopwatch,
}

impl Harness {
    /// Builds a harness from already-parsed arguments, creating the
    /// `--json`, `--csv`, `--trace` and `--timeline` files it was given.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the flag and the path if an
    /// output file cannot be created.
    pub fn try_new(name: &'static str, args: HarnessArgs) -> Result<Self, String> {
        fn create<'a, W>(
            flag: &str,
            path: Option<&'a Path>,
            open: impl FnOnce(&'a Path) -> io::Result<W>,
        ) -> Result<Option<W>, String> {
            path.map(|p| open(p).map_err(|e| format!("cannot create {flag} {}: {e}", p.display())))
                .transpose()
        }
        Ok(Harness {
            name,
            writer: create("--json", args.json.as_deref(), JsonLinesWriter::create)?,
            csv_writer: create("--csv", args.csv.as_deref(), CsvWriter::create)?,
            trace_writer: create("--trace", args.trace.as_deref(), JsonLinesWriter::create)?,
            timeline_writer: create(
                "--timeline",
                args.timeline.as_deref(),
                JsonLinesWriter::create,
            )?,
            args,
            started: Stopwatch::start(),
        })
    }

    /// [`Harness::try_new`] for a bin: if an output file cannot be
    /// created, prints the reason to stderr and exits with status 2.
    #[must_use]
    pub fn new(name: &'static str, args: HarnessArgs) -> Self {
        Harness::try_new(name, args).unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        })
    }

    /// Parses the process arguments; on a parse error prints the usage to
    /// stderr, and on an uncreatable output file the reason, and exits with
    /// status 2.
    #[must_use]
    pub fn from_env(name: &'static str) -> Self {
        Harness::new(name, HarnessArgs::from_env(name))
    }

    /// The parsed flags.
    #[must_use]
    pub fn args(&self) -> &HarnessArgs {
        &self.args
    }

    /// Runs one sweep: applies `--quick` and `--store` (and, under
    /// `--trace` / `--timeline`, enables the corresponding
    /// instrumentation on every trial), validates every trial, executes on
    /// `--threads` workers, appends every record to the `--json`/`--csv`
    /// streams, every trial's event stream to the `--trace` stream, and
    /// every trial's window rows to the `--timeline` stream, and returns
    /// the records in grid order. A sharded trial writes one stream per
    /// shard; in a sweep with any sharded trial, every line is led by its
    /// `"shard"` field.
    ///
    /// If any trial's config is invalid, nothing runs: the bin exits with
    /// status 2, naming the trial and the reason.
    pub fn run(&mut self, sweep: Sweep) -> Vec<RunRecord> {
        let mut sweep = if self.args.quick {
            sweep.map_cfg(ClusterConfig::quick)
        } else {
            sweep
        };
        if let Some(kind) = self.args.store {
            sweep = sweep.map_cfg(move |cfg| cfg.with_store(kind));
        }
        if self.args.trace.is_some() || self.args.timeline.is_some() {
            let mut trace_cfg = if self.args.trace.is_some() {
                ddp_core::TraceConfig::enabled()
            } else {
                ddp_core::TraceConfig::default()
            };
            if let Some(ns) = self.args.trace_sample {
                trace_cfg = trace_cfg.with_sample_interval(ddp_sim::Duration::from_nanos(ns));
            }
            if self.args.timeline.is_some() {
                let ns = self.args.window_ns.unwrap_or(DEFAULT_WINDOW_NS);
                trace_cfg = trace_cfg.with_timeline(ddp_sim::Duration::from_nanos(ns));
            }
            sweep = sweep.map_cfg(|cfg| cfg.with_trace(trace_cfg));
        }
        if let Err(e) = sweep.validate() {
            eprintln!("{}: invalid configuration: {e}", self.name);
            std::process::exit(2);
        }
        // One stream, one shape: if any trial is sharded, every trial's
        // lines carry the shard field (shard 0 for a single group).
        let sharded = sweep.trials().iter().any(|t| t.cfg.shards > 1);
        let results = run_sweep(self.name, sweep, self.args.threads);
        let mut records = Vec::with_capacity(results.len());
        for TrialOutput {
            record,
            traces,
            timelines,
        } in results
        {
            let tag = |shard: usize, line: String| {
                if sharded {
                    shard_line(shard, &line)
                } else {
                    line
                }
            };
            if let Some(writer) = &mut self.trace_writer {
                for (shard, dump) in traces.iter().enumerate() {
                    for event in &dump.events {
                        writer
                            .write_line(&tag(shard, trace_event_to_json(record.index, event)))
                            .expect("writing --trace event");
                    }
                    writer
                        .write_line(&tag(
                            shard,
                            trace_end_to_json(record.index, &record.label, dump),
                        ))
                        .expect("writing --trace trailer");
                }
            }
            if let Some(writer) = &mut self.timeline_writer {
                for (shard, dump) in timelines.iter().enumerate() {
                    for (k, w) in dump.windows.iter().enumerate() {
                        writer
                            .write_line(&tag(shard, timeline_window_to_json(record.index, k, w)))
                            .expect("writing --timeline window");
                    }
                    writer
                        .write_line(&tag(
                            shard,
                            timeline_end_to_json(record.index, &record.label, dump),
                        ))
                        .expect("writing --timeline trailer");
                }
            }
            records.push(record);
        }
        if let Some(writer) = &mut self.writer {
            writer
                .write_records(&records)
                .expect("writing --json records");
        }
        if let Some(writer) = &mut self.csv_writer {
            writer
                .write_records(&records)
                .expect("writing --csv records");
        }
        records
    }

    /// Runs one sweep under `--seeds N` replication: every trial runs once
    /// per derived seed (replica 0 unchanged, so `--seeds 1` is exactly
    /// [`Harness::run`]), all `cells × N` records flow to the
    /// `--json`/`--csv` streams, and one `seed_aggregate` JSON line per
    /// original cell (mean, stddev, min, max of the headline metrics)
    /// follows the records. Returns the flat seed-major records plus the
    /// per-cell aggregates.
    pub fn run_seeded(&mut self, sweep: Sweep) -> (Vec<RunRecord>, Vec<SeedAggregate>) {
        let seeds = self.args.seeds.max(1);
        let cells = sweep.len();
        let records = self.run(crate::seeds::replicate(&sweep, seeds));
        let aggregates = crate::seeds::aggregate_records(&records, cells, seeds);
        if self.writer.is_some() {
            for a in &aggregates {
                let line = crate::seeds::aggregate_to_json(a);
                self.emit_json_line(&line);
            }
        }
        (records, aggregates)
    }

    /// Writes one extra pre-serialized JSON line (for derived, non-sweep
    /// rows such as Table 4's). A no-op without `--json`.
    pub fn emit_json_line(&mut self, json: &str) {
        if let Some(writer) = &mut self.writer {
            writer.write_line(json).expect("writing --json line");
        }
    }

    /// Flushes the output streams and reports the bin's total wall-clock
    /// to stderr.
    pub fn finish(mut self) {
        if let Some(writer) = &mut self.writer {
            writer.flush().expect("flushing --json stream");
            eprintln!(
                "[{}] wrote {} JSON-lines record(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.csv_writer {
            writer.flush().expect("flushing --csv stream");
            eprintln!(
                "[{}] wrote {} CSV row(s) to {}",
                self.name,
                writer.rows(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.trace_writer {
            writer.flush().expect("flushing --trace stream");
            eprintln!(
                "[{}] wrote {} trace line(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.timeline_writer {
            writer.flush().expect("flushing --timeline stream");
            eprintln!(
                "[{}] wrote {} timeline line(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        eprintln!(
            "[{}] total wall-clock {:.2}s",
            self.name,
            self.started.elapsed_secs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::DdpModel;
    use std::path::PathBuf;

    fn tiny_grid() -> Sweep {
        Sweep::grid25(|m| {
            let mut cfg = ClusterConfig::micro21(m).quick();
            cfg.warmup_requests = 20;
            cfg.measured_requests = 150;
            cfg
        })
    }

    fn records(sweep: Sweep, threads: usize) -> Vec<RunRecord> {
        run_sweep("exec-test", sweep, threads)
            .into_iter()
            .map(|t| t.record)
            .collect()
    }

    #[test]
    fn records_come_back_in_grid_order() {
        let records = records(tiny_grid(), 4);
        assert_eq!(records.len(), DdpModel::COUNT);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.model.grid_index(), i);
            assert!(
                r.summary.throughput > 0.0,
                "{} produced no throughput",
                r.model
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sequential = records(tiny_grid(), 1);
        let parallel = records(tiny_grid(), 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_sweep_is_a_noop() {
        assert!(run_sweep("exec-test", Sweep::new(), 8).is_empty());
    }

    #[test]
    fn store_override_reaches_every_trial() {
        use ddp_core::StoreKind;
        let sweeps: [fn() -> Sweep; 2] = [tiny_grid, || tiny_grid().map_cfg(|c| c.with_shards(3))];
        for sweep in sweeps {
            let mut args = HarnessArgs::sequential();
            args.store = Some(StoreKind::Lsm);
            let mut h = Harness::new("exec-test", args);
            let flagged = h.run(sweep());
            let explicit = records(sweep().map_cfg(|c| c.with_store(StoreKind::Lsm)), 1);
            assert_eq!(flagged, explicit);
        }
    }

    /// Points one output flag at a path under a regular file, which can
    /// never be created, and checks the one-line error names flag and path.
    fn assert_uncreatable_is_an_error(flag: &str, set: fn(&mut HarnessArgs, PathBuf)) {
        let bad = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x"));
        let mut args = HarnessArgs::sequential();
        set(&mut args, bad.clone());
        let err = Harness::try_new("exec-test", args).expect_err(flag);
        assert!(
            err.starts_with(&format!("cannot create {flag} {}: ", bad.display())),
            "{err}"
        );
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn uncreatable_json_path_is_an_error() {
        assert_uncreatable_is_an_error("--json", |a, p| a.json = Some(p));
    }

    #[test]
    fn uncreatable_csv_path_is_an_error() {
        assert_uncreatable_is_an_error("--csv", |a, p| a.csv = Some(p));
    }

    #[test]
    fn uncreatable_trace_path_is_an_error() {
        assert_uncreatable_is_an_error("--trace", |a, p| a.trace = Some(p));
    }

    #[test]
    fn uncreatable_timeline_path_is_an_error() {
        assert_uncreatable_is_an_error("--timeline", |a, p| a.timeline = Some(p));
    }
}
