//! Host-time benchmark of the DDP simulator.
//!
//! ```text
//! ddp-hostbench --workload <grid25_quick|long_read|lsm_w_traced>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats whole passes over the workload's cells until `--seconds`
//! are used (at least one pass) and reports medians over the passes. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates an untraced pass with a traced one and prints the per-layer
//! ledger. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

// The repository's clippy.toml bans host wall-clock so it cannot leak into
// simulated records. Host time is what this crate measures, from outside
// the program, and it reaches only the benchmark's own output.
#![allow(clippy::disallowed_methods)]

mod calib;
mod cell;
mod ledger;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use ddp_harness::{run_pool, Trial};

use cell::{run_cell_guarded, CellRun};
use ledger::{layer_metrics, trace_cell};
use workloads::{Workload, DEFAULT_SEED};

/// End-to-end metrics: name and unit, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, in print order.
const PER_LAYER: [(&str, &str); 31] = [
    ("workload.client_pool_ms", "ms"),
    ("workload.zipf_new_ms", "ms"),
    ("workload.request_ns", "ns"),
    ("mem.controller_new_ms", "ms"),
    ("net.fabric_new_ms", "ms"),
    ("core.setup_other_ms", "ms"),
    ("core.run_ns_per_req.lin", "ns"),
    ("core.run_ns_per_req.re", "ns"),
    ("core.run_ns_per_req.txn", "ns"),
    ("core.run_ns_per_req.causal", "ns"),
    ("core.run_ns_per_req.eventual", "ns"),
    ("core.msgs_per_req", "msg/req"),
    ("core.persists_per_req", "persist/req"),
    ("core.txn_restarts_per_commit", "ratio"),
    ("core.txn_conflict_rate", "ratio"),
    ("store.get_ns", "ns"),
    ("store.put_ns", "ns"),
    ("store.lsm_seals_per_kwrite", "seal/kwrite"),
    ("store.compaction_bytes_per_write", "B/write"),
    ("mem.persist_ns", "ns"),
    ("net.send_ns", "ns"),
    ("core.run_residual_share", "ratio"),
    ("export.record_us", "us"),
    ("export.trace_ns_per_event", "ns"),
    ("export.timeline_us_per_window", "us"),
    ("export.mb", "MB"),
    ("harness.pool_efficiency", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.sim_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("failed_cell_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = parse_u64(&value).ok_or(format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How much slower than the reference speed the host ran these cells: the
/// mean calibration-kernel time over the reference kernel time.
fn host_factor<'a>(cells: impl Iterator<Item = &'a CellRun>) -> f64 {
    let (sum, n) = cells.fold((0.0, 0.0), |(s, n), c| (s + c.kernel_s, n + 1.0));
    sum / n / calib::REFERENCE_S
}

/// One untraced pass over every cell of the workload.
struct Pass {
    /// Host seconds the pass took, unscaled.
    raw_wall_s: f64,
    cells: Vec<CellRun>,
}

impl Pass {
    fn factor(&self) -> f64 {
        host_factor(self.cells.iter())
    }

    fn wall_s(&self) -> f64 {
        self.raw_wall_s / self.factor()
    }

    fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s).sum()
    }

    fn req_per_s(&self) -> f64 {
        let requests: u64 = self.cells.iter().map(|c| c.requests).sum();
        let run: f64 = self.cells.iter().map(|c| c.run_s).sum();
        requests as f64 / run
    }
}

/// Runs `job` over every cell on the workload's pool; returns the pool's
/// unscaled host seconds and the results in cell order.
fn timed_pool<T: Send>(
    workload: Workload,
    noun: &str,
    trials: &[Trial],
    job: impl Fn(&Trial) -> T + Sync,
) -> (f64, Vec<T>) {
    let labels: Vec<String> = trials.iter().map(|t| t.label.clone()).collect();
    let t = Instant::now();
    let out = run_pool(workload.name(), noun, &labels, workload.workers(), |i| {
        job(&trials[i])
    });
    (t.elapsed().as_secs_f64(), out)
}

fn untraced_pass(workload: Workload, trials: &[Trial]) -> Pass {
    let (raw_wall_s, cells) =
        timed_pool(workload, "cells", trials, |t| run_cell_guarded(workload, t));
    Pass { raw_wall_s, cells }
}

/// Failure bookkeeping across every cell a run attempts. The first pass's
/// records are the reference: any later run of the same cell, traced or
/// not, must serialize byte-identically.
struct Tally {
    reference: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, trials: &[Trial], cells: &[&CellRun]) {
        if self.reference.is_empty() {
            self.reference = cells.iter().map(|c| c.record_json.clone()).collect();
        }
        for (i, cell) in cells.iter().enumerate() {
            self.attempted += 1;
            let reason = cell.failure.clone().or_else(|| {
                (cell.record_json != self.reference[i])
                    .then(|| "record differs from the first run of the cell".to_string())
            });
            if let Some(reason) = reason {
                self.failed += 1;
                eprintln!("hostbench: cell {} failed: {reason}", trials[i].label);
            }
        }
    }

    fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a over the record JSON stream, one record per line, in cell order.
fn sim_digest(records: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in records {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`); NaN, which fails the
/// run, where `/proc` does not report it.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Keeps running passes while the next one, estimated as long as the
/// last, still fits in the time budget.
fn more_time(started: Instant, last_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_s <= seconds
}

fn run_untraced(args: &Args, trials: &[Trial], tally: &mut Tally) -> BTreeMap<String, f64> {
    let started = Instant::now();
    let mut passes = Vec::new();
    // Read after the first pass: what one run of the workload in a fresh
    // process peaks at. Later passes only add allocator fragmentation.
    let mut peak_rss_mb = 0.0;
    loop {
        let pass = untraced_pass(args.workload, trials);
        tally.check(trials, &pass.cells.iter().collect::<Vec<_>>());
        println!(
            "pass {}: wall_s = {:.4}, setup_s = {:.4}, sim_req_per_s = {:.1}, \
             raw_wall_s = {:.4}, host_factor = {:.3}",
            passes.len() + 1,
            pass.wall_s(),
            pass.setup_s(),
            pass.req_per_s(),
            pass.raw_wall_s,
            pass.factor()
        );
        if passes.is_empty() {
            peak_rss_mb = peak_rss_mib();
        }
        let last = pass.raw_wall_s;
        passes.push(pass);
        if !more_time(started, last, args.seconds) {
            break;
        }
    }
    let of = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("wall_s".to_string(), of(&|p| p.wall_s()));
    m.insert("setup_s".to_string(), of(&|p| p.setup_s()));
    m.insert("sim_req_per_s".to_string(), of(&|p| p.req_per_s()));
    m.insert("peak_rss_mb".to_string(), peak_rss_mb);
    println!("passes = {}", passes.len());
    m
}

fn run_traced(args: &Args, trials: &[Trial], tally: &mut Tally) -> BTreeMap<String, f64> {
    let workers = args.workload.workers() as f64;
    let started = Instant::now();
    let mut pairs: Vec<BTreeMap<String, f64>> = Vec::new();
    loop {
        let pass = untraced_pass(args.workload, trials);
        tally.check(trials, &pass.cells.iter().collect::<Vec<_>>());
        let (raw_traced_s, ledgers) = timed_pool(args.workload, "traced cells", trials, |t| {
            trace_cell(args.workload, t)
        });
        tally.check(trials, &ledgers.iter().map(|l| &l.cell).collect::<Vec<_>>());
        let traced_wall = raw_traced_s / host_factor(ledgers.iter().map(|l| &l.cell));
        let wall = pass.wall_s();
        let mut m = layer_metrics(&ledgers);
        let busy: f64 = pass.cells.iter().map(CellRun::host_s).sum();
        m.insert("harness.pool_efficiency".into(), busy / (workers * wall));
        m.insert(
            "bench.trace_overhead_share".into(),
            traced_wall / wall - 1.0,
        );
        m.insert("bench.sim_wall_s".into(), wall);
        m.insert("bench.traced_wall_s".into(), traced_wall);
        pairs.push(m);
        if !more_time(started, pass.raw_wall_s + raw_traced_s, args.seconds) {
            break;
        }
    }
    let mut m = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = pairs.iter().filter_map(|p| p.get(name).copied()).collect();
        if !values.is_empty() {
            m.insert(name.to_string(), median(&values));
        }
    }
    println!("pairs = {}", pairs.len());
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ddp-hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trials = args.workload.sweep(args.seed).into_trials();
    let mut tally = Tally::new();
    println!(
        "workload = {}, seed = {:#x}, seconds = {}, trace = {}, cells = {}, workers = {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        trials.len(),
        args.workload.workers()
    );
    let (mut metrics, declared): (_, &[(&str, &str)]) = if args.trace {
        (run_traced(&args, &trials, &mut tally), &PER_LAYER)
    } else {
        (run_untraced(&args, &trials, &mut tally), &END_TO_END)
    };
    metrics.insert("failed_cell_ratio".into(), tally.ratio());

    let mut correct = tally.failed == 0;
    let mut json = Vec::new();
    for &(name, unit) in declared {
        let Some(&value) = metrics.get(name) else {
            eprintln!("ddp-hostbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("ddp-hostbench: metric {name} is not finite");
            correct = false;
        }
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    println!(
        "failed_cell_ratio = {} ({} of {} cells)",
        tally.ratio(),
        tally.failed,
        tally.attempted
    );
    println!("sim_digest = {:016x}", sim_digest(&tally.reference));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
