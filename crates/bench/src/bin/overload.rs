//! Open-loop overload sweep — goodput knees and tail behavior of the 25
//! DDP models under saturation, with and without admission control.
//!
//! Part 1 probes each model's closed-loop capacity (the service rate the
//! protocol sustains with the configured client pool); the open-loop
//! offered-load axis is expressed in multiples of that capacity, so every
//! model is pushed through its own knee rather than an arbitrary fixed
//! rate.
//!
//! Part 2 sweeps offered load across the knee with the default bounded
//! admission queue (load shedding + client retry), printing goodput
//! retention relative to capacity and the shed fraction at each point.
//!
//! Part 3 contrasts the top load point under admission control against an
//! unbounded queue: the bounded configuration holds its tail (p99/p999)
//! flat and sheds the excess, while the unbounded queue accepts
//! everything and pays with a divergent tail and queue depth.
//!
//! Part 4 holds the long-run mean rate at the knee and compresses the
//! arrivals into MMPP bursts (`--burst B1,B2,…` ratios; burst phase runs
//! at `B` times the quiet rate): burst phases overflow the admission
//! queues at mean rates the Poisson twin survives, so models near the
//! knee start shedding while already-saturated models trade shed for the
//! quiet-phase drain.
//!
//! Part 5 explains the knee with the windowed timeline: for every model
//! it re-runs the lowest load point and the knee point with per-window
//! metrics on, and reports the first phase whose per-window share of the
//! latency budget saturates (reaches its knee-run peak) — the phase that
//! bends the curve — plus a burst-anatomy table contrasting MMPP burst
//! windows against quiet windows.
//!
//! `--load R1,R2,…` overrides the capacity multipliers; `--burst
//! B1,B2,…` overrides the burst ratios; `--seeds N` replicates the
//! overload sweep and prints goodput as mean ±stddev.

use ddp_core::{ClusterConfig, DdpModel, OpenLoopPlan, TimelineWindow};
use ddp_harness::{print_rule, ratio, run_sweep, Harness, Sweep};
use ddp_sim::Duration;

/// Default offered-load points, as multiples of each model's measured
/// closed-loop capacity: three below/at the knee, two past it.
const LOAD_MULTIPLIERS: [f64; 5] = [0.5, 0.8, 1.1, 1.5, 2.5];

/// Default MMPP burst ratio for Part 4 (burst phase at 4x the quiet rate).
const BURST_RATIOS: [f64; 1] = [4.0];

/// Mean dwell in each MMPP phase: long enough for a burst to fill the
/// admission queues, short enough for many phase switches per window.
const BURST_DWELL: Duration = Duration::from_micros(20);

fn probe_config(model: DdpModel) -> ClusterConfig {
    // Closed-loop capacity probe: same cluster, no arrival process.
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 300;
    cfg.measured_requests = 3_000;
    cfg
}

fn open_config(model: DdpModel, plan: OpenLoopPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).with_open_loop(plan);
    cfg.warmup_requests = 300;
    cfg.measured_requests = 3_000;
    cfg
}

/// The six phase names of the timeline breakdown, in window-field order.
const PHASE_NAMES: [&str; 6] = [
    "service",
    "queue",
    "network",
    "persist_stall",
    "nvm_queue",
    "read_stall",
];

/// One window's phase totals, in [`PHASE_NAMES`] order.
fn phase_ns(w: &TimelineWindow) -> [u64; 6] {
    [
        w.service_ns,
        w.queue_ns,
        w.network_ns,
        w.persist_stall_ns,
        w.nvm_queue_ns,
        w.read_stall_ns,
    ]
}

/// A part-5 config: the open-loop run with the timeline enabled, the
/// window width sized so the expected measured interval spans a few dozen
/// windows regardless of the model's absolute rate.
fn timeline_config(
    model: DdpModel,
    plan: OpenLoopPlan,
    capacity: f64,
    quick: bool,
) -> ClusterConfig {
    let mut cfg = open_config(model, plan);
    if quick {
        cfg = cfg.quick();
    }
    let expected_ns = (cfg.measured_requests as f64 / capacity * 1e9) as u64;
    let window = (expected_ns / 32).clamp(1_000, 10_000_000);
    cfg.trace = cfg.trace.with_timeline(Duration::from_nanos(window));
    cfg
}

/// Whole-run share of each phase across a window list (0.0 everywhere
/// when no phase time was recorded).
fn aggregate_shares(windows: &[TimelineWindow]) -> [f64; 6] {
    let mut totals = [0u64; 6];
    for w in windows {
        for (t, p) in totals.iter_mut().zip(phase_ns(w)) {
            *t += p;
        }
    }
    let sum: u64 = totals.iter().sum();
    if sum == 0 {
        return [0.0; 6];
    }
    totals.map(|t| t as f64 / sum as f64)
}

/// The knee attribution for one model: the first phase whose per-window
/// share of the latency budget reaches 90% of its knee-run peak, among
/// the phases that grew (share up by > 2 points vs the baseline run).
/// Returns `(phase index, window index, share at that window)`.
fn first_saturating_phase(
    knee_windows: &[TimelineWindow],
    baseline_share: &[f64; 6],
) -> Option<(usize, usize, f64)> {
    // Per-window shares; windows with no phase time carry no signal.
    let shares: Vec<[f64; 6]> = knee_windows
        .iter()
        .map(|w| {
            let total = w.phase_total_ns();
            if total == 0 {
                [0.0; 6]
            } else {
                phase_ns(w).map(|p| p as f64 / total as f64)
            }
        })
        .collect();
    let mut best: Option<(usize, usize, f64, f64)> = None; // (phase, window, share, delta)
    for p in 0..6 {
        let peak = shares.iter().map(|s| s[p]).fold(0.0_f64, f64::max);
        let delta = peak - baseline_share[p];
        if delta <= 0.02 {
            continue; // the phase never grew past its off-knee share
        }
        let Some(at) = shares.iter().position(|s| s[p] >= 0.9 * peak) else {
            continue;
        };
        let better = match best {
            None => true,
            // Earliest saturation wins; ties go to the larger growth.
            Some((_, w, _, d)) => at < w || (at == w && delta > d),
        };
        if better {
            best = Some((p, at, shares[at][p], delta));
        }
    }
    best.map(|(p, w, s, _)| (p, w, s))
}

fn main() {
    let mut harness = Harness::from_env("overload");
    let loads: Vec<f64> = if harness.args().load.is_empty() {
        LOAD_MULTIPLIERS.to_vec()
    } else {
        harness.args().load.clone()
    };
    let seeds = harness.args().seeds;
    println!("Open-loop overload sweep: 25 DDP models across the saturation knee\n");

    // Part 1: closed-loop capacity per model anchors the offered-load axis.
    let capacity_records = harness.run(Sweep::grid25(probe_config));
    println!("Part 1 - closed-loop capacity (the service rate the pool sustains)");
    println!("{:<28} {:>12} {:>12}", "model", "cap(req/s)", "mean(ns)");
    print_rule(3);
    for model in DdpModel::all() {
        let s = &capacity_records[model.grid_index()].summary;
        println!(
            "{:<28} {:>12.3e} {:>12.0}",
            model.to_string(),
            s.throughput,
            s.mean_access_ns
        );
    }

    // Part 2 grid: model-major, load-minor, bounded admission queue with
    // the default retry budget. Offered rates scale off part 1, so the
    // same multiplier stresses every model equally.
    let mut bounded_sweep = Sweep::new();
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        for mult in &loads {
            let offered = capacity * mult;
            bounded_sweep.push(
                format!("{model} x{mult}"),
                open_config(model, OpenLoopPlan::poisson(offered)),
            );
        }
    }
    let cells = bounded_sweep.len();
    let (bounded_records, bounded_agg) = harness.run_seeded(bounded_sweep);
    let stride = loads.len();
    // Aggregates are per-cell regardless of --seeds; with one seed they
    // degenerate to the single run's values.
    assert_eq!(bounded_agg.len(), cells);

    println!("\nPart 2 - bounded admission queue (goodput / capacity, shed at top load)");
    if seeds > 1 {
        println!("({seeds} seeds per cell; goodput ratios are means across seeds)");
    }
    print!("{:<28}", "model");
    for mult in &loads {
        print!(" {:>8}", format!("x{mult}"));
    }
    println!(" {:>8} {:>9}", "shed%", "p999(ns)");
    print_rule(6);
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        let row = &bounded_agg[model.grid_index() * stride..(model.grid_index() + 1) * stride];
        print!("{:<28}", model.to_string());
        for cell in row {
            print!(" {:>8.2}", ratio(cell.throughput.mean, capacity));
        }
        let top = &row[stride - 1];
        println!(
            " {:>8.1} {:>9.0}",
            top.shed_rate.mean * 100.0,
            top.p999_write_ns.mean
        );
    }

    // Knee check: past saturation, admission control must keep goodput
    // near the measured capacity instead of collapsing.
    let mut knee_failures = 0;
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        let row = &bounded_agg[model.grid_index() * stride..(model.grid_index() + 1) * stride];
        let peak = row
            .iter()
            .map(|c| c.throughput.mean)
            .fold(0.0_f64, f64::max);
        let top = row[stride - 1].throughput.mean;
        if top < 0.8 * peak {
            knee_failures += 1;
            eprintln!(
                "[overload] WARN {model}: goodput past the knee fell to {:.2} of peak \
                 (top {top:.3e}, peak {peak:.3e}, capacity {capacity:.3e})",
                top / peak
            );
        }
    }

    // Part 3 grid: the top load point again, with the queue unbounded and
    // retries off — every arrival is accepted and waits.
    let top_mult = loads.last().copied().unwrap_or(2.5);
    let mut unbounded_sweep = Sweep::new();
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        unbounded_sweep.push(
            format!("{model} x{top_mult} unbounded"),
            open_config(
                model,
                OpenLoopPlan::poisson(capacity * top_mult)
                    .with_queue_capacity(None)
                    .with_retries(0),
            ),
        );
    }
    let (unbounded_records, unbounded_agg) = harness.run_seeded(unbounded_sweep);

    println!("\nPart 3 - x{top_mult} offered load: admission control vs unbounded queue");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "model", "b.p99", "b.p999", "u.p99", "u.p999", "u/b", "u.maxq"
    );
    print_rule(7);
    for model in DdpModel::all() {
        let bounded = &bounded_agg[model.grid_index() * stride + (stride - 1)];
        let unbounded = &unbounded_agg[model.grid_index()];
        // p99 and the peak queue depth live on the per-seed records, not
        // the aggregate; read replica 0's record for those columns.
        let b_rec = &bounded_records[model.grid_index() * stride + (stride - 1)];
        let u_rec = &unbounded_records[model.grid_index()];
        println!(
            "{:<28} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>8.1} {:>8}",
            model.to_string(),
            b_rec.summary.p99_write_ns,
            bounded.p999_write_ns.mean,
            u_rec.summary.p99_write_ns,
            unbounded.p999_write_ns.mean,
            ratio(unbounded.p999_write_ns.mean, bounded.p999_write_ns.mean),
            u_rec.summary.max_admission_queue
        );
    }

    // Part 4 grid: hold the mean rate at the knee, compress the arrivals
    // into MMPP bursts. Knee = the smallest load multiplier at or past
    // capacity (falls back to the top point when all are below it).
    let bursts: Vec<f64> = if harness.args().burst.is_empty() {
        BURST_RATIOS.to_vec()
    } else {
        harness.args().burst.clone()
    };
    let knee_mult = loads
        .iter()
        .copied()
        .find(|&m| m >= 1.0)
        .unwrap_or(top_mult);
    let knee_pos = loads
        .iter()
        .position(|&m| m == knee_mult)
        .unwrap_or(stride - 1);
    let mut burst_sweep = Sweep::new();
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        for &b in &bursts {
            let mut plan = OpenLoopPlan::poisson(capacity * knee_mult);
            if b > 1.0 {
                plan = plan.with_burst(b, BURST_DWELL);
            }
            burst_sweep.push(
                format!("{model} x{knee_mult} burst{b}"),
                open_config(model, plan),
            );
        }
    }
    let (_, burst_agg) = harness.run_seeded(burst_sweep);
    let burst_stride = bursts.len();

    println!(
        "\nPart 4 - MMPP bursts at x{knee_mult} offered load (same mean rate, bursty arrivals)"
    );
    print!("{:<28} {:>8} {:>9}", "model", "poi.shed", "poi.p999");
    for b in &bursts {
        print!(" {:>8} {:>9}", format!("b{b}.shed"), format!("b{b}.p999"));
    }
    println!();
    print_rule(2 + 2 * burst_stride);
    for model in DdpModel::all() {
        let poisson = &bounded_agg[model.grid_index() * stride + knee_pos];
        print!(
            "{:<28} {:>8.1} {:>9.0}",
            model.to_string(),
            poisson.shed_rate.mean * 100.0,
            poisson.p999_write_ns.mean
        );
        let row =
            &burst_agg[model.grid_index() * burst_stride..(model.grid_index() + 1) * burst_stride];
        for cell in row {
            print!(
                " {:>8.1} {:>9.0}",
                cell.shed_rate.mean * 100.0,
                cell.p999_write_ns.mean
            );
        }
        println!();
    }

    // Part 5: explain the knee with the windowed timeline. Per model,
    // three instrumented runs — the lowest load point (reference shares),
    // the knee (attribution), and the knee compressed into MMPP bursts
    // (anatomy) — in model-major order: trial 3k is model k's baseline,
    // 3k+1 its knee run, 3k+2 its burst run.
    let base_mult = loads.first().copied().unwrap_or(0.5);
    let burst_ratio = bursts.first().copied().unwrap_or(BURST_RATIOS[0]);
    let quick = harness.args().quick;
    let mut explain_sweep = Sweep::new();
    for model in DdpModel::all() {
        let capacity = capacity_records[model.grid_index()].summary.throughput;
        explain_sweep.push(
            format!("{model} x{base_mult} timeline"),
            timeline_config(
                model,
                OpenLoopPlan::poisson(capacity * base_mult),
                capacity,
                quick,
            ),
        );
        explain_sweep.push(
            format!("{model} x{knee_mult} timeline"),
            timeline_config(
                model,
                OpenLoopPlan::poisson(capacity * knee_mult),
                capacity,
                quick,
            ),
        );
        let mut plan = OpenLoopPlan::poisson(capacity * knee_mult);
        if burst_ratio > 1.0 {
            plan = plan.with_burst(burst_ratio, BURST_DWELL);
        }
        explain_sweep.push(
            format!("{model} x{knee_mult} burst{burst_ratio} timeline"),
            timeline_config(model, plan, capacity, quick),
        );
    }
    let explain = run_sweep("overload", explain_sweep, harness.args().threads);

    println!("\nPart 5 - knee attribution (first phase whose per-window share saturates at x{knee_mult})");
    println!(
        "{:<28} {:>14} {:>7} {:>9} {:>9}",
        "model", "phase", "window", "share", "base"
    );
    print_rule(5);
    for model in DdpModel::all() {
        let base_dump = explain[model.grid_index() * 3].timelines.first();
        let knee_dump = explain[model.grid_index() * 3 + 1].timelines.first();
        let (Some(base_dump), Some(knee_dump)) = (base_dump, knee_dump) else {
            println!("{:<28} {:>14}", model.to_string(), "(no timeline)");
            continue;
        };
        let baseline_share = aggregate_shares(&base_dump.windows);
        match first_saturating_phase(&knee_dump.windows, &baseline_share) {
            Some((p, w, share)) => println!(
                "{:<28} {:>14} {:>7} {:>8.1}% {:>8.1}%",
                model.to_string(),
                PHASE_NAMES[p],
                w,
                share * 100.0,
                baseline_share[p] * 100.0
            ),
            None => println!(
                "{:<28} {:>14} {:>7} {:>9} {:>9}",
                model.to_string(),
                "(none grew)",
                "-",
                "-",
                "-"
            ),
        }
    }

    println!(
        "\nPart 5b - burst anatomy at x{knee_mult}, burst ratio {burst_ratio} \
         (windows split at the mean arrival count)"
    );
    println!(
        "{:<28} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>14}",
        "model", "b.win", "q.win", "b.shed", "q.shed", "b.admq", "q.admq", "b.phase"
    );
    print_rule(8);
    for model in DdpModel::all() {
        let Some(dump) = explain[model.grid_index() * 3 + 2].timelines.first() else {
            println!("{:<28} {:>6}", model.to_string(), "-");
            continue;
        };
        let windows = &dump.windows;
        if windows.is_empty() {
            println!("{:<28} {:>6}", model.to_string(), "-");
            continue;
        }
        let mean_arrivals =
            windows.iter().map(|w| w.ol_arrivals).sum::<u64>() as f64 / windows.len() as f64;
        let (mut b, mut q) = (Vec::new(), Vec::new());
        for w in windows {
            if w.ol_arrivals as f64 > mean_arrivals {
                b.push(w);
            } else {
                q.push(w);
            }
        }
        let shed = |ws: &[&TimelineWindow]| ws.iter().map(|w| w.ol_shed).sum::<u64>();
        let admq = |ws: &[&TimelineWindow]| {
            if ws.is_empty() {
                0.0
            } else {
                ws.iter().map(|w| w.admission_queue).sum::<u64>() as f64 / ws.len() as f64
            }
        };
        // Dominant phase across the burst windows.
        let mut totals = [0u64; 6];
        for w in &b {
            for (t, p) in totals.iter_mut().zip(phase_ns(w)) {
                *t += p;
            }
        }
        let dominant = totals
            .iter()
            .enumerate()
            .max_by_key(|(_, &t)| t)
            .map_or("-", |(i, &t)| if t == 0 { "-" } else { PHASE_NAMES[i] });
        println!(
            "{:<28} {:>6} {:>6} {:>8} {:>8} {:>8.1} {:>8.1} {:>14}",
            model.to_string(),
            b.len(),
            q.len(),
            shed(&b),
            shed(&q),
            admq(&b),
            admq(&q),
            dominant
        );
    }

    println!(
        "\ntakeaway: past the saturation knee a bounded admission queue sheds the\n\
         excess and holds goodput near capacity with a flat tail; an unbounded\n\
         queue sheds nothing, so its backlog -- and every request's queue wait --\n\
         grows with the run and the p999 tail diverges; and compressing the same\n\
         mean rate into bursts overflows the admission queues at loads the\n\
         Poisson twin survives."
    );
    if knee_failures > 0 {
        eprintln!("[overload] {knee_failures} model(s) lost >20% of peak goodput past the knee");
    }
    harness.finish();
}
