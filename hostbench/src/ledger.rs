//! The traced pass: each cell is re-run with the benchmark's own timers
//! around the layers' public constructors, and the layers' hot calls are
//! replayed at the cell's own counts. Nothing is added inside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ddp_core::ReplicaStore;
use ddp_harness::Trial;
use ddp_mem::MemoryController;
use ddp_net::{Fabric, NodeId, RdmaKind};
use ddp_sim::{Duration, SimTime};
use ddp_workload::{ClientId, ClientPool, OpKind, Request, Zipfian};

use crate::calib::{kernel_s, REFERENCE_S};
use crate::cell::{run_cell_guarded, CellRun};
use crate::workloads::{row_name, Workload};

/// One traced cell: the cell's own run plus the sub-call timings, in
/// seconds at the reference host speed.
#[derive(Debug)]
pub struct CellLedger {
    pub cell: CellRun,
    pub row: &'static str,
    pub nodes: u64,
    pub zipf_s: f64,
    pub pool_s: f64,
    pub controller_s: f64,
    pub fabric_s: f64,
    pub stream_s: f64,
    pub puts: u64,
    pub put_s: f64,
    pub gets: u64,
    pub get_s: f64,
    pub persist_s: f64,
    pub send_s: f64,
}

pub fn trace_cell(workload: Workload, trial: &Trial) -> CellLedger {
    let cfg = &trial.cfg;
    let spec = &cfg.workload;
    let nodes = u64::from(cfg.nodes);
    let before = kernel_s();

    // Construction, layer by layer, outside `Simulation::new`.
    let t = Instant::now();
    if let Some(theta) = spec.zipf_theta {
        black_box(Zipfian::new(spec.key_space, theta));
    }
    let zipf_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut pool = ClientPool::new(spec, cfg.clients, cfg.nodes, cfg.seed);
    let pool_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..nodes {
        black_box(MemoryController::new(cfg.memory));
    }
    let controller_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(Fabric::new(usize::from(cfg.nodes), cfg.network));
    let fabric_s = t.elapsed().as_secs_f64();

    let cell = run_cell_guarded(workload, trial);

    // The cell's own request stream, drawn round-robin over its clients.
    let total = cell.requests.max(1);
    let clients = cfg.clients.max(1);
    let t = Instant::now();
    let stream: Vec<Request> = (0..total)
        .map(|i| {
            pool.client_mut(ClientId((i % u64::from(clients)) as u32))
                .next_request()
        })
        .collect();
    let stream_s = t.elapsed().as_secs_f64();

    let (puts, put_s, gets, get_s) = replay_store(trial, &stream);
    let counts = cell.counts;
    let span_ns = counts.measured_ns.max(1);
    let persist_s = replay_persists(trial, &stream, counts.persists, span_ns);
    let bytes = counts
        .network_bytes
        .checked_div(counts.messages)
        .unwrap_or(64);
    let send_s = replay_sends(trial, counts.messages, bytes, span_ns);

    // The cell's own timings are already scaled to the reference speed.
    let scale = REFERENCE_S / ((before + kernel_s()) / 2.0);
    CellLedger {
        cell,
        row: row_name(cfg.model.consistency),
        nodes,
        zipf_s: zipf_s * scale,
        pool_s: pool_s * scale,
        controller_s: controller_s * scale,
        fabric_s: fabric_s * scale,
        stream_s: stream_s * scale,
        puts,
        put_s: put_s * scale,
        gets,
        get_s: get_s * scale,
        persist_s: persist_s * scale,
        send_s: send_s * scale,
    }
}

/// Writes then reads the stream's keys through the cell's store backend:
/// writes on an empty store in stream order (draining LSM work as the
/// cluster does), then reads against the populated store.
fn replay_store(trial: &Trial, stream: &[Request]) -> (u64, f64, u64, f64) {
    let cfg = &trial.cfg;
    let mut store = ReplicaStore::with_compaction(
        cfg.store,
        cfg.compaction.memtable_entries as usize,
        cfg.compaction.fanout as usize,
    );
    let (writes, reads): (Vec<u64>, Vec<u64>) = {
        let (w, r): (Vec<&Request>, Vec<&Request>) =
            stream.iter().partition(|r| r.op == OpKind::Write);
        (
            w.iter().map(|r| r.key).collect(),
            r.iter().map(|r| r.key).collect(),
        )
    };
    let t = Instant::now();
    for (version, &key) in (1u64..).zip(&writes) {
        store.state_mut(key).visible = version;
        if store.has_compaction_work() {
            black_box(store.take_compaction_work());
        }
    }
    let put_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &key in &reads {
        black_box(store.state(key));
    }
    let get_s = t.elapsed().as_secs_f64();
    (writes.len() as u64, put_s, reads.len() as u64, get_s)
}

/// `MemoryController::persist` at the cell's measured persist count,
/// spread evenly over the cell's measured simulated span and round-robin
/// over one controller per node, as the cluster issues them.
fn replay_persists(trial: &Trial, stream: &[Request], count: u64, span_ns: u64) -> f64 {
    let cfg = &trial.cfg;
    let mut mems: Vec<MemoryController> = (0..cfg.nodes)
        .map(|_| MemoryController::new(cfg.memory))
        .collect();
    let nodes = mems.len();
    let step = (span_ns / count.max(1)).max(1);
    let bytes = u64::from(cfg.workload.value_bytes);
    let t = Instant::now();
    for (i, r) in (0..count).zip(stream.iter().cycle()) {
        let mem = &mut mems[i as usize % nodes];
        black_box(mem.persist(SimTime::from_nanos(i * step), r.key << 6, bytes));
    }
    t.elapsed().as_secs_f64()
}

/// `Fabric::unicast` at the cell's measured message count and mean size,
/// cycling over every ordered node pair.
fn replay_sends(trial: &Trial, count: u64, bytes: u64, span_ns: u64) -> f64 {
    let nodes = u64::from(trial.cfg.nodes);
    if nodes < 2 {
        return 0.0;
    }
    let mut fabric = Fabric::new(nodes as usize, trial.cfg.network);
    let step = (span_ns / count.max(1)).max(1);
    let t = Instant::now();
    for i in 0..count {
        let from = i % nodes;
        let to = (from + 1 + (i / nodes) % (nodes - 1)) % nodes;
        let now = SimTime::ZERO + Duration::from_nanos(i * step);
        black_box(fabric.unicast(
            now,
            NodeId(from as u8),
            NodeId(to as u8),
            bytes,
            RdmaKind::Send,
        ));
    }
    t.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Folds the traced cells into the per-layer metrics (the ones that need
/// the untraced pass are added by the caller).
pub fn layer_metrics(cells: &[CellLedger]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let n = cells.len() as f64;
    let sum = |f: &dyn Fn(&CellLedger) -> f64| cells.iter().map(f).sum::<f64>();
    let nodes = sum(&|c| c.nodes as f64);
    let requests = sum(&|c| c.cell.requests as f64);
    let measured = sum(&|c| c.cell.counts.measured() as f64);
    let writes = sum(&|c| c.cell.counts.writes as f64);
    let has_zipf = cells.iter().filter(|c| c.zipf_s > 0.0).count() as f64;

    m.insert(
        "workload.client_pool_ms".into(),
        ratio(sum(&|c| c.pool_s) * 1e3, n),
    );
    m.insert(
        "workload.zipf_new_ms".into(),
        ratio(sum(&|c| c.zipf_s) * 1e3, has_zipf),
    );
    m.insert(
        "workload.request_ns".into(),
        ratio(sum(&|c| c.stream_s) * 1e9, requests),
    );
    m.insert(
        "mem.controller_new_ms".into(),
        ratio(sum(&|c| c.controller_s) * 1e3, nodes),
    );
    m.insert(
        "net.fabric_new_ms".into(),
        ratio(sum(&|c| c.fabric_s) * 1e3, n),
    );
    let other = sum(&|c| c.cell.setup_s - c.pool_s - c.controller_s - c.fabric_s);
    m.insert("core.setup_other_ms".into(), ratio(other * 1e3, n));

    for row in ["lin", "re", "txn", "causal", "eventual"] {
        let (run, reqs) = cells
            .iter()
            .filter(|c| c.row == row)
            .fold((0.0, 0.0), |(s, r), c| {
                (s + c.cell.run_s, r + c.cell.requests as f64)
            });
        m.insert(format!("core.run_ns_per_req.{row}"), ratio(run * 1e9, reqs));
    }

    let count = |f: &dyn Fn(&CellLedger) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    m.insert(
        "core.msgs_per_req".into(),
        ratio(count(&|c| c.cell.counts.messages), measured),
    );
    m.insert(
        "core.persists_per_req".into(),
        ratio(count(&|c| c.cell.counts.persists), measured),
    );
    let conflicted = count(&|c| c.cell.counts.txns_conflicted);
    m.insert(
        "core.txn_restarts_per_commit".into(),
        ratio(conflicted, count(&|c| c.cell.counts.txns_committed)),
    );
    m.insert(
        "core.txn_conflict_rate".into(),
        ratio(conflicted, count(&|c| c.cell.counts.txns_started)),
    );

    m.insert(
        "store.get_ns".into(),
        ratio(sum(&|c| c.get_s) * 1e9, count(&|c| c.gets)),
    );
    m.insert(
        "store.put_ns".into(),
        ratio(sum(&|c| c.put_s) * 1e9, count(&|c| c.puts)),
    );
    m.insert(
        "store.lsm_seals_per_kwrite".into(),
        ratio(count(&|c| c.cell.counts.lsm_seals) * 1e3, writes),
    );
    m.insert(
        "store.compaction_bytes_per_write".into(),
        ratio(count(&|c| c.cell.counts.compaction_bytes), writes),
    );

    let persists = count(&|c| c.cell.counts.persists);
    let messages = count(&|c| c.cell.counts.messages);
    m.insert(
        "mem.persist_ns".into(),
        ratio(sum(&|c| c.persist_s) * 1e9, persists),
    );
    m.insert(
        "net.send_ns".into(),
        ratio(sum(&|c| c.send_s) * 1e9, messages),
    );
    // The replays cover the measured window; scale them to the whole run
    // (warm-up plus measured) before comparing with the run time.
    let explained = sum(&|c| {
        let scale = ratio(c.cell.requests as f64, c.cell.counts.measured() as f64);
        (c.persist_s + c.send_s) * scale + c.put_s + c.get_s
    });
    let run = sum(&|c| c.cell.run_s);
    m.insert(
        "core.run_residual_share".into(),
        1.0 - ratio(explained, run),
    );

    m.insert(
        "export.record_us".into(),
        ratio(sum(&|c| c.cell.record_s) * 1e6, n),
    );
    m.insert(
        "export.trace_ns_per_event".into(),
        ratio(
            sum(&|c| c.cell.trace_s) * 1e9,
            count(&|c| c.cell.trace_events),
        ),
    );
    m.insert(
        "export.timeline_us_per_window".into(),
        ratio(
            sum(&|c| c.cell.timeline_s) * 1e6,
            count(&|c| c.cell.timeline_windows),
        ),
    );
    m.insert("export.mb".into(), count(&|c| c.cell.export_bytes) / 1e6);
    m
}
