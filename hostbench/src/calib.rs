//! Host-speed calibration.
//!
//! On a shared host the same code can run up to about 1.8 times slower for
//! seconds at a time while a neighbour loads the core. Every host time in
//! a cell moves with that factor, so the benchmark times a fixed kernel of
//! its own right before and right after each cell, and scales the cell's
//! timings to the speed the kernel has on the reference host. The kernel
//! mixes the work the simulator does: `powf` (workload setup), random
//! read-modify-write over a table larger than L1 (stores, caches, queues)
//! and ordered-map inserts with allocation (the protocol's maps).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on the reference host (x86_64, 2 vCPUs)
/// when no neighbour contends for the core.
pub const REFERENCE_S: f64 = 0.000_9;

const TABLE_WORDS: usize = 1 << 17;

thread_local! {
    // Allocated and touched once per thread, so no kernel run pays page
    // faults.
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; TABLE_WORDS]);
}

/// The kernel's host seconds: the median of three runs, so one run cut by
/// a context switch does not set a cell's scale.
pub fn kernel_s() -> f64 {
    let mut runs = [kernel_once(), kernel_once(), kernel_once()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn kernel_once() -> f64 {
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let started = Instant::now();
        let mut zeta = 0.0;
        for i in 1..=8_000u32 {
            zeta += 1.0 / black_box(f64::from(i)).powf(0.99);
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..160_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x as usize) & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_mul(x | 1).rotate_left(7);
        }
        let mut map = BTreeMap::new();
        for i in 0..4_000u64 {
            map.insert(x.wrapping_mul(i + 1) >> 40, i);
        }
        black_box((zeta, map.len(), &*table));
        started.elapsed().as_secs_f64()
    })
}
