//! Table 4 — qualitative comparison of ten representative DDP models.
//!
//! Every attribute is derived from the model semantics by
//! [`ddp_core::ModelTraits::derive`]; the unit tests in `ddp-core` assert
//! the derivation matches the paper's rows exactly. This binary prints the
//! table (and, with `--json PATH`, emits each derived row as a JSON-lines
//! record — no simulations run here).

use ddp_core::{Level, ModelTraits};
use ddp_harness::{Column, FieldValue, Harness};

fn arrow(level: Level) -> &'static str {
    match level {
        Level::High => "high",
        Level::Medium => "med",
        Level::Low => "low",
    }
}

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn traits_row(index: usize, row: &ModelTraits) -> [Column<'static>; 14] {
    use FieldValue::{Bool, Str, U64};
    [
        ("index", U64(index as u64)),
        ("label", Str(row.model.to_string().into())),
        ("consistency", Str(row.model.consistency.to_string().into())),
        ("persistency", Str(row.model.persistency.to_string().into())),
        ("durability", Str(arrow(row.durability).into())),
        ("writes_optimized", Bool(row.writes_optimized)),
        ("reads_optimized", Bool(row.reads_optimized)),
        ("traffic", Str(arrow(row.traffic).into())),
        ("performance", Str(arrow(row.performance).into())),
        ("monotonic_reads", Bool(row.monotonic_reads)),
        ("non_stale_reads", Bool(row.non_stale_reads)),
        ("intuitiveness", Str(arrow(row.intuitiveness).into())),
        ("programmability", Str(arrow(row.programmability).into())),
        ("implementability", Str(arrow(row.implementability).into())),
    ]
}

fn main() {
    let mut harness = Harness::from_env("table4");
    println!("Table 4: comparing different DDP models (derived from model semantics)\n");
    println!(
        "{:<34} {:>5} | {:>3} {:>3} {:>5} {:>5} | {:>5} {:>5} {:>5} | {:>5} {:>5}",
        "Model", "Dura", "Wr", "Rd", "Traf", "Perf", "Monot", "NonSt", "Intui", "Progr", "Imple"
    );
    println!("{}", "-".repeat(100));
    for (i, row) in ModelTraits::table4().iter().enumerate() {
        println!(
            "{:<34} {:>5} | {:>3} {:>3} {:>5} {:>5} | {:>5} {:>5} {:>5} | {:>5} {:>5}",
            row.model.to_string(),
            arrow(row.durability),
            mark(row.writes_optimized),
            mark(row.reads_optimized),
            arrow(row.traffic),
            arrow(row.performance),
            mark(row.monotonic_reads),
            mark(row.non_stale_reads),
            arrow(row.intuitiveness),
            arrow(row.programmability),
            arrow(row.implementability),
        );
        harness.emit_json_row(traits_row(i, row));
    }
    println!("\ncolumns: durability | writes/reads optimized, traffic, overall performance |");
    println!("         monotonic reads, non-stale reads, intuitiveness | programmability, implementability");
    harness.finish();
}
