//! Figure F11 — compile/execute split ablation.
//!
//! **Plan cache** — what does the lowering pipeline (flatten + fusion
//! \+ scheduling) cost per execution, and how much of it does the
//! fingerprint-keyed cache recover? Compares relowering on every call
//! (`program::lower`) with cached compilation (`program::compile`, hit
//! after the first call) — exactly the difference between
//! relower-every-shot and lower-once-execute-many for
//! `counts`/tomography/QEC-style repeated execution.
//!
//! (The scratch-arena section this figure used to carry measured a knob
//! that was retired as neutral; its table is kept in EXPERIMENTS.md.)
//!
//! `--smoke` shrinks sizes for CI: the point there is that the bin runs
//! and the JSON exists, not the absolute numbers.

use qclab_bench::{fmt_seconds, median_time, random_circuit, Table};
use qclab_core::prelude::*;
use qclab_core::program::{self, PlanOptions};
use std::hint::black_box;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &[8, 10] } else { &[12, 16, 20] };
    let layers = if smoke { 4 } else { 12 };
    let reps = if smoke { 20 } else { 200 };
    let runs = if smoke { 3 } else { 9 };

    let mut t = Table::new(
        "F11: plan cache ablation",
        &["section", "qubits", "config", "time", "speedup"],
    );
    let mut plan_ratios: Vec<f64> = Vec::new();

    for &n in sizes {
        let circuit = {
            let mut c = random_circuit(n, layers, 7);
            for q in 0..n {
                c.push_back(Measurement::z(q));
            }
            c
        };
        let popts = PlanOptions::default();

        // plan acquisition, relower vs cached
        let t_lower = median_time(runs, || {
            for _ in 0..reps {
                black_box(program::lower(&circuit, &popts));
            }
        }) / reps as f64;
        program::clear_plan_cache();
        black_box(program::compile(&circuit, &popts)); // prime the cache
        let t_cached = median_time(runs, || {
            for _ in 0..reps {
                black_box(program::compile(&circuit, &popts));
            }
        }) / reps as f64;
        let plan_ratio = t_lower / t_cached;
        plan_ratios.push(plan_ratio);
        t.row(&[
            "plan".into(),
            n.to_string(),
            "relower every run".into(),
            fmt_seconds(t_lower),
            "1.0x".into(),
        ]);
        t.row(&[
            "plan".into(),
            n.to_string(),
            "cached plan".into(),
            fmt_seconds(t_cached),
            format!("{plan_ratio:.1}x"),
        ]);
    }

    t.emit("BENCH_f11_plan_cache");
    let stats = program::plan_cache_stats();
    println!(
        "plan-cache counters: {} hit(s), {} miss(es), {} entries",
        stats.hits, stats.misses, stats.entries
    );
    println!(
        "cached plans are {:.0}-{:.0}x cheaper to acquire than relowering",
        plan_ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        plan_ratios.iter().cloned().fold(0.0f64, f64::max),
    );
}
