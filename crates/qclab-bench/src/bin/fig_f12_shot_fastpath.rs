//! Figure F12 — shot-execution fast-path ablation.
//!
//! Two questions, one per section of the table:
//!
//! 1. **One table, many draws** — for the dominant workload shape
//!    (unitary circuit + terminal measurements, no noise), what does
//!    drawing all shots from the one-time table of the measured-qubit
//!    marginal save over evolving the state per shot? Sharing costs
//!    `O(2^n·gates + shots·n)` against `O(shots·2^n·gates)` without, so
//!    the gap widens with both `n` and the shot count. Both legs draw
//!    the same records (`fast_path` never changes a count), which this
//!    bin asserts.
//! 2. **Prefix forking** — with readout noise only, the deterministic
//!    gate prefix is evolved once and every shot forks from the
//!    snapshot. The fork is exact: the per-shot `(seed, shot)` RNG
//!    streams are untouched, so counts are bit-identical to the plain
//!    engine — which this bin asserts, not just benchmarks.
//!
//! The table row is timed twice. **Cold**: the plan cache is cleared
//! before every repetition, so the run lowers, evolves the prefix and
//! builds its table — what a one-shot process pays, and what the row
//! meant before plans retained sampled preparations. **Warm**: repeated
//! runs over one cached plan, which find the table on the plan (when it
//! fits the retention cap — the row says whether it did) and pay for
//! the shots only. The asserted ratio is against the cold row. A forked
//! run retains nothing, so the fork section has one fast-path row.
//!
//! `--smoke` shrinks sizes for CI; the fast-path-taken assertions still
//! run there, so CI proves the dispatch fires, not just that the bin
//! exits.

use qclab_bench::{fmt_seconds, median_time, random_circuit, Table};
use qclab_core::prelude::*;
use qclab_core::program::clear_plan_cache;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};
use std::hint::black_box;

/// Unitary random circuit with every qubit measured at the end — the
/// `counts`-style sampling workload the shared table targets.
fn sample_only_circuit(n: usize, layers: usize) -> QCircuit {
    let mut c = random_circuit(n, layers, 7);
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    c
}

fn config(shots: u64, noise: NoiseSpec, fast_path: bool) -> TrajectoryConfig {
    TrajectoryConfig {
        shots,
        seed: 11,
        noise,
        fast_path,
        ..TrajectoryConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 10 } else { 16 };
    let layers = if smoke { 4 } else { 8 };
    let shots: u64 = if smoke { 256 } else { 4096 };
    let runs = if smoke { 1 } else { 3 };

    let mut t = Table::new(
        "F12: shot-execution fast paths (shared terminal table + prefix forking)",
        &["section", "qubits", "config", "time", "speedup"],
    );

    // -- section 1: terminal measurements drawn from one table --------
    let circuit = sample_only_circuit(n, layers);
    let fast = run_trajectories(&circuit, &config(shots, NoiseSpec::default(), true)).unwrap();
    assert!(
        matches!(fast.path(), ShotPath::AliasSampled { .. }),
        "sample-only circuit must draw from the shared table, got {}",
        fast.path()
    );
    // exactness: sharing the evolution must not change a single count
    let slow = run_trajectories(&circuit, &config(shots, NoiseSpec::default(), false)).unwrap();
    assert_eq!(
        fast.counts(),
        slow.counts(),
        "table-drawn counts diverged from the per-shot engine"
    );
    let t_per_shot = median_time(runs, || {
        black_box(run_trajectories(&circuit, &config(shots, NoiseSpec::default(), false)).unwrap());
    });
    let t_table = median_time(runs, || {
        clear_plan_cache();
        black_box(run_trajectories(&circuit, &config(shots, NoiseSpec::default(), true)).unwrap());
    });
    // reported, not asserted (at n = 16 the table is half the
    // retention cap)
    let mut warm_hit = true;
    let t_table_warm = median_time(runs, || {
        let r = run_trajectories(&circuit, &config(shots, NoiseSpec::default(), true)).unwrap();
        warm_hit &= r.prep_hit();
        black_box(r);
    });
    let table_ratio = t_per_shot / t_table;
    t.row(&[
        "table".into(),
        n.to_string(),
        format!("per-shot ({shots} shots)"),
        fmt_seconds(t_per_shot),
        "1.0x".into(),
    ]);
    t.row(&[
        "table".into(),
        n.to_string(),
        format!("shared table, cold ({shots} shots)"),
        fmt_seconds(t_table),
        format!("{table_ratio:.1}x"),
    ]);
    t.row(&[
        "table".into(),
        n.to_string(),
        format!("shared table, warm plan ({shots} shots, prep_hit={warm_hit})"),
        fmt_seconds(t_table_warm),
        format!("{:.1}x", t_per_shot / t_table_warm),
    ]);
    if !smoke {
        assert!(
            table_ratio >= 10.0,
            "the shared table must be >= 10x over per-shot at n={n}, measured {table_ratio:.1}x"
        );
    }

    // -- section 2: deterministic-prefix forking under readout noise ---
    let readout = NoiseSpec {
        before_measure: Some(PauliChannel::BitFlip(0.02)),
        ..NoiseSpec::default()
    };
    let forked = run_trajectories(&circuit, &config(shots, readout, true)).unwrap();
    assert!(
        matches!(forked.path(), ShotPath::Forked { .. }),
        "readout-noise run must fork from the prefix snapshot, got {}",
        forked.path()
    );
    let t_unforked = median_time(runs, || {
        black_box(run_trajectories(&circuit, &config(shots, readout, false)).unwrap());
    });
    let t_forked = median_time(runs, || {
        black_box(run_trajectories(&circuit, &config(shots, readout, true)).unwrap());
    });
    // exactness: forking must not change a single count
    let unforked = run_trajectories(&circuit, &config(shots, readout, false)).unwrap();
    assert_eq!(
        forked.counts(),
        unforked.counts(),
        "forked counts diverged from the per-shot engine"
    );
    assert_eq!(forked.injected_errors(), unforked.injected_errors());
    let fork_ratio = t_unforked / t_forked;
    t.row(&[
        "fork".into(),
        n.to_string(),
        format!("per-shot ({shots} shots, readout noise)"),
        fmt_seconds(t_unforked),
        "1.0x".into(),
    ]);
    t.row(&[
        "fork".into(),
        n.to_string(),
        format!("forked prefix ({shots} shots, readout noise)"),
        fmt_seconds(t_forked),
        format!("{fork_ratio:.1}x"),
    ]);

    t.emit("BENCH_f12_shot_fastpath");
    println!(
        "drawing from one table is {table_ratio:.1}x over per-shot evolution at n={n}/{shots} shots \
         (cold; {:.1}x on a warm plan);\n\
         prefix forking is {fork_ratio:.1}x with readout noise, with bit-identical counts",
        t_per_shot / t_table_warm
    );
}
