//! Figure F15 — shot-batched trajectory dispatch over the bytecode
//! stream.
//!
//! **Shot-batched vs serial trajectory dispatch** on a noisy
//! rotation-heavy circuit at n >= 12: the serial engine (batch width 1)
//! replays the whole schedule for every shot, the batched engine
//! evolves the noiseless prefix shared by a batch of 64 lanes once and
//! forks each lane at its own first stochastic divergence (a pure
//! function of the lane's RNG stream — noise-site draws never consult
//! the state). The win therefore grows as the error rate drops: the
//! bench sweeps a heavy rate (p = 0.02, short shared prefixes) and a
//! hardware-realistic rate (p = 0.002, most of each shot is shared).
//! Counts and injected-error totals are asserted identical at every
//! width; the full run additionally demands the batched engine be >= 2x
//! at the realistic rate.
//!
//! (The dense dispatch-loop-vs-interpreter rows this figure used to
//! carry compared against an engine that was retired on their verdict;
//! the table is kept in EXPERIMENTS.md.)
//!
//! `--smoke` shrinks sizes for CI; every bit-identity assertion still
//! runs there, so CI proves the widths agree, not just that the bin
//! exits.

use qclab_bench::{fmt_seconds, median_time, Table};
use qclab_core::prelude::*;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};
use std::hint::black_box;

/// A deep rotation-heavy circuit on `n` qubits with terminal
/// measurements: until a noise draw fires, every shot of it follows the
/// same dense evolution — the shared prefix the batch engine amortizes.
fn rotation_chain(n: usize, layers: usize) -> QCircuit {
    let mut c = QCircuit::new(n);
    for rep in 0..layers {
        for q in 0..n {
            c.push_back(RotationX::new(q, 0.3 + 0.01 * (rep * n + q) as f64));
            c.push_back(RotationZ::new(q, 0.7 - 0.01 * (rep + q) as f64));
        }
        for q in 0..n - 1 {
            c.push_back(RotationZZ::new(q, q + 1, 0.2 + 0.01 * rep as f64));
        }
    }
    for q in 0..n {
        c.push_back(Measurement::z(q));
    }
    c
}

fn shot_config(p: f64, shots: u64, batch: usize) -> TrajectoryConfig {
    TrajectoryConfig {
        seed: 11,
        shots,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(p)),
            ..NoiseSpec::default()
        },
        fast_path: false,
        shot_batch: batch,
        ..TrajectoryConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut t = Table::new(
        "F15: shot-batched vs serial trajectories",
        &["workload", "config", "time", "speedup"],
    );
    let runs = if smoke { 1 } else { 5 };

    let tn = 12;
    let tlayers = if smoke { 2 } else { 6 };
    let shots = if smoke { 32 } else { 256 };
    let noisy = rotation_chain(tn, tlayers);

    // heavy noise forks lanes early (short shared prefixes); the
    // hardware-realistic rate lets most of each shot ride the reference
    let mut realistic_ratio = 0.0;
    for p in [0.02, 0.002] {
        let serial = run_trajectories(&noisy, &shot_config(p, shots, 1)).unwrap();
        let batched = run_trajectories(&noisy, &shot_config(p, shots, 64)).unwrap();
        assert_eq!(serial.path(), ShotPath::PerShot);
        assert_eq!(batched.path(), ShotPath::PerShot);
        assert_eq!(batched.shot_batch(), 64);
        assert!(batched.injected_errors() > 0, "p={p} run must be noisy");
        assert_eq!(
            serial.counts(),
            batched.counts(),
            "batched shot counts must be bit-identical to serial (p={p})"
        );
        assert_eq!(
            serial.injected_errors(),
            batched.injected_errors(),
            "batched injected-error totals must match serial (p={p})"
        );
        assert_eq!(serial.norm_stats(), batched.norm_stats());

        let t_serial = median_time(runs, || {
            black_box(run_trajectories(&noisy, &shot_config(p, shots, 1)).unwrap());
        });
        let t_batched = median_time(runs, || {
            black_box(run_trajectories(&noisy, &shot_config(p, shots, 64)).unwrap());
        });
        let shot_ratio = t_serial / t_batched;
        if p == 0.002 {
            realistic_ratio = shot_ratio;
        }
        t.row(&[
            format!("noisy shots n={tn}, {shots} shots, p={p}"),
            "serial (batch 1)".into(),
            fmt_seconds(t_serial),
            "1.0x".into(),
        ]);
        t.row(&[
            format!("noisy shots n={tn}, {shots} shots, p={p}"),
            "batched (batch 64)".into(),
            fmt_seconds(t_batched),
            format!("{shot_ratio:.2}x"),
        ]);
    }

    t.emit("BENCH_f15_bytecode");
    if !smoke {
        assert!(
            realistic_ratio >= 2.0,
            "shot batching must be >= 2x over serial dispatch at n={tn}, \
             p=0.002, measured {realistic_ratio:.2}x"
        );
    }
    println!("shot batching {realistic_ratio:.2}x vs serial at n={tn}/{shots} shots, p=0.002");
}
