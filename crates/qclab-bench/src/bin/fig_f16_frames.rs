//! Figure F16 — Pauli-frame sampler vs the state-vector trajectory
//! engine on the repetition-code memory workload. Every time in the
//! record is **measured**: nothing is extrapolated from a probe.
//!
//! Four legs:
//!
//! 1. **Statistical agreement** at a dense-feasible distance: the frame
//!    sampler and the trajectory engine estimate the logical error rate
//!    of the distance-9 repetition code under readout noise, and both
//!    must land within 5σ of the analytic binomial curve.
//! 2. **Measured head-to-head** at distances 11 and 15, p = 0.002,
//!    10⁵ shots: both engines run the full ensemble. The trajectory
//!    engine is at its best here — small states, and only the 2–3 % of
//!    shots that draw a readout hit hold a state at all (the rest draw
//!    from the run's shared terminal table); its cost still doubles
//!    with every qubit while the frame engine's does not move. The full
//!    run asserts the frame engine is ≥ 50× faster per shot at d = 15,
//!    both sides measured.
//! 3. **Flagship** at distance 25, same p and shots, frame engine only:
//!    a dense shot that diverges would walk a 2²⁵-amplitude (512 MiB)
//!    state, which this binary no longer pretends to have timed.
//! 4. **Beyond the dense frontier**: a distance-101 (101-qubit) frame
//!    ensemble completes in milliseconds while the same request with
//!    `frames: false` is refused by the dense resource guard — the
//!    regime where frame sampling is the only engine that runs at all.
//!
//! `--smoke` shrinks distances and shot counts for CI; the routing
//! assertions, the statistical cross-check and the 100+ qubit
//! refusal/completion contract still run there.

use qclab_algorithms::qec::{
    analytic_logical_error_rate, majority_decode, repetition_code_circuit, InjectedError,
};
use qclab_bench::{fmt_seconds, record_path, sample_times_ns, Table};
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};
use qclab_core::QclabError;
use std::hint::black_box;

fn config(p: f64, shots: u64, frames: bool) -> TrajectoryConfig {
    TrajectoryConfig {
        seed: 17,
        shots,
        noise: NoiseSpec {
            before_measure: Some(PauliChannel::BitFlip(p)),
            ..NoiseSpec::default()
        },
        frames,
        ..TrajectoryConfig::default()
    }
}

/// Fraction of records that majority-decode to a logical failure.
fn failure_rate(result: &qclab_core::sim::trajectory::TrajectoryResult) -> f64 {
    let failures: u64 = result
        .counts()
        .iter()
        .filter(|(record, _)| majority_decode(record) == 1)
        .map(|(_, &count)| count)
        .sum();
    failures as f64 / result.shots() as f64
}

/// One measured row: the run's sorted wall-clock samples and what it
/// sampled.
struct Row {
    distance: usize,
    p: f64,
    shots: u64,
    engine: &'static str,
    samples_ns: Vec<u64>,
}

impl Row {
    fn measure(distance: usize, p: f64, shots: u64, frames: bool, runs: usize) -> Row {
        let circuit = repetition_code_circuit(distance, InjectedError::None);
        let check = run_trajectories(&circuit, &config(p, shots, frames)).unwrap();
        assert_eq!(check.path() == ShotPath::PauliFrame, frames);
        assert_eq!(check.total_counts(), shots);
        Row {
            distance,
            p,
            shots,
            engine: if frames { "pauli-frame" } else { "trajectory" },
            samples_ns: sample_times_ns(runs, || {
                black_box(run_trajectories(&circuit, &config(p, shots, frames)).unwrap());
            }),
        }
    }

    fn median_ns(&self) -> u64 {
        self.samples_ns[self.samples_ns.len() / 2]
    }

    fn ns_per_shot(&self) -> f64 {
        self.median_ns() as f64 / self.shots as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"distance\": {}, \"p\": {}, \"shots\": {}, \"engine\": \"{}\", \"runs\": {}, \
             \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"ns_per_shot\": {:.3}}}",
            self.distance,
            self.p,
            self.shots,
            self.engine,
            self.samples_ns.len(),
            self.median_ns(),
            self.samples_ns[0],
            self.samples_ns[self.samples_ns.len() - 1],
            self.ns_per_shot()
        )
    }

    fn cells(&self) -> [String; 5] {
        let s = |ns: u64| fmt_seconds(ns as f64 * 1e-9);
        [
            format!("d={}, p={}, {} shots", self.distance, self.p, self.shots),
            self.engine.to_string(),
            s(self.median_ns()),
            format!(
                "{} – {}",
                s(self.samples_ns[0]),
                s(self.samples_ns[self.samples_ns.len() - 1])
            ),
            format!("{:.1} ns", self.ns_per_shot()),
        ]
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let runs = if smoke { 1 } else { 5 };

    // -- 1. statistical agreement at a dense-feasible distance ---------
    // p = 0.2 keeps the logical failure rate large enough that a 5σ
    // binomial window is a meaningful test at these shot counts
    let stat_d = if smoke { 5 } else { 9 };
    let stat_shots: u64 = if smoke { 500 } else { 4000 };
    let stat_p = 0.2;
    let circuit = repetition_code_circuit(stat_d, InjectedError::None);
    let framed = run_trajectories(&circuit, &config(stat_p, stat_shots, true)).unwrap();
    let trajectory = run_trajectories(&circuit, &config(stat_p, stat_shots, false)).unwrap();
    assert_eq!(framed.path(), ShotPath::PauliFrame);
    assert_ne!(trajectory.path(), ShotPath::PauliFrame);
    assert_eq!(framed.total_counts(), stat_shots);
    assert_eq!(trajectory.total_counts(), stat_shots);
    let analytic = analytic_logical_error_rate(stat_d, stat_p);
    let sigma = (analytic * (1.0 - analytic) / stat_shots as f64).sqrt();
    for (engine, rate) in [
        ("pauli-frame", failure_rate(&framed)),
        ("trajectory", failure_rate(&trajectory)),
    ] {
        assert!(
            (rate - analytic).abs() <= 5.0 * sigma,
            "{engine} logical rate {rate:.4} strays from analytic {analytic:.4} \
             past 5σ ({sigma:.4}) at d={stat_d}, p={stat_p}"
        );
    }

    // -- 2. measured head-to-head at two small distances -------------
    let p = 0.002;
    let shots: u64 = if smoke { 5_000 } else { 100_000 };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for small_d in if smoke { [5, 7] } else { [11, 15] } {
        let trajectory = Row::measure(small_d, p, shots, false, runs);
        let frame = Row::measure(small_d, p, shots, true, runs);
        speedups.push((small_d, trajectory.ns_per_shot() / frame.ns_per_shot()));
        rows.extend([trajectory, frame]);
    }
    let (asserted_d, asserted) = speedups[1];
    if !smoke {
        assert!(
            asserted >= 50.0,
            "the frame sampler must be >= 50x faster per shot than the trajectory engine \
             at d={asserted_d}, p={p}, {shots} shots (both measured) — measured {asserted:.1}x"
        );
    }

    // -- 3. flagship: d=25, frame engine only --------------------------
    let d = if smoke { 13 } else { 25 };
    rows.push(Row::measure(d, p, shots, true, runs));

    // -- 4. beyond the dense frontier: 101 qubits ----------------------
    let wide_d = 101;
    let wide_shots: u64 = if smoke { 512 } else { 4096 };
    let wide_circuit = repetition_code_circuit(wide_d, InjectedError::None);
    let refused = run_trajectories(&wide_circuit, &config(p, wide_shots, false));
    assert!(
        matches!(refused, Err(QclabError::ResourceExhausted { .. })),
        "the dense engine must refuse a {wide_d}-qubit register, got {refused:?}"
    );
    rows.push(Row::measure(wide_d, p, wide_shots, true, runs));

    let mut t = Table::new(
        "F16: Pauli-frame sampler vs state-vector trajectories (repetition code, all measured)",
        &["workload", "engine", "median", "min – max", "per shot"],
    );
    for row in &rows {
        t.row(&row.cells());
    }
    println!("{}", t.render());
    // the numeric record (`--json <path>` pins the artifact name)
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup_json: Vec<String> = speedups
        .iter()
        .map(|(d, x)| format!("{{\"distance\": {d}, \"frame_speedup_per_shot\": {x:.3}}}"))
        .collect();
    let row_json: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"title\": \"F16: Pauli-frame sampler vs state-vector trajectories \
         (repetition code, readout bit-flip noise, seed 17; every time measured)\",\n  \
         \"threads\": {threads},\n  \"speedups\": [{}],\n  \
         \"dense_refused_at_distance\": {wide_d},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        speedup_json.join(", "),
        row_json.join(",\n    ")
    );
    let path = record_path("BENCH_f16_frames");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).expect("the F16 record must be written");
    println!(
        "frame sampler {asserted:.0}x per shot vs trajectory at d={asserted_d}, p={p}, {shots} \
         shots (both measured, {:.0}x at d={}); d={wide_d} completes where the dense guard refuses",
        speedups[0].1, speedups[0].0
    );
}
