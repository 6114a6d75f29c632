//! Shot batches fan out only when the ensemble holds a parallel kernel
//! pass of work (`2^PARALLEL_THRESHOLD_QUBITS` amplitude-operations):
//! the paper's teleportation and repetition-code samples at 1 000 shots
//! run inline under a width-2 scope and start no team thread, a 12-qubit
//! noisy trajectory ensemble (the `traj12` shape: 128 shots with gate
//! noise) still starts the team's one worker, and a terminal draw sized
//! past the grain reaches the team on every fanned leg and stays one
//! function of the shot. Its own test binary, one test: the team is
//! process-wide, so what `/proc/self/task` shows must come from these
//! runs in this order and nothing else.

mod common;

use common::{all_noise, random_layers, with_threads};
use qclab::prelude::*;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, Reference, ShotPath, TrajectoryConfig,
    TrajectoryResult,
};
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

/// The threads `config`'s run of `c` adds to the process under a
/// width-2 scope.
fn started(c: &QCircuit, config: &TrajectoryConfig) -> usize {
    let before = threads();
    with_threads(2, || run_trajectories(c, config).expect("a sample"));
    threads() - before
}

/// Each team worker's scheduler state and voluntary context switches.
fn workers() -> Vec<(char, u64)> {
    let field = |status: &str, key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .expect("a /proc status field")
    };
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .filter_map(|task| {
            let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
            field(&status, "Name:").starts_with("qclab-par-").then(|| {
                let state = field(&status, "State:").chars().next().unwrap_or('?');
                let switches = field(&status, "voluntary_ctxt_switches:").parse().unwrap();
                (state, switches)
            })
        })
        .collect()
}

/// The team's voluntary context switches once every worker is parked:
/// asleep, with a count that holds still for a few milliseconds.
fn parked_switches() -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = workers();
        std::thread::sleep(Duration::from_millis(5));
        if seen.iter().all(|&(state, _)| state == 'S') && workers() == seen {
            return seen.iter().map(|&(_, switches)| switches).sum();
        }
        assert!(Instant::now() < deadline, "the team never parked");
    }
}

/// Whether `run` handed a loop to the already started team: a parked
/// worker wakes for every loop posted and parks again after it, one
/// voluntary context switch later.
fn reaches_team<T>(run: impl FnOnce() -> T) -> (T, bool) {
    let before = parked_switches();
    let out = run();
    (out, parked_switches() > before)
}

fn paper(name: &str) -> QCircuit {
    let path = format!(
        "{}/benchmark/inputs/{name}.qasm",
        env!("CARGO_MANIFEST_DIR")
    );
    from_qasm(&std::fs::read_to_string(path).expect("a checked-in input")).expect("valid QASM")
}

/// Everything of a result that scheduling must not show in.
fn outcome(r: &TrajectoryResult) -> String {
    format!(
        "injected {} | {:?} | {:?}",
        r.injected_errors(),
        r.norm_stats(),
        r.counts()
    )
}

/// A terminal block in three bases over part of a 5-qubit register:
/// X on 0, Y on 2, Z on 3 and on 4.
fn mixed_bases() -> QCircuit {
    let mut c = random_layers(5, 4, 4, 17);
    c.push_back(Measurement::x(0));
    c.push_back(Measurement::y(2));
    c.push_back(Measurement::z(3));
    c.push_back(Measurement::z(4));
    c
}

/// Every state-vector leg of `base` — shared evolution or not, batches
/// of 1, 3 and 64, on 1 and 2 threads — is `base`'s result. Every
/// 2-thread leg hands its batches to the team, a 1-thread leg never.
fn assert_fanned_legs_agree(c: &QCircuit, base: &TrajectoryConfig, what: &str) {
    let golden = outcome(&run_trajectories(c, base).unwrap());
    for reference in [Reference::Product, Reference::NoSharing] {
        for shot_batch in [1usize, 3, 64] {
            let config = TrajectoryConfig {
                reference,
                shot_batch,
                ..base.clone()
            };
            for threads in [1, 2] {
                let leg = format!("{what}: {reference:?}, batch {shot_batch}, {threads} threads");
                let (r, reached) =
                    reaches_team(|| with_threads(threads, || run_trajectories(c, &config)));
                let r = r.unwrap();
                assert_eq!(outcome(&r), golden, "{leg}");
                // a noiseless product run is one table, no ensemble
                let fans = threads == 2 && !matches!(r.path(), ShotPath::AliasSampled { .. });
                assert_eq!(reached, fans, "{leg}, path {}", r.path());
            }
        }
    }
}

#[test]
fn paper_samples_stay_on_one_core_and_sized_ensembles_fan_out() {
    let one_shot = TrajectoryConfig {
        shots: 1000,
        seed: 1,
        ..TrajectoryConfig::default()
    };
    for name in ["teleport", "qec3"] {
        assert_eq!(
            started(&paper(name), &one_shot),
            0,
            "{name} started the team"
        );
    }

    let n = 12;
    let mut traj = random_layers(n, n, 10, 7);
    for q in 0..n {
        traj.push_back(Measurement::z(q));
    }
    let noisy = TrajectoryConfig {
        shots: 128,
        seed: 1,
        noise: NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.002)),
            ..NoiseSpec::default()
        },
        ..TrajectoryConfig::default()
    };
    assert_eq!(started(&traj, &noisy), 1, "traj12 shape");

    // The terminal draw's shape past the grain: 2 000 shots, each making
    // the circuit's eight fused gate passes over 32 amplitudes, are twice
    // 2^18 amplitude-operations.
    let c = mixed_bases();
    let base = |noise| TrajectoryConfig {
        seed: 23,
        shots: 2000,
        noise,
        ..TrajectoryConfig::default()
    };
    assert_fanned_legs_agree(&c, &base(NoiseSpec::default()), "noiseless");
    let noisy = base(all_noise(0.01, 0.003, 0.03));
    assert_fanned_legs_agree(&c, &noisy, "gate + idle + readout noise");
}
