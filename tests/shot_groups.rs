//! The group walk against the per-shot engine: shots that share a
//! measurement history share one state in a batch (`sim::shots`), and
//! every shot must still be bit for bit what the batch of one computes —
//! counts, injected errors, watchdog statistics and the bits of every
//! averaged expectation — at any batch width and thread count, noisy or
//! not, and under limits that refuse the walk's extra states.

mod common;

use common::{gate, with_threads};
use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, Reference, ShotPath, TrajectoryConfig,
    TrajectoryResult, WatchdogConfig,
};
use qclab_core::{Observable, PlanOptions, ProgramOp};
use qclab_testkit::prelude::*;

/// A collapsing item: a measurement in Z, X or Y, or a reset.
fn collapse(n: usize) -> impl Strategy<Value = CircuitItem> {
    (0..n, 0u8..4).prop_map(|(q, kind)| match kind {
        0 => CircuitItem::Measurement(Measurement::z(q)),
        1 => CircuitItem::Measurement(Measurement::x(q)),
        2 => CircuitItem::Measurement(Measurement::y(q)),
        _ => CircuitItem::Reset(q),
    })
}

/// A circuit on `n` qubits with 1–4 collapses (measurements in every
/// basis, resets) among its gates, each followed by at least one gate —
/// so the run never ends in a terminal draw and every collapse is
/// mid-circuit — and, half of the time, a final measurement of every
/// qubit. A Hadamard layer opens it, so a collapse of a qubit no drawn
/// gate touches still splits a batch.
fn mid_circuit(n: usize) -> impl Strategy<Value = QCircuit> {
    (
        prop::collection::vec(gate(n), 2..=14),
        prop::collection::vec((collapse(n), 0usize..64), 1..=4),
        0u8..2,
    )
        .prop_map(move |(gates, collapses, measure_all)| {
            let mut items: Vec<CircuitItem> = gates.into_iter().map(CircuitItem::Gate).collect();
            for (item, at) in collapses {
                items.insert(at % (items.len() - 1), item);
            }
            if measure_all == 1 {
                items.extend((0..n).map(|q| CircuitItem::Measurement(Measurement::z(q))));
            }
            let mut c = QCircuit::new(n);
            for q in 0..n {
                c.push_back(Hadamard::new(q));
            }
            for item in items {
                c.push_back(item);
            }
            c
        })
}

/// Shots enough that the 2-thread legs of `c` under noise `class` fan
/// out on the team: the gate passes over `2^n` amplitudes that each shot
/// makes past the shared prefix — every gate when gate or idle noise
/// starts each shot at op 0, else the gates after the first collapse,
/// and at least one (the gate after a collapse, or a lane's own terminal
/// table) — add up to `2^18` amplitude-operations, one parallel kernel
/// pass, the grain of the shot fan-out.
fn team_shots(c: &QCircuit, class: u8) -> u64 {
    let plan = program::compile(c, &PlanOptions::default());
    let from = if matches!(class, 1 | 2) {
        0
    } else {
        plan.shot_plan().prefix_ops
    };
    let passes = plan.ops()[from..]
        .iter()
        .filter(|op| matches!(op, ProgramOp::Gate(_)))
        .count();
    (1u64 << 18 >> c.nb_qubits()).div_ceil(passes.max(1) as u64)
}

/// A unitary circuit ending in a terminal measurement block.
fn terminal_circuit(n: usize) -> impl Strategy<Value = QCircuit> {
    prop::collection::vec(gate(n), 1..=12).prop_map(move |gates| {
        let mut c = QCircuit::new(n);
        for g in gates {
            c.push_back(g);
        }
        for q in 0..n {
            c.push_back(Measurement::z(q));
        }
        c
    })
}

/// Noise off (`class` 0), or one class at `p`: after every gate (1),
/// on idle qubits (2), before every measurement (3).
fn noise(class: u8, p: f64) -> NoiseSpec {
    let channel = Some(PauliChannel::Depolarizing(p));
    match class {
        1 => NoiseSpec {
            after_gate: channel,
            ..NoiseSpec::default()
        },
        2 => NoiseSpec {
            idle: channel,
            ..NoiseSpec::default()
        },
        3 => NoiseSpec {
            before_measure: channel,
            ..NoiseSpec::default()
        },
        _ => NoiseSpec::default(),
    }
}

/// Two observables on `n` qubits that the collapses and the noise move.
fn observables(n: usize) -> Vec<Observable> {
    let string = |head: &str| format!("{head}{}", "I".repeat(n - head.len()));
    vec![
        Observable::new(n)
            .term(0.5, &string("Z"))
            .term(-0.25, &string("XY")),
        Observable::new(n).term(1.0, &string("ZZZ")),
    ]
}

/// Runs `config` at the batch of one and at widths 7 and 64 on 1 and 2
/// threads, and asserts every run is the batch of one's, bit for bit.
fn assert_widths_agree(c: &QCircuit, config: &TrajectoryConfig) -> Result<(), TestCaseError> {
    let at = |shot_batch: usize, threads: usize| -> TrajectoryResult {
        let config = TrajectoryConfig {
            shot_batch,
            ..config.clone()
        };
        with_threads(threads, || run_trajectories(c, &config)).unwrap()
    };
    let oracle = at(1, 1);
    prop_assert_eq!(oracle.shots(), config.shots);
    let bits = |r: &TrajectoryResult| {
        r.expectations()
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>()
    };
    for shot_batch in [1usize, 7, 64] {
        for threads in [1usize, 2] {
            let r = at(shot_batch, threads);
            let leg = format!("batch {shot_batch}, {threads} threads, path {}", r.path());
            prop_assert_eq!(r.counts(), oracle.counts(), "{}", leg);
            prop_assert_eq!(r.injected_errors(), oracle.injected_errors(), "{}", leg);
            prop_assert_eq!(r.norm_stats(), oracle.norm_stats(), "{}", leg);
            prop_assert_eq!(bits(&r), bits(&oracle), "{}", leg);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(24)))]

    /// Mid-circuit collapses split a batch into groups: under every noise
    /// class, with and without observables, at watchdog cadences 1 and 7,
    /// each width is the batch of one.
    #[test]
    fn the_group_walk_is_the_per_shot_engine(
        c in prop_oneof![mid_circuit(9), mid_circuit(10)],
        seed in 0u64..1 << 32,
        class in 0u8..4,
        strong in 0u8..2,
        observed in 0u8..2,
        every in 0u8..2,
    ) {
        let n = c.nb_qubits();
        let config = TrajectoryConfig {
            shots: team_shots(&c, class),
            seed,
            noise: noise(class, if strong == 1 { 0.2 } else { 1e-3 }),
            observables: if observed == 1 { observables(n) } else { Vec::new() },
            watchdog: WatchdogConfig {
                check_every: if every == 1 { 7 } else { 1 },
                ..WatchdogConfig::default()
            },
            // the Pauli frames never split a batch: keep noisy Clifford
            // draws on the state-vector walk
            reference: Reference::NoFrames,
            ..TrajectoryConfig::default()
        };
        assert_widths_agree(&c, &config)?;
    }

    /// A group that reaches a terminal block draws each lane from one
    /// table; lanes struck in the block draw from their own.
    #[test]
    fn groups_draw_a_terminal_block_as_lanes_do(
        c in terminal_circuit(10),
        seed in 0u64..1 << 32,
        class in 1u8..4,
        strong in 0u8..2,
    ) {
        let config = TrajectoryConfig {
            shots: team_shots(&c, class),
            seed,
            noise: noise(class, if strong == 1 { 0.2 } else { 1e-3 }),
            reference: Reference::NoFrames,
            ..TrajectoryConfig::default()
        };
        assert_widths_agree(&c, &config)?;
    }
}

/// Six fair coins on 18 qubits, under a byte cap that admits two states
/// but not three: every split the walk would nest is refused and its
/// smaller side goes lane by lane, so the run completes — with the batch
/// of one's counts.
#[test]
fn a_cap_of_two_states_runs_the_walk_lane_by_lane() {
    let n = 18;
    let mut c = QCircuit::new(n);
    for q in 0..6 {
        c.push_back(Hadamard::new(q));
    }
    for q in 0..6 {
        c.push_back(Measurement::z(q));
        c.push_back(CNOT::new(q, q + 6));
    }
    let state = ResourceLimits::state_bytes(n).unwrap();
    let config = |shot_batch| TrajectoryConfig {
        shots: 48,
        seed: 11,
        shot_batch,
        limits: ResourceLimits {
            max_state_bytes: 3 * state - 1,
            ..ResourceLimits::default()
        },
        ..TrajectoryConfig::default()
    };
    let walked = run_trajectories(&c, &config(64)).unwrap();
    let oracle = run_trajectories(&c, &config(1)).unwrap();
    assert!(matches!(walked.path(), ShotPath::Forked { .. }));
    assert_eq!(walked.shots(), 48);
    assert_eq!(walked.counts(), oracle.counts());
    assert!(walked.counts().len() > 16, "{:?}", walked.counts());
}
