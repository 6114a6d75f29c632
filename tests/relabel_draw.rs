//! SWAP gates as relabels, and terminal draws that read the layout in
//! place: a remapped plan (13–17 qubits, above the sweep tile and below
//! the parallel threshold) turns each SWAP into a layout change that
//! moves no amplitude, and its terminal draw skips the trailing restore
//! and reads the measured qubits — their marginal, its LUTs and the
//! basis rotations — through the layout. Both are pure bookkeeping, so
//! every terminal route must be `==` the unremapped engine's: the table,
//! the stream, the forked prefix under readout noise and per-shot lanes
//! whose after-gate and idle hits strike the swapped qubits, on 1 and 2
//! threads. A consumer that reads the state itself (`simulate`, an
//! observable) still sees the logical layout.

mod common;

use common::{random_layers, with_threads};
use qclab::prelude::*;
use qclab_core::program;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::route::{route, TerminalDraw};
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
    TrajectoryResult,
};
use qclab_core::{CircuitItem, Observable, PlanOptions, SimOptions};
use qclab_math::CVec;

/// `n` qubits of random layers with SWAPs between them and a bit
/// reversal at the end, each group behind a fence so fusion keeps the
/// swaps whole; no measurement.
fn swapped(n: usize, seed: u64) -> QCircuit {
    let mut c = QCircuit::new(n);
    for (part, swaps) in [(0, vec![(0, n - 1), (2, 5), (1, n - 3)]), (1, vec![])] {
        for item in random_layers(n, n, 2, seed + part).items() {
            c.push_back(item.clone());
        }
        c.push_back(CircuitItem::Barrier((0..n).collect()));
        for (a, b) in swaps {
            c.push_back(SwapGate::new(a, b));
        }
        c.push_back(CircuitItem::Barrier((0..n).collect()));
    }
    for q in 0..n / 2 {
        c.push_back(SwapGate::new(q, n - 1 - q));
    }
    c
}

/// `c` with the measurements `(qubit, basis)` appended in order.
fn measured(mut c: QCircuit, bases: &[(usize, char)]) -> QCircuit {
    for &(q, basis) in bases {
        c.push_back(match basis {
            'x' => Measurement::x(q),
            'y' => Measurement::y(q),
            _ => Measurement::z(q),
        });
    }
    c
}

/// Everything of a result the layout must not show in. Not the path,
/// whose prefix counts the plan's layout ops, and not the watchdog's
/// largest drift: the norm adds `|amp|²` in index order, which the
/// layout permutes — as it does for every check under a remapped window.
fn outcome(r: &TrajectoryResult) -> String {
    let norm = r.norm_stats();
    format!(
        "injected {} | {} checks, {} renormalizations | {:?}",
        r.injected_errors(),
        norm.checks,
        norm.renormalizations,
        r.counts()
    )
}

fn remap(config: &TrajectoryConfig, remap: bool) -> TrajectoryConfig {
    TrajectoryConfig {
        kernel: KernelConfig {
            remap,
            ..config.kernel
        },
        ..config.clone()
    }
}

/// `config`'s run of `c` from `initial` (`None`: `|0…0⟩`) on the
/// relabeled plan, on 1 and 2 threads, is the unremapped plan's; returns
/// the route it took.
fn assert_unremapped_from(
    c: &QCircuit,
    initial: Option<&CVec>,
    config: &TrajectoryConfig,
    what: &str,
) -> (ShotPath, Option<TerminalDraw>) {
    let run = |config: &TrajectoryConfig| match initial {
        Some(s) => run_trajectories_from(c, s, config).unwrap(),
        None => run_trajectories(c, config).unwrap(),
    };
    let plain = outcome(&run(&remap(config, false)));
    for threads in [1, 2] {
        let r = with_threads(threads, || run(config));
        assert_eq!(outcome(&r), plain, "{what}, {threads} thread(s)");
    }
    let routed = route(c, config, initial).unwrap();
    (routed.path, routed.draw)
}

fn assert_unremapped(
    c: &QCircuit,
    config: &TrajectoryConfig,
    what: &str,
) -> (ShotPath, Option<TerminalDraw>) {
    assert_unremapped_from(c, None, config, what)
}

#[test]
fn every_terminal_route_reads_relabels_in_place_as_the_restored_state() {
    for (n, seed) in [(13, 3), (15, 5), (17, 7)] {
        // every qubit measured, in three bases: the draw reads in place
        let bases: Vec<(usize, char)> = (0..n).map(|q| (q, ['x', 'y', 'z'][q % 3])).collect();
        let c = measured(swapped(n, seed), &bases);
        let plan = program::compile(&c, &PlanOptions::default());
        assert_eq!(plan.stats().remap_relabels, 3 + n / 2, "{n} qubits");
        assert!(plan.shot_plan().draw_in_place.is_some(), "{n} qubits");
        drop(plan);
        let what = |route: &str| format!("{n} qubits, {route}");

        // a noiseless sample that no plan keeps streams its draw — from
        // an explicit |0…0⟩, which no key keeps (13 outcome bits are one
        // tile of the stream, which is always tabulated)
        let config = TrajectoryConfig {
            shots: 100,
            seed,
            ..TrajectoryConfig::default()
        };
        let zero = CVec::basis_state(1 << n, 0);
        let (path, draw) = assert_unremapped_from(&c, Some(&zero), &config, &what("stream"));
        assert!(matches!(path, ShotPath::AliasSampled { .. }));
        if n > 13 {
            assert_eq!(draw, Some(TerminalDraw::Streamed), "{n} qubits");
        }

        // a held plan keeps its table
        let held = program::compile(&c, &PlanOptions::default());
        let (_, draw) = assert_unremapped(&c, &config, &what("table"));
        assert!(
            matches!(draw, Some(TerminalDraw::Table { .. })),
            "{n} qubits"
        );
        drop(held);

        // readout noise: the prefix is forked, struck lanes tabulate
        let readout = TrajectoryConfig {
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(0.05)),
                ..NoiseSpec::default()
            },
            ..config.clone()
        };
        let (path, _) = assert_unremapped(&c, &readout, &what("forked"));
        assert!(matches!(path, ShotPath::Forked { .. }), "{path}");

        // gate and idle noise: lanes walk the relabels, hits on the
        // swapped qubits land through the layout in force (fewer lanes
        // on the wider states)
        let lanes = TrajectoryConfig {
            shots: 1 << (17 - n),
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(0.05)),
                idle: Some(PauliChannel::PhaseFlip(0.01)),
                ..NoiseSpec::default()
            },
            ..config.clone()
        };
        let (path, _) = assert_unremapped(&c, &lanes, &what("per-shot"));
        assert_eq!(path, ShotPath::PerShot);
    }
}

#[test]
fn a_partial_block_reads_in_place_only_when_the_unmeasured_qubits_keep_their_order() {
    let n = 14;
    let c = swapped(n, 11);
    // the bit reversal keeps no two unmeasured qubits in order: restored
    let scattered = measured(c.clone(), &[(0, 'z'), (3, 'x'), (n - 1, 'y')]);
    // one unmeasured qubit is in order wherever it sits: read in place
    let ordered: Vec<(usize, char)> = (0..n).filter(|&q| q != 6).map(|q| (q, 'z')).collect();
    let ordered = measured(c, &ordered);
    for (c, in_place) in [(scattered, false), (ordered, true)] {
        let plan = program::compile(&c, &PlanOptions::default());
        assert_eq!(plan.shot_plan().draw_in_place.is_some(), in_place);
        drop(plan);
        let config = TrajectoryConfig {
            shots: 400,
            seed: 2,
            ..TrajectoryConfig::default()
        };
        assert_unremapped(&c, &config, &format!("in place {in_place}"));
        let readout = TrajectoryConfig {
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(0.05)),
                ..NoiseSpec::default()
            },
            ..config
        };
        assert_unremapped(&c, &readout, &format!("in place {in_place}, readout noise"));
    }
}

#[test]
fn a_consumer_of_the_state_still_sees_the_logical_layout() {
    let n = 15;
    let c = swapped(n, 9);
    let opts = |remap| SimOptions {
        kernel: KernelConfig {
            remap,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    };
    let init = CVec::basis_state(1 << n, 0);
    let states = |remap| {
        let sim = c.simulate_with(&init, &opts(remap)).unwrap();
        sim.states()
            .iter()
            .map(|s| s.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(states(true), states(false));

    // an observable reads the state after the block: no in-place draw
    let c = measured(c, &(0..n).map(|q| (q, 'z')).collect::<Vec<_>>());
    let z = format!("Z{}Z", "I".repeat(n - 2));
    let config = TrajectoryConfig {
        shots: 8,
        seed: 4,
        observables: vec![Observable::new(n).term(1.0, &z)],
        ..TrajectoryConfig::default()
    };
    let bits = |config: &TrajectoryConfig| {
        let r = run_trajectories(&c, config).unwrap();
        let e: Vec<u64> = r.expectations().iter().map(|e| e.to_bits()).collect();
        (outcome(&r), e)
    };
    assert_eq!(bits(&config), bits(&remap(&config, false)));
}
