//! The route table (`qclab_core::sim::route::route`): which engine,
//! shot strategy and plan a trajectory run takes, for every circuit
//! shape × noise class × backend request × initial state × reference
//! route. [`TABLE`] is the rule list `DESIGN.md` §3e prints:
//! the first rule whose conditions hold decides. For every row the test
//! checks that `route()` returns what the table says — path, plan
//! options, shared table, rule — or the refusal it names; that a cold
//! `run_trajectories` reports the same path (or fails the same way); and
//! that `route()` alone lowers exactly the plans the cold run lowers,
//! as many as the table's rules read (the counts a cold run recorded
//! before `route()` existed, at `b7ef2b0`, less one where the sparse
//! probe and the frame plan became one unfused plan). Alone in its
//! binary, because it reads the process-wide plan-cache counters.

use qclab::algorithms::ghz::ghz_circuit;
use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::route::{route, BackendRequest};
use qclab_core::sim::trajectory::{
    run_trajectories, run_trajectories_from, NoiseSpec, PauliChannel, Reference, ShotPath,
    TrajectoryConfig,
};
use qclab_core::QclabError;

/// What a row is, as the table's conditions read it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cond {
    /// The run starts from `|0…0⟩` (no explicit initial state).
    FromZero,
    /// The backend request resolves to sparse: `sparse`, or `auto` on a
    /// circuit whose support bound wins.
    SparseChosen,
    /// The backend request is `sparse`.
    SparseRequested,
    /// The reference route is not [`Reference::NoSharing`].
    FastPath,
    FastPathOff,
    /// The reference route is not [`Reference::NoFrames`].
    Frames,
    Noiseless,
    Noisy,
    /// An after-gate or idle channel can fire.
    GateNoise,
    /// The circuit ends in measurements of distinct qubits (and no
    /// observable reads the post-measurement state).
    Terminal,
    /// Clifford gates, Z/X/Y measurements and resets only.
    Clifford,
    /// The dense guard refuses the register.
    DenseRefused,
    /// The plan's first op measures or resets.
    NoPrefix,
}

use Cond::*;

/// Where a rule sends a run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Then {
    Sparse,
    Frames,
    Table,
    Fork,
    PerShot,
    /// Refused, with a message containing this text.
    Refused(&'static str),
}

/// The route table, first match wins: conditions, outcome, the rule
/// `route()` names.
const TABLE: &[(&[Cond], Then, &str)] = &[
    (
        &[FromZero, SparseChosen, FastPath, Noiseless, Terminal],
        Then::Sparse,
        "sparse, noiseless, terminal",
    ),
    (
        &[FromZero, SparseRequested],
        Then::Refused("sparse trajectory execution covers noiseless terminal-measurement"),
        "",
    ),
    (
        &[FromZero, Frames, Noisy, Clifford],
        Then::Frames,
        "noisy Clifford, no observables",
    ),
    (&[DenseRefused], Then::Refused("-qubit state needs"), ""),
    (
        &[FastPath, Noiseless, Terminal],
        Then::Table,
        "noiseless, terminal",
    ),
    (&[FastPathOff], Then::PerShot, "fast path off"),
    (&[GateNoise], Then::PerShot, "gate or idle noise"),
    (&[NoPrefix], Then::PerShot, "measures or resets first"),
    (&[], Then::Fork, "no gate or idle noise"),
];

struct Shape {
    name: &'static str,
    circuit: QCircuit,
    terminal: bool,
    clifford: bool,
    /// `auto` picks the sparse executor.
    auto_sparse: bool,
}

fn measure_all(c: &mut QCircuit) {
    for q in 0..c.nb_qubits() {
        c.push_back(Measurement::z(q));
    }
}

fn shapes() -> Vec<Shape> {
    let shape = |name, circuit, terminal, clifford| Shape {
        name,
        circuit,
        terminal,
        clifford,
        auto_sparse: false,
    };
    let mut unitary = QCircuit::new(3);
    unitary.push_back(RotationY::new(0, 0.3));
    unitary.push_back(RotationY::new(1, 0.7));
    unitary.push_back(CNOT::new(0, 1));
    unitary.push_back(CNOT::new(1, 2));
    measure_all(&mut unitary);

    // a qubit measured, rotated and measured again
    let mut mid = QCircuit::new(3);
    mid.push_back(RotationY::new(0, 0.3));
    mid.push_back(CNOT::new(0, 1));
    mid.push_back(Measurement::z(0));
    mid.push_back(RotationY::new(0, 0.4));
    measure_all(&mut mid);

    // the first op resets the qubit every gate touches: nothing precedes
    // the first collapse
    let mut reset = QCircuit::new(3);
    reset.push_back(CircuitItem::Reset(0));
    reset.push_back(RotationY::new(0, 0.3));
    reset.push_back(CNOT::new(0, 2));
    measure_all(&mut reset);

    // teleport-shaped: Clifford, with a mid-circuit measurement
    let mut clifford = QCircuit::new(3);
    clifford.push_back(Hadamard::new(0));
    clifford.push_back(CNOT::new(0, 1));
    clifford.push_back(Measurement::z(0));
    clifford.push_back(CNOT::new(0, 2));
    clifford.push_back(Measurement::x(1));
    clifford.push_back(Measurement::z(2));

    let mut t_gate = QCircuit::new(3);
    t_gate.push_back(Hadamard::new(0));
    t_gate.push_back(TGate::new(0));
    t_gate.push_back(CNOT::new(0, 1));
    t_gate.push_back(CNOT::new(1, 2));
    measure_all(&mut t_gate);

    // Clifford gates, but a measurement basis the tableau cannot hold
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let basis = CMat::from_fn(2, 2, |r, c| {
        C64::new(if r == 1 && c == 1 { -s } else { s }, 0.0)
    });
    let mut custom = QCircuit::new(3);
    custom.push_back(Hadamard::new(0));
    custom.push_back(CNOT::new(0, 1));
    custom.push_back(Measurement::in_basis(0, "h", basis).unwrap());
    custom.push_back(Measurement::z(1));
    custom.push_back(Measurement::z(2));

    let mut ghz = ghz_circuit(30);
    measure_all(&mut ghz);

    vec![
        shape("unitary + terminal", unitary, true, false),
        shape("mid-circuit measure", mid, false, false),
        shape("reset first", reset, false, false),
        shape("clifford", clifford, false, true),
        shape("non-clifford", t_gate, true, false),
        shape("custom basis", custom, true, false),
        Shape {
            auto_sparse: true,
            ..shape("ghz30", ghz, true, true)
        },
    ]
}

/// The noise classes `qclab compile` reports a route for.
fn noise_classes() -> [(&'static str, NoiseSpec); 3] {
    let spec = |after_gate, before_measure| NoiseSpec {
        after_gate,
        before_measure,
        ..NoiseSpec::default()
    };
    [
        ("noiseless", spec(None, None)),
        ("readout", spec(None, Some(PauliChannel::BitFlip(0.01)))),
        ("gate", spec(Some(PauliChannel::Depolarizing(0.01)), None)),
    ]
}

/// One row of the product: its conditions, and the configuration.
struct Row<'a> {
    shape: &'a Shape,
    config: TrajectoryConfig,
    initial: Option<CVec>,
    label: String,
}

impl Row<'_> {
    fn holds(&self, cond: Cond) -> bool {
        let (config, shape) = (&self.config, self.shape);
        let noise = config.noise;
        match cond {
            FromZero => self.initial.is_none(),
            SparseChosen => match config.backend {
                BackendRequest::Dense => false,
                BackendRequest::Auto => shape.auto_sparse,
                BackendRequest::Sparse => true,
            },
            SparseRequested => config.backend == BackendRequest::Sparse,
            FastPath => config.reference != Reference::NoSharing,
            FastPathOff => config.reference == Reference::NoSharing,
            Frames => config.reference != Reference::NoFrames,
            Noiseless => noise == NoiseSpec::default(),
            Noisy => noise != NoiseSpec::default(),
            GateNoise => noise.after_gate.is_some(),
            Terminal => shape.terminal,
            Clifford => shape.clifford,
            DenseRefused => shape.circuit.nb_qubits() > 28,
            NoPrefix => self.kernel_plan().shot_plan().prefix_ops == 0,
        }
    }

    /// The first rule that holds.
    fn rule(&self) -> (Then, &'static str) {
        let (_, then, why) = TABLE
            .iter()
            .find(|(when, _, _)| when.iter().all(|&c| self.holds(c)))
            .expect("the last rule always holds");
        (*then, why)
    }

    fn kernel_plan(&self) -> std::sync::Arc<program::CompiledProgram> {
        let options = PlanOptions::from(&self.config.kernel);
        program::compile(&self.shape.circuit, &options)
    }

    /// Plans the rules read: the unfused plan when the request is not
    /// dense (the sparse probe) or on the frame path, the kernel plan for
    /// the Clifford check of a noisy run and behind the dense guard.
    fn plans_lowered(&self, then: Then) -> u64 {
        let sparse_probe = self.holds(FromZero) && self.config.backend != BackendRequest::Dense;
        let decided_sparse =
            matches!(then, Then::Sparse) || (sparse_probe && self.holds(SparseRequested));
        if decided_sparse {
            return 1;
        }
        let clifford_check = self.holds(FromZero) && self.holds(Frames) && self.holds(Noisy);
        let kernel = clifford_check || !self.holds(DenseRefused);
        let unfused = sparse_probe || then == Then::Frames;
        [unfused, kernel].into_iter().map(u64::from).sum()
    }

    fn run(&self) -> Result<ShotPath, QclabError> {
        let result = match &self.initial {
            None => run_trajectories(&self.shape.circuit, &self.config),
            Some(v) => run_trajectories_from(&self.shape.circuit, v, &self.config),
        };
        result.map(|r| r.path())
    }
}

fn misses() -> u64 {
    program::plan_cache_stats().misses
}

#[test]
fn every_route_is_the_table_s() {
    let shapes = shapes();
    // the facts each shape is listed with are its plans' own
    for shape in &shapes {
        let plan = program::compile(&shape.circuit, &PlanOptions::default());
        let facts = (
            plan.shot_plan().terminal_measurements,
            plan.stats().is_clifford,
        );
        assert_eq!(facts, (shape.terminal, shape.clifford), "{}", shape.name);
    }
    let mut rows = Vec::new();
    for shape in &shapes {
        let n = shape.circuit.nb_qubits();
        // an explicit 30-qubit state would be 16 GiB
        let initials = if n > 12 {
            vec![None]
        } else {
            vec![None, Some(CVec::basis_state(1 << n, 0))]
        };
        for (noise_name, noise) in noise_classes() {
            for backend in [
                BackendRequest::Dense,
                BackendRequest::Auto,
                BackendRequest::Sparse,
            ] {
                for initial in &initials {
                    for (flags, reference) in [
                        ("", Reference::Product),
                        (", fast path off", Reference::NoSharing),
                        (", frames off", Reference::NoFrames),
                    ] {
                        let from = if initial.is_some() {
                            "explicit"
                        } else {
                            "|0…0⟩"
                        };
                        rows.push(Row {
                            shape,
                            config: TrajectoryConfig {
                                shots: 16,
                                seed: 3,
                                noise,
                                backend,
                                reference,
                                ..TrajectoryConfig::default()
                            },
                            initial: initial.clone(),
                            label: format!(
                                "{}, {noise_name}, {backend}, {from}{flags}",
                                shape.name
                            ),
                        });
                    }
                }
            }
        }
    }
    assert_eq!(rows.len(), 6 * 3 * 3 * 2 * 3 + 3 * 3 * 3);

    let mut used = vec![false; TABLE.len()];
    for row in &rows {
        let label = &row.label;
        let (then, why) = row.rule();
        let at = TABLE.iter().position(|r| r.1 == then && r.2 == why);
        used[at.expect("a rule of the table")] = true;

        // the route alone, on a cold cache
        program::clear_plan_cache();
        let before = misses();
        let routed = route(&row.shape.circuit, &row.config, row.initial.as_ref());
        let route_misses = misses() - before;
        // the run, on a cold cache
        program::clear_plan_cache();
        let before = misses();
        let ran = row.run();
        let run_misses = misses() - before;
        assert_eq!(route_misses, run_misses, "{label}: the run lowered more");
        assert_eq!(
            route_misses,
            row.plans_lowered(then),
            "{label}: plans lowered"
        );

        let routed = match (then, routed) {
            (Then::Refused(text), Err(e)) => {
                assert!(e.to_string().contains(text), "{label}: {e}");
                let ran = ran.expect_err(label);
                assert_eq!(ran.to_string(), e.to_string(), "{label}");
                continue;
            }
            (_, Ok(r)) => r,
            (then, Err(e)) => panic!("{label}: expected {then:?}, refused: {e}"),
        };
        assert_eq!(Ok(routed.path), ran.map_err(|e| e.to_string()), "{label}");
        assert_eq!(routed.why, why, "{label}");
        let plan = match then {
            Then::Sparse | Then::Frames => PlanOptions::unfused(),
            _ => PlanOptions::from(&row.config.kernel),
        };
        assert_eq!(routed.program.options(), &plan, "{label}: plan options");
        let prefix_ops = program::compile(&row.shape.circuit, &plan)
            .shot_plan()
            .prefix_ops;
        let path = match then {
            Then::Sparse => ShotPath::SparseSampled { prefix_ops },
            Then::Frames => ShotPath::PauliFrame,
            Then::Table => ShotPath::AliasSampled { prefix_ops },
            Then::Fork => ShotPath::Forked { prefix_ops },
            Then::PerShot => ShotPath::PerShot,
            Then::Refused(_) => unreachable!("handled above"),
        };
        assert_eq!(routed.path, path, "{label}");
        // lanes that inject nothing share the noiseless table when the
        // fast path tabulates a terminal block of a noisy run
        let shares = matches!(then, Then::Fork | Then::PerShot)
            && row.holds(FastPath)
            && row.holds(Terminal)
            && row.holds(Noisy);
        assert_eq!(routed.shares_table, shares, "{label}: shares_table");
    }
    assert!(used.iter().all(|&u| u), "a rule no row reaches: {used:?}");
}
