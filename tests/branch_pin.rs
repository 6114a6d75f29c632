//! Bit pin of the branch tree (`simulate`, paper Sec. 3): for a fixed
//! set of circuits — the paper's teleportation, repetition-code and
//! Grover inputs, a dozen seeded circuits with mid-circuit X/Y/Z
//! measurements, resets, barriers and sub-circuits, and one 14-qubit
//! circuit the locality pass relabels — every branch's record,
//! `probability.to_bits()` and amplitude bits, plus `counts(1000, 7)`,
//! are folded into one FNV-1a digest per (circuit, engine). The engines
//! are the dense kernel backend, the Kronecker oracle and the sparse
//! executor on its own plan (densified through `to_dense` for the
//! amplitudes).
//!
//! The digests are `tests/golden/branch_pin/<SEED_CONTRACT>.txt`: a
//! change that moves any bit of a branch, of its probability or of the
//! sampled counts fails here. The sparse digests are as exact: the sparse
//! maps hash with fixed keys, so the sums taken in their order are the
//! same in every process (CI runs this binary in 20 fresh processes).

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions};
use qclab_core::sim::guard::ResourceLimits;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::kron;
use qclab_core::sim::sparse::{self, SparseState};
use qclab_core::sim::trajectory::SEED_CONTRACT;
use qclab_testkit::seeded_golden;

/// FNV-1a over everything a branch tree reports.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn digest(sim: &Simulation) -> u64 {
    let mut h = Fnv::new();
    for b in sim.branches() {
        h.bytes(b.result().as_bytes());
        h.word(u64::MAX);
        h.word(b.probability().to_bits());
        for amp in b.state().iter() {
            h.word(amp.re.to_bits());
            h.word(amp.im.to_bits());
        }
    }
    for (record, n) in sim.counts(1000, 7) {
        h.bytes(record.as_bytes());
        h.word(n);
    }
    h.0
}

/// A 64-bit LCG (Knuth's MMIX constants): the seeded circuits must not
/// depend on any RNG crate's stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn angle(&mut self) -> f64 {
        (self.next() as f64 / (1u64 << 31) as f64) * std::f64::consts::TAU - std::f64::consts::PI
    }

    /// A qubit other than every one in `not`.
    fn other(&mut self, n: usize, not: &[usize]) -> usize {
        loop {
            let q = self.below(n);
            if !not.contains(&q) {
                return q;
            }
        }
    }
}

fn random_gate(rng: &mut Lcg, n: usize) -> Gate {
    let a = rng.below(n);
    let b = rng.other(n, &[a]);
    // a Toffoli needs a third qubit
    match rng.below(if n >= 3 { 12 } else { 11 }) {
        0 => Hadamard::new(a),
        1 => PauliY::new(a),
        2 => SGate::new(a),
        3 => TGate::new(a),
        4 => RotationX::new(a, rng.angle()),
        5 => RotationY::new(a, rng.angle()),
        6 => U3Gate::new(a, rng.angle(), rng.angle(), rng.angle()),
        7 => CNOT::new(a, b),
        8 => CRY::new(a, b, rng.angle()),
        9 => SwapGate::new(a, b),
        10 => CPhase::new(a, b, rng.angle()),
        _ => {
            let t = rng.other(n, &[a, b]);
            Toffoli::new(a, b, t)
        }
    }
}

/// A seeded 3–5 qubit circuit of 16 items mixing gates with X/Y/Z
/// measurements, resets, barriers and a 2-qubit sub-circuit, ending in a
/// Z measurement of qubit 0.
fn seeded(seed: u64) -> QCircuit {
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let n = 3 + rng.below(3);
    let mut c = QCircuit::new(n);
    for _ in 0..16 {
        match rng.below(12) {
            0..=5 => c.push_back(random_gate(&mut rng, n)),
            6 => c.push_back(Measurement::z(rng.below(n))),
            7 => c.push_back(Measurement::x(rng.below(n))),
            8 => c.push_back(Measurement::y(rng.below(n))),
            9 => c.push_back(CircuitItem::Reset(rng.below(n))),
            10 => c.push_back(CircuitItem::Barrier(vec![rng.below(n)])),
            _ => {
                let mut sub = QCircuit::new(2);
                sub.push_back(random_gate(&mut rng, 2));
                sub.push_back(Hadamard::new(rng.below(2)));
                sub.push_back(CNOT::new(0, 1));
                c.push_back_at(rng.below(n - 1), sub).unwrap()
            }
        };
    }
    c.push_back(Measurement::z(0));
    c
}

/// A normalized seeded state with full support, so the collapse and the
/// sparse executor run on every basis index.
fn seeded_state(n: usize, seed: u64) -> CVec {
    let mut rng = Lcg(seed ^ 0x5851_f42d_4c95_7f2d);
    let v = CVec(
        (0..1usize << n)
            .map(|_| C64::new(rng.angle(), rng.angle()))
            .collect(),
    );
    v.normalized()
}

/// `H q0; H q1; CX q0,q1` forty times on 14 qubits, then `X q0`,
/// measurements of q0 and q13, forty more rounds and a measurement of
/// q1: above one sweep tile, so the locality pass relabels the register
/// and the later measurements land on moved qubits.
fn relabeled14() -> QCircuit {
    let mut c = QCircuit::new(14);
    let rounds = |c: &mut QCircuit| {
        for _ in 0..40 {
            c.push_back(Hadamard::new(0));
            c.push_back(Hadamard::new(1));
            c.push_back(CNOT::new(0, 1));
        }
    };
    rounds(&mut c);
    c.push_back(PauliX::new(0));
    c.push_back(Measurement::z(0));
    c.push_back(Measurement::z(13));
    rounds(&mut c);
    c.push_back(Measurement::z(1));
    c
}

fn input(name: &str) -> QCircuit {
    let path = format!(
        "{}/benchmark/inputs/{name}.qasm",
        env!("CARGO_MANIFEST_DIR")
    );
    from_qasm(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

fn opts(fuse: bool) -> SimOptions {
    SimOptions {
        kernel: KernelConfig {
            fuse,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    }
}

fn sparse_run(c: &QCircuit, init: &CVec) -> Simulation {
    let program = program::compile(c, &PlanOptions::unfused());
    let sim = sparse::execute(
        &program,
        SparseState::from_dense(init, 0.0),
        &Default::default(),
    )
    .unwrap();
    sim.to_dense(&ResourceLimits::default()).unwrap()
}

/// Every `(case, engine, digest)` of the pinned set.
fn actual() -> Vec<(String, &'static str, u64)> {
    let mut cases: Vec<(String, QCircuit, CVec)> = Vec::new();
    for name in ["teleport", "qec3", "grover2"] {
        let c = input(name);
        let init = CVec::basis_state(1 << c.nb_qubits(), 0);
        cases.push((name.to_string(), c, init));
    }
    for seed in 1..=12u64 {
        let c = seeded(seed);
        let n = c.nb_qubits();
        let init = if seed % 2 == 0 {
            seeded_state(n, seed)
        } else {
            CVec::basis_state(1 << n, 0)
        };
        cases.push((format!("seeded{seed}"), c, init));
    }
    let mut out = Vec::new();
    for (name, c, init) in &cases {
        let kernel = c.simulate_with(init, &opts(true)).unwrap();
        let kron = kron::simulate(c, init, &opts(true)).unwrap();
        out.push((name.clone(), "kernel", digest(&kernel)));
        out.push((name.clone(), "kron", digest(&kron)));
        out.push((name.clone(), "sparse", digest(&sparse_run(c, init))));
    }
    let c = relabeled14();
    let plan = program::compile(
        &c,
        &PlanOptions {
            fuse: false,
            ..PlanOptions::default()
        },
    );
    assert!(
        plan.stats().remap_moves + plan.stats().remap_folds > 0,
        "the 14-qubit case must be relabeled"
    );
    let init = CVec::basis_state(1 << 14, 0);
    out.push((
        "relabeled14".to_string(),
        "kernel",
        digest(&c.simulate_with(&init, &opts(false)).unwrap()),
    ));
    out
}

#[test]
fn branch_trees_keep_their_bits() {
    let text: String = actual()
        .iter()
        .map(|(case, engine, d)| format!("{case} {engine} {d:#018x}\n"))
        .collect();
    seeded_golden!("branch_pin", SEED_CONTRACT, text);
}
