//! Lowering pin: the fused plans of the benchmark's checked-in circuits
//! and of one circuit of each generated harness shape, under the fusion
//! caps 2, 3 and 4 and the unfused options. Each plan is
//! described op by op — every fused block by the bits of its matrix —
//! and the description is stored as a digest, so a lowering change that
//! moves one ulp of one block fails here.

use qclab::prelude::*;
use qclab_core::program::{self, PlanOptions, ProgramOp};

/// SplitMix64 (Steele, Lea, Flood 2014): the generator the end-to-end
/// harness draws its circuits from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The harness's random layered circuit: per layer a rotation about a
/// random axis on every qubit, then CX or CZ on a random pairing; the
/// first `measured` qubits measured at the end.
fn random_layers(n: usize, layers: usize, measured: usize, seed: u64) -> String {
    let mut rng = SplitMix64(seed);
    let mut s =
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\ncreg c[{measured}];\n");
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..layers {
        for q in 0..n {
            let axis = ["rx", "ry", "rz"][rng.below(3) as usize];
            let angle = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
            s += &format!("{axis}({angle:.6}) q[{q}];\n");
        }
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for pair in order.chunks_exact(2) {
            let gate = ["cx", "cz"][rng.below(2) as usize];
            s += &format!("{gate} q[{}], q[{}];\n", pair[0], pair[1]);
        }
    }
    for q in 0..measured {
        s += &format!("measure q[{q}] -> c[{q}];\n");
    }
    s
}

/// FNV-1a over the description of a plan.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every op of the plan by kind, every fused block's matrix by its bits,
/// and the plan's statistics.
fn describe(circuit: &QCircuit, options: &PlanOptions) -> String {
    let plan = program::lower(circuit, options);
    let mut text = format!(
        "{:?}\n{:?}\n{:?}\n",
        plan.stats(),
        plan.shot_plan(),
        plan.prefix_map()
    );
    for op in plan.ops() {
        match op {
            ProgramOp::Gate(Gate::Custom {
                name,
                qubits,
                matrix,
            }) => {
                text += &format!("block {name} {qubits:?}");
                for z in matrix.as_slice() {
                    text += &format!(" {:016x}{:016x}", z.re.to_bits(), z.im.to_bits());
                }
                text += "\n";
            }
            other => text += &format!("{other:?}\n"),
        }
    }
    text += &format!("source {}\n", plan.source().len());
    text
}

fn circuits() -> Vec<(String, QCircuit)> {
    let mut out: Vec<(String, QCircuit)> = [
        (
            "grover2",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/grover2.qasm"
            )),
        ),
        (
            "qec3",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/qec3.qasm"
            )),
        ),
        (
            "qft16",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/qft16.qasm"
            )),
        ),
        (
            "rep25",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/rep25.qasm"
            )),
        ),
        (
            "teleport",
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benchmark/inputs/teleport.qasm"
            )),
        ),
    ]
    .into_iter()
    .map(|(name, text)| (name.to_string(), qclab_qasm::from_qasm(text).unwrap()))
    .collect();
    for (n, layers, measured, seed) in [
        (20, 8, 20, 1),
        (12, 10, 12, 2),
        (15, 8, 4, 3),
        (6, 40, 6, 4),
    ] {
        let text = random_layers(n, layers, measured, seed);
        out.push((
            format!("layers{n}x{layers}"),
            qclab_qasm::from_qasm(&text).unwrap(),
        ));
    }
    out
}

fn option_sets() -> Vec<(&'static str, PlanOptions)> {
    let cap = |max_fused_qubits| PlanOptions {
        max_fused_qubits,
        ..PlanOptions::default()
    };
    vec![
        ("default", PlanOptions::default()),
        ("cap3", cap(3)),
        ("cap4", cap(4)),
        ("unfused", PlanOptions::unfused()),
    ]
}

/// `(circuit, options, digest of the plan's description)`.
const PINNED: &[(&str, &str, u64)] = &[
    ("grover2", "default", 0x694f8215c1596d41),
    ("grover2", "cap3", 0x694f8215c1596d41),
    ("grover2", "cap4", 0x694f8215c1596d41),
    ("grover2", "unfused", 0x52f53a67f4d23dbf),
    ("qec3", "default", 0x1c908875a35a0f9a),
    ("qec3", "cap3", 0x22ab03f5a78a06a1),
    ("qec3", "cap4", 0x3598860134079cb1),
    ("qec3", "unfused", 0x4fde4eec85813332),
    ("qft16", "default", 0x7c73fbcfe70083ea),
    ("qft16", "cap3", 0x74e34ee3406aa05d),
    ("qft16", "cap4", 0x9691feb5603e9681),
    ("qft16", "unfused", 0x975445ce1da08567),
    ("rep25", "default", 0xc6a04fc0bc68cf3f),
    ("rep25", "cap3", 0x274105b9077e2fef),
    ("rep25", "cap4", 0xad18032b26b24187),
    ("rep25", "unfused", 0xc6a04fc0bc68cf3f),
    ("teleport", "default", 0x016d45e9375fe56a),
    ("teleport", "cap3", 0xd1a6a06ed9594b60),
    ("teleport", "cap4", 0xd1a6a06ed9594b60),
    ("teleport", "unfused", 0x5dbb560e7c9921be),
    ("layers20x8", "default", 0x0b786fd5b9120295),
    ("layers20x8", "cap3", 0x8de14ef63899242d),
    ("layers20x8", "cap4", 0x1a9446b98fcf4415),
    ("layers20x8", "unfused", 0x6d5854c8e502e7d5),
    ("layers12x10", "default", 0xf02333c50cc69b91),
    ("layers12x10", "cap3", 0x0cbb18e04faa76e2),
    ("layers12x10", "cap4", 0x277ceb20654feb38),
    ("layers12x10", "unfused", 0x350e5a55ce3962e3),
    ("layers15x8", "default", 0x9e26a865334a12ae),
    ("layers15x8", "cap3", 0xdceaef0ffc5744af),
    ("layers15x8", "cap4", 0x9458049b513acd74),
    ("layers15x8", "unfused", 0xafd082f24dfb0356),
    ("layers6x40", "default", 0x99635b4af30c30e0),
    ("layers6x40", "cap3", 0x728a71dd6206692f),
    ("layers6x40", "cap4", 0x2aff20a0dbe2100a),
    ("layers6x40", "unfused", 0x0087d7e1600cdca9),
];

#[test]
fn fused_plans_are_bit_identical_to_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, circuit) in circuits() {
        for (opt, options) in option_sets() {
            got.push((name.clone(), opt, digest(&describe(&circuit, &options))));
        }
    }
    let want: Vec<(String, &str, u64)> = PINNED
        .iter()
        .map(|&(name, opt, d)| (name.to_string(), opt, d))
        .collect();
    assert_eq!(got, want);
}
