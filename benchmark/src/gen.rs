//! Seeded input generation: every random circuit the benchmark feeds
//! the program is QASM text produced here from `--seed`, with the
//! harness's own generator — no call into a `qclab-*` crate builds an
//! input, so a change to the program cannot change what it is asked.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// SplitMix64 (Steele, Lea, Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for item `index` of artefact `tag` under
    /// the workload seed.
    pub fn stream(seed: u64, tag: u64, index: u64) -> Self {
        let mut s = SplitMix64::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(s.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for
    /// the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seed the program accepts on the command line and on the wire
    /// (kept below 2⁵³ so it survives a JSON number).
    pub fn program_seed(&mut self) -> u64 {
        1 + (self.next_u64() >> 12)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const TAG_DENSE20: u64 = 1;
const TAG_TRAJ12: u64 = 2;
const TAG_HOT15: u64 = 3;
const TAG_DEEP6: u64 = 4;

pub const HOT_CIRCUITS: usize = 3;
pub const DEEP_POOL: usize = 800;

/// A random layered circuit as OpenQASM 2.0: each layer gives every
/// qubit one rotation about a random axis by a random angle (so no
/// layer is Clifford), then entangles a random perfect pairing of the
/// qubits with CX or CZ. The first `measured` qubits are measured at
/// the end.
pub fn random_layers(n: usize, layers: usize, measured: usize, rng: &mut SplitMix64) -> String {
    let mut s =
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\ncreg c[{measured}];\n");
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..layers {
        for q in 0..n {
            let axis = ["rx", "ry", "rz"][rng.below(3) as usize];
            let angle = rng.unit() * std::f64::consts::TAU;
            let _ = writeln!(s, "{axis}({angle:.6}) q[{q}];");
        }
        rng.shuffle(&mut order);
        for pair in order.chunks_exact(2) {
            let gate = ["cx", "cz"][rng.below(2) as usize];
            let _ = writeln!(s, "{gate} q[{}], q[{}];", pair[0], pair[1]);
        }
    }
    for q in 0..measured {
        let _ = writeln!(s, "measure q[{q}] -> c[{q}];");
    }
    s
}

/// 20 qubits × 8 layers, all measured: one 16 MiB streaming state.
pub fn dense20x8(seed: u64) -> String {
    random_layers(20, 8, 20, &mut SplitMix64::stream(seed, TAG_DENSE20, 0))
}

/// 12 qubits × 10 layers, all measured: a 64 KiB state per noisy shot.
pub fn traj12x10(seed: u64) -> String {
    random_layers(12, 10, 12, &mut SplitMix64::stream(seed, TAG_TRAJ12, 0))
}

/// Hot serve circuit `k`: 15 qubits × 8 layers, 4 measured.
pub fn hot15x8(seed: u64, k: usize) -> String {
    random_layers(15, 8, 4, &mut SplitMix64::stream(seed, TAG_HOT15, k as u64))
}

/// One-off serve circuit `k`: 6 qubits × 40 layers (deep and narrow —
/// about 6.5 KB of text over a 1 KiB state), all measured.
pub fn deep6x40(seed: u64, k: usize) -> String {
    random_layers(6, 40, 6, &mut SplitMix64::stream(seed, TAG_DEEP6, k as u64))
}

/// Writes `files` under `dir` (created if missing).
pub fn write_files(dir: &Path, files: &[(String, String)]) -> std::io::Result<()> {
    for (name, text) in files {
        let path: PathBuf = dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated input for `seed` as `(relative file name, text)`,
    /// named as the workloads name them.
    fn generate(seed: u64) -> Vec<(String, String)> {
        let mut files = vec![
            ("dense20x8.qasm".to_string(), dense20x8(seed)),
            ("traj12x10.qasm".to_string(), traj12x10(seed)),
        ];
        for k in 0..HOT_CIRCUITS {
            files.push((format!("hot15x8.{k}.qasm"), hot15x8(seed, k)));
        }
        for k in 0..DEEP_POOL {
            files.push((format!("deep6x40/{k:03}.qasm"), deep6x40(seed, k)));
        }
        files
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // first outputs of the reference implementation for seed 0
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_gives_byte_identical_files_and_another_seed_differs() {
        let a = generate(1);
        assert_eq!(a.len(), 2 + HOT_CIRCUITS + DEEP_POOL);
        assert_eq!(a, generate(1));
        let b = generate(2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 != y.1));

        let dir = std::env::temp_dir().join(format!("qclab-e2e-gen-{}", std::process::id()));
        write_files(&dir, &a[..6]).unwrap();
        let first = std::fs::read(dir.join("dense20x8.qasm")).unwrap();
        write_files(&dir, &generate(1)[..6]).unwrap();
        assert_eq!(first, std::fs::read(dir.join("dense20x8.qasm")).unwrap());
        assert_eq!(
            std::fs::read(dir.join("deep6x40/000.qasm")).unwrap(),
            a[5].1.as_bytes()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_circuits_are_pairwise_distinct() {
        let mut texts: Vec<String> = (0..DEEP_POOL).map(|k| deep6x40(1, k)).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), DEEP_POOL);
    }

    #[test]
    fn layered_circuit_has_the_stated_shape() {
        let text = random_layers(6, 40, 6, &mut SplitMix64::new(9));
        let rotations = text.lines().filter(|l| l.starts_with('r')).count();
        let pairs = text
            .lines()
            .filter(|l| l.starts_with('c') && !l.starts_with("creg"))
            .count();
        assert_eq!(rotations, 6 * 40);
        assert_eq!(pairs, 3 * 40);
        assert_eq!(text.lines().filter(|l| l.starts_with("measure")).count(), 6);
        assert!(text.len() > 6000, "{}", text.len());
    }
}
