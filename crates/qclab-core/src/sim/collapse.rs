//! Measurement probability computation and state collapse.
//!
//! Implements paper Sec. 3.3: outcome probabilities are sums of squared
//! amplitude magnitudes over the matching half of the register, and the
//! post-measurement state is the renormalized restriction to that half.
//! As in QCLAB, bitwise operations enumerate the indices of the collapsed
//! subspace directly.

use qclab_math::bits;
use qclab_math::CVec;

/// Probabilities `(P(0), P(1))` of a Z-basis measurement of logical
/// qubit `q`. `map` is the logical→physical layout of a state the
/// locality pass relabeled (see `qclab_core::program`; `None` = the
/// identity).
///
/// Bit-identity contract: every partial sum is accumulated in logical
/// index order, so a relabeled state's probabilities are bit-for-bit
/// those of the equivalent logical-layout state, not just approximately
/// equal.
pub fn measure_probabilities(
    state: &CVec,
    n: usize,
    q: usize,
    map: Option<&[usize]>,
) -> (f64, f64) {
    match map {
        None => probabilities_at(state, n, q, |i| i),
        Some(map) => probabilities_at(state, n, q, |i| bits::permute_index(i, map, n)),
    }
}

/// [`measure_probabilities`] with `at` mapping a logical index to where
/// it is stored: generic, so the identity layout compiles to a plain
/// indexed loop.
fn probabilities_at(state: &CVec, n: usize, q: usize, at: impl Fn(usize) -> usize) -> (f64, f64) {
    let s = bits::qubit_shift(q, n);
    let half = state.len() >> 1;
    let mut p0 = 0.0;
    for k in 0..half {
        p0 += state[at(bits::insert_bit(k, s))].norm_sqr();
    }
    // The total may drift from 1 by rounding; derive P(1) from the actual
    // norm so both probabilities stay consistent with the state.
    let total: f64 = (0..state.len()).map(|l| state[at(l)].norm_sqr()).sum();
    (p0, (total - p0).max(0.0))
}

/// Collapses `state` onto outcome `bit` of a Z measurement of logical
/// qubit `q` (layout `map`, as in [`measure_probabilities`]),
/// renormalizing by `1/sqrt(prob)`. The returned vector keeps the full
/// register dimension with zeros in the eliminated subspace, matching the
/// `2^n x 1` post-measurement states QCLAB reports.
pub fn collapse(
    state: &CVec,
    n: usize,
    q: usize,
    bit: usize,
    prob: f64,
    map: Option<&[usize]>,
) -> CVec {
    let mut out = CVec::zeros(0);
    collapse_into(state, n, q, bit, prob, map, &mut out);
    out
}

/// [`collapse`] writing into a caller-provided buffer — the arithmetic is
/// identical, so the result is bit-for-bit the same. The trajectory
/// engine uses this with a per-shot scratch buffer to avoid allocating
/// a fresh `2^n` vector on every mid-circuit measurement of every shot.
/// Under a layout the result is the permutation of the logical-layout
/// collapse, bit for bit.
pub fn collapse_into(
    state: &CVec,
    n: usize,
    q: usize,
    bit: usize,
    prob: f64,
    map: Option<&[usize]>,
    out: &mut CVec,
) {
    match map {
        None => collapse_at(state, n, q, bit, prob, out, |i| i),
        Some(map) => collapse_at(state, n, q, bit, prob, out, |i| {
            bits::permute_index(i, map, n)
        }),
    }
}

/// [`collapse_into`] with `at` as in [`probabilities_at`].
fn collapse_at(
    state: &CVec,
    n: usize,
    q: usize,
    bit: usize,
    prob: f64,
    out: &mut CVec,
    at: impl Fn(usize) -> usize,
) {
    debug_assert!(bit <= 1);
    debug_assert!(prob > 0.0, "collapse onto a zero-probability outcome");
    let s = bits::qubit_shift(q, n);
    let inv = 1.0 / prob.sqrt();
    out.0.clear();
    out.0.resize(state.len(), qclab_math::scalar::zero());
    let half = state.len() >> 1;
    for k in 0..half {
        let i = at(bits::insert_bit(k, s) | (bit << s));
        out[i] = state[i] * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::scalar::{c, cr};

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn probabilities_of_bell_state() {
        let bell = CVec(vec![cr(INV_SQRT2), cr(0.0), cr(0.0), cr(INV_SQRT2)]);
        for q in 0..2 {
            let (p0, p1) = measure_probabilities(&bell, 2, q, None);
            assert!((p0 - 0.5).abs() < 1e-15);
            assert!((p1 - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    fn probabilities_of_basis_state() {
        let s = CVec::from_bitstring("10").unwrap();
        let (p0, p1) = measure_probabilities(&s, 2, 0, None);
        assert!(p0.abs() < 1e-15);
        assert!((p1 - 1.0).abs() < 1e-15);
        let (p0, p1) = measure_probabilities(&s, 2, 1, None);
        assert!((p0 - 1.0).abs() < 1e-15);
        assert!(p1.abs() < 1e-15);
    }

    #[test]
    fn collapse_of_bell_state_yields_correlated_outcome() {
        let bell = CVec(vec![cr(INV_SQRT2), cr(0.0), cr(0.0), cr(INV_SQRT2)]);
        let c0 = collapse(&bell, 2, 0, 0, 0.5, None);
        // outcome 0 on qubit 0 leaves |00> with unit amplitude
        assert!((c0[0].re - 1.0).abs() < 1e-15);
        assert!((c0.norm() - 1.0).abs() < 1e-15);
        let c1 = collapse(&bell, 2, 0, 1, 0.5, None);
        assert!((c1[3].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn collapse_preserves_relative_phases() {
        // (|00> + i|01> + |10> + i|11>)/2, measure qubit 1
        let s = CVec(vec![cr(0.5), c(0.0, 0.5), cr(0.5), c(0.0, 0.5)]);
        let (p0, p1) = measure_probabilities(&s, 2, 1, None);
        assert!((p0 - 0.5).abs() < 1e-15);
        assert!((p1 - 0.5).abs() < 1e-15);
        let c1 = collapse(&s, 2, 1, 1, p1, None);
        // remaining superposition (|01> + |11>)/√2 with phase i
        assert!((c1[1].im - INV_SQRT2).abs() < 1e-15);
        assert!((c1[3].im - INV_SQRT2).abs() < 1e-15);
        assert!(c1[0].norm() < 1e-15);
    }

    #[test]
    fn mapped_collapse_is_bit_identical_to_unmapped() {
        use qclab_math::bits;
        let n = 3;
        // arbitrary normalized state with irrational amplitudes so any
        // summation-order change would show up in the low bits
        let logical = CVec(
            (0..1usize << n)
                .map(|i| c((i as f64 + 0.3).sqrt(), (i as f64 * 0.7).sin()))
                .collect(),
        );
        let norm = logical.norm();
        let logical = CVec(logical.0.iter().map(|z| *z * (1.0 / norm)).collect());
        let map = [2usize, 0, 1]; // logical q -> physical map[q]
        let mut physical = CVec::zeros(1 << n);
        for i in 0..1usize << n {
            physical[bits::permute_index(i, &map, n)] = logical[i];
        }
        for q in 0..n {
            let (p0, p1) = measure_probabilities(&logical, n, q, None);
            let (m0, m1) = measure_probabilities(&physical, n, q, Some(&map));
            // bit-identical, not approximately equal
            assert_eq!(p0.to_bits(), m0.to_bits());
            assert_eq!(p1.to_bits(), m1.to_bits());
            let want = collapse(&logical, n, q, 0, p0, None);
            let mut got = CVec::zeros(0);
            collapse_into(&physical, n, q, 0, m0, Some(&map), &mut got);
            for i in 0..1usize << n {
                let j = bits::permute_index(i, &map, n);
                assert_eq!(want[i].re.to_bits(), got[j].re.to_bits());
                assert_eq!(want[i].im.to_bits(), got[j].im.to_bits());
            }
        }
    }

    #[test]
    fn collapse_is_idempotent() {
        let s = CVec(vec![cr(0.6), cr(0.0), cr(0.0), cr(0.8)]);
        let (p0, _) = measure_probabilities(&s, 2, 0, None);
        let c0 = collapse(&s, 2, 0, 0, p0, None);
        let (q0, q1) = measure_probabilities(&c0, 2, 0, None);
        assert!((q0 - 1.0).abs() < 1e-12);
        assert!(q1.abs() < 1e-12);
        let again = collapse(&c0, 2, 0, 0, q0, None);
        assert!(again.approx_eq(&c0, 1e-12));
    }
}
