//! AVX2+FMA kernels for uncontrolled dense 1- and 2-qubit gates, and
//! the diagonal kernel.
//!
//! A scalar complex multiply costs ~3 scalar FMA chains per amplitude;
//! these paths process two amplitudes per 256-bit register. That does
//! not make a dense sweep memory-bound: on a 2-vCPU Xeon host the 2q
//! kernel costs about as much per amplitude with the state in L2 as
//! streamed from memory (EXPERIMENTS F21). A sweep's cost is its
//! arithmetic, which is why gate fusion pays by saving arithmetic and
//! per-pass overhead rather than bandwidth (DESIGN.md, "Why fusion
//! pays").
//!
//! Complex numbers are `[re, im]` pairs: [`C64`] is `#[repr(C)]`, and a
//! compile-time assertion beside it fixes its size at 16 bytes and its
//! alignment at 8, so a `__m256d` holds two amplitudes. The product
//! `z * m` for a constant `m` splits into `A ∓ B` with `A = z·m.re` and
//! `B = swap(z)·m.im` (`swap` exchanges re/im); `addsub` applies the
//! alternating sign.
//! Accumulating the `A` and `B` sides separately over matrix columns
//! turns a whole matrix row into FMA chains plus one final `addsub`.
//!
//! The dense kernels are only used when the gate has no controls (fused
//! blocks fold controls into the matrix) and the innermost stride admits
//! two consecutive groups; the diagonal kernel takes every diagonal gate,
//! its controls folded into the entries it is handed. Everything here is
//! gated on runtime CPU detection with the scalar kernels as the
//! universal fallback — and on nothing else: each kernel works on a
//! [`Part`] (or a chunk) of the register, the whole of it on the serial
//! path and one thread's share of it above the parallel threshold, so a
//! gate takes the same vector kernel, and every amplitude group the same
//! instruction sequence, at any thread count.
#![cfg(target_arch = "x86_64")]

use super::kernel::{DiagWalk, Part, DIAG_LANES};
use qclab_math::scalar::C64;
use std::arch::x86_64::*;

/// Runtime check for the features the kernels below are compiled with.
/// `is_x86_feature_detected!` caches internally, so per-gate calls are
/// cheap.
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// Swaps re/im within each complex slot: `[a, b, c, d] -> [b, a, d, c]`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn swap_reim(v: __m256d) -> __m256d {
    _mm256_permute_pd(v, 0b0101)
}

/// Uncontrolled dense single-qubit gate on the qubit with bit shift `s`.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, `s >= 1`, and `part` is a
/// [`Part`] of a gate whose only target bit is `s`, on a register of
/// power-of-two length `>= 2^(s+1)`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_1q_dense(part: Part<'_>, s: usize, m: [C64; 4]) {
    let half = 1usize << s;
    let (r0, rlen) = (part.r0, part.rlen);
    debug_assert!(s >= 1 && rlen >= 2 && r0 & (half | (rlen - 1)) == 0);
    let mre: [__m256d; 4] = std::array::from_fn(|i| _mm256_set1_pd(m[i].re));
    let mim: [__m256d; 4] = std::array::from_fn(|i| _mm256_set1_pd(m[i].im));
    let run = half.min(rlen);

    for a in (r0..r0 + rlen).step_by((half << 1).min(rlen)) {
        debug_assert!(a + half + run <= part.len());
        let lp = part.at(a) as *mut f64;
        let hp = part.at(a + half) as *mut f64;
        let mut j = 0usize;
        while j < run {
            let x = _mm256_loadu_pd(lp.add(2 * j));
            let y = _mm256_loadu_pd(hp.add(2 * j));
            let xs = swap_reim(x);
            let ys = swap_reim(y);
            // new_x = m00*x + m01*y, new_y = m10*x + m11*y
            let a0 = _mm256_fmadd_pd(y, mre[1], _mm256_mul_pd(x, mre[0]));
            let b0 = _mm256_fmadd_pd(ys, mim[1], _mm256_mul_pd(xs, mim[0]));
            let a1 = _mm256_fmadd_pd(y, mre[3], _mm256_mul_pd(x, mre[2]));
            let b1 = _mm256_fmadd_pd(ys, mim[3], _mm256_mul_pd(xs, mim[2]));
            _mm256_storeu_pd(lp.add(2 * j), _mm256_addsub_pd(a0, b0));
            _mm256_storeu_pd(hp.add(2 * j), _mm256_addsub_pd(a1, b1));
            j += 2;
        }
    }
}

/// [`apply_1q_dense`] for the least significant qubit (`s == 0`), where
/// the `(x, y)` pairs are adjacent: one 256-bit register holds a whole
/// pair, and lane broadcasts replace the cross-pair vectorization.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and `part` is a [`Part`]
/// of a gate whose only target bit is 0.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_1q_dense_lsb(part: Part<'_>, m: [C64; 4]) {
    // constant slots: [row0, row0, row1, row1] per matrix column
    let cre0 = _mm256_setr_pd(m[0].re, m[0].re, m[2].re, m[2].re);
    let cim0 = _mm256_setr_pd(m[0].im, m[0].im, m[2].im, m[2].im);
    let cre1 = _mm256_setr_pd(m[1].re, m[1].re, m[3].re, m[3].re);
    let cim1 = _mm256_setr_pd(m[1].im, m[1].im, m[3].im, m[3].im);
    debug_assert!(part.rlen >= 2 && part.r0 + part.rlen <= part.len());
    let p = part.at(part.r0) as *mut f64;
    for i in (0..part.rlen).step_by(2) {
        let v = _mm256_loadu_pd(p.add(2 * i)); // [x, y]
        let bx = _mm256_permute2f128_pd(v, v, 0x00); // [x, x]
        let by = _mm256_permute2f128_pd(v, v, 0x11); // [y, y]
        let a = _mm256_fmadd_pd(by, cre1, _mm256_mul_pd(bx, cre0));
        let b = _mm256_fmadd_pd(swap_reim(by), cim1, _mm256_mul_pd(swap_reim(bx), cim0));
        _mm256_storeu_pd(p.add(2 * i), _mm256_addsub_pd(a, b));
    }
}

/// Uncontrolled dense two-qubit gate. `s0`/`s1` are the bit shifts of
/// the gate's first/second target (gate order — they select the high and
/// low bit of the 4-dimensional sub-state index, matching
/// `Gate::target_matrix`), `m` the 4x4 matrix in row-major order.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, `s0 != s1`,
/// `min(s0, s1) >= 1`, and `part` is a [`Part`] of a gate with target
/// bits `s0`/`s1` on a register of power-of-two length
/// `>= 2^(max(s0, s1) + 1)`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_2q_dense(part: Part<'_>, s0: usize, s1: usize, m: &[C64]) {
    debug_assert_eq!(m.len(), 16);
    let (d0, d1) = (1usize << s0, 1usize << s1);
    let (d_lo, d_hi) = (d0.min(d1), d0.max(d1));
    let (r0, rlen) = (part.r0, part.rlen);
    debug_assert!(d_lo >= 2 && rlen >= 2 && r0 & (d0 | d1 | (rlen - 1)) == 0);
    let mre: [__m256d; 16] = std::array::from_fn(|i| _mm256_set1_pd(m[i].re));
    let mim: [__m256d; 16] = std::array::from_fn(|i| _mm256_set1_pd(m[i].im));

    // a stride at or above the part's range has its bit clear across the
    // whole range: its loop runs once, over the range
    let run = d_lo.min(rlen);
    for a in (r0..r0 + rlen).step_by((d_hi << 1).min(rlen)) {
        for b in (a..a + d_hi.min(rlen)).step_by((d_lo << 1).min(rlen)) {
            let mut i = b;
            while i < b + run {
                // two consecutive groups; sub-state index is
                // (bit at s0) << 1 | (bit at s1)
                let p00 = part.at(i) as *mut f64;
                let p01 = part.at(i + d1) as *mut f64;
                let p10 = part.at(i + d0) as *mut f64;
                let p11 = part.at(i + d0 + d1) as *mut f64;
                let v00 = _mm256_loadu_pd(p00);
                let v01 = _mm256_loadu_pd(p01);
                let v10 = _mm256_loadu_pd(p10);
                let v11 = _mm256_loadu_pd(p11);
                let w00 = swap_reim(v00);
                let w01 = swap_reim(v01);
                let w10 = swap_reim(v10);
                let w11 = swap_reim(v11);
                let mut out = [_mm256_setzero_pd(); 4];
                for (r, o) in out.iter_mut().enumerate() {
                    let k = 4 * r;
                    let mut acc_a = _mm256_mul_pd(v00, mre[k]);
                    acc_a = _mm256_fmadd_pd(v01, mre[k + 1], acc_a);
                    acc_a = _mm256_fmadd_pd(v10, mre[k + 2], acc_a);
                    acc_a = _mm256_fmadd_pd(v11, mre[k + 3], acc_a);
                    let mut acc_b = _mm256_mul_pd(w00, mim[k]);
                    acc_b = _mm256_fmadd_pd(w01, mim[k + 1], acc_b);
                    acc_b = _mm256_fmadd_pd(w10, mim[k + 2], acc_b);
                    acc_b = _mm256_fmadd_pd(w11, mim[k + 3], acc_b);
                    *o = _mm256_addsub_pd(acc_a, acc_b);
                }
                _mm256_storeu_pd(p00, out[0]);
                _mm256_storeu_pd(p01, out[1]);
                _mm256_storeu_pd(p10, out[2]);
                _mm256_storeu_pd(p11, out[3]);
                i += 2;
            }
        }
    }
}

/// [`apply_2q_dense`] when one target sits on the least significant
/// qubit (`min(s0, s1) == 0`): consecutive sub-states of one group are
/// adjacent in memory, so each group is processed with lane broadcasts
/// instead of pairing two groups.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, exactly one of `s0`/`s1`
/// is zero, and `part` is a [`Part`] of a gate with target bits
/// `s0`/`s1` on a register of power-of-two length
/// `>= 2^(max(s0, s1) + 1)`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_2q_dense_lsb(part: Part<'_>, s0: usize, s1: usize, m: &[C64]) {
    debug_assert_eq!(m.len(), 16);
    debug_assert!(s0.min(s1) == 0 && s0 != s1);
    let (r0, rlen) = (part.r0, part.rlen);
    // The LSB target makes consecutive sub-states memory-adjacent. When
    // the LSB is the *low* sub-index bit (s1 == 0) the low/high memory
    // pairs hold sub-states (0,1)/(2,3); when it is the high bit
    // (s0 == 0) they interleave to (0,2)/(1,3). Only the slot
    // bookkeeping differs between the two cases — matrix columns are
    // always accumulated in original 0..4 order, so the rounding (and
    // thus the result) is bit-identical to `apply_2q_dense`, which the
    // locality pass relies on when it relabels a target onto the LSB.
    let lsb_is_low_sub = s1 == 0;
    let d_hi = 1usize << s0.max(s1);
    // rows living in the (low, high) memory pairs, in memory order
    let pair_rows: [[usize; 2]; 2] = if lsb_is_low_sub {
        [[0, 1], [2, 3]]
    } else {
        [[0, 2], [1, 3]]
    };
    // constant slots: [row a, row a, row b, row b] per matrix column
    let cre: [__m256d; 8] = std::array::from_fn(|i| {
        let (rows, c) = (pair_rows[i / 4], i % 4);
        _mm256_setr_pd(
            m[4 * rows[0] + c].re,
            m[4 * rows[0] + c].re,
            m[4 * rows[1] + c].re,
            m[4 * rows[1] + c].re,
        )
    });
    let cim: [__m256d; 8] = std::array::from_fn(|i| {
        let (rows, c) = (pair_rows[i / 4], i % 4);
        _mm256_setr_pd(
            m[4 * rows[0] + c].im,
            m[4 * rows[0] + c].im,
            m[4 * rows[1] + c].im,
            m[4 * rows[1] + c].im,
        )
    });
    debug_assert!(rlen >= 2 && r0 & (d_hi | (rlen - 1)) == 0);
    for a in (r0..r0 + rlen).step_by((d_hi << 1).min(rlen)) {
        for base in (a..a + d_hi.min(rlen)).step_by(2) {
            let (plo, phi) = (part.at(base) as *mut f64, part.at(base + d_hi) as *mut f64);
            let lo = _mm256_loadu_pd(plo);
            let hi = _mm256_loadu_pd(phi);
            let l0 = _mm256_permute2f128_pd(lo, lo, 0x00);
            let l1 = _mm256_permute2f128_pd(lo, lo, 0x11);
            let h0 = _mm256_permute2f128_pd(hi, hi, 0x00);
            let h1 = _mm256_permute2f128_pd(hi, hi, 0x11);
            // broadcast slots indexed by original sub-state
            let z = if lsb_is_low_sub {
                [l0, l1, h0, h1]
            } else {
                [l0, h0, l1, h1]
            };
            let zs = [
                swap_reim(z[0]),
                swap_reim(z[1]),
                swap_reim(z[2]),
                swap_reim(z[3]),
            ];
            // pair_rows[0] into the low pair, pair_rows[1] into the high
            let mut acc_a = _mm256_mul_pd(z[0], cre[0]);
            let mut acc_b = _mm256_mul_pd(zs[0], cim[0]);
            for c in 1..4 {
                acc_a = _mm256_fmadd_pd(z[c], cre[c], acc_a);
                acc_b = _mm256_fmadd_pd(zs[c], cim[c], acc_b);
            }
            _mm256_storeu_pd(plo, _mm256_addsub_pd(acc_a, acc_b));
            let mut acc_a = _mm256_mul_pd(z[0], cre[4]);
            let mut acc_b = _mm256_mul_pd(zs[0], cim[4]);
            for c in 1..4 {
                acc_a = _mm256_fmadd_pd(z[c], cre[4 + c], acc_a);
                acc_b = _mm256_fmadd_pd(zs[c], cim[4 + c], acc_b);
            }
            _mm256_storeu_pd(phi, _mm256_addsub_pd(acc_a, acc_b));
        }
    }
}

/// Uncontrolled dense k-qubit gate for `k >= 3` (fused blocks up to the
/// fusion cap). `shifts` are the bit shifts of the targets in gate
/// order (`shifts[0]` selects the most significant sub-state bit), `m`
/// the `2^k x 2^k` matrix in row-major order. Two consecutive groups are
/// processed per iteration; the matrix constants live in L1-resident
/// broadcast tables.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, all shifts are distinct
/// and `>= 1`, and `part` is a [`Part`] of a gate with target bits
/// `shifts` on a register of power-of-two length with at least two
/// groups (`len >> k >= 2`).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_kq_dense(part: Part<'_>, shifts: &[usize], m: &[C64]) {
    let k = shifts.len();
    let dim = 1usize << k;
    debug_assert_eq!(m.len(), dim * dim);
    debug_assert!(shifts.iter().all(|&s| s >= 1));

    // scatter offsets of each sub-state (shifts[0] = most significant)
    let offsets: Vec<usize> = (0..dim)
        .map(|sub| {
            shifts
                .iter()
                .enumerate()
                .map(|(i, &s)| ((sub >> (k - 1 - i)) & 1) << s)
                .sum()
        })
        .collect();
    let mre: Vec<__m256d> = m.iter().map(|z| _mm256_set1_pd(z.re)).collect();
    let mim: Vec<__m256d> = m.iter().map(|z| _mm256_set1_pd(z.im)).collect();

    let mut sorted = shifts.to_vec();
    sorted.sort_unstable();
    let base_of = |mcount: usize| {
        let mut base = mcount;
        for &s in &sorted {
            base = qclab_math::bits::insert_bit(base, s);
        }
        base
    };

    let tmask = shifts.iter().fold(0usize, |t, &s| t | (1 << s));
    let groups = part.groups(tmask);
    debug_assert!(groups >= 2 && groups.is_multiple_of(2) && part.r0 & tmask == 0);
    let mut v = vec![_mm256_setzero_pd(); dim];
    let mut w = vec![_mm256_setzero_pd(); dim];
    let mut out = vec![_mm256_setzero_pd(); dim];
    let mut mcount = 0usize;
    while mcount < groups {
        // every shift is >= 1, so bit 0 of the counter maps to bit 0 of
        // the base index: groups (mcount, mcount + 1) are adjacent
        let base = part.r0 | base_of(mcount);
        for sub in 0..dim {
            v[sub] = _mm256_loadu_pd(part.at(base + offsets[sub]) as *const f64);
            w[sub] = swap_reim(v[sub]);
        }
        for (r, o) in out.iter_mut().enumerate() {
            let row = r * dim;
            let mut acc_a = _mm256_mul_pd(v[0], mre[row]);
            let mut acc_b = _mm256_mul_pd(w[0], mim[row]);
            for c in 1..dim {
                acc_a = _mm256_fmadd_pd(v[c], mre[row + c], acc_a);
                acc_b = _mm256_fmadd_pd(w[c], mim[row + c], acc_b);
            }
            *o = _mm256_addsub_pd(acc_a, acc_b);
        }
        for sub in 0..dim {
            _mm256_storeu_pd(part.at(base + offsets[sub]) as *mut f64, out[sub]);
        }
        mcount += 2;
    }
}

/// The diagonal kernel's vector form: each run [`DiagWalk`] hands out is
/// scaled two amplitudes per register, lane entries `lanes[2j]` and
/// `lanes[2j + 1]` in register `j` of four. The product is
/// `addsub(z·re, swap(z)·im)` — a `mul`, a `mul` and an `addsub`, no FMA —
/// which rounds exactly as the scalar `C64` product does; a lane whose
/// entry equals one keeps its amplitude, as the scalar loop skips it.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and `part.len()` is a
/// multiple of [`DIAG_LANES`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn apply_diagonal(walk: &DiagWalk, base: usize, part: &mut [C64]) {
    let one = _mm256_setr_pd(1.0, 0.0, 1.0, 0.0);
    walk.for_each_run(base, part, |run, lanes| {
        let (mut re, mut im, mut keep) = (
            [_mm256_setzero_pd(); 4],
            [_mm256_setzero_pd(); 4],
            [_mm256_setzero_pd(); 4],
        );
        for j in 0..4 {
            let d = _mm256_loadu_pd(lanes[2 * j..].as_ptr() as *const f64);
            re[j] = _mm256_movedup_pd(d);
            im[j] = _mm256_permute_pd(d, 0b1111);
            let eq = _mm256_cmp_pd(d, one, _CMP_EQ_OQ);
            keep[j] = _mm256_and_pd(eq, swap_reim(eq));
        }
        debug_assert!(run.len().is_multiple_of(DIAG_LANES));
        for group in run.chunks_exact_mut(DIAG_LANES) {
            let p = group.as_mut_ptr() as *mut f64;
            // register `j` holds amplitudes `2j` and `2j + 1` of the group
            for j in 0..4 {
                let z = _mm256_loadu_pd(p.add(4 * j));
                let prod =
                    _mm256_addsub_pd(_mm256_mul_pd(z, re[j]), _mm256_mul_pd(swap_reim(z), im[j]));
                _mm256_storeu_pd(p.add(4 * j), _mm256_blendv_pd(prod, z, keep[j]));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::scalar::{c, cr};
    use qclab_math::CVec;

    fn random_state(n: usize, seed: u64) -> Vec<C64> {
        // tiny deterministic LCG, good enough for kernel cross-checks
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        };
        (0..1 << n).map(|_| c(next(), next())).collect()
    }

    #[test]
    fn avx_1q_matches_scalar_reference() {
        if !available() {
            return;
        }
        let n = 6;
        let m = [cr(0.6), c(0.0, 0.8), c(0.0, 0.8), cr(0.6)];
        for s in 0..n {
            let mut state = random_state(n, 7 + s as u64);
            let mut reference = state.clone();
            // scalar reference
            let half = 1usize << s;
            for chunk in reference.chunks_mut(half << 1) {
                let (lo, hi) = chunk.split_at_mut(half);
                for j in 0..half {
                    let (x, y) = (lo[j], hi[j]);
                    lo[j] = m[0] * x + m[1] * y;
                    hi[j] = m[2] * x + m[3] * y;
                }
            }
            unsafe {
                if s >= 1 {
                    apply_1q_dense(Part::whole(&mut state), s, m);
                } else {
                    apply_1q_dense_lsb(Part::whole(&mut state), m);
                }
            }
            let a = CVec(state);
            let b = CVec(reference);
            assert!(a.approx_eq(&b, 1e-13), "shift {s} diverged");
        }
    }

    #[test]
    fn avx_kq_matches_scalar_reference() {
        if !available() {
            return;
        }
        let n = 7;
        for shifts in [vec![3usize, 1, 5], vec![2, 4, 1, 3]] {
            let k = shifts.len();
            let dim = 1usize << k;
            let m: Vec<C64> = (0..dim * dim)
                .map(|i| c(0.05 * i as f64 - 1.0, 0.3 - 0.02 * i as f64))
                .collect();
            let mut state = random_state(n, 99 + k as u64);
            let mut reference = state.clone();
            // scalar reference: gather, matvec, scatter per group
            let offsets: Vec<usize> = (0..dim)
                .map(|sub| {
                    shifts
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| ((sub >> (k - 1 - i)) & 1) << s)
                        .sum()
                })
                .collect();
            let mut sorted = shifts.clone();
            sorted.sort_unstable();
            for mcount in 0..reference.len() >> k {
                let mut base = mcount;
                for &s in &sorted {
                    base = qclab_math::bits::insert_bit(base, s);
                }
                let v: Vec<C64> = offsets.iter().map(|&o| reference[base + o]).collect();
                for (r, &o) in offsets.iter().enumerate() {
                    reference[base + o] = (0..dim).map(|cc| m[dim * r + cc] * v[cc]).sum();
                }
            }
            unsafe { apply_kq_dense(Part::whole(&mut state), &shifts, &m) };
            let a = CVec(state);
            let b = CVec(reference);
            assert!(a.approx_eq(&b, 1e-12), "k={k} diverged");
        }
    }

    #[test]
    fn avx_2q_lsb_is_bit_identical_to_dense_under_bit_swap() {
        // The locality pass relabels a 2q target onto the LSB and relies
        // on the lsb kernel computing the *same floating-point op
        // sequence* as the general kernel — bit-identical, not ≈.
        if !available() {
            return;
        }
        let n = 5;
        let m: Vec<C64> = (0..16)
            .map(|i| c(0.1 + 0.05 * i as f64, 0.2 - 0.03 * i as f64))
            .collect();
        let a = random_state(n, 1234);
        // b[j] = a[i] with bits 0 and 3 of the index swapped
        let swap_bits = |i: usize| -> usize {
            let (b0, b3) = (i & 1, (i >> 3) & 1);
            (i & !0b1001) | (b0 << 3) | b3
        };
        let mut b: Vec<C64> = a.clone();
        for (i, &z) in a.iter().enumerate() {
            b[swap_bits(i)] = z;
        }
        let mut ra = a.clone();
        let mut rb = b.clone();
        unsafe {
            // first target on bit 3 in `a` ↔ on bit 0 in `b`
            apply_2q_dense(Part::whole(&mut ra), 3, 2, &m);
            apply_2q_dense_lsb(Part::whole(&mut rb), 0, 2, &m);
        }
        for (i, &z) in ra.iter().enumerate() {
            let w = rb[swap_bits(i)];
            assert_eq!(z.re.to_bits(), w.re.to_bits(), "re diverged at {i}");
            assert_eq!(z.im.to_bits(), w.im.to_bits(), "im diverged at {i}");
        }
    }

    #[test]
    fn avx_2q_matches_scalar_reference() {
        if !available() {
            return;
        }
        let n = 6;
        // a non-symmetric dense 4x4 so argument order mistakes are caught
        let m: Vec<C64> = (0..16)
            .map(|i| c(0.1 + 0.05 * i as f64, 0.2 - 0.03 * i as f64))
            .collect();
        for s0 in 0..n {
            for s1 in 0..n {
                if s0 == s1 {
                    continue;
                }
                let mut state = random_state(n, (s0 * 8 + s1) as u64);
                let mut reference = state.clone();
                let (dl, dh) = ((1usize << s0).min(1 << s1), (1usize << s0).max(1 << s1));
                for a in (0..reference.len()).step_by(dh << 1) {
                    for b in (a..a + dh).step_by(dl << 1) {
                        for i in b..b + dl {
                            let idx = [i, i + (1 << s1), i + (1 << s0), i + (1 << s0) + (1 << s1)];
                            let v: Vec<C64> = idx.iter().map(|&j| reference[j]).collect();
                            for r in 0..4 {
                                reference[idx[r]] = (0..4).map(|cc| m[4 * r + cc] * v[cc]).sum();
                            }
                        }
                    }
                }
                unsafe {
                    if s0.min(s1) >= 1 {
                        apply_2q_dense(Part::whole(&mut state), s0, s1, &m);
                    } else {
                        apply_2q_dense_lsb(Part::whole(&mut state), s0, s1, &m);
                    }
                }
                let a = CVec(state);
                let b = CVec(reference);
                assert!(a.approx_eq(&b, 1e-13), "shifts {s0}/{s1} diverged");
            }
        }
    }
}
