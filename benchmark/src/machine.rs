//! What the machine itself can do, measured in the same run as the
//! program: the reference unit (a fixed piece of work timed between
//! rounds, which round times are taken relative to, so that a shift of
//! the whole host shows up as what it is) and stream-copy bandwidth
//! (the roofline the dense kernels are judged by).

use crate::stats;
use crate::sys;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// The reference unit: starting a process that does nothing and
/// waiting for it to end — the harness's own binary in its `noop` mode,
/// so the unit never changes with the program under test. Its cost
/// depends on the host alone, and on the parts of the host the program
/// leans on (process start, page faults, the clock of whichever core it
/// lands on). A fixed arithmetic-and-stream loop was tried first and
/// did not follow the program's run-to-run shifts; this does (README,
/// "Why relative to a reference").
pub struct Reference {
    noop: PathBuf,
}

/// First argument that makes `qclab-e2e` exit at once with code 0.
pub const NOOP_ARG: &str = "noop";

impl Reference {
    pub fn new() -> std::io::Result<Self> {
        Ok(Reference {
            noop: std::env::current_exe()?,
        })
    }

    fn unit_ms(&self) -> std::io::Result<f64> {
        sys::time_process_ms(Command::new(&self.noop).arg(NOOP_ARG))
    }

    /// One sample: the median of three consecutive units.
    pub fn sample_ms(&self) -> std::io::Result<f64> {
        Ok(stats::median(&[
            self.unit_ms()?,
            self.unit_ms()?,
            self.unit_ms()?,
        ]))
    }
}

/// `(max − min) / median` over the medians of ten equal-time bins of
/// the reference samples `(seconds since the phase began, ms)`. Empty
/// bins are skipped; fewer than two filled bins give 0.
pub fn regime_drift(samples: &[(f64, f64)]) -> f64 {
    let Some(end) = samples.iter().map(|s| s.0).reduce(f64::max) else {
        return 0.0;
    };
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); 10];
    for &(t, ms) in samples {
        let bin = if end > 0.0 {
            (t / end * 10.0) as usize
        } else {
            0
        };
        bins[bin.min(9)].push(ms);
    }
    let medians: Vec<f64> = bins
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stats::median(b))
        .collect();
    if medians.len() < 2 {
        return 0.0;
    }
    let max = medians.iter().copied().fold(f64::MIN, f64::max);
    let min = medians.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / stats::median(&medians)
}

/// Stream-copy bandwidth in GB/s (10⁹ bytes, read plus write counted)
/// for two arrays of `bytes` each, copied by `threads` threads; the
/// median of `reps` timed copies after one untimed pass.
pub fn copy_gbps(bytes: usize, threads: usize, reps: usize) -> f64 {
    let words = bytes / 8;
    let src = vec![3u64; words];
    let mut dst = vec![0u64; words];
    let chunk = words.div_ceil(threads.max(1)).max(1);
    let mut rates = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                scope.spawn(move || d.copy_from_slice(black_box(s)));
            }
        });
        black_box(&mut dst);
        let secs = t.elapsed().as_secs_f64();
        // the first pass faults the destination pages in
        if rep > 0 {
            rates.push(2.0 * (words * 8) as f64 / secs / 1e9);
        }
    }
    stats::median(&rates)
}

/// Array size for the DRAM-bandwidth measurement: four times the
/// last-level cache, when two such arrays fit in a quarter of the
/// memory available; `None` when the cache size is unknown or they do
/// not fit.
pub fn dram_array_bytes(llc: Option<u64>, mem_available: Option<u64>) -> Option<usize> {
    let array = llc?.checked_mul(4)?;
    (array.checked_mul(2)? <= mem_available? / 4).then_some(array as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_relative_spread_of_bin_medians() {
        // steady host
        let steady: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 2.0)).collect();
        assert_eq!(regime_drift(&steady), 0.0);
        // second half of the phase 20 % slower
        let shifted: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, if i < 50 { 2.0 } else { 2.4 }))
            .collect();
        assert!((regime_drift(&shifted) - 0.4 / 2.2).abs() < 1e-9);
        // one outlier inside a bin does not move its median
        let mut spiky = steady.clone();
        spiky[33].1 = 50.0;
        assert_eq!(regime_drift(&spiky), 0.0);
        assert_eq!(regime_drift(&[]), 0.0);
        assert_eq!(regime_drift(&[(0.0, 1.0)]), 0.0);
    }

    #[test]
    fn copy_bandwidth_is_positive_for_one_and_two_threads() {
        assert!(copy_gbps(1 << 20, 1, 3) > 0.0);
        assert!(copy_gbps(1 << 20, 2, 3) > 0.0);
    }

    #[test]
    fn dram_arrays_must_fit_a_quarter_of_memory() {
        let mib = 1u64 << 20;
        assert_eq!(
            dram_array_bytes(Some(32 * mib), Some(16384 * mib)),
            Some(128 << 20)
        );
        assert_eq!(dram_array_bytes(Some(260 * mib), Some(4096 * mib)), None);
        assert_eq!(dram_array_bytes(None, Some(4096 * mib)), None);
        assert_eq!(dram_array_bytes(Some(mib), None), None);
    }
}
