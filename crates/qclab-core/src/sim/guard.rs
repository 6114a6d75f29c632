//! Pre-allocation resource guard.
//!
//! Every dense simulation path in the workspace eventually allocates a
//! `1 << n` amplitude buffer (or a `2^n × 2^n` matrix). For large `n` that
//! allocation aborts the process — or, for `n ≥ 64`, the shift itself
//! overflows before the allocator is even reached. [`ResourceLimits`]
//! estimates the memory an operation would need *before* any allocation
//! and turns oversized requests into [`QclabError::ResourceExhausted`],
//! so callers always get an error value instead of an abort.
//!
//! The default cap is [`DEFAULT_MAX_STATE_BYTES`] (4 GiB ≈ 28 state-vector
//! qubits). The CLI exposes it as `--max-qubits`; library users set
//! [`ResourceLimits`] on `SimOptions` / `TrajectoryConfig` directly.

use crate::error::QclabError;

/// Bytes per amplitude (`C64` = two `f64`).
pub const AMPLITUDE_BYTES: u128 = 16;

/// Bytes one live entry of the sparse hashmap state costs: a `usize`
/// basis index, a `C64` amplitude, and hashmap slot/load-factor
/// overhead. The sparse executor's live-entry budget is
/// `max_state_bytes / SPARSE_ENTRY_BYTES`, so dense and sparse runs
/// answer to the same byte cap.
pub const SPARSE_ENTRY_BYTES: u128 = 48;

/// Default cap on a single state allocation: 4 GiB, i.e. a 28-qubit
/// state vector (or a 14-qubit density matrix, which lives on a doubled
/// register).
pub const DEFAULT_MAX_STATE_BYTES: u128 = 4 << 30;

/// Bytes one packed `u64` word-pair costs in the stabilizer tableau and
/// the Pauli-frame planes: an `x` word plus a `z` word, 8 B each.
pub const TABLEAU_WORD_BYTES: u128 = 16;

/// Bytes a Pauli-frame batch holds per lane beside its bit-planes: the
/// lane's RNG stream (32 B), its noise walk (the next hit of each of the
/// three noise classes, 24 B) and its queue link, padded — a fixed size
/// whatever the lane's hit count (`sim::frame` asserts it against the
/// type).
pub const FRAME_LANE_BYTES: u128 = 64;

/// Memory/size limits checked before dense state allocations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Hard cap on the register size in qubits, independent of memory.
    /// `None` means the register size is limited only by
    /// [`max_state_bytes`](Self::max_state_bytes).
    pub max_qubits: Option<usize>,
    /// Cap on the bytes a single dense state may occupy.
    pub max_state_bytes: u128,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_qubits: None,
            max_state_bytes: DEFAULT_MAX_STATE_BYTES,
        }
    }
}

impl ResourceLimits {
    /// Limits that refuse nothing the address space can index. The
    /// `n < 64` shift-overflow guard still applies.
    pub fn unlimited() -> Self {
        ResourceLimits {
            max_qubits: None,
            max_state_bytes: u128::MAX,
        }
    }

    /// Default byte cap plus an explicit qubit cap (CLI `--max-qubits`).
    pub fn with_max_qubits(max_qubits: usize) -> Self {
        ResourceLimits {
            max_qubits: Some(max_qubits),
            ..ResourceLimits::default()
        }
    }

    /// Bytes a dense `nb_qubits`-qubit state vector occupies, or `None`
    /// when `2^n · 16` does not even fit in a `u128`.
    pub fn state_bytes(nb_qubits: usize) -> Option<u128> {
        if nb_qubits >= 124 {
            return None;
        }
        Some((1u128 << nb_qubits) * AMPLITUDE_BYTES)
    }

    /// Checks that a dense `nb_qubits`-qubit state vector may be
    /// allocated and returns its dimension `1 << nb_qubits`. That one
    /// vector is a noiseless dense run's peak, up to small lookup tables
    /// and tallies: layout permutes work in place, and a terminal table no
    /// plan could keep is streamed instead while its shots' points weigh
    /// less (`sim::route::TerminalDraw`). A run that builds such a
    /// table anyway (noisy lanes, more shots) holds it on top.
    pub fn check_register(&self, nb_qubits: usize) -> Result<usize, QclabError> {
        let bytes = Self::state_bytes(nb_qubits);
        if let Some(max_q) = self.max_qubits {
            if nb_qubits > max_q {
                return Err(QclabError::ResourceExhausted {
                    qubits: nb_qubits,
                    bytes_needed: bytes,
                    limit_bytes: Self::state_bytes(max_q).unwrap_or(u128::MAX),
                });
            }
        }
        // `1usize << n` is only defined for n < 64; checking it here is
        // what makes the shift below (and in every caller) safe.
        let indexable = nb_qubits < usize::BITS as usize;
        match bytes {
            Some(b) if indexable && b <= self.max_state_bytes => Ok(1usize << nb_qubits),
            _ => Err(QclabError::ResourceExhausted {
                qubits: nb_qubits,
                bytes_needed: bytes,
                limit_bytes: self.max_state_bytes,
            }),
        }
    }

    /// Checks that `branches` dense `nb_qubits`-qubit states fit the byte
    /// cap together: the branch set a measurement or reset splits a
    /// simulation into, checked before each new branch is allocated.
    pub fn check_branches(&self, nb_qubits: usize, branches: usize) -> Result<(), QclabError> {
        let bytes = Self::state_bytes(nb_qubits).map(|b| b.saturating_mul(branches as u128));
        match bytes {
            Some(b) if b <= self.max_state_bytes => Ok(()),
            _ => Err(QclabError::ResourceExhausted {
                qubits: nb_qubits,
                bytes_needed: bytes,
                limit_bytes: self.max_state_bytes,
            }),
        }
    }

    /// Live-entry budget of a sparse execution under these limits: the
    /// byte cap divided by [`SPARSE_ENTRY_BYTES`].
    pub fn max_sparse_entries(&self) -> u128 {
        self.max_state_bytes / SPARSE_ENTRY_BYTES
    }

    /// Checks that a sparse state over `nb_qubits` qubits may exist at
    /// all: the explicit qubit cap still applies and basis indices must
    /// be addressable (`n < 64`), but — unlike
    /// [`check_register`](Self::check_register) — no `2^n` byte estimate
    /// is charged. Memory admission for sparse states is per live entry
    /// via [`check_sparse_entries`](Self::check_sparse_entries).
    pub fn check_sparse_register(&self, nb_qubits: usize) -> Result<(), QclabError> {
        if let Some(max_q) = self.max_qubits {
            if nb_qubits > max_q {
                return Err(QclabError::ResourceExhausted {
                    qubits: nb_qubits,
                    bytes_needed: Self::state_bytes(nb_qubits),
                    limit_bytes: Self::state_bytes(max_q).unwrap_or(u128::MAX),
                });
            }
        }
        // basis indices are `usize`; the sparse maps need `1usize << n`
        // nowhere, but `qubit_shift`-style bit math does need n < 64
        if nb_qubits >= usize::BITS as usize {
            return Err(QclabError::ResourceExhausted {
                qubits: nb_qubits,
                bytes_needed: Self::state_bytes(nb_qubits),
                limit_bytes: self.max_state_bytes,
            });
        }
        Ok(())
    }

    /// Checks that `entries` live sparse entries fit the byte cap
    /// (`entries · `[`SPARSE_ENTRY_BYTES`]` ≤ max_state_bytes`). The
    /// sparse executor calls this after every op, [`super::route::resolve`]
    /// on the lowering-time support bound.
    pub fn check_sparse_entries(&self, nb_qubits: usize, entries: u128) -> Result<(), QclabError> {
        let bytes = entries.saturating_mul(SPARSE_ENTRY_BYTES);
        if bytes > self.max_state_bytes {
            return Err(QclabError::ResourceExhausted {
                qubits: nb_qubits,
                bytes_needed: Some(bytes),
                limit_bytes: self.max_state_bytes,
            });
        }
        Ok(())
    }

    /// Bytes an `nb_qubits`-qubit stabilizer tableau occupies: `2n`
    /// Pauli rows (destabilizers + stabilizers) of `⌈n/64⌉` packed
    /// word-pairs each. Polynomial in `n`, so the same byte cap that
    /// stops a 29-qubit state vector admits tableaux of thousands of
    /// qubits — but an absurd register still refuses instead of
    /// aborting in the allocator.
    pub fn tableau_bytes(nb_qubits: usize) -> u128 {
        (2 * nb_qubits as u128)
            .saturating_mul(nb_qubits.div_ceil(64) as u128)
            .saturating_mul(TABLEAU_WORD_BYTES)
    }

    /// Bytes one Pauli-frame batch of `lanes` shots holds on a program
    /// with `recorded` measurements. Per 64-lane word: an `x` and a `z`
    /// word of every qubit's bit-plane, one outcome word per measurement
    /// (kept until the batch is tallied — unbounded in the circuit's
    /// depth, not its width) and one coin word; per lane,
    /// [`FRAME_LANE_BYTES`] of stream and walk state.
    pub fn frame_batch_bytes(nb_qubits: usize, recorded: usize, lanes: usize) -> u128 {
        let rows = (nb_qubits as u128)
            .saturating_mul(2)
            .saturating_add(recorded as u128)
            .saturating_add(1);
        rows.saturating_mul(lanes.div_ceil(64) as u128)
            .saturating_mul(8)
            .saturating_add((lanes as u128).saturating_mul(FRAME_LANE_BYTES))
    }

    /// Admission check for the stabilizer tableau backend: the explicit
    /// qubit cap applies, and the tableau estimate
    /// ([`tableau_bytes`](Self::tableau_bytes)) is charged against the
    /// byte cap — the tableau backends answer to the same
    /// [`ResourceLimits`] as every dense path instead of bypassing the
    /// guard.
    pub fn check_tableau(&self, nb_qubits: usize) -> Result<(), QclabError> {
        self.check_frames(nb_qubits, 0, 0, 0)
    }

    /// Admission check for a Pauli-frame sampling run: tableau bytes
    /// (the reference run) plus `batches` frame batches alive at once
    /// (one per thread of a parallel run), each
    /// [`frame_batch_bytes`](Self::frame_batch_bytes), must fit the byte
    /// cap, and the explicit qubit cap applies. The caps are inclusive,
    /// matching [`check_register`](Self::check_register).
    pub fn check_frames(
        &self,
        nb_qubits: usize,
        recorded: usize,
        lanes: usize,
        batches: usize,
    ) -> Result<(), QclabError> {
        let bytes = Self::tableau_bytes(nb_qubits).saturating_add(
            Self::frame_batch_bytes(nb_qubits, recorded, lanes).saturating_mul(batches as u128),
        );
        let refused = Err(QclabError::ResourceExhausted {
            qubits: nb_qubits,
            bytes_needed: Some(bytes),
            limit_bytes: self.max_state_bytes,
        });
        if self.max_qubits.is_some_and(|max_q| nb_qubits > max_q) || bytes > self.max_state_bytes {
            return refused;
        }
        Ok(())
    }

    /// Checks that a dense `2^n × 2^n` matrix over `nb_qubits` qubits may
    /// be allocated (it costs as much as a state on a doubled register)
    /// and returns the side length `1 << nb_qubits`.
    pub fn check_matrix(&self, nb_qubits: usize) -> Result<usize, QclabError> {
        let doubled = nb_qubits
            .checked_mul(2)
            .ok_or(QclabError::ResourceExhausted {
                qubits: nb_qubits,
                bytes_needed: None,
                limit_bytes: self.max_state_bytes,
            })?;
        self.check_register(doubled)?;
        Ok(1usize << nb_qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_admit_28_qubits_and_refuse_29() {
        let lim = ResourceLimits::default();
        assert_eq!(lim.check_register(0), Ok(1));
        assert_eq!(lim.check_register(28), Ok(1 << 28));
        match lim.check_register(29) {
            Err(QclabError::ResourceExhausted {
                qubits,
                bytes_needed,
                limit_bytes,
            }) => {
                assert_eq!(qubits, 29);
                assert_eq!(bytes_needed, Some((1u128 << 29) * 16));
                assert_eq!(limit_bytes, DEFAULT_MAX_STATE_BYTES);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn qubit_cap_overrides_byte_cap_downward() {
        let lim = ResourceLimits::with_max_qubits(10);
        assert!(lim.check_register(10).is_ok());
        assert!(lim.check_register(11).is_err());
    }

    #[test]
    fn shift_overflow_region_is_an_error_not_a_panic() {
        // n ≥ 64 would overflow `1usize << n`; n ≥ 124 even overflows the
        // u128 byte estimate. Both must come back as clean errors.
        let lim = ResourceLimits::unlimited();
        for n in [64, 100, 124, usize::MAX] {
            assert!(matches!(
                lim.check_register(n),
                Err(QclabError::ResourceExhausted { .. })
            ));
        }
        assert!(lim.check_register(30).is_ok());
    }

    #[test]
    fn matrix_check_uses_doubled_register() {
        let lim = ResourceLimits::default();
        assert_eq!(lim.check_matrix(14), Ok(1 << 14));
        assert!(lim.check_matrix(15).is_err());
        assert!(lim.check_matrix(usize::MAX / 2 + 1).is_err());
    }

    // Boundary exactness: the caps are inclusive (`<=`), so a request
    // landing exactly on the cap is admitted and one unit above it is
    // refused. Off-by-one drift here silently shrinks (or blows) the
    // memory budget by a factor of two at the qubit granularity.

    #[test]
    fn register_cap_boundary_is_exact() {
        for n in [4usize, 10, 20] {
            // cap == exactly one n-qubit state vector
            let lim = ResourceLimits {
                max_qubits: None,
                max_state_bytes: (1u128 << n) * AMPLITUDE_BYTES,
            };
            assert_eq!(lim.check_register(n), Ok(1 << n), "at-cap n={n}");
            assert!(lim.check_register(n + 1).is_err(), "above-cap n={n}");
            // one byte less than the state refuses it
            let tight = ResourceLimits {
                max_state_bytes: lim.max_state_bytes - 1,
                ..lim
            };
            assert!(tight.check_register(n).is_err(), "cap-minus-one n={n}");
            assert!(tight.check_register(n - 1).is_ok());
        }
    }

    #[test]
    fn branch_cap_boundary_is_exact() {
        // three 4-qubit branches (256 B each) exactly at the cap
        let lim = ResourceLimits {
            max_qubits: None,
            max_state_bytes: 3 * 16 * AMPLITUDE_BYTES,
        };
        assert!(lim.check_branches(4, 3).is_ok(), "at cap");
        assert!(lim.check_branches(4, 4).is_err(), "one branch over");
        assert!(lim.check_branches(5, 2).is_err(), "wider states");
        let tight = ResourceLimits {
            max_state_bytes: lim.max_state_bytes - 1,
            ..lim
        };
        assert!(tight.check_branches(4, 3).is_err(), "cap minus one byte");
        // saturating byte math keeps absurd branch counts an error
        assert!(lim.check_branches(4, usize::MAX).is_err());
        assert!(ResourceLimits::unlimited().check_branches(200, 2).is_err());
    }

    #[test]
    fn qubit_cap_boundary_is_exact() {
        let lim = ResourceLimits::with_max_qubits(17);
        assert_eq!(lim.check_register(17), Ok(1 << 17));
        assert!(lim.check_register(18).is_err());
        assert!(lim.check_sparse_register(17).is_ok());
        assert!(lim.check_sparse_register(18).is_err());
    }

    #[test]
    fn sparse_entry_cap_boundary_is_exact() {
        let entries = 1000u128;
        let lim = ResourceLimits {
            max_qubits: None,
            max_state_bytes: entries * SPARSE_ENTRY_BYTES,
        };
        assert_eq!(lim.max_sparse_entries(), entries);
        assert!(lim.check_sparse_entries(30, entries).is_ok(), "at cap");
        assert!(
            lim.check_sparse_entries(30, entries + 1).is_err(),
            "one entry above"
        );
        // a cap one byte short of the entry total refuses it
        let tight = ResourceLimits {
            max_state_bytes: entries * SPARSE_ENTRY_BYTES - 1,
            ..lim
        };
        assert!(tight.check_sparse_entries(30, entries).is_err());
        assert!(tight.check_sparse_entries(30, entries - 1).is_ok());
        // saturating byte math keeps absurd entry counts an error
        assert!(lim.check_sparse_entries(30, u128::MAX).is_err());
    }

    #[test]
    fn tableau_cap_boundary_is_exact() {
        // sizes straddling the 64-qubit word boundary: ⌈n/64⌉ jumps
        for n in [4usize, 64, 100, 129] {
            let bytes = ResourceLimits::tableau_bytes(n);
            assert_eq!(
                bytes,
                2 * n as u128 * n.div_ceil(64) as u128 * TABLEAU_WORD_BYTES
            );
            let lim = ResourceLimits {
                max_qubits: None,
                max_state_bytes: bytes,
            };
            assert!(lim.check_tableau(n).is_ok(), "at-cap n={n}");
            let tight = ResourceLimits {
                max_state_bytes: bytes - 1,
                ..lim
            };
            assert!(tight.check_tableau(n).is_err(), "cap-minus-one n={n}");
            // the qubit cap binds independently of the byte estimate
            let capped = ResourceLimits {
                max_qubits: Some(n - 1),
                ..lim
            };
            assert!(capped.check_tableau(n).is_err(), "qubit-capped n={n}");
        }
    }

    #[test]
    fn frame_cap_boundary_is_exact() {
        // a frame run charges tableau + every batch alive at once; a
        // batch is its planes, its outcome words (one row per
        // measurement), a coin row, and its per-lane stream + walk state
        let n = 25usize;
        for (recorded, lanes, batches) in [
            (25usize, 1usize, 1usize),
            (25, 64, 2),
            (25, 1000, 4),
            // outcome words dominate a deep syndrome-extraction circuit
            (100_000, 4096, 2),
            (0, 65, 1),
        ] {
            let words = lanes.div_ceil(64) as u128;
            let batch = (2 * n as u128 + recorded as u128 + 1) * words * 8
                + lanes as u128 * FRAME_LANE_BYTES;
            assert_eq!(ResourceLimits::frame_batch_bytes(n, recorded, lanes), batch);
            let bytes = ResourceLimits::tableau_bytes(n) + batch * batches as u128;
            let lim = ResourceLimits {
                max_qubits: None,
                max_state_bytes: bytes,
            };
            let case = format!("recorded={recorded} lanes={lanes} batches={batches}");
            assert!(
                lim.check_frames(n, recorded, lanes, batches).is_ok(),
                "at-cap {case}"
            );
            let tight = ResourceLimits {
                max_state_bytes: bytes - 1,
                ..lim
            };
            assert!(
                tight.check_frames(n, recorded, lanes, batches).is_err(),
                "cap-minus-one {case}"
            );
            // one more lane, one more measurement, one more batch: each
            // is above the cap
            assert!(
                lim.check_frames(n, recorded, lanes + 1, batches).is_err(),
                "next-lane {case}"
            );
            assert!(
                lim.check_frames(n, recorded + 1, lanes, batches).is_err(),
                "next-measurement {case}"
            );
            assert!(
                lim.check_frames(n, recorded, lanes, batches + 1).is_err(),
                "next-batch {case}"
            );
        }
        // absurd inputs saturate into a refusal, never overflow
        assert!(ResourceLimits::default()
            .check_frames(usize::MAX, usize::MAX, usize::MAX, usize::MAX)
            .is_err());
    }

    #[test]
    fn matrix_cap_boundary_is_exact() {
        // an n-qubit matrix costs as much as a 2n-qubit state
        let n = 6usize;
        let lim = ResourceLimits {
            max_qubits: None,
            max_state_bytes: (1u128 << (2 * n)) * AMPLITUDE_BYTES,
        };
        assert_eq!(lim.check_matrix(n), Ok(1 << n), "at cap");
        assert!(lim.check_matrix(n + 1).is_err(), "above cap");
        let tight = ResourceLimits {
            max_state_bytes: lim.max_state_bytes - 1,
            ..lim
        };
        assert!(tight.check_matrix(n).is_err(), "cap minus one byte");
    }
}
