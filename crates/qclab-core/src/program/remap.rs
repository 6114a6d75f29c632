//! The locality pass (`remap_ops`, run by `lower` under
//! `PlanOptions::remap`): takes a lowered op stream and returns it
//! relabeled, with [`ProgramOp::Permute`] ops at layout transitions.
//!
//! The dense kernels are fastest when a gate's targets live in low-order
//! index bits: unit-stride pairs vectorize (`sim::simd`), and the
//! cache-blocked sweep (`sim::kernel::apply_window`) can keep a
//! `2^SWEEP_TILE_QUBITS`-amplitude tile resident across a whole gate
//! window. Instead of physically swapping amplitudes toward qubit 0 like
//! a SWAP-insertion router would, this pass *relabels*: it tracks a
//! logical→physical permutation over the schedule, rewrites gate qubits
//! through it, and only touches amplitudes when a window's layout
//! actually changes — and even then prefers single index-bit
//! transpositions (the SWAP kernel inside `permute_state`) over general
//! permutations, which exchange pairs across the whole state.
//!
//! A SWAP gate moves nothing either: it becomes a *relabel*, a
//! [`ProgramOp::Permute`] whose `perm` is the identity and whose `map`
//! exchanges the two qubits' slots. It keeps the SWAP's place in the
//! schedule, so the source op it executes, its noise sites and where
//! their hits land are those of the gate. The exchange it stands for is
//! paid once, in the trailing restore, which a terminal draw below the
//! parallel threshold skips by reading the measured qubits through the
//! layout (`sim::shots::TerminalBlock`).

use super::{PlanStats, ProgramOp};
use crate::gates::Gate;
use crate::sim::kernel::SWEEP_TILE_QUBITS;

/// Cost-model weight of a gate whose targets miss the hot tile.
const GATE_FAR_COST: f64 = 1.0;
/// Weight of a gate whose targets all sit inside the hot tile (the
/// sweep applies it from cache; ~1/3 of a strided full-vector walk).
const GATE_NEAR_COST: f64 = 0.35;
/// Weight of one explicit amplitude permutation (up to two in-place
/// pair-exchange passes over the whole state, strided on one side).
const PERMUTE_COST: f64 = 2.0;
/// Weight of a single-transposition layout change: `permute_state`
/// realizes it with the SWAP kernel (half the state read+written once)
/// — far cheaper than a general permutation.
const FOLD_COST: f64 = 0.3;

/// Minimal-movement layout for one gate window: hot (most-targeted)
/// logical qubits claim the hot physical slots `n-b..n` (index shifts
/// `< b`), keeping every already-hot assignment in place. Returns the
/// desired map and the transpositions `(from, to)` of physical
/// positions that turn `cur` into it.
fn window_layout(cur: &[usize], hist: &[usize], n: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
    let b = SWEEP_TILE_QUBITS;
    let lo = n - b;
    let mut hot: Vec<usize> = (0..n).filter(|&q| hist[q] > 0).collect();
    hot.sort_by_key(|&q| (std::cmp::Reverse(hist[q]), q));
    hot.truncate(b);

    let mut desired = cur.to_vec();
    let mut swaps = Vec::new();
    let mut used = vec![false; n];
    for &q in &hot {
        if desired[q] >= lo {
            used[desired[q]] = true;
        }
    }
    for &q in &hot {
        if desired[q] >= lo {
            continue;
        }
        // hottest qubits were visited first, so they get the largest
        // free physical index (smallest shift) — except the bottom two
        // index bits, preferred last: pair strides of 1-2 force the
        // shuffle-heavy LSB SIMD kernels, while shifts >= 2 keep the
        // fast contiguous-lane paths
        let slot = (lo..n.saturating_sub(2))
            .rev()
            .chain(n.saturating_sub(2)..n)
            .find(|&s| !used[s]);
        let Some(slot) = slot else {
            break;
        };
        used[slot] = true;
        let old = desired[q];
        // the displaced occupant is cold (hot occupants were marked
        // used above), so parking it at `q`'s old position is free
        let occupant = desired.iter().position(|&p| p == slot).unwrap();
        desired[occupant] = old;
        desired[q] = slot;
        swaps.push((old, slot));
    }
    (desired, swaps)
}

/// Moves one maximal run of consecutive gate ops to `out`, relabeling
/// them in place after adopting a new layout when the cost model says
/// the relabeling pays for its transition.
fn remap_window(
    window: &mut [ProgramOp],
    n: usize,
    cur: &mut Vec<usize>,
    identity: &[usize],
    out: &mut Vec<ProgramOp>,
    last_gate: &mut Option<usize>,
    stats: &mut PlanStats,
) {
    let gates = || {
        window.iter().map(|op| match op {
            ProgramOp::Gate(g) => g,
            _ => unreachable!("a window holds gates only"),
        })
    };
    let b = SWEEP_TILE_QUBITS;
    let mut hist = vec![0usize; n];
    for g in gates() {
        for &t in g.target_qubits().iter() {
            hist[t] += 1;
        }
    }
    let (desired, swaps) = window_layout(cur, &hist, n);

    // controls are deliberately ignored: the sweep strips high controls
    // into a tile predicate, so only *targets* need to be near
    let gate_cost = |map: &[usize], g: &Gate| {
        if g.target_qubits().iter().all(|&t| map[t] >= n - b) {
            GATE_NEAR_COST
        } else {
            GATE_FAR_COST
        }
    };
    let benefit: f64 = gates()
        .map(|g| gate_cost(cur, g) - gate_cost(&desired, g))
        .sum();

    // a single transposition takes the SWAP kernel inside
    // `permute_state` — much cheaper than a general permutation, and
    // still pure movement (bit-exact)
    let fold = swaps.len() == 1;
    let mut transition = if fold { FOLD_COST } else { PERMUTE_COST };
    if cur.as_slice() == identity {
        // leaving the identity layout commits us to a restore later
        transition += PERMUTE_COST;
    }

    if !swaps.is_empty() && benefit > transition {
        let mut perm = vec![0usize; n];
        for q in 0..n {
            perm[cur[q]] = desired[q];
        }
        stats.remap_windows += 1;
        if fold {
            stats.remap_folds += 1;
        } else {
            stats.remap_moves += 1;
        }
        out.push(ProgramOp::Permute {
            perm,
            map: desired.clone(),
        });
        *cur = desired;
    }
    for op in window {
        let mut op = std::mem::replace(op, ProgramOp::Fence(Vec::new()));
        if let ProgramOp::Gate(g) = &mut op {
            if cur.as_slice() != identity {
                g.relabel_in_place(cur);
            }
        }
        *last_gate = Some(out.len());
        out.push(op);
    }
}

/// The locality pass: rewrites a lowered op stream so each gate
/// window's hot targets live in low-order index bits, inserting
/// [`ProgramOp::Permute`] ops at layout transitions, turning each SWAP
/// gate into a relabel in its place, and adding a final restore to the
/// identity layout right after the last gate or relabel (so a terminal
/// measurement block — the shape drawn in one draw per shot — sees a
/// logical-layout state). The caller skips registers that fit in one sweep tile, where
/// every qubit is tile-resident already. The input ops come out in their
/// input order, relabeled in place (a SWAP as its relabel); a stream of
/// the same length and no relabel means no layout was adopted.
pub(super) fn remap_ops(
    mut ops: Vec<ProgramOp>,
    n: usize,
    stats: &mut PlanStats,
) -> Vec<ProgramOp> {
    let identity: Vec<usize> = (0..n).collect();
    let mut cur = identity.clone();
    let mut out = Vec::with_capacity(ops.len() + 4);
    let mut last_gate: Option<usize> = None;
    let mut i = 0;
    let windowed =
        |op: &ProgramOp| matches!(op, ProgramOp::Gate(g) if !matches!(g, Gate::Swap(..)));
    while i < ops.len() {
        if let ProgramOp::Gate(Gate::Swap(a, b)) = ops[i] {
            cur.swap(a, b);
            stats.remap_relabels += 1;
            last_gate = Some(out.len());
            out.push(ProgramOp::Permute {
                perm: identity.clone(),
                map: cur.clone(),
            });
            i += 1;
        } else if windowed(&ops[i]) {
            let mut j = i;
            while j < ops.len() && windowed(&ops[j]) {
                j += 1;
            }
            remap_window(
                &mut ops[i..j],
                n,
                &mut cur,
                &identity,
                &mut out,
                &mut last_gate,
                stats,
            );
            i = j;
        } else {
            // measurements and resets keep their logical qubits; the
            // executor resolves them through the tracked map
            out.push(std::mem::replace(&mut ops[i], ProgramOp::Fence(Vec::new())));
            i += 1;
        }
    }
    if cur != identity {
        let mut perm = vec![0usize; n];
        for (q, &p) in cur.iter().enumerate() {
            perm[p] = q;
        }
        if perm.iter().enumerate().filter(|&(i, &p)| p != i).count() == 2 {
            stats.remap_folds += 1;
        } else {
            stats.remap_moves += 1;
        }
        // `cur` only leaves identity when `remap_window` adopted a
        // relabeling, which it does for gate-bearing windows only — so a
        // gate was emitted and `last_gate` is set. Lowering is
        // infallible by contract, so rather than panicking on a broken
        // invariant (the old `expect` here could abort a whole service
        // process), degrade gracefully: append the restore permute at
        // the end of the schedule, which is still layout-correct.
        let at = last_gate.map_or(out.len(), |g| g + 1);
        out.insert(
            at,
            ProgramOp::Permute {
                perm,
                map: identity,
            },
        );
    }
    out
}
