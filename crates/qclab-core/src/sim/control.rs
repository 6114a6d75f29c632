//! Cooperative execution control: deadlines, cancellation, and fault
//! injection at op boundaries.
//!
//! `sim::guard` refuses oversized work *before* an executor allocates;
//! this module is the in-flight counterpart. An [`ExecutionControl`]
//! carries a monotonic deadline ([`std::time::Instant`]) and a shared
//! cancel token (`Arc<AtomicBool>`), and every executor — dense sweep,
//! sparse per-op loop, density, stabilizer, and the trajectory shot
//! paths — polls it at op boundaries through a [`ControlTicker`], so a
//! long run observes a stop within a bounded number of ops
//! (`check_every`, default [`DEFAULT_CHECK_EVERY`]).
//!
//! Two invariants the rest of the stack relies on:
//!
//! * **Disabled control is free.** [`ExecutionControl::none`] (the
//!   default everywhere) makes [`ControlTicker::tick`] a branch on a
//!   cached boolean — no clock reads, no atomics, and crucially no RNG
//!   draws, so results with control threaded through are bit-identical
//!   to results without it.
//! * **Checks never touch randomness or state.** Even an *enabled*
//!   control only compares `Instant`s and loads an atomic; per-shot RNG
//!   streams and amplitudes are untouched, so the shots a timed-out
//!   trajectory run did complete are bit-identical to the same shots of
//!   an untimed run.
//!
//! A stop surfaces as [`QclabError::Cancelled`] or
//! [`QclabError::DeadlineExceeded`] with an [`ExecProgress`] payload;
//! trajectory ensembles instead keep the completed shots and return a
//! result flagged partial (see `trajectory::TrajectoryResult::stop_cause`).
//!
//! With the `chaos` cargo feature, this module also hosts the
//! fault-injection hook (modeled on the trajectory noise-injection
//! style: a process-global armed fault instead of a per-gate channel):
//! `chaos::arm` schedules a forced cancellation, a synthetic
//! allocation refusal, or a panic after a chosen number of op
//! boundaries, which the ticker fires from the same call sites the real
//! checks use. The chaos test suite drives it through every executor to
//! prove clean unwinding: scratch buffers returned, watchdog stats
//! consistent, plan cache never poisoned. `chaos::refuse_spawns` makes
//! the parallel loops' hand-offs to team workers fail, the way a thread
//! start the OS refuses does, to prove a refused thread only slows a run
//! down.

use crate::error::{ExecProgress, QclabError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Op boundaries between deadline/cancel checks when
/// [`ExecutionControl::check_every`] is left at 0.
///
/// A check is an atomic load plus an `Instant::now()` — trivial next to
/// any dense op, but worth amortizing in the sparse and stabilizer
/// loops where an op can be tens of nanoseconds.
pub const DEFAULT_CHECK_EVERY: u32 = 64;

/// Why a run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The shared cancel token was set.
    Cancelled,
    /// The monotonic deadline passed.
    DeadlineExceeded,
}

impl StopCause {
    /// The corresponding error, carrying the progress made.
    pub fn into_error(self, progress: ExecProgress) -> QclabError {
        match self {
            StopCause::Cancelled => QclabError::Cancelled(progress),
            StopCause::DeadlineExceeded => QclabError::DeadlineExceeded(progress),
        }
    }

    /// Extracts the stop cause from an error, if it is one.
    pub fn from_error(err: &QclabError) -> Option<StopCause> {
        match err {
            QclabError::Cancelled(_) => Some(StopCause::Cancelled),
            QclabError::DeadlineExceeded(_) => Some(StopCause::DeadlineExceeded),
            _ => None,
        }
    }
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Deadline + cancel token threaded cooperatively through an execution.
///
/// Cheap to clone (the token is an `Arc`), `Sync`, and safe to share
/// across the trajectory engine's parallel shots. The default
/// ([`ExecutionControl::none`]) has neither a deadline nor a token and
/// costs nothing at op boundaries.
#[derive(Clone, Debug, Default)]
pub struct ExecutionControl {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    /// Op boundaries between checks; 0 means [`DEFAULT_CHECK_EVERY`].
    check_every: u32,
}

impl ExecutionControl {
    /// No deadline, no token: every check is a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// Control that stops when the monotonic clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        ExecutionControl {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Control that stops `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Control that stops once `token` is set (e.g. by another thread).
    pub fn with_cancel_token(token: Arc<AtomicBool>) -> Self {
        ExecutionControl {
            cancel: Some(token),
            ..Self::default()
        }
    }

    /// Adds a deadline to an existing control (builder style).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a cancel token to an existing control (builder style).
    pub fn cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the op-boundary check interval (0 restores the default).
    pub fn check_every(mut self, every: u32) -> Self {
        self.check_every = every;
        self
    }

    /// `true` when a deadline or token is attached, i.e. when
    /// op-boundary checks actually do something. (Chaos pokes happen
    /// regardless — they are compiled in per-feature, not configured.)
    pub fn is_enabled(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Immediate check, ignoring the interval: has a stop been
    /// requested right now? Token wins over deadline when both fired.
    pub fn probe(&self) -> Option<StopCause> {
        if let Some(tok) = &self.cancel {
            if tok.load(Ordering::Relaxed) {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopCause::DeadlineExceeded);
            }
        }
        None
    }

    /// A fresh per-run op counter over this control.
    pub fn ticker(&self) -> ControlTicker<'_> {
        ControlTicker {
            control: self,
            enabled: self.is_enabled(),
            every: if self.check_every == 0 {
                DEFAULT_CHECK_EVERY
            } else {
                self.check_every
            },
            since_check: 0,
            ops_done: 0,
        }
    }
}

/// Per-run op counter that polls an [`ExecutionControl`] every
/// `check_every` op boundaries. Created by [`ExecutionControl::ticker`];
/// executors call [`tick`](ControlTicker::tick) once per applied op.
#[derive(Debug)]
pub struct ControlTicker<'a> {
    control: &'a ExecutionControl,
    enabled: bool,
    every: u32,
    since_check: u32,
    ops_done: u64,
}

impl ControlTicker<'_> {
    /// Records one completed op boundary and, at the configured
    /// interval, checks for a requested stop. With chaos compiled in,
    /// also the fault-injection point (every boundary, not just at the
    /// interval, so faults land at exact op indices).
    #[inline]
    pub fn tick(&mut self) -> Result<(), QclabError> {
        self.tick_n(1)
    }

    /// [`tick`](ControlTicker::tick) for a batch of `n` ops applied as
    /// one unit (e.g. a cache-blocked sweep window); performs at most
    /// one check.
    #[inline]
    pub fn tick_n(&mut self, n: usize) -> Result<(), QclabError> {
        self.ops_done += n as u64;
        #[cfg(feature = "chaos")]
        chaos::poke(self.progress())?;
        if !self.enabled {
            return Ok(());
        }
        self.since_check = self.since_check.saturating_add(n as u32);
        if self.since_check >= self.every {
            self.since_check = 0;
            if let Some(cause) = self.control.probe() {
                return Err(cause.into_error(self.progress()));
            }
        }
        Ok(())
    }

    /// Op boundaries ticked so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// The progress payload for an error raised at this point.
    pub fn progress(&self) -> ExecProgress {
        ExecProgress {
            ops_done: self.ops_done,
            shots_done: 0,
        }
    }
}

/// First-stop latch shared by the trajectory engine's parallel shots:
/// the shot that observes a cancel/deadline (or hits an injected fault)
/// records it here, and every other shot sees the latch in its prologue
/// and returns without starting. Only the first error is kept.
#[derive(Debug, Default)]
pub struct StopLatch {
    tripped: AtomicBool,
    err: std::sync::Mutex<Option<QclabError>>,
}

impl StopLatch {
    /// A latch in the clear state.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` once any participant has tripped the latch.
    #[inline]
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Trips the latch with `err`; later trips are ignored.
    pub fn trip(&self, err: QclabError) {
        let mut slot = self.err.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
        self.tripped.store(true, Ordering::Relaxed);
    }

    /// The first recorded error, if the latch was tripped.
    pub fn take(self) -> Option<QclabError> {
        self.err.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// Fault injection at op boundaries, compiled in with the `chaos`
/// feature and driven by the chaos test suite (`tests/chaos_faults.rs`).
///
/// A process-global single-shot fault: [`arm`] schedules one fault to
/// fire after `after_ops` further op boundaries (across whichever
/// executor ticks next), after which the hook disarms itself so
/// subsequent runs in the same process are clean — exactly what the
/// differential recovery checks need.
#[cfg(feature = "chaos")]
pub mod chaos {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// What to inject at the op boundary.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// Forced cooperative cancellation ([`QclabError::Cancelled`]).
        Cancel,
        /// Synthetic allocation refusal
        /// ([`QclabError::ResourceExhausted`] with zeroed sizes).
        Refuse,
        /// A panic, to prove executors unwind without poisoning shared
        /// state.
        Panic,
    }

    const DISARMED: u64 = 0;
    const CANCEL: u64 = 1;
    const REFUSE: u64 = 2;
    const PANIC: u64 = 3;

    static FAULT: AtomicU64 = AtomicU64::new(DISARMED);
    static COUNTDOWN: AtomicU64 = AtomicU64::new(0);
    static REFUSED_SPAWNS: AtomicU64 = AtomicU64::new(0);

    /// Arms `fault` to fire after `after_ops` more op boundaries
    /// (0 = the very next boundary). Single-shot: firing disarms.
    pub fn arm(fault: Fault, after_ops: u64) {
        COUNTDOWN.store(after_ops, Ordering::SeqCst);
        let code = match fault {
            Fault::Cancel => CANCEL,
            Fault::Refuse => REFUSE,
            Fault::Panic => PANIC,
        };
        FAULT.store(code, Ordering::SeqCst);
    }

    /// Disarms any pending fault and refused spawns.
    pub fn disarm() {
        FAULT.store(DISARMED, Ordering::SeqCst);
        REFUSED_SPAWNS.store(0, Ordering::SeqCst);
    }

    /// Makes the next `count` hand-offs of a parallel loop to a team
    /// worker fail, the way a thread start fails when the OS refuses a
    /// thread: that worker sits the loop out.
    pub fn refuse_spawns(count: u64) {
        REFUSED_SPAWNS.store(count, Ordering::SeqCst);
    }

    /// How many hand-offs are still to be refused.
    pub fn spawns_to_refuse() -> u64 {
        REFUSED_SPAWNS.load(Ordering::SeqCst)
    }

    /// Parallel-loop call site: whether this hand-off is refused.
    pub(crate) fn spawn_refused() -> bool {
        REFUSED_SPAWNS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .is_ok()
    }

    /// Ticker call site: counts down and fires the armed fault.
    pub(crate) fn poke(progress: ExecProgress) -> Result<(), QclabError> {
        if FAULT.load(Ordering::Relaxed) == DISARMED {
            return Ok(());
        }
        let prev = COUNTDOWN
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                Some(c.saturating_sub(1))
            })
            .unwrap_or(0);
        if prev > 0 {
            return Ok(());
        }
        // fire once, then disarm so recovery runs are unperturbed
        match FAULT.swap(DISARMED, Ordering::SeqCst) {
            CANCEL => Err(QclabError::Cancelled(progress)),
            REFUSE => Err(QclabError::ResourceExhausted {
                qubits: 0,
                bytes_needed: None,
                limit_bytes: 0,
            }),
            PANIC => panic!("chaos fault injection: forced panic at op boundary"),
            _ => Ok(()), // raced with disarm / another firing
        }
    }
}

/// Splits a control stop (cancel/deadline — the partial-result cases)
/// from a genuine execution error, which propagates.
pub(crate) fn stop_or_err(err: QclabError) -> Result<StopCause, QclabError> {
    StopCause::from_error(&err).ok_or(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_control_never_stops() {
        let ctl = ExecutionControl::none();
        assert!(!ctl.is_enabled());
        assert!(ctl.probe().is_none());
        let mut t = ctl.ticker();
        for _ in 0..10_000 {
            t.tick().unwrap();
        }
        assert_eq!(t.ops_done(), 10_000);
    }

    #[test]
    fn cancel_token_observed_within_interval() {
        let tok = Arc::new(AtomicBool::new(false));
        let ctl = ExecutionControl::with_cancel_token(tok.clone()).check_every(8);
        let mut t = ctl.ticker();
        for _ in 0..100 {
            t.tick().unwrap();
        }
        tok.store(true, Ordering::Relaxed);
        let mut stopped_at = None;
        for i in 0..16 {
            if let Err(e) = t.tick() {
                assert!(matches!(e, QclabError::Cancelled(_)));
                stopped_at = Some(i);
                break;
            }
        }
        // bounded observation: at most one interval after the set
        assert!(stopped_at.expect("cancellation must be observed") < 8);
    }

    #[test]
    fn expired_deadline_stops_with_progress() {
        let ctl = ExecutionControl::with_deadline(Instant::now() - Duration::from_millis(1))
            .check_every(1);
        assert_eq!(ctl.probe(), Some(StopCause::DeadlineExceeded));
        let mut t = ctl.ticker();
        t.tick().unwrap_err(); // first tick observes
        match t.tick().unwrap_err() {
            QclabError::DeadlineExceeded(p) => assert_eq!(p.ops_done, 2),
            e => panic!("expected DeadlineExceeded, got {e:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_stop() {
        let ctl = ExecutionControl::with_timeout(Duration::from_secs(3600)).check_every(1);
        assert!(ctl.is_enabled());
        let mut t = ctl.ticker();
        for _ in 0..1000 {
            t.tick().unwrap();
        }
    }

    #[test]
    fn cancel_wins_over_deadline_and_batch_tick_counts_ops() {
        let tok = Arc::new(AtomicBool::new(true));
        let ctl = ExecutionControl::with_deadline(Instant::now() - Duration::from_millis(1))
            .cancel_token(tok)
            .check_every(1);
        assert_eq!(ctl.probe(), Some(StopCause::Cancelled));
        let mut t = ctl.ticker();
        match t.tick_n(5).unwrap_err() {
            QclabError::Cancelled(p) => assert_eq!(p.ops_done, 5),
            e => panic!("expected Cancelled, got {e:?}"),
        }
    }

    #[test]
    fn stop_latch_keeps_first_error() {
        let latch = StopLatch::new();
        assert!(!latch.is_tripped());
        latch.trip(QclabError::Cancelled(ExecProgress::default()));
        latch.trip(QclabError::DeadlineExceeded(ExecProgress::default()));
        assert!(latch.is_tripped());
        assert!(matches!(latch.take(), Some(QclabError::Cancelled(_))));
    }

    #[test]
    fn stop_cause_round_trips_through_errors() {
        let p = ExecProgress {
            ops_done: 3,
            shots_done: 1,
        };
        for cause in [StopCause::Cancelled, StopCause::DeadlineExceeded] {
            let err = cause.into_error(p);
            assert_eq!(StopCause::from_error(&err), Some(cause));
        }
        assert_eq!(
            StopCause::from_error(&QclabError::InvalidBitstring("x".into())),
            None
        );
    }
}
