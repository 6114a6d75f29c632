//! Multi-tenant job scheduler: the engine behind `qclab serve`.
//!
//! A [`Scheduler`] owns a bounded pool of worker threads and a FIFO
//! admission queue. Tenants [`submit`](Scheduler::submit) jobs (a
//! circuit plus `(seed, shots)` and an optional deadline) and receive a
//! [`JobHandle`] whose result streams back asynchronously — or, with
//! [`submit_to`](Scheduler::submit_to), arrives on a channel of the
//! tenant's own the moment the job resolves.
//!
//! **A job is exactly one [`run_trajectories`] call** on the scheduler's
//! base configuration with the job's seed, shot count and control, so
//! its result is bit-identical to running it alone by construction.
//! What a stream of requests shares lives on the cached plan, not in the
//! scheduler:
//!
//! * **Compile dedup** — lowering goes through the process's plan cache,
//!   whose [`compile`](crate::program::compile) is single-flight: under
//!   a burst of same-fingerprint jobs exactly one thread lowers and
//!   every waiter shares the same `Arc<CompiledProgram>`.
//! * **Retained preparation** — a sampled path's preparation stays on
//!   its plan (under a byte cap), and the plan cache keeps a plan once
//!   its circuit comes back, so a circuit submitted twice costs its
//!   shots only from then on ([`JobTelemetry::prep_hit`]); a one-off
//!   leaves nothing behind. A cold burst of one circuit may prepare up
//!   to `workers` times before the first to finish is retained.
//!
//! The scheduler itself is **admission control**: per-job memory
//! estimates from [`sim::guard`](crate::sim::guard), a global in-flight
//! byte budget, and a queue-depth cap. Scheduling is fair-share: a large
//! job the budget cannot currently admit is *skipped, not waited on*, so
//! it never blocks small admissible jobs behind it; it keeps its queue
//! position and runs as soon as memory frees.
//!
//! Every job carries its own [`ExecutionControl`]: deadlines and
//! cancellation stop only that job. Cancelling a job that is still
//! queued removes it immediately and resolves it with
//! [`ErrorKind::Cancelled`] — no worker involvement.
//!
//! The scheduler never dies with a job: executor errors (and even
//! panics) are caught and mapped onto the wire-level error contract
//! ([`ErrorKind`]), which mirrors the CLI exit-code contract 2–7.

// `JobError` deliberately carries the partial ensemble of a stopped run
// (counts map + telemetry) — a timeout/cancel *result*, not a slim
// error code — so `Result<_, JobError>` trips the size lint by design.
#![allow(clippy::result_large_err)]

use crate::circuit::QCircuit;
use crate::error::QclabError;
use crate::program::PLAN_CACHE_CAPACITY;
use crate::recent::RecencyRing;
use crate::sim::control::{ExecutionControl, StopCause};
use crate::sim::guard::ResourceLimits;
use crate::sim::route::BackendRequest;
use crate::sim::trajectory::{run_trajectories, TrajectoryConfig, TrajectoryResult};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// wire-level error contract
// ---------------------------------------------------------------------

/// Per-job error classification — the wire-level form of the CLI
/// exit-code contract. A bad job resolves its own handle with one of
/// these kinds; it never takes the scheduler (or any other job) down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request (bad flags, invalid noise spec) — exit code 2.
    Usage,
    /// Transport/decode failure (unreadable job line) — exit code 3.
    Io,
    /// OpenQASM parse failure — exit code 4.
    QasmParse,
    /// Simulation failure (non-unitary, dimension mismatch, executor
    /// panic, …) — exit code 5.
    Simulation,
    /// Admission or guard refusal: per-job memory limit, global budget,
    /// queue depth — exit code 6.
    Resource,
    /// Deadline exceeded; completed shots are kept in
    /// [`JobError::partial`] — exit code 7.
    Timeout,
    /// Cancelled by the tenant (queued or running) — exit code 7, like
    /// the CLI's cancel path.
    Cancelled,
}

impl ErrorKind {
    /// The stable wire name (`error.kind` in the JSON result).
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Io => "io",
            ErrorKind::QasmParse => "qasm-parse",
            ErrorKind::Simulation => "simulation",
            ErrorKind::Resource => "resource",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Cancelled => "cancelled",
        }
    }

    /// The CLI exit code this kind corresponds to (`error.code`).
    pub const fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::QasmParse => 4,
            ErrorKind::Simulation => 5,
            ErrorKind::Resource => 6,
            ErrorKind::Timeout | ErrorKind::Cancelled => 7,
        }
    }

    /// Classifies an engine error; the CLI exits with its
    /// [`exit_code`](Self::exit_code).
    pub fn classify(e: &QclabError) -> ErrorKind {
        match e {
            QclabError::QasmParse { .. } => ErrorKind::QasmParse,
            QclabError::ResourceExhausted { .. } => ErrorKind::Resource,
            QclabError::InvalidNoiseSpec(_) => ErrorKind::Usage,
            QclabError::Cancelled(_) => ErrorKind::Cancelled,
            QclabError::DeadlineExceeded(_) => ErrorKind::Timeout,
            _ => ErrorKind::Simulation,
        }
    }
}

// ---------------------------------------------------------------------
// job types
// ---------------------------------------------------------------------

/// One tenant request: sample `shots` trajectories of `circuit` with
/// per-shot `(seed, shot)` determinism.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Tenant-chosen identifier, echoed on the result.
    pub id: String,
    /// The circuit to sample.
    pub circuit: QCircuit,
    /// Trajectories to sample.
    pub shots: u64,
    /// Master seed of the job's per-shot RNG streams.
    pub seed: u64,
    /// Wall-clock budget measured from submission; a job still queued
    /// when it expires resolves as [`ErrorKind::Timeout`] without
    /// running.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// A job with no deadline.
    pub fn new(id: impl Into<String>, circuit: QCircuit, shots: u64, seed: u64) -> Self {
        JobSpec {
            id: id.into(),
            circuit,
            shots,
            seed,
            timeout_ms: None,
        }
    }
}

/// Per-job scheduling/execution telemetry, streamed with every result.
#[derive(Clone, Debug, Default)]
pub struct JobTelemetry {
    /// Submission → execution start.
    pub queue_ms: f64,
    /// Execution start → result.
    pub run_ms: f64,
    /// Submission → result.
    pub wall_ms: f64,
    /// `true` when the job's fingerprint is among the
    /// [`PLAN_CACHE_CAPACITY`] this scheduler accepted most recently: a
    /// recurring circuit, whose plan — and its bytecode/frame lowerings —
    /// the cache shares while it is held and keeps once it comes back.
    pub dedup_hit: bool,
    /// `true` when the job's seed-independent preparation (evolved
    /// prefix, marginal, sampler) was already on its cached plan:
    /// the job paid for its shots only
    /// ([`TrajectoryResult::prep_hit`]).
    pub prep_hit: bool,
}

/// A completed job's payload.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Echo of [`JobSpec::id`].
    pub id: String,
    /// Measurement-record frequencies.
    pub counts: BTreeMap<String, u64>,
    /// Trajectories actually sampled.
    pub shots: u64,
    /// Trajectories requested.
    pub requested_shots: u64,
    /// Which shot-execution strategy ran (display of
    /// [`ShotPath`](crate::sim::trajectory::ShotPath)).
    pub path: String,
    /// Pauli errors injected across the job's shots.
    pub injected_errors: u64,
    /// Scheduling/execution telemetry.
    pub telemetry: JobTelemetry,
}

/// A failed (or stopped) job.
#[derive(Clone, Debug)]
pub struct JobError {
    /// Echo of [`JobSpec::id`].
    pub id: String,
    /// Wire-level classification.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For timeout/cancel mid-run: the shots completed before the stop
    /// (bit-identical to the same shots of an uninterrupted run).
    pub partial: Option<JobOutput>,
}

impl JobError {
    /// An error without a partial result.
    fn new(id: &str, kind: ErrorKind, message: impl Into<String>) -> Self {
        JobError {
            id: id.to_string(),
            kind,
            message: message.into(),
            partial: None,
        }
    }
}

/// What a [`JobHandle`] resolves to.
pub type JobResult = Result<JobOutput, JobError>;

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (bounded parallelism). The
    /// per-job engines run with serial kernels by default (see
    /// [`base`](Self::base)) so `workers` is the process's parallelism.
    pub workers: usize,
    /// Maximum jobs waiting in the queue; submissions beyond it are
    /// rejected with [`ErrorKind::Resource`] (backpressure, never OOM).
    pub queue_depth: usize,
    /// Global budget for the *estimated* state bytes of all running
    /// jobs. A job whose estimate does not currently fit is skipped —
    /// not waited on — so it never blocks smaller admissible jobs
    /// (fair-share); it runs once enough memory frees.
    pub global_state_bytes: u64,
    /// Template configuration every job executes with; `seed`, `shots`
    /// and `control` come from the job. Its `limits` field is the
    /// per-job guard. The default keeps kernels and shot fan-out serial
    /// (`kernel.allow_parallel: false`): the worker pool is the
    /// parallelism, and nested threading would oversubscribe it.
    pub base: TrajectoryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(4)
            .clamp(1, 16);
        // workers are the parallelism: each job runs serially so N
        // jobs never oversubscribe the cores N workers already own
        let mut base = TrajectoryConfig::default();
        base.kernel.allow_parallel = false;
        ServiceConfig {
            workers,
            queue_depth: 1024,
            global_state_bytes: 8 << 30,
            base,
        }
    }
}

/// Scheduler counters ([`Scheduler::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs resolved successfully.
    pub completed: u64,
    /// Submissions rejected at admission (queue depth / memory).
    pub rejected: u64,
    /// Jobs resolved as cancelled (queued or running).
    pub cancelled: u64,
    /// Accepted jobs that were a dedup hit
    /// ([`JobTelemetry::dedup_hit`]).
    pub dedup_hits: u64,
}

// ---------------------------------------------------------------------
// scheduler internals
// ---------------------------------------------------------------------

struct QueuedJob {
    spec: JobSpec,
    est_bytes: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    dedup_hit: bool,
    tx: Sender<JobResult>,
}

#[derive(Default)]
struct SchedState {
    queue: Vec<QueuedJob>,
    running_bytes: u64,
    closed: bool,
    /// Fingerprints of the jobs accepted most recently, least recently
    /// used first — as many as the plan cache remembers keys, so a hit
    /// names a circuit the cache can still know, and a long-running
    /// server keeps a bounded window (dedup telemetry).
    seen: RecencyRing<u64, ()>,
}

impl SchedState {
    /// Moves `fingerprint` to the recent end of the window, dropping the
    /// least recently used past the plan cache's capacity; `true` if it
    /// was already in the window.
    fn see(&mut self, fingerprint: u64) -> bool {
        let hit = self.seen.touch(&fingerprint).is_some();
        if !hit {
            self.seen.insert(fingerprint, ());
            self.seen.evict_down_to(PLAN_CACHE_CAPACITY, |_| true);
        }
        hit
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    dedup_hits: AtomicU64,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<SchedState>,
    /// Signalled on submit, job completion (memory freed) and shutdown.
    work_ready: Condvar,
    counters: Counters,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        // a worker that panicked mid-bookkeeping must not wedge the
        // scheduler; the state is only ever mutated in small consistent
        // steps, so recovery is to keep going
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The handle to a submitted job: block for the result, or cancel the
/// job.
pub struct JobHandle {
    /// Echo of [`JobSpec::id`].
    pub id: String,
    cancel: Arc<AtomicBool>,
    /// `None` for a job submitted with [`Scheduler::submit_to`]: its
    /// result goes to the sender given there.
    rx: Option<Receiver<JobResult>>,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Blocks until the job resolves.
    pub fn wait(self) -> JobResult {
        let fail = |kind, message: &str| Err(JobError::new(&self.id, kind, message));
        match self.rx.as_ref().map(Receiver::recv) {
            Some(Ok(r)) => r,
            Some(Err(_)) => fail(ErrorKind::Simulation, "scheduler dropped the job"),
            None => fail(
                ErrorKind::Usage,
                "the job's result goes to the sender it was submitted with",
            ),
        }
    }

    /// Cancels the job. A job still **queued** is removed immediately
    /// and its handle resolves with [`ErrorKind::Cancelled`] right away
    /// — no waiting for a worker. A job already **running** stops
    /// cooperatively at its next control check, keeping completed shots
    /// as a partial result.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        let mut st = self.inner.lock();
        if let Some(pos) = st
            .queue
            .iter()
            .position(|j| Arc::ptr_eq(&j.cancel, &self.cancel))
        {
            let job = st.queue.remove(pos);
            drop(st);
            self.inner
                .counters
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
            resolve_cancelled(&job);
        }
        // running jobs observe the token via their ExecutionControl
    }
}

fn resolve_cancelled(job: &QueuedJob) {
    let message = "cancelled while queued";
    let _ = job.tx.send(Err(JobError::new(
        &job.spec.id,
        ErrorKind::Cancelled,
        message,
    )));
}

// ---------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------

/// The multi-tenant job scheduler. See the module docs for the
/// dedup/retention/admission design.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `cfg.workers` worker threads.
    ///
    /// # Panics
    /// If the OS refuses a worker thread; [`try_new`](Self::try_new)
    /// returns that refusal instead.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts `cfg.workers` worker threads, or none: when the OS refuses
    /// one, the workers already started are stopped and the refusal is
    /// returned, naming the worker count.
    pub fn try_new(cfg: ServiceConfig) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            counters: Counters::default(),
        });
        let count = inner.cfg.workers.max(1);
        // dropped on a refusal: closes the queue and joins the workers
        // it holds so far
        let mut sched = Scheduler {
            inner,
            workers: Vec::new(),
        };
        for i in 0..count {
            let inner = Arc::clone(&sched.inner);
            let worker = std::thread::Builder::new()
                .name(format!("qclab-serve-{i}"))
                .spawn(move || worker_loop(&inner))
                .map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("cannot start {count} scheduler workers (worker {i} refused: {e})"),
                    )
                })?;
            sched.workers.push(worker);
        }
        Ok(sched)
    }

    /// Submits a job whose result is read from the returned handle
    /// ([`JobHandle::wait`]). Admission control runs here,
    /// synchronously: a rejected job returns `Err` immediately (queue
    /// depth, per-job memory guard, global budget) and is never queued.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, JobError> {
        let (tx, rx) = channel();
        let mut handle = self.submit_to(spec, tx)?;
        handle.rx = Some(rx);
        Ok(handle)
    }

    /// [`submit`](Self::submit) for a tenant that collects many jobs on
    /// one channel: the job's [`JobResult`] — which carries its id — is
    /// sent on `results` the moment it resolves, and the channel closes
    /// once every job holding a clone of it has. The returned handle
    /// only cancels.
    pub fn submit_to(
        &self,
        spec: JobSpec,
        results: Sender<JobResult>,
    ) -> Result<JobHandle, JobError> {
        let reject = |id: &str, kind: ErrorKind, message: String| {
            self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Err(JobError::new(id, kind, message))
        };
        let n = spec.circuit.nb_qubits();
        let base = &self.inner.cfg.base;
        // A job is one run, so it holds one dense state (the guard's
        // byte count, also a noiseless dense run's peak) whenever the
        // dense engine could be the one that runs it — also under
        // `auto`. A register the dense guard refuses is turned away
        // here only when dense is the sole engine asked for; otherwise
        // it can only resolve to an engine whose support-sized guard
        // applies at run time.
        let est_bytes = match base.limits.check_register(n) {
            Err(e) if base.backend == BackendRequest::Dense => {
                return reject(&spec.id, ErrorKind::classify(&e), e.to_string());
            }
            Ok(_) if base.backend != BackendRequest::Sparse => {
                ResourceLimits::state_bytes(n).map_or(u64::MAX, |b| b.min(u64::MAX.into()) as u64)
            }
            _ => 0,
        };
        let budget = self.inner.cfg.global_state_bytes;
        if est_bytes > budget {
            return reject(
                &spec.id,
                ErrorKind::Resource,
                format!(
                    "job needs ~{est_bytes} state bytes but the scheduler's global budget is {budget}"
                ),
            );
        }
        let fingerprint = spec.circuit.fingerprint();
        let cancel = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let mut st = self.inner.lock();
        if st.closed {
            drop(st);
            return reject(&spec.id, ErrorKind::Io, "scheduler is shut down".into());
        }
        let depth = self.inner.cfg.queue_depth;
        if st.queue.len() >= depth {
            drop(st);
            return reject(
                &spec.id,
                ErrorKind::Resource,
                format!("queue is full ({depth} jobs) — retry later"),
            );
        }
        let dedup_hit = st.see(fingerprint);
        let id = spec.id.clone();
        st.queue.push(QueuedJob {
            deadline: spec.timeout_ms.map(|ms| now + Duration::from_millis(ms)),
            est_bytes,
            submitted: now,
            cancel: Arc::clone(&cancel),
            dedup_hit,
            tx: results,
            spec,
        });
        drop(st);
        let counters = &self.inner.counters;
        counters
            .dedup_hits
            .fetch_add(dedup_hit as u64, Ordering::Relaxed);
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.work_ready.notify_all();
        Ok(JobHandle {
            id,
            cancel,
            rx: None,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            dedup_hits: c.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Already-submitted jobs still resolve.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.inner.lock();
            st.closed = true;
        }
        self.inner.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

// ---------------------------------------------------------------------
// worker loop
// ---------------------------------------------------------------------

/// Sweeps cancelled and queue-expired jobs out of the queue, resolving
/// their handles immediately.
fn sweep_queue(inner: &Inner, st: &mut SchedState) {
    let now = Instant::now();
    let mut i = 0;
    while i < st.queue.len() {
        let j = &st.queue[i];
        if j.cancel.load(Ordering::Relaxed) {
            let job = st.queue.remove(i);
            inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            resolve_cancelled(&job);
        } else if j.deadline.is_some_and(|d| now >= d) {
            let job = st.queue.remove(i);
            let message = "deadline expired while queued";
            let _ = job.tx.send(Err(JobError::new(
                &job.spec.id,
                ErrorKind::Timeout,
                message,
            )));
        } else {
            i += 1;
        }
    }
}

/// Takes the next runnable job off the queue and debits its estimate,
/// or returns `None` at shutdown. Fair-share: the scan admits the
/// *first* job whose memory estimate fits the remaining global budget,
/// skipping (not waiting on) larger jobs ahead of it in FIFO order.
fn next_job(inner: &Inner) -> Option<QueuedJob> {
    let budget = inner.cfg.global_state_bytes;
    let mut st = inner.lock();
    loop {
        sweep_queue(inner, &mut st);
        let pick = st
            .queue
            .iter()
            .position(|j| st.running_bytes.saturating_add(j.est_bytes) <= budget);
        if let Some(pos) = pick {
            let job = st.queue.remove(pos);
            st.running_bytes = st.running_bytes.saturating_add(job.est_bytes);
            return Some(job);
        }
        if st.closed && st.queue.is_empty() {
            return None;
        }
        // nothing admissible (empty queue, or every queued job is over
        // the current budget): sleep until submit / completion /
        // shutdown. The timeout bounds the wait so queued deadlines
        // keep being swept.
        let (guard, _) = inner
            .work_ready
            .wait_timeout(st, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// Executes one job — [`run_trajectories`] on the base configuration
/// with the job's seed, shot count and control — and resolves it.
fn run_job(inner: &Inner, job: &QueuedJob) {
    let t_start = Instant::now();
    let mut control = ExecutionControl::with_cancel_token(Arc::clone(&job.cancel));
    if let Some(d) = job.deadline {
        control = control.deadline(d);
    }
    let config = TrajectoryConfig {
        seed: job.spec.seed,
        shots: job.spec.shots,
        control,
        ..inner.cfg.base.clone()
    };
    // a panicking executor must not take the scheduler down: contain it
    // and resolve the job as a simulation error
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_trajectories(&job.spec.circuit, &config)
    }));
    let run_ms = t_start.elapsed().as_secs_f64() * 1e3;
    let output = |r: &TrajectoryResult| JobOutput {
        id: job.spec.id.clone(),
        counts: r.counts().clone(),
        shots: r.shots(),
        requested_shots: r.requested_shots(),
        path: r.path().to_string(),
        injected_errors: r.injected_errors(),
        telemetry: JobTelemetry {
            queue_ms: (t_start - job.submitted).as_secs_f64() * 1e3,
            run_ms,
            wall_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
            dedup_hit: job.dedup_hit,
            prep_hit: r.prep_hit(),
        },
    };
    let fail = |kind: ErrorKind, message: String, partial: Option<JobOutput>| {
        Err(JobError {
            partial,
            ..JobError::new(&job.spec.id, kind, message)
        })
    };
    let result = match outcome {
        Ok(Ok(r)) => match r.stop_cause() {
            None => Ok(output(&r)),
            Some(cause) => fail(
                match cause {
                    StopCause::Cancelled => ErrorKind::Cancelled,
                    StopCause::DeadlineExceeded => ErrorKind::Timeout,
                },
                format!(
                    "stopped after {} of {} shots",
                    r.shots(),
                    r.requested_shots()
                ),
                Some(output(&r)),
            ),
        },
        Ok(Err(e)) => fail(ErrorKind::classify(&e), e.to_string(), None),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "executor panicked".into());
            fail(
                ErrorKind::Simulation,
                format!("executor panicked: {msg}"),
                None,
            )
        }
    };
    match &result {
        Ok(_) => inner.counters.completed.fetch_add(1, Ordering::Relaxed),
        Err(e) if e.kind == ErrorKind::Cancelled => {
            inner.counters.cancelled.fetch_add(1, Ordering::Relaxed)
        }
        Err(_) => 0,
    };
    let _ = job.tx.send(result);
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = next_job(inner) {
        run_job(inner, &job);
        let mut st = inner.lock();
        st.running_bytes = st.running_bytes.saturating_sub(job.est_bytes);
        drop(st);
        // free memory may admit a previously skipped large job
        inner.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::factories::*;
    use crate::measurement::Measurement;
    use crate::sim::trajectory::PauliChannel;

    fn sampled_circuit(tag: f64) -> QCircuit {
        let mut c = QCircuit::new(3);
        c.push_back(Hadamard::new(0));
        c.push_back(RotationY::new(1, tag));
        c.push_back(CNOT::new(0, 2));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(2));
        c
    }

    #[test]
    fn jobs_resolve_and_match_standalone_runs() {
        let cfg = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let base = cfg.base.clone();
        let sched = Scheduler::new(cfg);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let spec = JobSpec::new(
                    format!("job-{i}"),
                    sampled_circuit(0.3 + 0.1 * (i % 2) as f64),
                    500,
                    100 + i,
                );
                sched.submit(spec).expect("admitted")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("job succeeds");
            let mut config = base.clone();
            config.seed = 100 + i as u64;
            config.shots = 500;
            let standalone =
                run_trajectories(&sampled_circuit(0.3 + 0.1 * (i % 2) as f64), &config).unwrap();
            assert_eq!(&out.counts, standalone.counts(), "job {i} diverged");
            assert_eq!(out.shots, 500);
        }
        let stats = sched.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        sched.shutdown();
    }

    #[test]
    fn queue_depth_rejects_with_resource_kind() {
        let mut cfg = ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        };
        // gate noise on a non-Clifford stream: every shot is evolved, so
        // the first job parks the only worker and the queue actually fills
        cfg.base.noise.after_gate = Some(PauliChannel::BitFlip(0.01));
        let sched = Scheduler::new(cfg);
        let mut slow = QCircuit::new(12);
        for q in 0..12 {
            slow.push_back(RotationY::new(q, 0.3));
        }
        slow.push_back(Measurement::z(0));
        let busy = sched
            .submit(JobSpec::new("busy", slow, 1_000_000, 1))
            .expect("admitted");
        let mut handles = Vec::new();
        let mut rejected = None;
        for i in 0..8 {
            match sched.submit(JobSpec::new(format!("q-{i}"), sampled_circuit(0.7), 200, i)) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("a submission beyond the depth must be rejected");
        assert_eq!(e.kind, ErrorKind::Resource);
        assert_eq!(e.kind.exit_code(), 6);
        busy.cancel();
        assert_eq!(busy.wait().unwrap_err().kind, ErrorKind::Cancelled);
        for h in handles {
            let _ = h.wait();
        }
    }

    #[test]
    fn oversized_job_is_rejected_at_the_door() {
        let cfg = ServiceConfig::default();
        let sched = Scheduler::new(cfg);
        let mut big = QCircuit::new(48);
        big.push_back(Hadamard::new(0));
        big.push_back(Measurement::z(0));
        let err = sched
            .submit(JobSpec::new("big", big, 10, 1))
            .expect_err("a 48-qubit dense job must be refused");
        assert_eq!(err.kind, ErrorKind::Resource);
        assert_eq!(err.kind.wire_name(), "resource");
    }
}
