//! The per-layer numbers of the traced run: the harness calls each
//! layer's public functions in-process, on the workload's own inputs,
//! and times them. Nothing in the program is edited or instrumented;
//! where a layer has no public entry of its own (the measured-marginal
//! builder, the dense executor) its cost is taken by difference
//! between two public calls, and says so.

use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{self, Env, ServeInputs, Workload};
use qclab_core::program::{self, PlanOptions, ProgramOp};
use qclab_core::service::{JobHandle, JobSpec, Scheduler, ServiceConfig};
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};
use qclab_core::{QCircuit, QclabError, SimOptions};
use qclab_math::CVec;
use qclab_qasm::{import, lexer, parser};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One distinct input of a workload, with the way the workload runs it.
pub struct Kind {
    pub name: String,
    /// The CLI kind this is, for joining with the timed run's samples.
    pub cli_kind: Option<&'static str>,
    pub qasm: String,
    pub shots: u64,
    pub noise: Option<PauliChannel>,
    /// Run with the scheduler's worker configuration (serial kernels,
    /// no shot fan-out) instead of the CLI's defaults.
    pub as_service_job: bool,
    /// Operations of this kind in one round.
    pub weight: f64,
}

/// Repetitions asked for per distinct input.
pub const REPS: usize = 30;
/// Repetitions below which no measurement stops, whatever the budget.
const MIN_REPS: usize = 5;
/// Shots of the long run the per-shot draw cost is taken from.
const DRAW_SHOTS: u64 = 200_000;
/// One-off circuits sampled from the pool for the in-process pass.
const DEEP_SAMPLE: usize = 16;

pub fn kinds(workload: Workload, seed: u64, env: &Env) -> std::io::Result<Vec<Kind>> {
    if workload == Workload::ServeMix {
        let inputs = ServeInputs::generate(seed);
        let kind = |file: usize, shots, weight| Kind {
            name: inputs.files[file].0.trim_end_matches(".qasm").to_string(),
            cli_kind: None,
            qasm: inputs.files[file].1.clone(),
            shots,
            noise: None,
            as_service_job: true,
            weight,
        };
        let hot = crate::gen::HOT_CIRCUITS;
        let round = inputs.round(0);
        let mut out: Vec<Kind> = (0..hot)
            .map(|k| {
                let uses = round.iter().filter(|&&j| inputs.specs[j].0 == k).count();
                kind(k, workload::HOT_SHOTS, uses as f64)
            })
            .collect();
        let deep_jobs =
            (workload::SERVE_ROUND_JOBS as f64) - out.iter().map(|k| k.weight).sum::<f64>();
        let stride = crate::gen::DEEP_POOL / DEEP_SAMPLE;
        out.extend((0..DEEP_SAMPLE).map(|i| {
            kind(
                hot + i * stride,
                workload::DEEP_SHOTS,
                deep_jobs / DEEP_SAMPLE as f64,
            )
        }));
        return Ok(out);
    }
    let (ops, files) = workload::cli_round(workload, seed, env);
    let mut out: Vec<Kind> = Vec::new();
    for op in &ops {
        if let Some(seen) = out.iter_mut().find(|k| k.cli_kind == Some(op.kind)) {
            seen.weight += 1.0;
            continue;
        }
        let generated = files
            .iter()
            .find(|(name, _)| op.file.ends_with(name))
            .map(|(_, text)| text.clone());
        let qasm = match generated {
            Some(text) => text,
            None => std::fs::read_to_string(&op.file)?,
        };
        out.push(Kind {
            name: op.kind.to_string(),
            cli_kind: Some(op.kind),
            qasm,
            shots: op.shots,
            noise: op.noise.map(|(channel, p)| match channel {
                "bitflip" => PauliChannel::BitFlip(p),
                "phaseflip" => PauliChannel::PhaseFlip(p),
                _ => PauliChannel::Depolarizing(p),
            }),
            as_service_job: false,
            weight: 1.0,
        });
    }
    Ok(out)
}

/// What the in-process pass found for one kind.
pub struct KindResult {
    /// Median per metric; only the metrics this kind's path exercises.
    pub values: BTreeMap<&'static str, f64>,
    pub path: ShotPath,
    /// Median whole in-process request with span recording on / off, ms.
    pub request_traced_ms: f64,
    pub request_untraced_ms: f64,
    /// Self time of the layer spans of a median traced request, ms.
    pub layer_self_ms: f64,
    /// Plan-cache lookups of the requests, and how many hit.
    pub cache_lookups: u64,
    pub cache_hits: u64,
    /// Fewest repetitions behind any median of this kind.
    pub min_reps: usize,
}

/// The timings of one kind: medians by metric name, all taken before
/// one deadline.
struct Probe {
    deadline: Instant,
    /// Fewest repetitions behind any median so far.
    min_reps: usize,
    values: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// Whether repetition `rep` (from 0) may still run: always below
    /// `floor`, after that only while the deadline has not passed.
    fn may_run(&self, rep: usize, floor: usize) -> bool {
        rep < REPS && (rep < floor || Instant::now() < self.deadline)
    }

    /// Times `f` up to [`REPS`] times (at least [`MIN_REPS`]) and
    /// records the median, in microseconds, under `name`.
    fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
        self.time_prepared(name, || (), |()| f())
    }

    /// [`time`](Self::time) with an untimed `prepare` before every call.
    fn time_prepared<S, R>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> f64 {
        let mut us = Vec::with_capacity(REPS);
        while self.may_run(us.len(), MIN_REPS) {
            let input = prepare();
            us.push(once_us(|| f(input)));
        }
        self.min_reps = self.min_reps.min(us.len());
        self.set(name, stats::median(&us))
    }

    fn set(&mut self, name: &'static str, value: f64) -> f64 {
        self.values.insert(name, value);
        value
    }
}

fn once_us<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool always builds")
        .install(f)
}

fn path_code(path: ShotPath) -> f64 {
    match path {
        // 0 is what a workload without trajectory kinds reports
        ShotPath::PerShot => 1.0,
        ShotPath::Forked { .. } => 2.0,
        ShotPath::AliasSampled { .. } => 3.0,
        ShotPath::SparseSampled { .. } => 4.0,
        ShotPath::PauliFrame => 5.0,
    }
}

impl Kind {
    fn config(&self, shots: u64) -> TrajectoryConfig {
        let base = if self.as_service_job {
            ServiceConfig::default().base
        } else {
            TrajectoryConfig::default()
        };
        TrajectoryConfig {
            seed: 1,
            shots,
            noise: NoiseSpec {
                after_gate: self.noise,
                ..NoiseSpec::default()
            },
            ..base
        }
    }

    /// The lowering options the trajectory engine uses for this kind:
    /// fusion and the locality pass apply to noiseless runs only
    /// (noise sites are defined on the original gates).
    fn plan_options(&self) -> PlanOptions {
        PlanOptions {
            fuse: self.noise.is_none(),
            remap: self.noise.is_none(),
            ..PlanOptions::default()
        }
    }

    /// The same circuit without its measurements: what the dense
    /// kernels execute, as one unitary program.
    fn gates_only(&self) -> Result<QCircuit, QclabError> {
        let text: String = self
            .qasm
            .lines()
            .filter(|l| !l.starts_with("measure"))
            .flat_map(|l| [l, "\n"])
            .collect();
        qclab_qasm::from_qasm(&text)
    }

    /// One whole request in-process, as the CLI would serve it from a
    /// cold process — empty plan cache, no warm heap pages — with every
    /// layer called in turn inside its own span.
    /// Returns the request's wall time in ms and whether its one
    /// plan-cache lookup hit (it cannot: the cache is emptied first, as
    /// a fresh process would find it — but that is measured, not assumed).
    fn request(&self, tracer: &mut Tracer, id: u64) -> Result<(f64, bool), QclabError> {
        program::clear_plan_cache();
        crate::sys::release_free_heap();
        let hits_before = program::plan_cache_stats().hits;
        let t = Instant::now();
        let root = tracer.enter("request", None, id);
        let ast = tracer.span("qasm.parse", Some(root), id, || parser::parse(&self.qasm))?;
        let circuit = tracer.span("qasm.import", Some(root), id, || {
            import::program_to_circuit(&ast)
        })?;
        let plan = tracer.span("program.compile", Some(root), id, || {
            program::compile(&circuit, &self.plan_options())
        });
        let hit = program::plan_cache_stats().hits > hits_before;
        if self.noise.is_some() && plan.stats().is_clifford {
            tracer.span("frame.lower", Some(root), id, || plan.frame_program());
        } else {
            tracer.span("bytecode.lower", Some(root), id, || plan.bytecode());
        }
        let config = self.config(self.shots);
        let result = tracer.span("sim.run", Some(root), id, || {
            run_trajectories(&circuit, &config)
        })?;
        black_box(result.total_counts());
        tracer.exit(root);
        Ok((t.elapsed().as_secs_f64() * 1e3, hit))
    }
}

/// Measures every layer on one kind, spending at most about `budget`.
pub fn measure(
    kind: &Kind,
    budget: Duration,
    tracer: &mut Tracer,
    first_request_id: u64,
) -> Result<KindResult, QclabError> {
    let mut p = Probe {
        deadline: Instant::now() + budget,
        min_reps: REPS,
        values: BTreeMap::new(),
    };
    let src = kind.qasm.as_str();
    let opts = kind.plan_options();

    // front end
    p.set("qasm.src_bytes", src.len() as f64);
    p.time("qasm.lex_us", || lexer::tokenize(src));
    p.time("qasm.parse_us", || parser::parse(src));
    let ast = parser::parse(src)?;
    p.time("qasm.import_us", || import::program_to_circuit(&ast));
    let circuit = import::program_to_circuit(&ast)?;

    // lowering
    p.time("program.fingerprint_us", || program::fingerprint(&circuit));
    p.time("program.lower_us", || program::lower(&circuit, &opts));
    let plan = program::compile(&circuit, &opts);
    p.time("program.compile_hit_us", || {
        program::compile(&circuit, &opts)
    });
    let plan_stats = *plan.stats();
    let permutes = plan
        .ops()
        .iter()
        .filter(|op| matches!(op, ProgramOp::Permute { .. }))
        .count();
    p.set("qasm.gates_in", plan_stats.gates_in as f64);
    p.set("program.ops_in", plan_stats.gates_in as f64);
    p.set("program.ops_out", plan.ops().len() as f64);
    p.set("program.permutes", permutes as f64);
    // a fresh plan each time: bytecode() and frame_program() cache on the plan
    let fresh_plan = || program::lower(&circuit, &opts);
    p.time_prepared("bytecode.lower_us", fresh_plan, |fresh| fresh.bytecode());
    p.set("bytecode.stream_len", plan.bytecode().stream_len() as f64);

    // the shot engine, by the path the program routes this kind to
    let config = kind.config(kind.shots);
    let probe = run_trajectories(&circuit, &config)?;
    let path = probe.path();
    // dense kernels: the gates of the circuit on |0…0⟩, through the
    // public simulate entry (which also clones the initial state and
    // checks its norm — one extra pass over the state). The frame
    // engine never builds a state vector, so a kind routed to it has
    // no dense share (and its register may be far too wide for one).
    let dense = if path == ShotPath::PauliFrame {
        None
    } else {
        let gates = kind.gates_only()?;
        let mut sim_opts = SimOptions {
            kernel: config.kernel,
            ..SimOptions::default()
        };
        sim_opts.kernel.fuse = opts.fuse;
        sim_opts.kernel.remap = opts.remap;
        let zero = CVec::basis_state(1usize << gates.nb_qubits(), 0);
        Some((gates, zero, sim_opts))
    };
    let execute = || {
        let (gates, zero, sim_opts) = dense.as_ref().expect("only called for dense kinds");
        gates
            .simulate_with(zero, sim_opts)
            .map(|s| s.branches().len())
    };
    if let Some((gates, ..)) = &dense {
        let state_bytes = 16.0 * (1u64 << gates.nb_qubits()) as f64;
        let gate_plan = program::compile(gates, &opts);
        execute()?;
        p.time("dense.execute_us", execute);
        p.time("dense.execute_us_1t", || one_thread(execute));
        p.set("dense.ops", gate_plan.ops().len() as f64);
        p.set("dense.state_bytes", state_bytes);
        p.set(
            "dense.bytes_moved_computed",
            2.0 * state_bytes * gate_plan.bytecode().stream_len() as f64,
        );
    }

    let run =
        |config: &TrajectoryConfig| run_trajectories(&circuit, config).map(|r| r.total_counts());
    match path {
        ShotPath::PerShot | ShotPath::Forked { .. } => {
            p.time("trajectory.run_us", || run(&config));
            p.set("trajectory.shots", kind.shots as f64);
            p.set("trajectory.path_code", path_code(path));
            p.set("trajectory.injected_errors", probe.injected_errors() as f64);
            p.set("trajectory.shot_batch", probe.shot_batch() as f64);
            if path == ShotPath::PerShot {
                // every shot replays the whole program: the cost of one
                // op on one shot's state, everything included (dispatch,
                // kernel, noise draw), with one thread. The one-state
                // kernel time measurable from outside is larger than
                // this, so no kernel share is subtracted.
                let run_1t_us = p.time("trajectory.run_us_1t", || one_thread(|| run(&config)));
                let shot_ops = kind.shots as f64 * plan.ops().len() as f64;
                p.set(
                    "trajectory.dispatch_ns_per_shot_op",
                    run_1t_us * 1e3 / shot_ops,
                );
            }
        }
        ShotPath::AliasSampled { .. } | ShotPath::SparseSampled { .. } => {
            // marginal + table + one draw, by difference: a one-shot
            // run minus the kernel time of the same gates; the cost of
            // a draw from a long run minus the one-shot run. The three
            // are timed back to back and differenced pair by pair, so a
            // shift of the host between them cancels.
            let (one, many) = (kind.config(1), kind.config(DRAW_SHOTS));
            let mut build_us = Vec::new();
            let mut draw_ns = Vec::new();
            while p.may_run(build_us.len(), MIN_REPS) {
                let kernels = once_us(execute);
                let one_shot = once_us(|| run(&one));
                let long = once_us(|| run(&many));
                build_us.push(one_shot - kernels);
                draw_ns.push((long - one_shot) * 1e3 / (DRAW_SHOTS - 1) as f64);
            }
            p.min_reps = p.min_reps.min(build_us.len());
            p.set("sampler.build_us", stats::median(&build_us).max(0.0));
            p.set("sampler.draw_ns_per_shot", stats::median(&draw_ns).max(0.0));
            p.set(
                "sampler.outcomes",
                (1u64 << plan_stats.measurements.min(62)) as f64,
            );
        }
        ShotPath::PauliFrame => {
            p.time_prepared("frame.lower_us", fresh_plan, |fresh| fresh.frame_program());
            let frames = plan.frame_program().expect("the frame path ran this plan");
            p.set("frame.stream_len", frames.len() as f64);
            p.time("frame.run_us", || run(&config));
            p.set("frame.shots", kind.shots as f64);
        }
    }

    // whole requests, span recording alternately on and off
    let mut off = Tracer::new(false);
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut layer_self_ms = Vec::new();
    let mut cache_hits = 0;
    for rep in 0.. {
        if !p.may_run(rep, 2 * MIN_REPS) {
            break;
        }
        if rep % 2 == 0 {
            let before = tracer.len();
            let (ms, hit) = kind.request(tracer, first_request_id + rep as u64)?;
            traced_ms.push(ms);
            cache_hits += u64::from(hit);
            // the layer spans are the request span's children
            let spans = tracer.spans_since(before);
            let own = trace::self_times_ns(&spans);
            let layers: u64 = spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.parent.is_some())
                .map(|(_, ns)| ns)
                .sum();
            layer_self_ms.push(layers as f64 / 1e6);
        } else {
            let (ms, hit) = kind.request(&mut off, 0)?;
            untraced_ms.push(ms);
            cache_hits += u64::from(hit);
        }
    }

    Ok(KindResult {
        path,
        request_traced_ms: stats::median(&traced_ms),
        request_untraced_ms: stats::median(&untraced_ms),
        layer_self_ms: stats::median(&layer_self_ms),
        cache_lookups: (traced_ms.len() + untraced_ms.len()) as u64,
        cache_hits,
        min_reps: p.min_reps.min(traced_ms.len()),
        values: p.values,
    })
}

/// The same 200-job serve round in-process: decode each job's QASM as
/// `serve` does, then `Scheduler::submit`, the same number in flight,
/// `wait` oldest first.
pub struct SchedulerRounds {
    /// Rounds timed with span recording off, ms.
    pub round_ms: Vec<f64>,
    /// Rounds timed with span recording on, ms.
    pub traced_round_ms: Vec<f64>,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
}

pub fn scheduler_rounds(
    inputs: &ServeInputs,
    rounds: usize,
    tracer: &mut Tracer,
) -> Result<SchedulerRounds, QclabError> {
    let scheduler = Scheduler::new(ServiceConfig::default());
    let wait = |handle: JobHandle| match handle.wait() {
        Ok(_) => Ok(()),
        Err(e) => Err(QclabError::Unavailable(e.message)),
    };
    let mut off = Tracer::new(false);
    let mut out = SchedulerRounds {
        round_ms: Vec::new(),
        traced_round_ms: Vec::new(),
        plan_cache_hits: 0,
        plan_cache_misses: 0,
    };
    let mut request_id = 1u64 << 32;
    let mut before = program::plan_cache_stats();
    // round 0 warms the plan cache and is not reported
    for r in 0..=rounds {
        let traced = r % 2 == 1;
        let tr: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let started = Instant::now();
        let round_span = tr.enter("service.round", None, 0);
        let mut in_flight = VecDeque::with_capacity(workload::SERVE_WINDOW);
        for j in inputs.round(r) {
            request_id += 1;
            let (file, seed) = inputs.specs[j];
            let shots = inputs.jobs[j].shots;
            let job_span = tr.enter("service.job", Some(round_span), request_id);
            let ast = tr.span("qasm.parse", Some(job_span), request_id, || {
                parser::parse(&inputs.files[file].1)
            })?;
            let circuit = tr.span("qasm.import", Some(job_span), request_id, || {
                import::program_to_circuit(&ast)
            })?;
            let handle = tr.span("service.submit", Some(job_span), request_id, || {
                scheduler
                    .submit(JobSpec::new(request_id.to_string(), circuit, shots, seed))
                    .map_err(|e| QclabError::Unavailable(e.message))
            });
            tr.exit(job_span);
            let handle = handle?;
            in_flight.push_back((request_id, handle));
            if in_flight.len() == workload::SERVE_WINDOW {
                let (id, oldest) = in_flight.pop_front().expect("window is full");
                tr.span("service.wait", Some(round_span), id, || wait(oldest))?;
            }
        }
        for (id, handle) in in_flight {
            tr.span("service.wait", Some(round_span), id, || wait(handle))?;
        }
        tr.exit(round_span);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if r == 0 {
            before = program::plan_cache_stats();
        } else if traced {
            out.traced_round_ms.push(ms);
        } else {
            out.round_ms.push(ms);
        }
    }
    let after = program::plan_cache_stats();
    out.plan_cache_hits = after.hits - before.hits;
    out.plan_cache_misses = after.misses - before.misses;
    scheduler.shutdown();
    Ok(out)
}
