//! `qclab` — command-line front end for the toolbox.
//!
//! ```text
//! qclab draw     circuit.qasm              terminal rendering
//! qclab tex      circuit.qasm              quantikz LaTeX to stdout
//! qclab simulate circuit.qasm [BITSTRING]  branch results/probabilities
//! qclab counts   circuit.qasm SHOTS        sampled outcome frequencies
//! qclab sample   circuit.qasm SHOTS        trajectory sampling (noise!)
//! qclab compile  circuit.qasm              lowered op schedule + plan stats
//! qclab stats    circuit.qasm              gate/depth/measurement counts
//! ```
//!
//! Engine flags (position-independent after the command name):
//!
//! * `--no-fuse` — disable the gate-fusion pre-pass (`simulate`,
//!   `counts`, `sample`, `compile`),
//! * `--no-simd` — force the scalar kernels (`simulate`, `counts`,
//!   `sample`),
//! * `--no-remap` — disable the locality pass (logical→physical qubit
//!   remapping and the cache-blocked sweep), reproducing the pre-remap
//!   engine bit for bit (`simulate`, `counts`, `sample`, `compile`),
//! * `--max-qubits N` — refuse registers above `N` qubits instead of
//!   relying on the 4 GiB default memory cap (any command that
//!   simulates),
//! * `--backend auto|dense|sparse` — pick the state representation
//!   (`simulate`, `counts`, `sample`, `compile`). `dense` (the default)
//!   keeps today's state-vector engine, `sparse` pins the hashmap
//!   executor, and `auto` lets the compile-time support estimate route
//!   each program — opening low-entanglement registers the dense guard
//!   refuses (30+ qubits),
//! * `--seed N` — RNG seed for `counts` and `sample`,
//! * `--shots N` — alternative to the positional shot count,
//! * `--noise CH:P` / `--idle-noise CH:P` / `--measure-noise CH:P` —
//!   Pauli noise for `sample`, where `CH` is `bitflip`, `phaseflip` or
//!   `depolarizing` and `P` the error probability per location,
//! * `--no-fast-path` — make every `sample` shot evolve its own state
//!   from the first gate (no deterministic-prefix forking, no shared
//!   terminal-measurement table); the counts are the same either way,
//!   record for record,
//! * `--no-frames` — disable the Pauli-frame sampler for `sample`
//!   (noisy Clifford circuits fall back to the state-vector trajectory
//!   engine; same distribution, different per-shot bits). For `compile`
//!   the flag changes the reported noisy shot path,
//! * `--shot-batch N` — trajectory shot-batch width for `sample`
//!   (default 64): the noisy per-shot engine evolves what the `N` shots
//!   of a batch share once instead of re-walking the schedule per shot;
//!   the Pauli-frame sampler takes `N` words of 64 bit-sliced shots per
//!   batch. Results are independent of the batch width,
//! * `--timeout-ms N` — wall-clock deadline for the run (`simulate`,
//!   `counts`, `sample`). A run that exceeds it stops at the next op
//!   boundary and exits with code `7`; `sample` additionally prints the
//!   shots completed so far as a partial-result JSON document on stdout.
//!   `--timeout-ms 0` is rejected as a usage error: an already-expired
//!   deadline is a bad invocation, not a timeout.
//!
//! Errors go to stderr with a distinct exit code per failure class:
//! `2` usage, `3` I/O, `4` QASM parse, `5` simulation, `6` resource
//! limits, `7` timeout/cancellation (partial results may be printed).
//!
//! Mirrors the workflow of the paper: construct (or import) a circuit,
//! inspect it, simulate it, and sample repeated experiments.

mod serve;

use qclab_core::program::BackendRequest;
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::guard::{ResourceLimits, SPARSE_ENTRY_BYTES};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, TrajectoryConfig, TrajectoryResult,
};
use qclab_core::sim::{DispatchedSimulation, SimOptions};
use qclab_core::{QCircuit, QclabError};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for command-line misuse (bad flags, bad noise specs).
const EXIT_USAGE: u8 = 2;
/// Exit code for file-system failures.
const EXIT_IO: u8 = 3;
/// Exit code for OpenQASM parse/import failures.
const EXIT_PARSE: u8 = 4;
/// Exit code for simulation failures (bad state, bad observable, …).
const EXIT_SIM: u8 = 5;
/// Exit code for resource-limit refusals.
const EXIT_RESOURCE: u8 = 6;
/// Exit code for deadline/cancellation stops (`--timeout-ms`). Partial
/// results, when available, are printed on stdout before exiting.
const EXIT_TIMEOUT: u8 = 7;

/// A failure carrying its exit code; the message goes to stderr. A
/// timed-out run may also carry a partial-result document for stdout.
#[derive(Debug, PartialEq)]
struct CliError {
    code: u8,
    msg: String,
    stdout: Option<String>,
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_USAGE,
        msg: format!("{}\n{}", msg.into(), usage()),
        stdout: None,
    }
}

impl From<QclabError> for CliError {
    fn from(e: QclabError) -> Self {
        let code = match &e {
            QclabError::QasmParse { .. } => EXIT_PARSE,
            QclabError::ResourceExhausted { .. } => EXIT_RESOURCE,
            QclabError::InvalidNoiseSpec(_) => EXIT_USAGE,
            QclabError::Cancelled(_) | QclabError::DeadlineExceeded(_) => EXIT_TIMEOUT,
            _ => EXIT_SIM,
        };
        CliError {
            code,
            msg: e.to_string(),
            stdout: None,
        }
    }
}

/// Engine options shared by the simulating commands.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EngineOpts {
    fuse: bool,
    simd: bool,
    remap: bool,
    frames: bool,
    shot_batch: Option<usize>,
    max_qubits: Option<usize>,
    backend: BackendRequest,
    timeout_ms: Option<u64>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            fuse: true,
            simd: true,
            remap: true,
            frames: true,
            shot_batch: None,
            max_qubits: None,
            backend: BackendRequest::Dense,
            timeout_ms: None,
        }
    }
}

impl EngineOpts {
    fn kernel(&self) -> KernelConfig {
        KernelConfig {
            fuse: self.fuse,
            allow_simd: self.simd,
            remap: self.remap,
            ..KernelConfig::default()
        }
    }

    fn limits(&self) -> ResourceLimits {
        match self.max_qubits {
            Some(n) => ResourceLimits::with_max_qubits(n),
            None => ResourceLimits::default(),
        }
    }

    /// The deadline (if any) starts ticking here, at options
    /// construction — i.e. when the command begins executing.
    fn control(&self) -> ExecutionControl {
        match self.timeout_ms {
            Some(ms) => ExecutionControl::with_timeout(Duration::from_millis(ms)),
            None => ExecutionControl::none(),
        }
    }

    fn sim_opts(&self) -> SimOptions {
        SimOptions {
            kernel: self.kernel(),
            limits: self.limits(),
            control: self.control(),
            ..SimOptions::default()
        }
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Draw {
        path: String,
    },
    Tex {
        path: String,
    },
    Simulate {
        path: String,
        init: Option<String>,
        opts: EngineOpts,
    },
    Counts {
        path: String,
        shots: u64,
        seed: u64,
        opts: EngineOpts,
    },
    Sample {
        path: String,
        shots: u64,
        seed: u64,
        noise: NoiseSpec,
        fast_path: bool,
        opts: EngineOpts,
    },
    Compile {
        path: String,
        opts: EngineOpts,
    },
    Stats {
        path: String,
    },
    Serve {
        opts: serve::ServeOpts,
    },
}

fn usage() -> String {
    "usage:\n  qclab draw     <file.qasm>\n  qclab tex      <file.qasm>\n  \
     qclab simulate [flags] <file.qasm> [initial-bitstring]\n  \
     qclab counts   [flags] <file.qasm> <shots>\n  \
     qclab sample   [flags] <file.qasm> <shots>\n  \
     qclab compile  [flags] <file.qasm>\n  qclab stats    <file.qasm>\n  \
     qclab serve    [flags]\n\
     flags:\n  --no-fuse               disable gate fusion\n  \
     --no-simd               force scalar kernels\n  \
     --no-remap              disable the qubit-locality pass\n  \
     --shot-batch <n>        trajectory shot-batch width (sample; default 64)\n  \
     --max-qubits <n>        refuse larger registers\n  \
     --backend <b>           state representation: auto|dense|sparse (simulate/counts/sample/compile)\n  \
     --seed <n>              RNG seed (counts/sample)\n  \
     --shots <n>             shot count (counts/sample)\n  \
     --noise <ch:p>          after-gate noise (sample); ch = bitflip|phaseflip|depolarizing\n  \
     --idle-noise <ch:p>     idle-qubit noise (sample)\n  \
     --measure-noise <ch:p>  pre-measurement noise (sample)\n  \
     --no-fast-path          share no evolution between shots; same counts (sample)\n  \
     --no-frames             disable the Pauli-frame sampler (sample/compile)\n  \
     --timeout-ms <n>        wall-clock deadline; exit 7 with partial results (simulate/counts/sample)\n\
     serve flags (jobs are newline-delimited JSON on stdin or the socket):\n  \
     --workers <n>           worker threads (default: CPU count, capped at 16)\n  \
     --queue-depth <n>       max queued jobs; overflow is rejected (default 1024)\n  \
     --global-mem-mib <n>    admission budget for concurrent state memory (default 8192)\n  \
     --socket <path>         serve a Unix socket instead of stdin"
        .to_string()
}

/// Parses `bitflip:0.01`-style channel specs.
fn parse_channel(spec: &str) -> Result<PauliChannel, CliError> {
    let (name, prob) = spec
        .split_once(':')
        .ok_or_else(|| usage_err(format!("noise spec '{spec}' must look like 'bitflip:0.01'")))?;
    let p: f64 = prob
        .parse()
        .map_err(|_| usage_err(format!("noise probability '{prob}' is not a number")))?;
    let channel = match name {
        "bitflip" | "x" => PauliChannel::BitFlip(p),
        "phaseflip" | "z" => PauliChannel::PhaseFlip(p),
        "depolarizing" | "dep" => PauliChannel::Depolarizing(p),
        other => {
            return Err(usage_err(format!(
                "unknown noise channel '{other}' (expected bitflip, phaseflip or depolarizing)"
            )))
        }
    };
    channel.validate()?;
    Ok(channel)
}

/// Flag values accumulated while scanning the argument vector.
#[derive(Default)]
struct Flags {
    opts: EngineOpts,
    seed: Option<u64>,
    shots: Option<u64>,
    noise: NoiseSpec,
    no_fast_path: bool,
    used: Vec<&'static str>,
}

/// Parses the argument vector (without the program name). Flags may
/// appear anywhere after the command name; the remaining arguments are
/// positional.
fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let cmd = args
        .first()
        .ok_or_else(|| usage_err("missing command"))?
        .clone();
    // serve owns scheduler-level flags the other commands must not see;
    // peel them off first and run the common parser on the remainder
    let mut serve_opts = None;
    let tail: Vec<String>;
    let scan: &[String] = if cmd == "serve" {
        let (so, remaining) = serve::parse_serve_flags(&args[1..])?;
        serve_opts = Some(so);
        tail = remaining;
        &tail
    } else {
        &args[1..]
    };
    let mut flags = Flags::default();
    let mut rest: Vec<String> = Vec::new();
    let mut it = scan.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{a} requires a {what}")))
        };
        match a.as_str() {
            "--no-fuse" => {
                flags.opts.fuse = false;
                flags.used.push("--no-fuse");
            }
            "--no-simd" => {
                flags.opts.simd = false;
                flags.used.push("--no-simd");
            }
            "--no-remap" => {
                flags.opts.remap = false;
                flags.used.push("--no-remap");
            }
            "--shot-batch" => {
                let v = value("batch size")?;
                let b: usize = v.parse().map_err(|_| {
                    usage_err(format!("--shot-batch value '{v}' is not a batch size"))
                })?;
                if b == 0 {
                    return Err(usage_err("--shot-batch must be at least 1"));
                }
                flags.opts.shot_batch = Some(b);
                flags.used.push("--shot-batch");
            }
            "--max-qubits" => {
                let v = value("qubit count")?;
                flags.opts.max_qubits = Some(v.parse().map_err(|_| {
                    usage_err(format!("--max-qubits value '{v}' is not a qubit count"))
                })?);
                flags.used.push("--max-qubits");
            }
            "--backend" => {
                let v = value("backend name")?;
                flags.opts.backend = match v.as_str() {
                    "auto" => BackendRequest::Auto,
                    "dense" => BackendRequest::Dense,
                    "sparse" => BackendRequest::Sparse,
                    other => {
                        return Err(usage_err(format!(
                            "unknown backend '{other}' (expected auto, dense or sparse)"
                        )))
                    }
                };
                flags.used.push("--backend");
            }
            "--seed" => {
                let v = value("seed")?;
                flags.seed = Some(
                    v.parse()
                        .map_err(|_| usage_err(format!("--seed value '{v}' is not an integer")))?,
                );
                flags.used.push("--seed");
            }
            "--shots" => {
                let v = value("shot count")?;
                flags.shots =
                    Some(v.parse().map_err(|_| {
                        usage_err(format!("--shots value '{v}' is not an integer"))
                    })?);
                flags.used.push("--shots");
            }
            "--noise" => {
                flags.noise.after_gate = Some(parse_channel(&value("channel spec")?)?);
                flags.used.push("--noise");
            }
            "--idle-noise" => {
                flags.noise.idle = Some(parse_channel(&value("channel spec")?)?);
                flags.used.push("--idle-noise");
            }
            "--measure-noise" => {
                flags.noise.before_measure = Some(parse_channel(&value("channel spec")?)?);
                flags.used.push("--measure-noise");
            }
            "--no-fast-path" => {
                flags.no_fast_path = true;
                flags.used.push("--no-fast-path");
            }
            "--no-frames" => {
                flags.opts.frames = false;
                flags.used.push("--no-frames");
            }
            "--timeout-ms" => {
                let v = value("millisecond count")?;
                let ms: u64 = v.parse().map_err(|_| {
                    usage_err(format!(
                        "--timeout-ms value '{v}' is not a millisecond count"
                    ))
                })?;
                if ms == 0 {
                    // A zero deadline is already expired before the run
                    // starts; reporting it as a timeout (exit 7) would
                    // dress a bad invocation up as a partial result.
                    return Err(usage_err("--timeout-ms must be at least 1"));
                }
                flags.opts.timeout_ms = Some(ms);
                flags.used.push("--timeout-ms");
            }
            other if other.starts_with("--") => {
                return Err(usage_err(format!("unknown option '{other}'")));
            }
            _ => rest.push(a.clone()),
        }
    }

    // flag/command compatibility
    let allowed: &[&str] = match cmd.as_str() {
        "simulate" => &[
            "--no-fuse",
            "--no-simd",
            "--no-remap",
            "--max-qubits",
            "--backend",
            "--timeout-ms",
        ],
        "counts" => &[
            "--no-fuse",
            "--no-simd",
            "--no-remap",
            "--max-qubits",
            "--backend",
            "--seed",
            "--shots",
            "--timeout-ms",
        ],
        "sample" => &[
            "--no-fuse",
            "--no-simd",
            "--no-remap",
            "--shot-batch",
            "--max-qubits",
            "--backend",
            "--seed",
            "--shots",
            "--noise",
            "--idle-noise",
            "--measure-noise",
            "--no-fast-path",
            "--no-frames",
            "--timeout-ms",
        ],
        "compile" => &[
            "--no-fuse",
            "--no-remap",
            "--max-qubits",
            "--backend",
            "--no-frames",
        ],
        "serve" => &[
            "--no-fuse",
            "--no-simd",
            "--no-remap",
            "--no-frames",
            "--shot-batch",
            "--max-qubits",
            "--backend",
        ],
        _ => &[],
    };
    if let Some(bad) = flags.used.iter().find(|f| !allowed.contains(f)) {
        return Err(usage_err(format!("{bad} does not apply to '{cmd}'")));
    }

    if cmd == "serve" {
        if let Some(stray) = rest.first() {
            return Err(usage_err(format!(
                "serve takes no positional arguments (got '{stray}'); jobs arrive on stdin or --socket"
            )));
        }
        let mut opts = serve_opts.expect("serve pre-pass ran");
        opts.engine = flags.opts;
        return Ok(Command::Serve { opts });
    }

    let path = rest
        .first()
        .cloned()
        .ok_or_else(|| usage_err("missing .qasm file"))?;
    let shots_at = |idx: usize| -> Result<u64, CliError> {
        match (flags.shots, rest.get(idx)) {
            (Some(n), None) => Ok(n),
            (None, Some(s)) => s
                .parse()
                .map_err(|_| usage_err(format!("shot count '{s}' is not an integer"))),
            (Some(_), Some(_)) => Err(usage_err(
                "shot count given both positionally and via --shots",
            )),
            (None, None) => Err(usage_err("missing shot count")),
        }
    };
    match cmd.as_str() {
        "draw" => Ok(Command::Draw { path }),
        "tex" => Ok(Command::Tex { path }),
        "stats" => Ok(Command::Stats { path }),
        "simulate" => Ok(Command::Simulate {
            path,
            init: rest.get(1).cloned(),
            opts: flags.opts,
        }),
        "counts" => Ok(Command::Counts {
            path,
            shots: shots_at(1)?,
            seed: flags.seed.unwrap_or(1),
            opts: flags.opts,
        }),
        "sample" => Ok(Command::Sample {
            path,
            shots: shots_at(1)?,
            seed: flags.seed.unwrap_or(1),
            noise: flags.noise,
            fast_path: !flags.no_fast_path,
            opts: flags.opts,
        }),
        "compile" => Ok(Command::Compile {
            path,
            opts: flags.opts,
        }),
        other => Err(usage_err(format!("unknown command '{other}'"))),
    }
}

fn load(path: &str) -> Result<QCircuit, CliError> {
    let src = std::fs::read_to_string(path).map_err(|e| CliError {
        code: EXIT_IO,
        msg: format!("cannot read {path}: {e}"),
        stdout: None,
    })?;
    qclab_qasm::from_qasm(&src).map_err(|e| {
        let mut c = CliError::from(e);
        c.msg = format!("{path}: {}", c.msg);
        c
    })
}

fn simulate(circuit: &QCircuit, init: Option<&str>, opts: &EngineOpts) -> Result<String, CliError> {
    let zeros = "0".repeat(circuit.nb_qubits());
    let bits = init.unwrap_or(&zeros);
    let sim = circuit.simulate_bitstring_routed(bits, &opts.sim_opts(), opts.backend)?;
    let mut out = String::new();
    match &sim {
        DispatchedSimulation::Dense(sim) => {
            out.push_str(&format!(
                "simulated {} qubits from |{}>: {} branch(es)\n",
                circuit.nb_qubits(),
                bits,
                sim.branches().len()
            ));
        }
        DispatchedSimulation::Sparse(sim) => {
            out.push_str(&format!(
                "simulated {} qubits from |{}>: {} branch(es) (sparse backend, peak {} live entr{})\n",
                circuit.nb_qubits(),
                bits,
                sim.branches().len(),
                sim.peak_entries(),
                if sim.peak_entries() == 1 { "y" } else { "ies" }
            ));
        }
    }
    for (result, p) in sim.results().iter().zip(sim.probabilities()) {
        if result.is_empty() {
            out.push_str(&format!("  (no measurements)  p = {p:.6}\n"));
        } else {
            out.push_str(&format!("  '{result}'  p = {p:.6}\n"));
        }
    }
    Ok(out)
}

fn counts(
    circuit: &QCircuit,
    shots: u64,
    seed: u64,
    opts: &EngineOpts,
) -> Result<String, CliError> {
    let zeros = "0".repeat(circuit.nb_qubits());
    let sim = circuit.simulate_bitstring_routed(&zeros, &opts.sim_opts(), opts.backend)?;
    let mut out = if sim.is_sparse() {
        format!("counts over {shots} shots (seed {seed}, sparse backend):\n")
    } else {
        format!("counts over {shots} shots (seed {seed}):\n")
    };
    for (result, n) in sim.counts(shots, seed) {
        out.push_str(&format!("  '{result}': {n}\n"));
    }
    Ok(out)
}

fn sample(
    circuit: &QCircuit,
    shots: u64,
    seed: u64,
    noise: NoiseSpec,
    fast_path: bool,
    opts: &EngineOpts,
) -> Result<String, CliError> {
    let mut config = TrajectoryConfig {
        seed,
        shots,
        noise,
        kernel: opts.kernel(),
        limits: opts.limits(),
        fast_path,
        frames: opts.frames,
        backend: opts.backend,
        control: opts.control(),
        ..TrajectoryConfig::default()
    };
    if let Some(b) = opts.shot_batch {
        config.shot_batch = b;
    }
    let t_start = std::time::Instant::now();
    let result = run_trajectories(circuit, &config)?;
    let wall_ms = t_start.elapsed().as_secs_f64() * 1e3;
    if let Some(cause) = result.stop_cause() {
        return Err(CliError {
            code: EXIT_TIMEOUT,
            msg: format!(
                "sample stopped early ({cause}): {}/{} shots completed",
                result.shots(),
                result.requested_shots()
            ),
            stdout: Some(partial_json(&result, wall_ms)),
        });
    }
    let mut out = format!(
        "sampled {shots} trajectories (seed {seed}, {} injected error(s), path: {}):\n",
        result.injected_errors(),
        result.path()
    );
    for (record, n) in result.counts() {
        let label = if record.is_empty() {
            "(no measurements)".to_string()
        } else {
            format!("'{record}'")
        };
        out.push_str(&format!(
            "  {label}: {n}  ({:.4})\n",
            *n as f64 / shots.max(1) as f64
        ));
    }
    let stats = result.norm_stats();
    if stats.renormalizations > 0 {
        out.push_str(&format!(
            "norm watchdog: {} renormalization(s), max drift {:.3e}\n",
            stats.renormalizations, stats.max_drift
        ));
    }
    Ok(out)
}

/// Escapes a string for inclusion in a JSON document. Measurement
/// records are plain `0`/`1` strings today, but the contract should not
/// silently break if record labels ever grow richer.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a stopped trajectory run as the partial-result JSON document
/// printed on stdout alongside exit code 7. Counts cover the completed
/// shots only; the cause is `"cancelled"` or `"deadline exceeded"`;
/// `wall_ms` is the measured run time, so a caller juggling many
/// invocations gets the same timing telemetry `qclab serve` streams.
fn partial_json(result: &TrajectoryResult, wall_ms: f64) -> String {
    let cause = result
        .stop_cause()
        .map(|c| c.to_string())
        .unwrap_or_default();
    let mut out = format!(
        "{{\"partial\":true,\"cause\":\"{}\",\"shots_requested\":{},\"shots_completed\":{},\"wall_ms\":{:.3},\"counts\":{{",
        json_escape(&cause),
        result.requested_shots(),
        result.shots(),
        wall_ms
    );
    for (i, (record, n)) in result.counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{n}", json_escape(record)));
    }
    out.push_str("}}\n");
    out
}

/// Renders a byte count like `64 B` / `16.0 MiB`; `None` means the
/// register is too wide for a dense state vector at all.
fn fmt_bytes(bytes: Option<u128>) -> String {
    let Some(b) = bytes else {
        return "beyond addressable memory".to_string();
    };
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if b < 1024 {
        return format!("{b} B");
    }
    let mut value = b as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// `qclab compile`: lowers the circuit through the shared pipeline and
/// prints the plan — op counts before/after fusion, fences, the guard's
/// state-byte estimate, the sparse support bound, the backend the
/// requested routing resolves to, and the op schedule itself. The same
/// backend resolution the simulating commands perform gates the report
/// (exit 6), so "compiles here" means "would simulate here" under the
/// same `--backend` request.
fn compile_report(circuit: &QCircuit, opts: &EngineOpts) -> Result<String, CliError> {
    let kernel = opts.kernel();
    let program = circuit.compile_with(&qclab_core::PlanOptions::from(&kernel));
    let stats = program.stats();
    let choice = qclab_core::program::resolve_backend(
        opts.backend,
        stats,
        circuit.nb_qubits(),
        &opts.limits(),
    )?;
    let mut out = format!(
        "compiled {} qubits (fingerprint {:016x}, fusion {}, remap {}):\n",
        program.nb_qubits(),
        program.fingerprint(),
        if program.options().fuse { "on" } else { "off" },
        if program.options().remap { "on" } else { "off" },
    );
    out.push_str(&format!(
        "  gates:        {} -> {} ({} fused block(s))\n",
        stats.gates_in, stats.gates_out, stats.fused_blocks
    ));
    out.push_str(&format!(
        "  fences:       {}\n  measurements: {}\n  resets:       {}\n",
        stats.fences, stats.measurements, stats.resets
    ));
    out.push_str(&format!(
        "  state bytes:  {}\n",
        fmt_bytes(stats.state_bytes)
    ));
    out.push_str(&format!(
        "  sparse bound: {} live entr{} ({})\n",
        stats.sparse_entries,
        if stats.sparse_entries == 1 {
            "y"
        } else {
            "ies"
        },
        fmt_bytes(Some(
            stats.sparse_entries.saturating_mul(SPARSE_ENTRY_BYTES)
        ))
    ));
    out.push_str(&format!(
        "  backend:      {choice} (requested {})\n",
        opts.backend
    ));
    let plan = program.shot_plan();
    out.push_str(&format!(
        "  shot plan:    {} deterministic + {} stochastic op(s)\n",
        plan.prefix_ops, plan.suffix_ops
    ));
    out.push_str(&format!(
        "  terminal sampling: {}\n",
        if plan.terminal_measurements {
            format!(
                "eligible ({} measured qubit(s), noiseless runs sample the marginal)",
                plan.measured_qubits.len()
            )
        } else {
            "not eligible (suffix has gates, resets or re-measured qubits)".to_string()
        }
    ));
    // noisy sampling executes the unfused, unrelabeled stream (noise
    // locations live on the source gates), so the Clifford
    // classification and frame eligibility are taken from that plan,
    // not from the fused schedule printed below
    let noisy_plan = circuit.compile_with(&qclab_core::PlanOptions {
        fuse: false,
        remap: false,
        ..qclab_core::PlanOptions::from(&kernel)
    });
    out.push_str(&format!(
        "  clifford:     {}\n",
        if noisy_plan.stats().is_clifford {
            "yes (tableau-expressible)"
        } else {
            "no (contains non-Clifford gates)"
        }
    ));
    // the frame lowering is the authoritative eligibility check: it also
    // refuses custom measurement bases and permutation blocks
    let frame_ready = noisy_plan.frame_program().is_some();
    out.push_str(&format!(
        "  noisy shots:  {}\n",
        if !opts.frames {
            "per-shot trajectories (--no-frames)"
        } else if frame_ready {
            "pauli-frame sampler"
        } else {
            "per-shot trajectories (program is not frame-expressible)"
        }
    ));
    // per shot and class: times a channel's p, the expected hits — what
    // a shot's noise walk costs
    let sites = qclab_core::sim::walk::site_counts(&noisy_plan);
    out.push_str(&format!(
        "  noise sites:  {} after-gate, {} idle, {} readout\n",
        sites.after_gate, sites.idle, sites.readout
    ));
    out.push_str(&format!(
        "  locality:     {} window(s) remapped, {} move(s), {} fold(s)\n",
        stats.remap_windows, stats.remap_moves, stats.remap_folds
    ));
    let cache = qclab_core::program::plan_cache_stats();
    out.push_str(&format!(
        "  plan cache:   {} hit(s), {} miss(es), {} entr{} resident\n",
        cache.hits,
        cache.misses,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    ));
    out.push_str(&format!(
        "  retained preparation: {} hit(s), {} miss(es), {} byte(s) held\n",
        cache.prep_hits, cache.prep_misses, cache.prep_bytes
    ));
    out.push_str("schedule:\n");
    for (i, op) in program.ops().iter().enumerate() {
        out.push_str(&format!("  {i:>4}  {op}\n"));
    }
    Ok(out)
}

fn stats(circuit: &QCircuit) -> String {
    format!(
        "qubits:       {}\ngates:        {}\nmeasurements: {}\ndepth:        {}\n",
        circuit.nb_qubits(),
        circuit.nb_gates(),
        circuit.nb_measurements(),
        circuit.depth()
    )
}

fn run(cmd: Command) -> Result<String, CliError> {
    // Fault-injection hook for the panic-containment path: the
    // integration suite sets this variable to prove a panic anywhere in
    // command dispatch becomes a clean exit code instead of an abort.
    if std::env::var_os("QCLAB_INJECT_PANIC").is_some() {
        panic!("injected panic for containment test");
    }
    match cmd {
        Command::Draw { path } => Ok(qclab_draw::draw_circuit(&load(&path)?)),
        Command::Tex { path } => Ok(qclab_draw::to_tex(&load(&path)?)),
        Command::Simulate { path, init, opts } => simulate(&load(&path)?, init.as_deref(), &opts),
        Command::Counts {
            path,
            shots,
            seed,
            opts,
        } => counts(&load(&path)?, shots, seed, &opts),
        Command::Sample {
            path,
            shots,
            seed,
            noise,
            fast_path,
            opts,
        } => sample(&load(&path)?, shots, seed, noise, fast_path, &opts),
        Command::Compile { path, opts } => compile_report(&load(&path)?, &opts),
        Command::Stats { path } => Ok(stats(&load(&path)?)),
        Command::Serve { opts } => serve::run_serve(&opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The default panic hook stays installed, so an unwinding thread
    // still prints its message (and a backtrace under RUST_BACKTRACE=1)
    // to stderr before we convert the panic into a clean exit code.
    match std::panic::catch_unwind(|| parse_args(&args).and_then(run)) {
        Ok(Ok(output)) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            if let Some(payload) = &e.stdout {
                print!("{payload}");
            }
            eprintln!("qclab: {}", e.msg);
            ExitCode::from(e.code)
        }
        Err(_) => {
            eprintln!(
                "qclab: internal error: the command panicked. This is a bug — please report \
                 it with the command line and input circuit that triggered it (rerun with \
                 RUST_BACKTRACE=1 for a backtrace)."
            );
            ExitCode::from(EXIT_SIM)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `src` to a file of its own: tests run on parallel threads,
    /// so no two calls may share a path (process id + counter).
    fn write_qasm(stem: &str, src: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("qclab_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{stem}_{}_{unique}.qasm", std::process::id()));
        std::fs::write(&path, src).unwrap();
        path
    }

    fn write_bell() -> std::path::PathBuf {
        write_qasm(
            "bell",
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
             h q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
        )
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_all_commands() {
        assert_eq!(
            parse_args(&args(&["draw", "f.qasm"])).unwrap(),
            Command::Draw {
                path: "f.qasm".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["counts", "f.qasm", "100", "--seed", "7"])).unwrap(),
            Command::Counts {
                path: "f.qasm".into(),
                shots: 100,
                seed: 7,
                opts: EngineOpts::default(),
            }
        );
        assert_eq!(
            parse_args(&args(&["simulate", "f.qasm", "01"])).unwrap(),
            Command::Simulate {
                path: "f.qasm".into(),
                init: Some("01".into()),
                opts: EngineOpts::default(),
            }
        );
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["bogus", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["counts", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["counts", "f.qasm", "x"])).is_err());
    }

    #[test]
    fn parse_engine_flags() {
        // flags are position-independent within simulate/counts/sample
        assert_eq!(
            parse_args(&args(&["simulate", "--no-fuse", "f.qasm"])).unwrap(),
            Command::Simulate {
                path: "f.qasm".into(),
                init: None,
                opts: EngineOpts {
                    fuse: false,
                    ..EngineOpts::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "counts",
                "f.qasm",
                "50",
                "--no-fuse",
                "--no-simd",
                "--max-qubits",
                "20"
            ]))
            .unwrap(),
            Command::Counts {
                path: "f.qasm".into(),
                shots: 50,
                seed: 1,
                opts: EngineOpts {
                    fuse: false,
                    simd: false,
                    max_qubits: Some(20),
                    ..EngineOpts::default()
                },
            }
        );
        // rejected where they have no meaning
        assert!(parse_args(&args(&["draw", "--no-fuse", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["simulate", "--seed", "3", "f.qasm"])).is_err());
        // typo'd options are named in the error, not taken as file paths
        let e = parse_args(&args(&["simulate", "--nofuse", "f.qasm"])).unwrap_err();
        assert!(e.msg.contains("unknown option '--nofuse'"));
        assert_eq!(e.code, EXIT_USAGE);
        // flags that need a value fail cleanly without one
        assert!(parse_args(&args(&["counts", "f.qasm", "50", "--seed"])).is_err());
    }

    #[test]
    fn parse_sample_command_and_noise_specs() {
        let cmd = parse_args(&args(&[
            "sample",
            "f.qasm",
            "--shots",
            "500",
            "--seed",
            "9",
            "--noise",
            "depolarizing:0.01",
            "--measure-noise",
            "bitflip:0.05",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sample {
                path: "f.qasm".into(),
                shots: 500,
                seed: 9,
                noise: NoiseSpec {
                    after_gate: Some(PauliChannel::Depolarizing(0.01)),
                    idle: None,
                    before_measure: Some(PauliChannel::BitFlip(0.05)),
                },
                fast_path: true,
                opts: EngineOpts::default(),
            }
        );
        // --no-fast-path forces the per-shot engine and is sample-only
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--no-fast-path"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Sample {
                fast_path: false,
                ..
            }
        ));
        assert!(parse_args(&args(&["counts", "f.qasm", "10", "--no-fast-path"])).is_err());
        // malformed specs are usage errors
        for bad in ["bitflip", "bitflip:x", "frob:0.1", "bitflip:1.5"] {
            let e = parse_args(&args(&["sample", "f.qasm", "10", "--noise", bad])).unwrap_err();
            assert_eq!(e.code, EXIT_USAGE, "spec '{bad}' should be a usage error");
        }
        // shots given twice is ambiguous
        assert!(parse_args(&args(&["sample", "f.qasm", "10", "--shots", "20"])).is_err());
    }

    #[test]
    fn end_to_end_draw_and_stats() {
        let path = write_bell();
        let p = path.to_str().unwrap().to_string();
        let art = run(Command::Draw { path: p.clone() }).unwrap();
        assert!(art.contains("┤ H ├"));
        let st = run(Command::Stats { path: p }).unwrap();
        assert!(st.contains("qubits:       2"));
        assert!(st.contains("gates:        2"));
    }

    #[test]
    fn end_to_end_simulate_and_counts() {
        let path = write_bell();
        let p = path.to_str().unwrap().to_string();
        let sim = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(sim.contains("'00'"));
        assert!(sim.contains("'11'"));
        // disabling fusion and SIMD must not change the reported branches
        let scalar = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts {
                fuse: false,
                simd: false,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert_eq!(sim, scalar);
        let cts = run(Command::Counts {
            path: p,
            shots: 100,
            seed: 1,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(cts.contains("counts over 100 shots"));
    }

    #[test]
    fn end_to_end_sample_noiseless_and_noisy() {
        let path = write_bell();
        let p = path.to_str().unwrap().to_string();
        let clean = run(Command::Sample {
            path: p.clone(),
            shots: 200,
            seed: 5,
            noise: NoiseSpec::default(),
            fast_path: true,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(clean.contains("sampled 200 trajectories"));
        assert!(clean.contains("'00'") && clean.contains("'11'"));
        assert!(!clean.contains("'01'") && !clean.contains("'10'"));
        // a noiseless terminal-measurement circuit draws every shot from
        // the shared table; the opt-out reports the per-shot engine
        // instead — and the same records
        assert!(clean.contains("path: alias-sampled"), "output: {clean}");
        let slow = run(Command::Sample {
            path: p.clone(),
            shots: 200,
            seed: 5,
            noise: NoiseSpec::default(),
            fast_path: false,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(slow.contains("path: per-shot"), "output: {slow}");
        let records = |out: &str| out.lines().skip(1).map(str::to_string).collect::<Vec<_>>();
        assert_eq!(records(&slow), records(&clean));
        // a certain bit-flip before the only measurement flips |0> to '1'
        let one = write_qasm("one", "qreg q[1];\ncreg c[1];\nmeasure q -> c;\n");
        let flipped = run(Command::Sample {
            path: one.to_str().unwrap().into(),
            shots: 50,
            seed: 5,
            noise: NoiseSpec {
                before_measure: Some(PauliChannel::BitFlip(1.0)),
                ..NoiseSpec::default()
            },
            fast_path: true,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(flipped.contains("'1': 50"), "output: {flipped}");
        assert!(
            flipped.contains("50 injected error(s)"),
            "output: {flipped}"
        );
    }

    #[test]
    fn parse_and_run_compile_command() {
        assert_eq!(
            parse_args(&args(&["compile", "--no-fuse", "f.qasm"])).unwrap(),
            Command::Compile {
                path: "f.qasm".into(),
                opts: EngineOpts {
                    fuse: false,
                    ..EngineOpts::default()
                },
            }
        );
        // sampling flags have no meaning here
        assert!(parse_args(&args(&["compile", "--seed", "3", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["compile", "--noise", "bitflip:0.1", "f.qasm"])).is_err());

        let path = write_bell();
        let p = path.to_str().unwrap().to_string();
        let fused = run(Command::Compile {
            path: p.clone(),
            opts: EngineOpts::default(),
        })
        .unwrap();
        // h+cx fuse into one block; the two measurements stay
        assert!(
            fused.contains("gates:        2 -> 1 (1 fused block(s))"),
            "{fused}"
        );
        assert!(fused.contains("measurements: 2"), "{fused}");
        assert!(fused.contains("state bytes:  64 B"), "{fused}");
        assert!(fused.contains("fingerprint"), "{fused}");
        // the fused bell circuit is one deterministic op plus two
        // terminal measurements — sample-eligible
        assert!(
            fused.contains("shot plan:    1 deterministic + 2 stochastic op(s)"),
            "{fused}"
        );
        assert!(
            fused.contains("terminal sampling: eligible (2 measured qubit(s)"),
            "{fused}"
        );
        let unfused = run(Command::Compile {
            path: p.clone(),
            opts: EngineOpts {
                fuse: false,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert!(
            unfused.contains("gates:        2 -> 2 (0 fused block(s))"),
            "{unfused}"
        );
        // the fingerprint is structural: identical with and without fusion
        let fp = |s: &str| {
            s.split("fingerprint ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(fp(&fused), fp(&unfused));
        // guard refusal surfaces as the resource exit code
        let e = run(Command::Compile {
            path: p,
            opts: EngineOpts {
                max_qubits: Some(1),
                ..EngineOpts::default()
            },
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
    }

    #[test]
    fn frames_flag_routes_sampling_and_shapes_the_compile_report() {
        // --no-frames applies to sample and compile only
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--no-frames"])).unwrap();
        assert!(matches!(cmd, Command::Sample { ref opts, .. } if !opts.frames));
        let cmd = parse_args(&args(&["compile", "--no-frames", "f.qasm"])).unwrap();
        assert!(matches!(cmd, Command::Compile { ref opts, .. } if !opts.frames));
        assert!(parse_args(&args(&["counts", "f.qasm", "10", "--no-frames"])).is_err());
        assert!(parse_args(&args(&["draw", "--no-frames", "f.qasm"])).is_err());

        // a noisy Clifford sample takes the frame engine; the opt-out
        // falls back to the state-vector per-shot engine
        let p = write_bell().to_str().unwrap().to_string();
        let noise = NoiseSpec {
            after_gate: Some(PauliChannel::Depolarizing(0.02)),
            ..NoiseSpec::default()
        };
        let framed = run(Command::Sample {
            path: p.clone(),
            shots: 100,
            seed: 3,
            noise,
            fast_path: true,
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(framed.contains("path: pauli-frame"), "output: {framed}");
        let fallback = run(Command::Sample {
            path: p.clone(),
            shots: 100,
            seed: 3,
            noise,
            fast_path: true,
            opts: EngineOpts {
                frames: false,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert!(fallback.contains("path: per-shot"), "output: {fallback}");

        // the compile report states the classification and the path the
        // noisy sampler would take, honoring the opt-out
        let report = run(Command::Compile {
            path: p.clone(),
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(
            report.contains("clifford:     yes (tableau-expressible)"),
            "{report}"
        );
        assert!(
            report.contains("noisy shots:  pauli-frame sampler"),
            "{report}"
        );
        let report = run(Command::Compile {
            path: p,
            opts: EngineOpts {
                frames: false,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert!(
            report.contains("noisy shots:  per-shot trajectories (--no-frames)"),
            "{report}"
        );

        // a T gate declassifies the circuit
        let t = write_qasm(
            "tgate",
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n\
             h q[0];\nt q[0];\nmeasure q -> c;\n",
        );
        let report = run(Command::Compile {
            path: t.to_str().unwrap().into(),
            opts: EngineOpts::default(),
        })
        .unwrap();
        assert!(
            report.contains("clifford:     no (contains non-Clifford gates)"),
            "{report}"
        );
        assert!(
            report
                .contains("noisy shots:  per-shot trajectories (program is not frame-expressible)"),
            "{report}"
        );
    }

    #[test]
    fn no_remap_flag_parses_on_engine_commands() {
        let cmd = parse_args(&args(&["simulate", "--no-remap", "f.qasm"])).unwrap();
        assert!(matches!(cmd, Command::Simulate { ref opts, .. } if !opts.remap));
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--no-remap"])).unwrap();
        assert!(matches!(cmd, Command::Sample { ref opts, .. } if !opts.remap));
        let cmd = parse_args(&args(&["compile", "--no-remap", "f.qasm"])).unwrap();
        assert!(matches!(cmd, Command::Compile { ref opts, .. } if !opts.remap));
        // no plan is lowered for draw/tex/stats, so the flag is an error there
        assert!(parse_args(&args(&["draw", "--no-remap", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["stats", "--no-remap", "f.qasm"])).is_err());
    }

    #[test]
    fn compile_no_fuse_on_fenced_circuit_succeeds_with_cache_counters() {
        let fenced = write_qasm(
            "fenced",
            "qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\ncx q[0], q[1];\nmeasure q -> c;\n",
        );
        let p = fenced.to_str().unwrap().to_string();
        // parse + run must take the success path (exit code 0 in main)
        let cmd = parse_args(&args(&["compile", "--no-fuse", &p])).unwrap();
        let before = qclab_core::program::plan_cache_stats();
        let report = run(cmd).unwrap();
        assert!(report.contains("fusion off, remap on"), "{report}");
        assert!(report.contains("fences:       1"), "{report}");
        // a 2-qubit register is below the tile size: the pass is inert
        assert!(
            report.contains("locality:     0 window(s) remapped, 0 move(s), 0 fold(s)"),
            "{report}"
        );
        assert!(report.contains("plan cache:"), "{report}");
        let after_first = qclab_core::program::plan_cache_stats();
        assert!(after_first.misses > before.misses, "first lowering misses");
        // recompiling the identical file is served from the plan cache
        let cmd = parse_args(&args(&["compile", "--no-fuse", &p])).unwrap();
        run(cmd).unwrap();
        let after_second = qclab_core::program::plan_cache_stats();
        assert!(after_second.hits > after_first.hits, "recompile hits");
    }

    #[test]
    fn max_qubits_flag_is_enforced() {
        let path = write_bell();
        let e = run(Command::Simulate {
            path: path.to_str().unwrap().into(),
            init: None,
            opts: EngineOpts {
                max_qubits: Some(1),
                ..EngineOpts::default()
            },
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(e.msg.contains("--max-qubits"), "message: {}", e.msg);
    }

    #[test]
    fn parse_backend_flag() {
        let cmd = parse_args(&args(&["simulate", "--backend", "auto", "f.qasm"])).unwrap();
        assert!(
            matches!(cmd, Command::Simulate { ref opts, .. } if opts.backend == BackendRequest::Auto)
        );
        let cmd = parse_args(&args(&["counts", "f.qasm", "10", "--backend", "sparse"])).unwrap();
        assert!(
            matches!(cmd, Command::Counts { ref opts, .. } if opts.backend == BackendRequest::Sparse)
        );
        let cmd = parse_args(&args(&["compile", "--backend", "dense", "f.qasm"])).unwrap();
        assert!(
            matches!(cmd, Command::Compile { ref opts, .. } if opts.backend == BackendRequest::Dense)
        );
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--backend", "auto"])).unwrap();
        assert!(
            matches!(cmd, Command::Sample { ref opts, .. } if opts.backend == BackendRequest::Auto)
        );
        // bad values and non-engine commands are usage errors
        let e = parse_args(&args(&["simulate", "--backend", "magic", "f.qasm"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.msg.contains("unknown backend 'magic'"), "{}", e.msg);
        assert!(parse_args(&args(&["draw", "--backend", "auto", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["simulate", "--backend"])).is_err());
    }

    /// Writes a 30-qubit Grover-oracle-shaped circuit: X flips plus a
    /// Toffoli ladder. Pure permutation — one live sparse entry — but a
    /// dense register would need 16 GiB, past the 4 GiB default cap.
    fn write_grover_oracle_30() -> std::path::PathBuf {
        let mut src = String::from(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[30];\ncreg c[30];\n\
             x q[0];\nx q[1];\n",
        );
        for t in 2..30 {
            src.push_str(&format!("ccx q[{}], q[{}], q[{t}];\n", t - 2, t - 1));
        }
        src.push_str("measure q -> c;\n");
        write_qasm("oracle30", &src)
    }

    #[test]
    fn thirty_qubit_oracle_needs_the_sparse_backend() {
        let p = write_grover_oracle_30().to_str().unwrap().to_string();
        // the dense default refuses the register outright (exit 6) …
        let e = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts::default(),
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        // … and so does `compile` under the same dense request
        let e = run(Command::Compile {
            path: p.clone(),
            opts: EngineOpts::default(),
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        // --backend auto routes to the sparse executor and completes:
        // the ladder propagates the two X flips through every ccx
        let cmd = parse_args(&args(&["simulate", "--backend", "auto", &p])).unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("sparse backend"), "{out}");
        assert!(
            out.contains(&format!("'{}'  p = 1.000000", "1".repeat(30))),
            "{out}"
        );
        // the compile report states the resolved choice
        let cmd = parse_args(&args(&["compile", "--backend", "auto", &p])).unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("backend:      sparse"), "{report}");
        assert!(report.contains("(requested auto)"), "{report}");
        assert!(report.contains("sparse bound: 1 live entry"), "{report}");
        // counts and sample work on the same register through the flag
        let cmd = parse_args(&args(&["counts", &p, "20", "--backend", "auto"])).unwrap();
        let cts = run(cmd).unwrap();
        assert!(cts.contains("sparse backend"), "{cts}");
        assert!(cts.contains(&format!("'{}': 20", "1".repeat(30))), "{cts}");
        let cmd = parse_args(&args(&["sample", &p, "20", "--backend", "auto"])).unwrap();
        let smp = run(cmd).unwrap();
        assert!(smp.contains("path: sparse-sampled"), "{smp}");
        assert!(smp.contains(&format!("'{}': 20", "1".repeat(30))), "{smp}");
    }

    #[test]
    fn backend_flag_on_small_circuits_keeps_dense_output() {
        let p = write_bell().to_str().unwrap().to_string();
        // a Bell pair is cheap dense; auto stays on the dense engine and
        // the output is byte-identical to the unrouted default
        let default_out = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts::default(),
        })
        .unwrap();
        let auto_out = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts {
                backend: BackendRequest::Auto,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert_eq!(default_out, auto_out);
        assert!(!auto_out.contains("sparse"), "{auto_out}");
        // pinning sparse works too and agrees on the distribution
        let pinned = run(Command::Simulate {
            path: p,
            init: None,
            opts: EngineOpts {
                backend: BackendRequest::Sparse,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert!(pinned.contains("sparse backend"), "{pinned}");
        assert!(pinned.contains("'00'  p = 0.500000"), "{pinned}");
        assert!(pinned.contains("'11'  p = 0.500000"), "{pinned}");
    }

    /// A 2-qubit circuit with 100 unfusable-by-flag ops so the default
    /// check interval (64 ops) is crossed during a dense simulation.
    fn write_long_chain() -> std::path::PathBuf {
        let mut src = String::from("qreg q[2];\ncreg c[2];\n");
        for i in 0..50 {
            src.push_str(&format!("h q[{}];\ncx q[0], q[1];\n", i % 2));
        }
        src.push_str("measure q -> c;\n");
        write_qasm("chain", &src)
    }

    #[test]
    fn parse_timeout_flag() {
        let cmd = parse_args(&args(&["simulate", "--timeout-ms", "500", "f.qasm"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate { ref opts, .. } if opts.timeout_ms == Some(500)
        ));
        let cmd = parse_args(&args(&["counts", "f.qasm", "10", "--timeout-ms", "250"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Counts { ref opts, .. } if opts.timeout_ms == Some(250)
        ));
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--timeout-ms", "250"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Sample { ref opts, .. } if opts.timeout_ms == Some(250)
        ));
        // no deadline applies to the non-simulating commands
        assert!(parse_args(&args(&["draw", "--timeout-ms", "5", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["stats", "--timeout-ms", "5", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["compile", "--timeout-ms", "5", "f.qasm"])).is_err());
        // bad values are usage errors
        let e = parse_args(&args(&["simulate", "--timeout-ms", "soon", "f.qasm"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(parse_args(&args(&["simulate", "--timeout-ms"])).is_err());
        // a zero deadline is a bad invocation, not a timeout: it must be
        // rejected up front with the usage code, never reach the engine
        // and come back as exit 7
        let e = parse_args(&args(&["simulate", "--timeout-ms", "0", "f.qasm"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.msg.contains("--timeout-ms"), "message: {}", e.msg);
        let e = parse_args(&args(&["sample", "f.qasm", "10", "--timeout-ms", "0"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
    }

    #[test]
    fn parse_shot_batch_flag_and_retired_bytecode_flag() {
        // the interpreter is gone and so is its switch (spelled in two
        // halves here so a grep for the retired flag finds no live use):
        // an unknown option on every subcommand, `serve` included
        let retired = concat!("--no-", "bytecode");
        for cmd in ["simulate", "counts", "sample", "compile", "draw", "serve"] {
            let e = parse_args(&args(&[cmd, retired, "f.qasm", "10"])).unwrap_err();
            assert_eq!(e.code, EXIT_USAGE, "{cmd}");
            assert!(
                e.msg.contains(&format!("unknown option '{retired}'")),
                "{cmd}: {}",
                e.msg
            );
        }
        // --shot-batch applies to sample only; 0 and garbage are usage errors
        let cmd = parse_args(&args(&["sample", "f.qasm", "10", "--shot-batch", "8"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Sample { ref opts, .. } if opts.shot_batch == Some(8)
        ));
        let e = parse_args(&args(&["sample", "f.qasm", "10", "--shot-batch", "0"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        let e = parse_args(&args(&["sample", "f.qasm", "10", "--shot-batch", "many"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        let e = parse_args(&args(&["simulate", "--shot-batch", "8", "f.qasm"])).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
    }

    #[test]
    fn expired_deadline_stops_dense_simulation_with_timeout_code() {
        let p = write_long_chain().to_str().unwrap().to_string();
        // a 0 ms deadline is already expired at the first interval check
        let e = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts {
                fuse: false,
                timeout_ms: Some(0),
                ..EngineOpts::default()
            },
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_TIMEOUT);
        assert!(e.msg.contains("deadline exceeded"), "message: {}", e.msg);
        // a generous deadline changes nothing about the output
        let plain = run(Command::Simulate {
            path: p.clone(),
            init: None,
            opts: EngineOpts {
                fuse: false,
                ..EngineOpts::default()
            },
        })
        .unwrap();
        let timed = run(Command::Simulate {
            path: p,
            init: None,
            opts: EngineOpts {
                fuse: false,
                timeout_ms: Some(3_600_000),
                ..EngineOpts::default()
            },
        })
        .unwrap();
        assert_eq!(plain, timed);
    }

    #[test]
    fn expired_deadline_makes_sample_partial_with_json_payload() {
        let p = write_bell().to_str().unwrap().to_string();
        // the per-shot engine observes the deadline in each shot's
        // prologue: 0 of 50 shots complete, and the partial contract
        // still produces a payload for stdout
        let e = run(Command::Sample {
            path: p,
            shots: 50,
            seed: 5,
            noise: NoiseSpec::default(),
            fast_path: false,
            opts: EngineOpts {
                timeout_ms: Some(0),
                ..EngineOpts::default()
            },
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_TIMEOUT);
        assert!(e.msg.contains("0/50 shots completed"), "message: {}", e.msg);
        let payload = e.stdout.expect("partial runs carry a stdout payload");
        assert!(payload.contains("\"partial\":true"), "{payload}");
        assert!(
            payload.contains("\"cause\":\"deadline exceeded\""),
            "{payload}"
        );
        assert!(payload.contains("\"shots_requested\":50"), "{payload}");
        assert!(payload.contains("\"shots_completed\":0"), "{payload}");
    }

    #[test]
    fn generous_deadline_sample_is_bit_identical_to_untimed() {
        let p = write_bell().to_str().unwrap().to_string();
        let base = |timeout_ms| Command::Sample {
            path: p.clone(),
            shots: 200,
            seed: 5,
            noise: NoiseSpec {
                after_gate: Some(PauliChannel::Depolarizing(0.05)),
                ..NoiseSpec::default()
            },
            fast_path: false,
            opts: EngineOpts {
                timeout_ms,
                ..EngineOpts::default()
            },
        };
        // control checks never touch the RNG streams: the timed run's
        // output is byte-identical to the untimed one
        let untimed = run(base(None)).unwrap();
        let timed = run(base(Some(3_600_000))).unwrap();
        assert_eq!(untimed, timed);
    }

    #[test]
    fn json_escape_quotes_and_controls() {
        assert_eq!(json_escape("0110"), "0110");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn missing_file_and_bad_qasm_error_cleanly() {
        let e = run(Command::Draw {
            path: "/nonexistent/x.qasm".into(),
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_IO);
        let bad = write_qasm("bad", "qreg q[1]; frobnicate q[0];");
        let e = run(Command::Stats {
            path: bad.to_str().unwrap().into(),
        })
        .unwrap_err();
        assert_eq!(e.code, EXIT_PARSE);
        assert!(e.msg.contains("frobnicate"));
    }
}
