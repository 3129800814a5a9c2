//! End-to-end and per-layer benchmark of the ADEPT workspace.
//!
//! Three workloads drive the library through its public API only:
//!
//! - [`train`]: proxy-CNN training steps on a butterfly mesh, assembled
//!   from the same public calls as `adept_nn::train::train_classifier`;
//! - [`search`]: repeated short `adept::search::search` calls;
//! - [`serve`]: a compiled `ExecPlan` behind `adept_infer::serve`, in a
//!   saturated phase (throughput) and a paced phase (latency).
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics of
//! [`END_TO_END`] with telemetry off, its compute-bound times normalised
//! by the host-speed [`witness`] run before each unit. A traced run reports the per-layer
//! metrics of [`PER_LAYER`]: timers around the calls into each layer,
//! kept in this crate, plus the `adept_telemetry` snapshot the program
//! already records. A layer a workload never enters reports `0`.

pub mod search;
pub mod serve;
pub mod stats;
pub mod train;
pub mod witness;

use stats::{json_str, Metrics, Summary};
use std::time::{Duration, Instant};

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`. Times are
/// per end-to-end unit of the workload (a training step, a `search()`
/// call, a served request or mini-batch, as each entry's doc says in
/// `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Any workload.
    ("bench.units", "count"),
    ("bench.trace_overhead", "ratio"),
    ("tensor.pool.jobs", "count"),
    ("tensor.pool.busy_share", "ratio"),
    ("autodiff.backward_us", "us"),
    ("autodiff.glue_sweep_us", "us"),
    ("autodiff.span_replay_us", "us"),
    ("nn.mesh.build_us", "us"),
    ("nn.mesh.stage_us", "us"),
    ("nn.mesh.record_us", "us"),
    ("nn.mesh.splice_us", "us"),
    // train: the driver's own timers around each public call.
    ("train.coverage", "ratio"),
    ("nn.mesh.prebuild_us", "us"),
    ("nn.layers.forward_us", "us"),
    ("nn.loss_us", "us"),
    ("nn.optim.step_us", "us"),
    ("autodiff.tape_nodes", "count"),
    // search.
    ("search.coverage", "ratio"),
    ("core.search.call_ms", "ms"),
    ("core.search.unattributed_ms", "ms"),
    // serve.
    ("serve.coverage", "ratio"),
    ("infer.plan.compile_ms", "ms"),
    ("infer.plan.run_batch_us", "us"),
    ("infer.plan.per_sample_us", "us"),
    ("infer.plan.conv_us", "us"),
    ("infer.plan.batch_norm_us", "us"),
    ("infer.plan.avg_pool_us", "us"),
    ("infer.plan.linear_us", "us"),
    ("infer.serve.overhead_share", "ratio"),
    ("infer.serve.queue_wait_us", "us"),
    ("infer.serve.queue_wait_tail_us", "us"),
    ("infer.serve.exec_us", "us"),
    ("infer.serve.batch_size_mean", "count"),
    ("infer.serve.offered_rate_per_s", "1/s"),
    ("infer.serve.overshoot_us", "us"),
    ("infer.serve.shed", "count"),
    ("infer.serve.timed_out", "count"),
    ("infer.serve.failed", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["train", "search", "serve"];

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Independent set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// When the process started: the first set-up is timed from here.
    pub process_start: Instant,
}

/// The result of one run, before rendering.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: steps, calls or requests, plus output checks.
    pub attempted: u64,
    /// Failed operations, failed checks included.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Effective configuration and sample counts, for the run record.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Counts a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records an output check: one attempted operation, failed unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Puts a timing sample's median and tail (µs) with its size into the
    /// run record under `key`.
    pub fn note_summary(&mut self, key: &str, s: &Summary) {
        self.note(
            key,
            format!(
                "n={} median={:.3} tail=p{:.2} median over {} windows={:.3}",
                s.n, s.median, s.tail_pct, s.windows, s.tail
            ),
        );
    }
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, args: &RunArgs) -> Option<Outcome> {
    let mut out = match workload {
        "train" => train::run(args),
        "search" => search::run(args),
        "serve" => serve::run(args),
        _ => return None,
    };
    if args.trace {
        for &(name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                // A layer this workload never enters.
                out.metrics.put(name, unit, 0.0);
            }
        }
    } else {
        out.metrics.put("peak_rss_mb", "MB", peak_rss_mb());
    }
    Some(out)
}

/// Runs `setup` `reps` times and returns the last state, the median
/// host-normalised set-up time in seconds, and every repetition's wall
/// time in seconds. The first repetition is timed from process start, the
/// others from their own start; each is normalised by a witness run just
/// before it (see [`witness`]).
pub fn repeated_setup<T>(args: &RunArgs, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let reps = args.setup_reps.max(1);
    let mut witness = witness::Witness::new();
    let mut walls = Vec::with_capacity(reps);
    let mut normalised = Vec::with_capacity(reps);
    let mut state = None;
    for i in 0..reps {
        // Drop the previous state first so every repetition allocates
        // from the same starting point.
        drop(state.take());
        let w0 = Instant::now();
        let w = witness.time(SETUP_WITNESS_REPS);
        let t0 = if i == 0 {
            // Process start, less the witness's own time.
            args.process_start + w0.elapsed()
        } else {
            Instant::now()
        };
        state = Some(setup());
        let wall = t0.elapsed();
        walls.push(wall.as_secs_f64());
        normalised.push(witness::normalise(wall, w) / 1e6);
    }
    let median = stats::median(&normalised).expect("at least one set-up");
    (state.expect("at least one set-up"), median, walls)
}

/// Witness runs before each set-up repetition.
const SETUP_WITNESS_REPS: usize = 3;

/// Peak resident set size of this process (`VmHWM`), in MB; `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Total nanoseconds and count of a span path in a telemetry snapshot.
pub fn span_ns(snap: &adept_telemetry::TelemetrySnapshot, path: &str) -> (f64, u64) {
    snap.spans
        .iter()
        .find(|s| s.path == path)
        .map_or((0.0, 0), |s| (s.total_ns as f64, s.count))
}

/// A counter's value in a telemetry snapshot (`0` if never registered).
pub fn counter(snap: &adept_telemetry::TelemetrySnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// Puts the telemetry metrics every workload shares — pool activity,
/// backward-sweep and mesh-build spans — per end-to-end unit (`units`
/// traced units) into `m`. `autodiff.backward_us` is the workload's own.
pub fn put_shared_telemetry(
    m: &mut Metrics,
    snap: &adept_telemetry::TelemetrySnapshot,
    units: f64,
) {
    let per = |ns: f64| ns / 1e3 / units.max(1.0);
    m.put(
        "tensor.pool.jobs",
        "count",
        counter(snap, "pool.jobs_spawned") / units.max(1.0),
    );
    let busy = counter(snap, "pool.worker_busy_ns");
    let idle = counter(snap, "pool.worker_idle_ns");
    m.put(
        "tensor.pool.busy_share",
        "ratio",
        if busy + idle > 0.0 {
            busy / (busy + idle)
        } else {
            0.0
        },
    );
    for (name, path) in [
        ("autodiff.glue_sweep_us", "backward/glue_sweep"),
        ("autodiff.span_replay_us", "backward/span_replay"),
        ("nn.mesh.build_us", "mesh_build"),
        ("nn.mesh.stage_us", "mesh_build/stage"),
        ("nn.mesh.record_us", "mesh_build/record"),
        ("nn.mesh.splice_us", "mesh_build/splice"),
    ] {
        m.put(name, "us", per(span_ns(snap, path).0));
    }
}

/// The effective `ONN_*` configuration the library sees, for the record.
/// Telemetry and plan precision are set by the workloads themselves, so
/// `ONN_TELEMETRY` and `ONN_INFER_DTYPE` are never read; serving knobs are
/// in the `serve` record's `serve_config`.
pub fn effective_config(out: &mut Outcome, trace: bool) {
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ONN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    out.note(
        "onn_env",
        if env.is_empty() {
            "(none set)".to_string()
        } else {
            env.join(" ")
        },
    );
    out.note("onn_threads_effective", adept_tensor::gemm_thread_count());
    out.note(
        "onn_telemetry_effective",
        if trace {
            "on for traced units, off for the others (set_enabled)"
        } else {
            "off (set_enabled)"
        },
    );
    out.note(
        "onn_infer_dtype_effective",
        "F64 (PlanPrecision::F64 passed to ExecPlan::compile)",
    );
    out.note(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
}

/// The run record line: `{"record": {...}}`.
pub fn render_record(workload: &str, args: &RunArgs, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        json_str(workload),
        args.seed,
        args.seconds,
        args.trace
    );
    for (k, v) in &out.record {
        s.push_str(&format!(", {}: {}", json_str(k), json_str(v)));
    }
    s.push_str("}}");
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn render_result(out: &Outcome) -> String {
    let correct = out.failed == 0 && out.attempted > 0 && out.metrics.all_finite();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    )
}

/// A seed-derived, well-mixed 64-bit value (SplitMix64 finaliser).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
