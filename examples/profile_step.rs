//! Telemetry profile of one train → compile → serve pass.
//!
//! ```text
//! cargo run --release --example profile_step            # text renders
//! cargo run --release --example profile_step -- --json  # JSON dump
//! ONN_TELEMETRY=1 ONN_THREADS=8 cargo run --release --example profile_step
//! ```
//!
//! Trains the proxy CNN for a few steps with `adept_telemetry` enabled
//! (the example turns it on itself when `ONN_TELEMETRY` is unset — it
//! exists to profile), compiles the model into an [`ExecPlan`], serves a
//! small request stream, then prints one [`TelemetrySnapshot`]:
//!
//! * **stdout** — the deterministic render: *stable* counters and span
//!   counts only. Counts, never durations. The serve session is pinned to
//!   `max_batch = 1, threads = 1` with an explicit queue capacity, so
//!   batch formation cannot vary — CI diffs this stdout across
//!   `ONN_THREADS` ∈ {1, 8, default} and it must be byte-identical.
//! * **stderr** — the timing render plus a fixed per-phase table (mesh
//!   stage/record, backward sweep, optimizer). Durations are
//!   machine-dependent.
//!
//! `--json` replaces both text renders with the JSON-ish dump on stdout
//! (not diffed by CI: it includes durations).

use adept_infer::{serve, ExecPlan, PlanPrecision, ServeConfig};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_telemetry::TelemetrySnapshot;
use std::time::Duration;

fn synthetic() -> (adept_datasets::Dataset, adept_datasets::Dataset) {
    adept_datasets::SyntheticConfig::new(adept_datasets::DatasetKind::MnistLike)
        .with_image_size(8)
        .with_classes(4)
        .with_sizes(128, 64)
        .generate(42)
}

/// One row of the fixed phase table: total/max over `count` span hits.
fn phase_row(snap: &TelemetrySnapshot, label: &str, path: &str) -> String {
    let (count, total_ns, max_ns) = snap
        .spans
        .iter()
        .find(|s| s.path == path)
        .map_or((0, 0, 0), |s| (s.count, s.total_ns, s.max_ns));
    format!(
        "{label:>12} | {count:>6} | {:>10.3} ms | {:>10.3} ms",
        total_ns as f64 / 1e6,
        max_ns as f64 / 1e6,
    )
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if !adept_telemetry::enabled() {
        adept_telemetry::set_enabled(true);
        eprintln!("telemetry: enabled programmatically (ONN_TELEMETRY unset)");
    }

    // 1. A few traced training steps: 128 samples / batch 16 / 2 epochs
    //    = 16 train_step spans, each with prebuild/forward/loss/backward/
    //    optimizer children.
    let (train, test) = synthetic();
    let image = 8;
    let input = InputShape::new(1, image, image);
    let mut store = ParamStore::new();
    let mut model = proxy_cnn(&mut store, input, 4, 4, &Backend::butterfly(4), 42);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);

    // 2. Freeze and serve under a pinned config: one request per batch on
    //    one worker, queue wide enough that nothing sheds — every serve
    //    counter and plan/* span count is then workload-determined.
    let plan = ExecPlan::compile(&model, &store, &[1, image, image], 8, 0, PlanPrecision::F64)
        .expect("proxy CNN lowers");
    let n_requests = test.len();
    let serve_cfg = ServeConfig {
        max_batch: 1,
        threads: 1,
        max_wait: Duration::from_micros(200),
        arrival_spacing: Duration::ZERO,
        queue_cap: 2 * n_requests,
        deadline: Duration::from_secs(3600),
    };
    let (_outputs, rep) = serve(&plan, test.images.as_slice(), n_requests, &serve_cfg);
    assert_eq!(
        rep.served, n_requests,
        "pinned session must serve everything"
    );

    // 3. One snapshot, split by audience.
    let snap = adept_telemetry::snapshot();
    if json {
        println!("{}", snap.to_json());
        return;
    }

    println!("profile_step: traced train -> compile -> serve pass");
    println!(
        "workload: {} train samples, {} serve requests, plan {} steps",
        train.len(),
        n_requests,
        plan.num_steps()
    );
    print!("{}", snap.render_deterministic());

    eprintln!(
        "test accuracy after 2 epochs: {:.1}%",
        report.test_accuracy * 100.0
    );
    eprintln!();
    eprintln!("== per-phase breakdown (wall-clock, this machine) ==");
    eprintln!(
        "{:>12} | {:>6} | {:>13} | {:>13}",
        "phase", "count", "total", "max"
    );
    for (label, path) in [
        ("stage", "mesh_build/stage"),
        ("record", "mesh_build/record"),
        ("bwd-sweep", "backward/glue_sweep"),
        ("optimizer", "train_step/optimizer"),
    ] {
        eprintln!("{}", phase_row(&snap, label, path));
    }
    eprintln!();
    eprint!("{}", snap.render_timing());
    eprintln!(
        "serve: {:.0} req/s | queue wait p50 {:.1} µs | exec p50 {:.1} µs",
        rep.req_per_sec,
        rep.queue_wait_p50.as_secs_f64() * 1e6,
        rep.exec_p50.as_secs_f64() * 1e6,
    );
}
