//! Determinism contract of the telemetry subsystem, end to end.
//!
//! `adept_telemetry`'s deterministic render promises that *stable*
//! counters and span counts depend only on the workload, never on
//! `ONN_THREADS`. This binary runs the same traced train → compile →
//! serve workload at 1 and 8 GEMM threads in one process (telemetry
//! enabled programmatically — the harness keeps `ONN_TELEMETRY` unset,
//! so the env-driven path stays covered by the CI profile_step legs) and
//! pins the renders byte-identical. It owns its process: tests here
//! flip the global enable switch, so they must not share a binary with
//! the zero-alloc pins.

use adept_infer::{serve, ExecPlan, PlanPrecision, ServeConfig};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_tensor::set_gemm_threads;
use std::sync::Mutex;
use std::time::Duration;

/// Tests mutate process-global state (telemetry registry, GEMM thread
/// override); serialize them.
static GLOBALS: Mutex<()> = Mutex::new(());

/// One traced pass: a 2-step training run, a compiled plan, and a pinned
/// single-worker serve session over the test set.
fn traced_workload() {
    let (train, test) =
        adept_datasets::SyntheticConfig::new(adept_datasets::DatasetKind::MnistLike)
            .with_image_size(8)
            .with_classes(4)
            .with_sizes(32, 16)
            .generate(7);
    let input = InputShape::new(1, 8, 8);
    let mut store = ParamStore::new();
    let mut model = proxy_cnn(&mut store, input, 4, 4, &Backend::butterfly(4), 7);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train_classifier(&mut model, &mut store, &train, &test, &cfg);
    let plan = ExecPlan::compile(&model, &store, &[1, 8, 8], 4, 0, PlanPrecision::F64).unwrap();
    let n = test.len();
    let serve_cfg = ServeConfig {
        max_batch: 1,
        threads: 1,
        max_wait: Duration::from_micros(200),
        arrival_spacing: Duration::ZERO,
        queue_cap: 2 * n,
        deadline: Duration::from_secs(3600),
    };
    let (_, rep) = serve(&plan, test.images.as_slice(), n, &serve_cfg);
    assert_eq!(rep.served, n, "pinned session must serve everything");
}

#[test]
fn stable_counts_are_identical_across_gemm_thread_counts() {
    let _guard = GLOBALS.lock().unwrap();
    adept_telemetry::set_enabled(true);
    let mut renders = Vec::new();
    for threads in [1usize, 8] {
        set_gemm_threads(threads);
        adept_telemetry::reset();
        traced_workload();
        renders.push(adept_telemetry::snapshot().render_deterministic());
    }
    set_gemm_threads(0);
    adept_telemetry::set_enabled(false);
    assert_eq!(
        renders[0], renders[1],
        "stable counters/span counts diverged between 1 and 8 GEMM threads"
    );
    // The render must actually contain the cross-layer instruments — an
    // empty render would also "match".
    for needle in [
        "counter train.steps = 2",
        "counter backward.runs = 2",
        "counter mesh.weights_recorded",
        "counter plan.batches",
        "counter serve.served = 16",
        "span train_step count=2",
        "span mesh_build/record",
        "span plan/conv",
    ] {
        assert!(
            renders[0].contains(needle),
            "deterministic render lost {needle:?}:\n{}",
            renders[0]
        );
    }
}

#[test]
fn volatile_instruments_stay_out_of_the_deterministic_render() {
    let _guard = GLOBALS.lock().unwrap();
    adept_telemetry::set_enabled(true);
    set_gemm_threads(8);
    adept_telemetry::reset();
    traced_workload();
    let snap = adept_telemetry::snapshot();
    set_gemm_threads(0);
    adept_telemetry::set_enabled(false);
    let det = snap.render_deterministic();
    // Pool scheduling and batch coalescing are timing-dependent; the
    // thread-diffed render must never mention them.
    for banned in ["pool.", "serve.batches", "backward/glue_sweep"] {
        assert!(
            !det.contains(banned),
            "volatile instrument {banned:?} leaked into the deterministic render:\n{det}"
        );
    }
    // But the full timing render does see the pool working at 8 threads.
    let timing = snap.render_timing();
    assert!(
        timing.contains("pool.jobs_spawned"),
        "8-thread workload should have spawned pool jobs:\n{timing}"
    );
}
