//! `train`: proxy-CNN training steps on a `Backend::butterfly(8)` mesh.
//!
//! The step [`Driver`] is `train_classifier`'s loop body rebuilt from
//! public calls, in the same order and with the same seeds, so that the
//! benchmark can time each call: `prebuild_mesh_weights`, then
//! `Layer::forward`, `cross_entropy_logits`, `Graph::backward_parallel`
//! with `into_param_grads`, and `zero_grads`/`accumulate_many`/`Adam::step`.
//! [`check_against_shipped`] pins it to the shipped loop bit for bit.

use crate::stats::{self, Metrics};
use crate::witness::{bracketed, normalise, Witness};
use crate::{put_shared_telemetry, repeated_setup, us, Outcome, RunArgs};
use adept_autodiff::Graph;
use adept_datasets::{Dataset, DatasetKind, SyntheticConfig};
use adept_nn::layers::{Layer, Sequential};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::optim::{Adam, CosineLr};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamId, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

pub const IMAGE: usize = 12;
pub const CHANNELS: usize = 8;
pub const CLASSES: usize = 10;
pub const BATCH: usize = 32;
pub const MESH_K: usize = 8;
const N_TRAIN: usize = 512;
/// Nominal schedule length of the timed loop; the cosine learning rate
/// clamps at its floor beyond it.
const EPOCHS: usize = 64;
/// Fixed warm-up steps inside each set-up.
const WARMUP_STEPS: usize = 4;
/// Consecutive steps per traced/untraced block in a traced run.
const TRACE_BLOCK: usize = 16;
/// Steps per throughput chunk.
const CHUNK: usize = 25;
/// Steps per latency-tail window: each window's tail is its p90.
const TAIL_WINDOW: usize = 100;
/// Witness runs before each step and after the last; their median is one
/// witness time.
const WITNESS_REPS: usize = 1;

/// The workload's dataset: 12×12×1 MNIST-like images, 10 classes.
pub fn dataset(seed: u64, n_train: usize, n_test: usize) -> (Dataset, Dataset) {
    SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(IMAGE)
        .with_classes(CLASSES)
        .with_sizes(n_train, n_test)
        .generate(seed)
}

/// The workload's model: the proxy CNN on a butterfly(8) mesh.
pub fn model(seed: u64) -> (Sequential, ParamStore) {
    let mut store = ParamStore::new();
    let model = proxy_cnn(
        &mut store,
        InputShape::new(1, IMAGE, IMAGE),
        CHANNELS,
        CLASSES,
        &Backend::butterfly(MESH_K),
        seed,
    );
    (model, store)
}

/// Wall time of each public call in one step, and the step's own wall.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub prebuild: Duration,
    pub forward: Duration,
    pub loss: Duration,
    pub backward: Duration,
    pub optim: Duration,
    pub wall: Duration,
}

/// One finished step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub loss: f64,
    pub samples: usize,
    pub tape_nodes: usize,
    pub t: Phases,
}

/// `train_classifier`'s loop, one step at a time.
pub struct Driver {
    model: Sequential,
    store: ParamStore,
    train: Dataset,
    cfg: TrainConfig,
    params: Vec<ParamId>,
    opt: Adam,
    sched: CosineLr,
    shuffle_rng: StdRng,
    steps_per_epoch: usize,
    /// This epoch's shuffled data; `None` between epochs.
    data: Option<Dataset>,
    start: usize,
    epoch: usize,
    batches: usize,
    epoch_loss: f64,
    step: usize,
    /// Mean loss of every finished epoch, as `TrainReport::loss_history`.
    pub loss_history: Vec<f64>,
}

impl Driver {
    /// The same state `train_classifier` builds before its first epoch
    /// (no phase noise, no faults).
    pub fn new(model: Sequential, store: ParamStore, train: Dataset, cfg: TrainConfig) -> Self {
        let params = model.param_ids();
        let steps_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
        Self {
            opt: Adam::new(cfg.lr),
            sched: CosineLr::new(cfg.lr, cfg.lr * 0.1, cfg.epochs * steps_per_epoch),
            shuffle_rng: StdRng::seed_from_u64(cfg.seed),
            model,
            store,
            train,
            cfg,
            params,
            steps_per_epoch,
            data: None,
            start: 0,
            epoch: 0,
            batches: 0,
            epoch_loss: 0.0,
            step: 0,
            loss_history: Vec::new(),
        }
    }

    /// Runs one training step, timing each public call. The step's wall
    /// time also covers what no layer call does — the epoch shuffle, batch
    /// slicing, tape and context set-up — so the phases' share of it is
    /// the driver's coverage.
    pub fn step(&mut self) -> Step {
        let begin = Instant::now();
        let data = self
            .data
            .get_or_insert_with(|| self.train.shuffled(&mut self.shuffle_rng));
        let count = self.cfg.batch_size.min(data.len() - self.start);
        let (images, labels) = data.batch(self.start, count);
        self.start += count;
        let epoch_done = self.start >= data.len();

        let graph = Graph::new();
        let ctx = ForwardCtx::with_faults(
            &graph,
            &self.store,
            true,
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((self.epoch * self.steps_per_epoch + self.batches) as u64),
            None,
        );
        let t0 = Instant::now();
        prebuild_mesh_weights(&ctx, &self.model.mesh_weights());
        let t1 = Instant::now();
        let x = graph.constant(images);
        let logits = self.model.forward(&ctx, x);
        let t2 = Instant::now();
        let loss = logits.cross_entropy_logits(&labels);
        let loss_value = loss.value().item();
        let t3 = Instant::now();
        let tape_nodes = graph.len();
        let grads = graph.backward_parallel(loss);
        let updates = ctx.into_param_grads(&grads);
        let t4 = Instant::now();
        self.store.zero_grads();
        self.store.accumulate_many(&updates);
        self.opt.set_lr(self.sched.lr(self.step));
        self.opt.step(&mut self.store, &self.params);
        let t5 = Instant::now();

        self.epoch_loss += loss_value;
        self.batches += 1;
        self.step += 1;
        if epoch_done {
            self.loss_history
                .push(self.epoch_loss / self.batches.max(1) as f64);
            self.data = None;
            self.start = 0;
            self.epoch += 1;
            self.batches = 0;
            self.epoch_loss = 0.0;
        }
        Step {
            loss: loss_value,
            samples: count,
            tape_nodes,
            t: Phases {
                prebuild: t1 - t0,
                forward: t2 - t1,
                loss: t3 - t2,
                backward: t4 - t3,
                optim: t5 - t4,
                wall: t5 - begin,
            },
        }
    }
}

/// The timed loop's configuration for workload seed `seed`.
fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        seed: crate::mix(seed, 3),
        ..TrainConfig::default()
    }
}

/// Runs `train_classifier` and the [`Driver`] on the same seed and
/// config over a short prefix (2 epochs of 3 steps) and compares their
/// per-epoch loss sequences bit for bit. `Err` names the first mismatch.
pub fn check_against_shipped(seed: u64) -> Result<(), String> {
    let (train, test) = dataset(crate::mix(seed, 1), 3 * BATCH, BATCH);
    let cfg = train_config(seed, 2);
    let (mut model, mut store) = self::model(crate::mix(seed, 2));
    let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
    let (model, store) = self::model(crate::mix(seed, 2));
    let mut driver = Driver::new(model, store, train, cfg.clone());
    while driver.loss_history.len() < cfg.epochs {
        driver.step();
    }
    let same = report.loss_history.len() == driver.loss_history.len()
        && report
            .loss_history
            .iter()
            .zip(&driver.loss_history)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "driver loss history {:?} differs from train_classifier's {:?}",
            driver.loss_history, report.loss_history
        ))
    }
}

/// Set-up: data, model, driver, and a fixed number of warm-up steps.
fn setup(seed: u64) -> Driver {
    let (train, _) = dataset(crate::mix(seed, 1), N_TRAIN, BATCH);
    let (model, store) = model(crate::mix(seed, 2));
    let mut driver = Driver::new(model, store, train, train_config(seed, EPOCHS));
    for _ in 0..WARMUP_STEPS {
        driver.step();
    }
    driver
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    adept_telemetry::set_enabled(false);
    let (mut driver, setup_s, setup_times) = repeated_setup(args, || setup(args.seed));

    // Timed phase. A traced run alternates blocks of untraced and traced
    // steps, so the tracing overhead is measured on the same data and
    // in the same stretch of machine time.
    adept_telemetry::reset();
    let mut steps: Vec<(Step, bool)> = Vec::new();
    // The witness just before each step.
    let mut before: Vec<Duration> = Vec::new();
    let mut witness = Witness::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    while began.elapsed() < budget {
        let traced = args.trace && (steps.len() / TRACE_BLOCK) % 2 == 1;
        before.push(witness.time(WITNESS_REPS));
        adept_telemetry::set_enabled(traced);
        steps.push((driver.step(), traced));
        adept_telemetry::set_enabled(false);
    }
    let last = witness.time(WITNESS_REPS);
    // Host-normalised time (µs) of each step, in step order.
    let norm: Vec<f64> = steps
        .iter()
        .zip(bracketed(&before, last))
        .map(|((s, _), w)| normalise(s.t.wall, w))
        .collect();
    let snap = adept_telemetry::snapshot();

    for (i, (s, _)) in steps.iter().enumerate() {
        out.check(s.loss.is_finite(), || {
            format!("step {i}: non-finite loss {}", s.loss)
        });
    }
    // The output check runs outside the timed region.
    let shipped = check_against_shipped(args.seed);
    out.check(shipped.is_ok(), || shipped.clone().unwrap_err());

    let pick = |want: bool| -> Vec<f64> {
        steps
            .iter()
            .zip(&norm)
            .filter(|((_, t), _)| *t == want)
            .map(|(_, &n)| n)
            .collect()
    };
    let (untraced, traced) = (pick(false), pick(true));
    let lat = stats::summarize(&untraced, Some(TAIL_WINDOW)).unwrap_or_default();
    let raw: Vec<f64> = steps
        .iter()
        .filter(|(_, t)| !t)
        .map(|(s, _)| us(s.t.wall))
        .collect();
    let raw_lat = stats::summarize(&raw, Some(TAIL_WINDOW)).unwrap_or_default();
    let samples: usize = steps.iter().map(|(s, _)| s.samples).sum();
    let step_wall_s: f64 = steps.iter().map(|(s, _)| s.t.wall.as_secs_f64()).sum();
    let step_s: Vec<f64> = untraced.iter().map(|n| n / 1e6).collect();
    let chunk_rates = stats::chunk_rates(&step_s, BATCH as f64, CHUNK);
    out.note("units", "training steps of 32 samples");
    witness.note(&mut out);
    out.note("steps", steps.len());
    out.note("traced_steps", traced.len());
    out.note_summary("step_us_host_normalised", &lat);
    out.note_summary("step_us_wall", &raw_lat);
    out.note("setup_s_wall_reps", format!("{setup_times:?}"));
    out.note("samples_per_wall_s", samples as f64 / step_wall_s);
    out.note("throughput_chunks", chunk_rates.len());
    crate::effective_config(&mut out, args.trace);

    let m = &mut out.metrics;
    if !args.trace {
        m.put("setup_s", "s", setup_s);
        m.put(
            "throughput_per_s",
            "1/s",
            stats::median(&chunk_rates).unwrap_or(0.0),
        );
        m.put("latency_us", "us", lat.median);
        m.put("latency_tail_us", "us", lat.tail);
        return out;
    }
    put_layers(m, &steps, &snap, traced.len());
    let traced_median = stats::median(&traced).unwrap_or(0.0);
    m.put("bench.units", "count", steps.len() as f64);
    m.put(
        "bench.trace_overhead",
        "ratio",
        if lat.median > 0.0 {
            traced_median / lat.median - 1.0
        } else {
            0.0
        },
    );
    out
}

/// Per-step layer means from the driver's timers (all steps) and the
/// telemetry snapshot (traced steps only).
fn put_layers(
    m: &mut Metrics,
    steps: &[(Step, bool)],
    snap: &adept_telemetry::TelemetrySnapshot,
    traced: usize,
) {
    let n = steps.len().max(1) as f64;
    let mean = |f: fn(&Phases) -> Duration| steps.iter().map(|(s, _)| us(f(&s.t))).sum::<f64>() / n;
    let phases = [
        ("nn.mesh.prebuild_us", mean(|t| t.prebuild)),
        ("nn.layers.forward_us", mean(|t| t.forward)),
        ("nn.loss_us", mean(|t| t.loss)),
        ("autodiff.backward_us", mean(|t| t.backward)),
        ("nn.optim.step_us", mean(|t| t.optim)),
    ];
    let wall = mean(|t| t.wall);
    for (name, v) in phases {
        m.put(name, "us", v);
    }
    m.put(
        "train.coverage",
        "ratio",
        phases.iter().map(|(_, v)| v).sum::<f64>() / wall.max(1e-9),
    );
    m.put(
        "autodiff.tape_nodes",
        "count",
        steps.iter().map(|(s, _)| s.tape_nodes as f64).sum::<f64>() / n,
    );
    put_shared_telemetry(m, snap, traced as f64);
}
