//! `serve`: the proxy CNN frozen into an F64 `ExecPlan` behind
//! `adept_infer::serve`.
//!
//! Sessions alternate between two phases:
//!
//! - **saturated**: [`SAT_REQUESTS`] requests with zero arrival spacing
//!   (a firehose). Served requests per second come from here only.
//! - **paced**: [`PACED_REQUESTS`] requests, one every [`SPACING`]. The
//!   latency median and tail come from here only. `serve`'s producer
//!   sleeps a relative `SPACING` before each enqueue, so its achieved
//!   rate is its own sleep cadence and is reported as a layer metric,
//!   never as throughput. Latency is timed from enqueue, not from a due
//!   time, because the producer keeps no absolute schedule.
//!
//! Every `ONN_SERVE_*` knob is pinned in [`serve_config`].

use crate::stats::{self, Metrics};
use crate::witness::{bracketed, normalise, Witness};
use crate::{mix, put_shared_telemetry, repeated_setup, span_ns, us, Outcome, RunArgs};
use adept_infer::serve::{serve, serve_with, BatchRunner, ServeConfig, ServeReport};
use adept_infer::{ExecPlan, PlanPrecision};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per saturated session.
pub const SAT_REQUESTS: usize = 1024;
/// Requests per paced session: the session p99 then has exactly ten
/// requests beyond it.
pub const PACED_REQUESTS: usize = 1000;
/// Requested arrival spacing of the paced phase.
pub const SPACING: Duration = Duration::from_micros(100);
/// Distinct request inputs the sessions draw from.
const DISTINCT: usize = 2048;
/// Plan scratch capacity; the serving batch cap is [`BATCH`].
const PLAN_MAX_BATCH: usize = 16;
const BATCH: usize = 8;
/// Requests per session whose output is checked against a lone
/// `run_batch(…, 1, …)`.
const CHECKED: usize = 16;
/// Witness runs before each session and after the last; their median is
/// one witness time.
const WITNESS_REPS: usize = 3;
/// Fixed warm-up inside each set-up: one session of each phase.
const WARMUP_SAT: usize = 256;
const WARMUP_PACED: usize = 64;

/// The pinned serving configuration: one worker, batch 8, 200 µs fill
/// wait, a queue that never sheds, no deadline.
pub fn serve_config(n_requests: usize, spacing: Duration) -> ServeConfig {
    ServeConfig {
        max_batch: BATCH,
        threads: 1,
        max_wait: Duration::from_micros(200),
        arrival_spacing: spacing,
        queue_cap: n_requests,
        deadline: Duration::from_secs(3600),
    }
}

/// One phase's request stream: inputs in a seeded order, and the
/// requests whose outputs are checked.
struct Stream {
    n: usize,
    spacing: Duration,
    inputs: Vec<f64>,
    checked: Vec<usize>,
    /// Lone-request outputs of `checked`, computed on first use.
    reference: Option<Vec<Vec<f64>>>,
}

impl Stream {
    fn new(pool: &[f64], in_elems: usize, n: usize, spacing: Duration, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let distinct = pool.len() / in_elems;
        let mut inputs = Vec::with_capacity(n * in_elems);
        for _ in 0..n {
            let i = rng.gen_range(0..distinct);
            inputs.extend_from_slice(&pool[i * in_elems..(i + 1) * in_elems]);
        }
        let checked = (0..CHECKED.min(n)).map(|_| rng.gen_range(0..n)).collect();
        Self {
            n,
            spacing,
            inputs,
            checked,
            reference: None,
        }
    }
}

struct State {
    plan: ExecPlan,
    compile_ms: f64,
    sat: Stream,
    paced: Stream,
}

fn setup(seed: u64) -> State {
    let (data, _) = crate::train::dataset(mix(seed, 1), DISTINCT, 2);
    let (model, store) = crate::train::model(mix(seed, 2));
    let t0 = Instant::now();
    let plan = ExecPlan::compile(
        &model,
        &store,
        &[1, crate::train::IMAGE, crate::train::IMAGE],
        PLAN_MAX_BATCH,
        mix(seed, 4),
        PlanPrecision::F64,
    )
    .expect("the proxy CNN lowers to a plan");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pool = data.images.as_slice();
    let in_elems = plan.input_elems();
    let state = State {
        sat: Stream::new(pool, in_elems, SAT_REQUESTS, Duration::ZERO, mix(seed, 5)),
        paced: Stream::new(pool, in_elems, PACED_REQUESTS, SPACING, mix(seed, 6)),
        plan,
        compile_ms,
    };
    for (n, spacing) in [(WARMUP_SAT, Duration::ZERO), (WARMUP_PACED, SPACING)] {
        let inputs = &state.sat.inputs[..n * in_elems];
        serve(&state.plan, inputs, n, &serve_config(n, spacing));
    }
    state
}

/// `ExecPlan` behind a timer: logs `(samples, µs)` per `run_batch`.
struct TimedRunner {
    plan: ExecPlan,
    log: Arc<Mutex<Vec<(usize, f64)>>>,
}

impl BatchRunner for TimedRunner {
    fn input_elems(&self) -> usize {
        self.plan.input_elems()
    }

    fn output_features(&self) -> usize {
        self.plan.output_features()
    }

    fn max_batch(&self) -> usize {
        self.plan.max_batch()
    }

    fn run_batch(&mut self, input: &[f64], n: usize, out: &mut [f64]) {
        let t0 = Instant::now();
        self.plan.run_batch(input, n, out);
        let t = us(t0.elapsed());
        self.log.lock().expect("batch log poisoned").push((n, t));
    }
}

/// One finished session.
struct Session {
    report: ServeReport,
    traced: bool,
    /// The witness's time: just before the session, and once every
    /// session has run, the mean of the runs just before and after it.
    witness: Duration,
    /// `(samples, µs)` per mini-batch; empty when untraced.
    batches: Vec<(usize, f64)>,
}

/// Runs one session of `stream`, traced or not, and checks its outputs.
fn session(
    plan: &ExecPlan,
    stream: &mut Stream,
    traced: bool,
    witness: &mut Witness,
    out: &mut Outcome,
) -> Session {
    let cfg = serve_config(stream.n, stream.spacing);
    let log = Arc::new(Mutex::new(Vec::with_capacity(stream.n)));
    let witness = witness.time(WITNESS_REPS);
    adept_telemetry::set_enabled(traced);
    let (outputs, report) = if traced {
        let make = || -> Box<dyn BatchRunner> {
            Box::new(TimedRunner {
                plan: plan.clone(),
                log: Arc::clone(&log),
            })
        };
        serve_with(&make, &stream.inputs, stream.n, &cfg)
    } else {
        serve(plan, &stream.inputs, stream.n, &cfg)
    };
    adept_telemetry::set_enabled(false);

    // Outcome accounting and output checks, outside the session clock.
    out.attempted += report.requests as u64;
    let lost = report.shed + report.timed_out + report.failed;
    if lost > 0 {
        out.failed += lost as u64;
        out.failures.push(format!(
            "{} of {} requests not served (shed {}, timed out {}, failed {})",
            lost, report.requests, report.shed, report.timed_out, report.failed
        ));
    }
    let in_elems = plan.input_elems();
    let out_f = plan.output_features();
    let reference = stream.reference.get_or_insert_with(|| {
        let mut lone = plan.clone();
        stream
            .checked
            .iter()
            .map(|&i| {
                let mut y = vec![0.0; out_f];
                lone.run_batch(&stream.inputs[i * in_elems..(i + 1) * in_elems], 1, &mut y);
                y
            })
            .collect()
    });
    for (&i, want) in stream.checked.iter().zip(reference.iter()) {
        let got = &outputs[i * out_f..(i + 1) * out_f];
        let same = got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || {
            format!("request {i}: served output differs from run_batch(…, 1, …)")
        });
    }
    let batches = std::mem::take(&mut *log.lock().expect("batch log poisoned"));
    Session {
        report,
        traced,
        witness,
        batches,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    adept_telemetry::set_enabled(false);
    let mut compile_times = Vec::new();
    let (mut st, setup_s, setup_times) = repeated_setup(args, || {
        let st = setup(args.seed);
        compile_times.push(st.compile_ms);
        st
    });

    adept_telemetry::reset();
    let mut sat: Vec<Session> = Vec::new();
    let mut paced: Vec<Session> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut cycle = 0usize;
    let mut witness = Witness::new();
    while began.elapsed() < budget {
        let traced = args.trace && cycle % 2 == 1;
        let w = &mut witness;
        sat.push(session(&st.plan, &mut st.sat, traced, w, &mut out));
        paced.push(session(&st.plan, &mut st.paced, traced, w, &mut out));
        cycle += 1;
    }
    // Sessions ran saturated, paced, saturated, …: each gets the mean of
    // the witness runs just before and just after it.
    let before: Vec<Duration> = sat
        .iter()
        .zip(&paced)
        .flat_map(|(s, p)| [s.witness, p.witness])
        .collect();
    let around = bracketed(&before, witness.time(WITNESS_REPS));
    for (i, (s, p)) in sat.iter_mut().zip(paced.iter_mut()).enumerate() {
        s.witness = around[2 * i];
        p.witness = around[2 * i + 1];
    }
    let snap = adept_telemetry::snapshot();

    let pick = |v: &[Session], want: bool, f: fn(&Session) -> f64| -> Vec<f64> {
        v.iter().filter(|s| s.traced == want).map(f).collect()
    };
    // A saturated session is all plan execution: its time is
    // host-normalised whole. A median paced request spends about half its
    // latency waiting for arrivals, a timer, and half executing its batch:
    // only the execution share (the session's median `run_batch`) is
    // normalised. The p99 paced request is the first of a batch, waiting
    // for seven more arrivals: its latency is the producer's sleep cadence
    // and stays in wall time.
    //
    // Served requests per second of session time over the saturated
    // sessions: a ratio of sums, which moves smoothly with the share of
    // fast sessions where a median of session rates jumps between them.
    let sat_rate_of = |want: bool, time: fn(&Session) -> f64| -> f64 {
        let picked = || sat.iter().filter(|s| s.traced == want);
        let served: usize = picked().map(|s| s.report.served).sum();
        served as f64 / picked().map(time).sum::<f64>().max(1e-12)
    };
    let normalised_s = |s: &Session| normalise(s.report.elapsed, s.witness) / 1e6;
    let wall_s = |s: &Session| s.report.elapsed.as_secs_f64();
    let p50 = |s: &Session| {
        let r = &s.report;
        us(r.p50_latency) + normalise(r.exec_p50, s.witness) - us(r.exec_p50)
    };
    let wall_p50 = |s: &Session| us(s.report.p50_latency);
    let wall_p99 = |s: &Session| us(s.report.p99_latency);
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let sat_rate = sat_rate_of(false, normalised_s);
    let lat_p50 = med(pick(&paced, false, p50));
    let lat_p99 = med(pick(&paced, false, wall_p99));

    out.note(
        "units",
        "requests: saturated sessions give throughput, paced sessions latency",
    );
    witness.note(&mut out);
    out.note("saturated_sessions", sat.len());
    out.note("saturated_req_per_wall_s", sat_rate_of(false, wall_s));
    out.note("paced_p50_us_wall", med(pick(&paced, false, wall_p50)));
    out.note("paced_sessions", paced.len());
    out.note(
        "traced_sessions_per_phase",
        sat.iter().filter(|s| s.traced).count(),
    );
    out.note(
        "latency_sample",
        format!(
            "median over untraced paced sessions of each session's p50 and p99 \
             ({PACED_REQUESTS} requests each, so ten beyond p99)"
        ),
    );
    out.note("requested_spacing_us", us(SPACING));
    out.note(
        "serve_config",
        format!(
            "max_batch={BATCH} threads=1 max_wait=200us queue_cap=n_requests deadline=none \
             plan=F64 plan_max_batch={PLAN_MAX_BATCH}"
        ),
    );
    out.note("setup_s_wall_reps", format!("{setup_times:?}"));
    crate::effective_config(&mut out, args.trace);

    let m = &mut out.metrics;
    if !args.trace {
        m.put("setup_s", "s", setup_s);
        m.put("throughput_per_s", "1/s", sat_rate);
        m.put("latency_us", "us", lat_p50);
        m.put("latency_tail_us", "us", lat_p99);
        return out;
    }
    put_layers(m, &sat, &paced, &snap);
    m.put(
        "infer.plan.compile_ms",
        "ms",
        stats::median(&compile_times).unwrap_or(0.0),
    );
    let traced_rate = sat_rate_of(true, normalised_s);
    m.put(
        "bench.units",
        "count",
        (sat.len() * SAT_REQUESTS + paced.len() * PACED_REQUESTS) as f64,
    );
    m.put(
        "bench.trace_overhead",
        "ratio",
        if traced_rate > 0.0 {
            sat_rate / traced_rate - 1.0
        } else {
            0.0
        },
    );
    out
}

/// Layer metrics from the traced sessions.
fn put_layers(
    m: &mut Metrics,
    sat: &[Session],
    paced: &[Session],
    snap: &adept_telemetry::TelemetrySnapshot,
) {
    fn traced(v: &[Session]) -> Vec<&Session> {
        v.iter().filter(|s| s.traced).collect()
    }
    let (sat, paced) = (traced(sat), traced(paced));
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);

    // Saturated: where the busy time goes.
    let batches: Vec<(usize, f64)> = sat.iter().flat_map(|s| s.batches.iter().copied()).collect();
    let exec_us: f64 = batches.iter().map(|b| b.1).sum();
    let samples: usize = batches.iter().map(|b| b.0).sum();
    let elapsed_us: f64 = sat.iter().map(|s| us(s.report.elapsed)).sum();
    m.put(
        "infer.plan.run_batch_us",
        "us",
        med(batches.iter().map(|b| b.1).collect()),
    );
    m.put(
        "infer.plan.per_sample_us",
        "us",
        exec_us / samples.max(1) as f64,
    );
    m.put(
        "infer.serve.overhead_share",
        "ratio",
        1.0 - exec_us / elapsed_us.max(1e-9),
    );

    // Paced: queueing, coalescing and the load generator.
    let field = |f: fn(&ServeReport) -> f64| med(paced.iter().map(|s| f(&s.report)).collect());
    m.put(
        "infer.serve.queue_wait_us",
        "us",
        field(|r| us(r.queue_wait_p50)),
    );
    m.put(
        "infer.serve.queue_wait_tail_us",
        "us",
        field(|r| us(r.queue_wait_p99)),
    );
    m.put("infer.serve.exec_us", "us", field(|r| us(r.exec_p50)));
    m.put(
        "serve.coverage",
        "ratio",
        field(|r| us(r.queue_wait_p50 + r.exec_p50) / us(r.p50_latency).max(1e-9)),
    );
    let served: usize = paced.iter().map(|s| s.report.served).sum();
    let nbatches: usize = paced.iter().map(|s| s.report.batches).sum();
    m.put(
        "infer.serve.batch_size_mean",
        "count",
        served as f64 / nbatches.max(1) as f64,
    );
    m.put(
        "infer.serve.offered_rate_per_s",
        "1/s",
        field(|r| r.requests as f64 / r.elapsed.as_secs_f64()),
    );
    m.put(
        "infer.serve.overshoot_us",
        "us",
        field(|r| (us(r.elapsed) - r.requests as f64 * us(SPACING)) / r.requests as f64),
    );
    let all = || sat.iter().chain(paced.iter());
    m.put(
        "infer.serve.shed",
        "count",
        all().map(|s| s.report.shed as f64).sum(),
    );
    m.put(
        "infer.serve.timed_out",
        "count",
        all().map(|s| s.report.timed_out as f64).sum(),
    );
    m.put(
        "infer.serve.failed",
        "count",
        all().map(|s| s.report.failed as f64).sum(),
    );

    // Per-step-kind plan time per sample, both phases.
    let plan_samples = crate::counter(snap, "plan.samples").max(1.0);
    for (name, path) in [
        ("infer.plan.conv_us", "plan/conv"),
        ("infer.plan.batch_norm_us", "plan/batch_norm"),
        ("infer.plan.avg_pool_us", "plan/avg_pool"),
        ("infer.plan.linear_us", "plan/linear"),
    ] {
        m.put(name, "us", span_ns(snap, path).0 / 1e3 / plan_samples);
    }
    put_shared_telemetry(m, snap, plan_samples);
}
