//! `search`: repeated short `adept::search::search` calls.
//!
//! Each call runs the whole ADEPT mechanism on a cut-down quick schedule
//! — weight warm-up, architecture steps, SPL legalization, ALM and the
//! footprint penalty, the proxy evaluation — with its own seed derived
//! from the workload seed. `SearchModel` is private, so layer times come
//! from the spans the program already records.

use crate::stats;
use crate::witness::{bracketed, normalise, Witness};
use crate::{mix, put_shared_telemetry, repeated_setup, span_ns, us, Outcome, RunArgs};
use adept::search::{search, AdeptConfig, SearchOutcome};
use adept_photonics::Pdk;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fixed warm-up calls inside each set-up.
const WARMUP_CALLS: u64 = 2;
/// Calls per throughput chunk.
const CHUNK: usize = 8;
/// Witness runs before each call and after the last; their median is one
/// witness time.
const WITNESS_REPS: usize = 5;

/// The per-call configuration: `AdeptConfig::quick(8, AMF, 240, 300)` cut
/// to 3 epochs on 64 training and 32 test images.
pub fn config(seed: u64) -> AdeptConfig {
    AdeptConfig {
        epochs: 3,
        warmup_epochs: 1,
        spl_epoch: 2,
        n_train: 64,
        n_test: 32,
        seed,
        ..AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0)
    }
}

/// Checks that a search result is a legal design.
pub fn legal(out: &SearchOutcome, cfg: &AdeptConfig) -> Result<(), String> {
    let fp = out.footprint_kum2();
    if !fp.is_finite() || fp <= 0.0 {
        return Err(format!("footprint {fp} is not a positive finite number"));
    }
    if !out.proxy_accuracy.is_finite() || !(0.0..=1.0).contains(&out.proxy_accuracy) {
        return Err(format!(
            "proxy accuracy {} out of [0, 1]",
            out.proxy_accuracy
        ));
    }
    if !(1..=cfg.max_blocks_per_side).contains(&out.blocks_per_side) {
        return Err(format!(
            "blocks_per_side {} outside [1, {}]",
            out.blocks_per_side, cfg.max_blocks_per_side
        ));
    }
    Ok(())
}

/// One `search()` call with a legality check. The check runs after the
/// clock stops.
fn call(seed: u64) -> (Duration, Result<(), String>) {
    let cfg = config(seed);
    let t0 = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| search(&cfg)));
    let wall = t0.elapsed();
    let verdict = match res {
        Ok(out) => legal(&out, &cfg),
        Err(_) => Err("search() panicked".to_string()),
    };
    (wall, verdict)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    adept_telemetry::set_enabled(false);
    let warm_seed = mix(args.seed, 0x5EA5C);
    let ((), setup_s, setup_times) = repeated_setup(args, || {
        for i in 0..WARMUP_CALLS {
            let _ = call(mix(warm_seed, i));
        }
    });

    // Timed phase; a traced run alternates untraced and traced calls.
    adept_telemetry::reset();
    // (wall, witness just before, traced) per call.
    let mut runs: Vec<(Duration, Duration, bool)> = Vec::new();
    let mut witness = Witness::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    while began.elapsed() < budget {
        let i = runs.len() as u64;
        let traced = args.trace && i % 2 == 1;
        let w = witness.time(WITNESS_REPS);
        adept_telemetry::set_enabled(traced);
        let (wall, verdict) = call(mix(args.seed, i));
        adept_telemetry::set_enabled(false);
        out.check(verdict.is_ok(), || {
            format!("call {i}: {}", verdict.clone().unwrap_err())
        });
        runs.push((wall, w, traced));
    }
    let snap = adept_telemetry::snapshot();
    let before: Vec<Duration> = runs.iter().map(|r| r.1).collect();
    let last = witness.time(WITNESS_REPS);
    // (wall µs, host-normalised µs, traced) per call.
    let calls: Vec<(f64, f64, bool)> = runs
        .iter()
        .zip(bracketed(&before, last))
        .map(|(&(wall, _, traced), w)| (us(wall), normalise(wall, w), traced))
        .collect();

    let pick = |want: bool, f: fn(&(f64, f64, bool)) -> f64| -> Vec<f64> {
        calls.iter().filter(|c| c.2 == want).map(f).collect()
    };
    let (untraced, traced) = (pick(false, |c| c.1), pick(true, |c| c.1));
    let traced_wall = pick(true, |c| c.0);
    // The tail is over the whole run: ≈200 calls put it near p95.
    let lat = stats::summarize(&untraced, None).unwrap_or_default();
    let raw_lat = stats::summarize(&pick(false, |c| c.0), None).unwrap_or_default();
    let call_s: Vec<f64> = untraced.iter().map(|w| w / 1e6).collect();
    let chunk_rates = stats::chunk_rates(&call_s, 1.0, CHUNK);
    out.note("units", "search() calls");
    witness.note(&mut out);
    out.note("calls", calls.len());
    out.note("traced_calls", traced.len());
    out.note_summary("call_us_host_normalised", &lat);
    out.note_summary("call_us_wall", &raw_lat);
    out.note("setup_s_wall_reps", format!("{setup_times:?}"));
    out.note("warmup_calls_per_setup", WARMUP_CALLS);
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
    let n = traced.len().max(1) as f64;
    let call_ms = traced_wall.iter().sum::<f64>() / n / 1e3;
    let backward_ms = span_ns(&snap, "backward").0 / n / 1e6;
    let mesh_ms = span_ns(&snap, "mesh_build").0 / n / 1e6;
    let unattributed_ms = call_ms - backward_ms - mesh_ms;
    m.put("core.search.call_ms", "ms", call_ms);
    m.put("core.search.unattributed_ms", "ms", unattributed_ms);
    m.put(
        "search.coverage",
        "ratio",
        (backward_ms + mesh_ms) / call_ms.max(1e-9),
    );
    m.put("autodiff.backward_us", "us", backward_ms * 1e3);
    put_shared_telemetry(m, &snap, n);
    let traced_median = stats::median(&traced).unwrap_or(0.0);
    m.put("bench.units", "count", calls.len() as f64);
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
