//! Seconds-long smoke runs of every workload with output checks on, and
//! the agreement between `BENCHMARK.json` and the metrics the binary
//! prints.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::{render_result, run, RunArgs, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::Mutex;
use std::time::Instant;

/// Telemetry is process-wide: workloads must not run concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let args = RunArgs {
        seed: 7,
        seconds: 0.5,
        trace,
        setup_reps: 1,
        process_start: Instant::now(),
    };
    let out = run(workload, &args).expect("known workload");
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
    let want: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let mut got: Vec<&str> = out.metrics.names().collect();
    let mut want_sorted = want.clone();
    got.sort_unstable();
    want_sorted.sort_unstable();
    assert_eq!(got, want_sorted, "{workload} trace={trace}: metric set");
    assert!(out.metrics.all_finite(), "{workload}: non-finite metric");
    if !trace {
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).unwrap();
            assert!(
                v > 0.0,
                "{workload}: end-to-end {name} = {v} must be positive"
            );
        }
    }
    let line = render_result(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn train_smoke() {
    smoke("train", false);
    smoke("train", true);
}

#[test]
fn search_smoke() {
    smoke("search", false);
    smoke("search", true);
}

#[test]
fn serve_smoke() {
    smoke("serve", false);
    smoke("serve", true);
}

#[test]
fn traced_train_covers_the_step() {
    let args = RunArgs {
        seed: 11,
        seconds: 0.5,
        trace: true,
        setup_reps: 1,
        process_start: Instant::now(),
    };
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run("train", &args).unwrap();
    let coverage = out.metrics.get("train.coverage").unwrap();
    assert!(
        (0.95..=1.0).contains(&coverage),
        "train.coverage {coverage} outside [0.95, 1]"
    );
    assert!(out.metrics.get("autodiff.tape_nodes").unwrap() > 0.0);
}

#[test]
fn driver_matches_train_classifier() {
    perfbench::train::check_against_shipped(3).unwrap();
}

#[test]
fn unknown_workload_is_refused() {
    let args = RunArgs {
        seed: 0,
        seconds: 0.1,
        trace: false,
        setup_reps: 1,
        process_start: Instant::now(),
    };
    assert!(run("nope", &args).is_none());
}

/// `BENCHMARK.json` lists exactly the workloads and metrics the binary
/// reports, in the same order and with the same units.
#[test]
fn benchmark_json_agrees_with_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |key: &str| -> Vec<String> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    };
    let mut want_names: Vec<&str> = WORKLOADS.to_vec();
    want_names.extend(END_TO_END.iter().map(|(n, _)| *n));
    want_names.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(field("name"), want_names);
    let want_units: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(_, u)| *u)
        .collect();
    assert_eq!(field("unit"), want_units);
    for name in &want_names {
        assert!(perfbench::stats::valid_name(name), "{name}");
    }
}
