//! `perfbench --workload <train|search|serve> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints a run-record line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Failed
//! operations are listed on stderr.

use perfbench::{render_record, render_result, run, RunArgs, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <train|search|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<(String, RunArgs), String> {
    let process_start = Instant::now();
    let mut workload = None;
    let mut args = RunArgs {
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_reps: 9,
        process_start,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((workload, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&workload, &args).expect("workload name was validated");
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", render_record(&workload, &args, &out));
    println!("{}", render_result(&out));
    ExitCode::SUCCESS
}
