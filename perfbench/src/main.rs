//! The metis benchmark: four workloads, end-to-end metrics from an
//! untraced run and a per-layer ledger from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_open|abr_cosim|convert_pensieve|mask_routenet|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints one line per metric (name, value, unit, meaning) and,
//! last, the JSON result line. `--workload all` runs every workload, traced
//! and untraced, each in its own process (peak RSS is per process).

mod abr_cosim;
mod convert_pensieve;
mod hostspeed;
mod ledger;
mod loadgen;
mod mask_routenet;
mod procfs;
mod report;
mod serve_open;
mod stats;

use report::{Outcome, WORKLOADS};
use std::process::ExitCode;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_one(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "serve_open" => serve_open::run(args),
        "abr_cosim" => abr_cosim::run(args),
        "convert_pensieve" => convert_pensieve::run(args),
        "mask_routenet" => mask_routenet::run(args),
        other => unreachable!("workload {other} was validated"),
    };
    if !args.trace {
        out.set("peak_rss_mb", procfs::peak_rss_mb() - hostspeed::BUFFER_MIB);
    }
    out
}

/// Run every workload, untraced and traced, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            match output {
                Ok(o) if o.status.success() => {
                    let text = String::from_utf8_lossy(&o.stdout);
                    let mut lines: Vec<&str> = text.lines().collect();
                    let result = lines.pop().unwrap_or_default();
                    for line in lines {
                        println!("{line}");
                    }
                    println!("{workload:<17} result (trace {trace}): {result}");
                    ok &= result.starts_with("{\"correct\": true");
                }
                Ok(o) => {
                    eprintln!("{workload} (trace {trace}) exited with {}", o.status);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot start {workload}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = run_one(&args);
    let metrics = match out.metrics(&args.workload, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {} seed {} trace {} on {cores} cores: {} attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    print!("{}", report::table(&args.workload, &metrics));
    let correct = out.checks_passed && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        report::json_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload abr_cosim --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "abr_cosim");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
    }
}
