//! Run the experiment suite, teeing each result into `results/`:
//! `run_all` runs the whole registry in paper order, and
//! `run_all <name>...` runs the named experiments in the order given. An
//! unknown name exits with status 2 before any experiment runs.
use std::process::ExitCode;

fn main() -> std::io::Result<ExitCode> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = match metis_bench::select(&names) {
        Ok(experiments) => experiments,
        Err(e) => {
            eprintln!("run_all: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    for (name, f) in experiments {
        eprintln!(">>> running {name}");
        let t0 = std::time::Instant::now();
        metis_bench::run_and_tee(name, f)?;
        eprintln!(">>> {name} done in {:.1}s\n", t0.elapsed().as_secs_f64());
    }
    Ok(ExitCode::SUCCESS)
}
