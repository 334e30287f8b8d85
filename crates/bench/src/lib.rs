//! # metis-bench — experiment harnesses for every paper table and figure
//!
//! Each module in [`experiments`] regenerates results of the paper's
//! evaluation section, and [`experiments::registry`] lists every one. The
//! binaries in `src/bin/` are thin wrappers; `run_all` executes the
//! complete suite and tees every experiment's output into `results/`.
//!
//! Absolute numbers are simulator-scale, not testbed-scale; what is
//! expected to reproduce is the *shape* of each result (who wins, by
//! roughly what factor, which qualitative behaviours appear).

pub mod experiments;
pub mod guard;
pub mod measure;
pub mod setup;

use std::io::Write;

/// Run one experiment, teeing output to stdout and `results/<name>.txt`.
pub fn run_and_tee(name: &str, f: experiments::Experiment) -> std::io::Result<()> {
    let mut buf = Vec::new();
    f(&mut buf)?;
    std::io::stdout().write_all(&buf)?;
    let path = setup::results_dir().join(format!("{name}.txt"));
    std::fs::write(path, &buf)?;
    Ok(())
}

/// Run one experiment by registry name (used by the thin binaries).
pub fn run_by_name(name: &str) -> std::io::Result<()> {
    let reg = experiments::registry();
    let (n, f) = reg
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown experiment {name}"));
    run_and_tee(n, *f)
}
