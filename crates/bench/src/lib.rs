//! # metis-bench — experiment harnesses for every paper table and figure
//!
//! Each module in [`experiments`] regenerates results of the paper's
//! evaluation section, and [`experiments::registry`] lists every one. The
//! `run_all` binary runs the whole registry, or the experiments named on
//! its command line, and tees each one's output into `results/`.
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

/// The registry entries `run_all` runs: the whole registry in paper order
/// when `names` is empty, otherwise the named entries in the order given.
/// Every name is checked before anything runs; an unknown one is an error
/// that lists the registry's names.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, experiments::Experiment)>, String> {
    let registry = experiments::registry();
    if names.is_empty() {
        return Ok(registry);
    }
    names
        .iter()
        .map(|name| {
            registry
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
                    format!("unknown experiment `{name}`; known: {}", known.join(", "))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(entries: Vec<(&'static str, experiments::Experiment)>) -> Vec<&'static str> {
        entries.into_iter().map(|(n, _)| n).collect()
    }

    fn selected(picked: &[&str]) -> Vec<&'static str> {
        let picked: Vec<String> = picked.iter().map(|n| n.to_string()).collect();
        names_of(select(&picked).expect("known names"))
    }

    #[test]
    fn no_names_select_the_whole_registry_in_paper_order() {
        let registry = names_of(experiments::registry());
        assert_eq!(selected(&[]), registry);
        assert_eq!(registry.first(), Some(&"fig07_pensieve_tree"));
    }

    #[test]
    fn names_select_their_entries_in_the_order_given() {
        let picked = [
            "table3_top_masks",
            "appendixB_formulations",
            "fig07_pensieve_tree",
        ];
        assert_eq!(selected(&picked), picked);
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_registry() {
        // The known name before it is not selected either: nothing runs.
        let picked = ["fig31_overhead".to_string(), "fig99_missing".to_string()];
        let err = select(&picked).unwrap_err();
        assert!(err.contains("`fig99_missing`"), "{err}");
        for name in names_of(experiments::registry()) {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut registry = names_of(experiments::registry());
        let len = registry.len();
        registry.sort_unstable();
        registry.dedup();
        assert_eq!(registry.len(), len, "duplicate experiment names");
    }
}
