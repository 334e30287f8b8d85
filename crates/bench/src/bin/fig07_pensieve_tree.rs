//! Thin wrapper: regenerates the `fig07_pensieve_tree` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig07_pensieve_tree")
}
