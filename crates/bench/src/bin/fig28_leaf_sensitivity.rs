//! Thin wrapper: regenerates the `fig28_leaf_sensitivity` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig28_leaf_sensitivity")
}
