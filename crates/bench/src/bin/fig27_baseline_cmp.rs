//! Thin wrapper: regenerates the `fig27_baseline_cmp` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig27_baseline_cmp")
}
