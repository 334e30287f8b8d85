//! Thin wrapper: regenerates the `fig17a_median_flows` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig17a_median_flows")
}
