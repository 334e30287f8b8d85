//! Thin wrapper: regenerates the `fig17b_deployment_cost` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig17b_deployment_cost")
}
