//! Thin wrapper: regenerates the `fig29_lambda_sensitivity` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig29_lambda_sensitivity")
}
