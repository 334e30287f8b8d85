//! Thin wrapper: regenerates the `fig11_model_design` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig11_model_design")
}
