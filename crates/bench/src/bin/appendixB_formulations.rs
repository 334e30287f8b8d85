//! Thin wrapper: regenerates the `appendixB_formulations` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("appendixB_formulations")
}
