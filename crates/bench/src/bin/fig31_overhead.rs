//! Thin wrapper: regenerates the `fig31_overhead` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig31_overhead")
}
