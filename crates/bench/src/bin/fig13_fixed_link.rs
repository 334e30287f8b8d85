//! Thin wrapper: regenerates the `fig13_fixed_link` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig13_fixed_link")
}
