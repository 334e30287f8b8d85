//! Thin wrapper: regenerates the `fig15b_auto_fct` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig15b_auto_fct")
}
