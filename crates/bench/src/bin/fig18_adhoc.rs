//! Thin wrapper: regenerates the `fig18_adhoc` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig18_adhoc")
}
