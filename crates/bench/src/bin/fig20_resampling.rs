//! Thin wrapper: regenerates the `fig20_resampling` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig20_resampling")
}
