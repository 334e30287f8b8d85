//! Thin wrapper: regenerates the `fig14_oversampling` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig14_oversampling")
}
