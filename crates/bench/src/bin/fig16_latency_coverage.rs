//! Thin wrapper: regenerates the `fig16_latency_coverage` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig16_latency_coverage")
}
