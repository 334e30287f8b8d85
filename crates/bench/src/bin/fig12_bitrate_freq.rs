//! Thin wrapper: regenerates the `fig12_bitrate_freq` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig12_bitrate_freq")
}
