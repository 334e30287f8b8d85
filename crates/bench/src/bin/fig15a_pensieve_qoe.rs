//! Thin wrapper: regenerates the `fig15a_pensieve_qoe` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig15a_pensieve_qoe")
}
