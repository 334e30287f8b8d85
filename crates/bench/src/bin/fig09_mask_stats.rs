//! Thin wrapper: regenerates the `fig09_mask_stats` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("fig09_mask_stats")
}
