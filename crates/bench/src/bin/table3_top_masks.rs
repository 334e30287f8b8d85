//! Thin wrapper: regenerates the `table3_top_masks` result, one entry of
//! `metis_bench::experiments::registry()`.
fn main() -> std::io::Result<()> {
    metis_bench::run_by_name("table3_top_masks")
}
