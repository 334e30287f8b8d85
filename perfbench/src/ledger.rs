//! Ledger arithmetic: do the separately timed layers add up to the
//! end-to-end figure, and what does timing them cost.

/// Sum of the layer costs as a percentage of the end-to-end cost, both
/// in the same unit. 100 means the ledger closes exactly; a ledger closes
/// when it lands within 10 points either way.
pub fn closure_pct(layers: &[f64], end_to_end: f64) -> f64 {
    100.0 * layers.iter().sum::<f64>() / end_to_end
}

/// Extra cost of the traced run over the untraced one, in percent of the
/// untraced cost (negative when the traced run happened to be cheaper).
pub fn overhead_pct(untraced_cost: f64, traced_cost: f64) -> f64 {
    100.0 * (traced_cost / untraced_cost - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_the_layer_sum_over_the_end_to_end_cost() {
        assert_eq!(closure_pct(&[30.0, 50.0, 15.0], 100.0), 95.0);
        assert_eq!(closure_pct(&[60.0, 60.0], 100.0), 120.0);
        assert_eq!(closure_pct(&[0.5, 0.25], 1.5), 50.0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_cost() {
        assert!((overhead_pct(2.0, 2.1) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(2.0, 1.9) + 5.0).abs() < 1e-9);
    }
}
