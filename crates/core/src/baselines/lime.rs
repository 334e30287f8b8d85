//! LIME \[63\] adapted as in the paper's Appendix E: samples are grouped
//! with k-means and each cluster gets its own (ridge) linear surrogate of
//! the teacher's outputs; queries are answered by the surrogate of the
//! nearest centroid.

use super::kmeans::{kmeans, KMeans};
use super::linreg::{fit_ridge, LinearModel};
use super::Surrogate;
use rand::rngs::StdRng;

/// Per-cluster linear surrogate.
pub struct Lime {
    clusters: KMeans,
    models: Vec<LinearModel>,
    fallback: LinearModel,
}

impl Lime {
    /// Fit with `k` clusters on (state, teacher-output) pairs.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Self {
        assert!(!x.is_empty() && x.len() == y.len(), "Lime::fit: bad data");
        let clusters = kmeans(x, k, 50, rng);
        let fallback =
            fit_ridge(x, y, None, 1e-3).expect("global ridge fit cannot fail with ridge > 0");
        let k_eff = clusters.centroids.len();
        let mut models = Vec::with_capacity(k_eff);
        for c in 0..k_eff {
            let idx: Vec<usize> = (0..x.len())
                .filter(|&i| clusters.assignments[i] == c)
                .collect();
            let cx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let cy: Vec<Vec<f64>> = idx.iter().map(|&i| y[i].clone()).collect();
            let model = if cx.len() >= 2 {
                fit_ridge(&cx, &cy, None, 1e-3).unwrap_or_else(|| fallback.clone())
            } else {
                fallback.clone()
            };
            models.push(model);
        }
        Lime {
            clusters,
            models,
            fallback,
        }
    }

    /// Linear coefficients for the cluster containing `x` — LIME's actual
    /// "interpretation" (which inputs matter locally).
    pub fn local_coefficients(&self, x: &[f64]) -> &LinearModel {
        self.models
            .get(self.clusters.assign(x))
            .unwrap_or(&self.fallback)
    }
}

impl Surrogate for Lime {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.local_coefficients(x).predict(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{surrogate_accuracy, surrogate_rmse};
    use rand::SeedableRng;

    /// Piecewise-linear teacher: two regimes split at x0 = 5.
    fn teacher(x: &[f64]) -> Vec<f64> {
        if x[0] < 5.0 {
            vec![2.0 * x[0], 1.0]
        } else {
            vec![-x[0] + 20.0, 3.0]
        }
    }

    fn data() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y = x.iter().map(|xi| teacher(xi)).collect();
        (x, y)
    }

    #[test]
    fn more_clusters_fit_piecewise_teacher_better() {
        let (x, y) = data();
        let mut rng = StdRng::seed_from_u64(4);
        let lime1 = Lime::fit(&x, &y, 1, &mut rng);
        let lime4 = Lime::fit(&x, &y, 4, &mut rng);
        let rmse1 = surrogate_rmse(&lime1, &x, &y);
        let rmse4 = surrogate_rmse(&lime4, &x, &y);
        assert!(
            rmse4 < rmse1,
            "4 clusters ({rmse4}) should beat 1 cluster ({rmse1})"
        );
        // Each regime is exactly linear, so 4 clusters fit it tightly.
        assert!(rmse4 < 0.5, "rmse4 = {rmse4}");
    }

    #[test]
    fn classification_accuracy_on_linear_teacher() {
        // Labels = argmax of a linear function: LIME should track it.
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 30.0 - 1.0]).collect();
        let y: Vec<Vec<f64>> = x.iter().map(|xi| vec![xi[0], -xi[0]]).collect();
        let labels: Vec<usize> = y.iter().map(|yi| metis_nn::argmax(yi)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let lime = Lime::fit(&x, &y, 2, &mut rng);
        let acc = surrogate_accuracy(&lime, &x, &labels);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn local_coefficients_expose_slopes() {
        let (x, y) = data();
        let mut rng = StdRng::seed_from_u64(9);
        let lime = Lime::fit(&x, &y, 2, &mut rng);
        let low = lime.local_coefficients(&[1.0]);
        // Low regime slope ≈ 2.
        assert!(
            (low.weights[0][0] - 2.0).abs() < 0.5,
            "slope {:?}",
            low.weights[0]
        );
    }
}
