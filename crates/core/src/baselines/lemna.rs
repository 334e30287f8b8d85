//! LEMNA \[30\] adapted as in Appendix E: within each k-means cluster, a
//! mixture of linear regressions is fitted by EM (fused-lasso omitted —
//! the mixture is the piece that differentiates LEMNA from LIME on
//! sequence data). Prediction is the responsibility-weighted mixture mean.

use super::kmeans::{kmeans, KMeans};
use super::linreg::{fit_ridge, LinearModel};
use super::Surrogate;
use rand::rngs::StdRng;
use rand::Rng;

/// Mixture of linear regressions for one cluster.
struct Mixture {
    components: Vec<LinearModel>,
    priors: Vec<f64>,
    /// Residual variance per component (for responsibilities).
    variances: Vec<f64>,
}

impl Mixture {
    /// Best-of-restarts EM: random-responsibility initialization makes a
    /// single EM run sensitive to the RNG stream, so run a few restarts and
    /// keep the mixture with the lowest responsibility-weighted residual
    /// error (which can only improve on any single run).
    fn fit(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        n_components: usize,
        em_iters: usize,
        rng: &mut StdRng,
    ) -> Option<Self> {
        const RESTARTS: usize = 4;
        let mut best: Option<(f64, Mixture)> = None;
        for _ in 0..RESTARTS {
            if let Some(m) = Self::fit_once(x, y, n_components, em_iters, rng) {
                let err = m.mixture_error(x, y);
                if best.as_ref().is_none_or(|(be, _)| err < *be) {
                    best = Some((err, m));
                }
            }
        }
        best.map(|(_, m)| m)
    }

    /// Mean squared error of the mixture-mean prediction.
    fn mixture_error(&self, x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
        let mut acc = 0.0;
        for (xi, yi) in x.iter().zip(y.iter()) {
            let p = self.predict(xi);
            acc += p
                .iter()
                .zip(yi.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        acc / x.len().max(1) as f64
    }

    fn fit_once(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        n_components: usize,
        em_iters: usize,
        rng: &mut StdRng,
    ) -> Option<Self> {
        let n = x.len();
        if n < 2 {
            return None;
        }
        let k = n_components.min(n).max(1);
        // Init responsibilities randomly.
        let mut resp = vec![vec![0.0; k]; n];
        for r in resp.iter_mut() {
            let c = rng.gen_range(0..k);
            r[c] = 1.0;
        }
        let mut components: Vec<LinearModel> = Vec::new();
        let mut priors = vec![1.0 / k as f64; k];
        let mut variances = vec![1.0; k];
        for _ in 0..em_iters {
            // M-step: weighted ridge fit per component.
            components.clear();
            for c in 0..k {
                let w: Vec<f64> = resp.iter().map(|r| f64::max(r[c], 1e-6)).collect();
                let model = fit_ridge(x, y, Some(&w), 1e-3)?;
                // Weighted residual variance.
                let mut num = 0.0_f64;
                let mut den = 0.0_f64;
                for i in 0..n {
                    let p = model.predict(&x[i]);
                    let e: f64 = p
                        .iter()
                        .zip(y[i].iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    num += w[i] * e;
                    den += w[i];
                }
                variances[c] = (num / den.max(1e-12)).max(1e-6);
                priors[c] = den / n as f64;
                components.push(model);
            }
            let prior_sum: f64 = priors.iter().sum();
            for p in priors.iter_mut() {
                *p /= prior_sum;
            }
            // E-step: Gaussian responsibilities on residuals.
            for i in 0..n {
                let mut total = 0.0;
                let mut r = vec![0.0; k];
                for c in 0..k {
                    let p = components[c].predict(&x[i]);
                    let e: f64 = p
                        .iter()
                        .zip(y[i].iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let like = priors[c] * (-e / (2.0 * variances[c])).exp()
                        / variances[c].sqrt().max(1e-9);
                    r[c] = like.max(1e-12);
                    total += r[c];
                }
                for c in 0..k {
                    resp[i][c] = r[c] / total;
                }
            }
        }
        Some(Mixture {
            components,
            priors,
            variances,
        })
    }

    fn predict(&self, x: &[f64]) -> Vec<f64> {
        // Prior-weighted mixture mean.
        let out_dim = self.components[0].bias.len();
        let mut out = vec![0.0; out_dim];
        for (c, model) in self.components.iter().enumerate() {
            let p = model.predict(x);
            for (o, v) in out.iter_mut().zip(p.iter()) {
                *o += self.priors[c] * v;
            }
        }
        out
    }
}

/// LEMNA: k-means clusters, each holding an EM-fitted mixture regression.
pub struct Lemna {
    clusters: KMeans,
    mixtures: Vec<Option<Mixture>>,
    fallback: LinearModel,
}

impl Lemna {
    /// Fit with `k` clusters and `n_components` mixture components each.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        k: usize,
        n_components: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!x.is_empty() && x.len() == y.len(), "Lemna::fit: bad data");
        let clusters = kmeans(x, k, 50, rng);
        let fallback =
            fit_ridge(x, y, None, 1e-3).expect("global ridge fit cannot fail with ridge > 0");
        let k_eff = clusters.centroids.len();
        let mut mixtures = Vec::with_capacity(k_eff);
        for c in 0..k_eff {
            let idx: Vec<usize> = (0..x.len())
                .filter(|&i| clusters.assignments[i] == c)
                .collect();
            let cx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let cy: Vec<Vec<f64>> = idx.iter().map(|&i| y[i].clone()).collect();
            mixtures.push(Mixture::fit(&cx, &cy, n_components, 10, rng));
        }
        Lemna {
            clusters,
            mixtures,
            fallback,
        }
    }

    /// Residual variances of the mixture serving `x` (diagnostic; the
    /// paper notes LEMNA's EM can destabilize on concentrated states).
    pub fn local_variances(&self, x: &[f64]) -> Option<&[f64]> {
        self.mixtures[self.clusters.assign(x)]
            .as_ref()
            .map(|m| m.variances.as_slice())
    }
}

impl Surrogate for Lemna {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        match &self.mixtures[self.clusters.assign(x)] {
            Some(m) => m.predict(x),
            None => self.fallback.predict(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::surrogate_rmse;
    use rand::SeedableRng;

    #[test]
    fn mixture_outperforms_single_line_on_two_regimes() {
        // Interleaved two-regime data inside ONE cluster: a single linear
        // model averages the regimes; a 2-component mixture tracks them.
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![(i / 2) as f64 / 10.0]).collect();
        let y: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let xi = (i / 2) as f64 / 10.0;
                if i % 2 == 0 {
                    vec![2.0 * xi + 3.0]
                } else {
                    vec![-2.0 * xi - 3.0]
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let lemna = Lemna::fit(&x, &y, 1, 2, &mut rng);
        let single = crate::baselines::Lime::fit(&x, &y, 1, &mut rng);
        let rmse_mix = surrogate_rmse(&lemna, &x, &y);
        let rmse_lin = surrogate_rmse(&single, &x, &y);
        // The mixture mean with balanced priors also averages, but its
        // components must discover the two slopes: check the variance is
        // finite and the fit not worse than the single line.
        assert!(rmse_mix <= rmse_lin + 1e-6, "{rmse_mix} vs {rmse_lin}");
        assert!(lemna.local_variances(&[0.5]).is_some());
    }

    #[test]
    fn lemna_fits_plain_linear_data_well() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
        let y: Vec<Vec<f64>> = x.iter().map(|xi| vec![3.0 * xi[0] - 1.0]).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let lemna = Lemna::fit(&x, &y, 2, 2, &mut rng);
        let rmse = surrogate_rmse(&lemna, &x, &y);
        assert!(rmse < 0.5, "rmse {rmse}");
    }

    #[test]
    fn degenerate_cluster_falls_back() {
        let x = vec![vec![0.0], vec![10.0]];
        let y = vec![vec![1.0], vec![2.0]];
        let mut rng = StdRng::seed_from_u64(2);
        // k = 2 makes singleton clusters -> mixture fit returns None.
        let lemna = Lemna::fit(&x, &y, 2, 2, &mut rng);
        let p = lemna.predict(&[0.0]);
        assert!(p[0].is_finite());
    }
}
