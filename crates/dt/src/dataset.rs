//! Training data for decision trees: features, targets, per-sample weights.
//!
//! Sample weights are first-class because Metis' conversion pipeline
//! resamples/reweights (state, action) pairs by the RL advantage (Eq. 1 of
//! the paper) and oversamples rare actions in the debugging use case (§6.3).

use serde::{Deserialize, Serialize};

/// Targets: class labels (bitrate index, priority, …) or real values
/// (queue thresholds, rate limits, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Targets {
    /// Classification labels in `0..n_classes`.
    Class {
        labels: Vec<usize>,
        n_classes: usize,
    },
    /// Regression values.
    Value(Vec<f64>),
}

impl Targets {
    pub fn len(&self) -> usize {
        match self {
            Targets::Class { labels, .. } => labels.len(),
            Targets::Value(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A weighted supervised dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Row-major feature rows; all rows must share the same length.
    pub x: Vec<Vec<f64>>,
    pub y: Targets,
    /// Per-sample weights (all 1.0 if unweighted).
    pub w: Vec<f64>,
}

/// Errors raised by dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    Empty,
    RaggedRows,
    LengthMismatch,
    BadLabel,
    NonPositiveWeight,
    /// A feature value is NaN. No split order can place it, so
    /// [`crate::fit`] would reject the dataset too
    /// ([`crate::FitError::NanFeature`]). Infinite values are accepted.
    NanFeature,
    /// The rows have zero features, so no split can be tested
    /// ([`crate::FitError::NoFeatures`]).
    NoFeatures,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no samples"),
            DatasetError::RaggedRows => write!(f, "feature rows have differing lengths"),
            DatasetError::LengthMismatch => write!(f, "x, y, w lengths differ"),
            DatasetError::BadLabel => write!(f, "class label out of range"),
            DatasetError::NonPositiveWeight => write!(f, "sample weight must be > 0"),
            DatasetError::NanFeature => write!(f, "feature value is NaN"),
            DatasetError::NoFeatures => write!(f, "feature rows are empty"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Rows must be non-empty, of one non-zero length, and NaN-free.
fn check_rows(x: &[Vec<f64>]) -> Result<(), DatasetError> {
    let Some(first) = x.first() else {
        return Err(DatasetError::Empty);
    };
    if first.is_empty() {
        return Err(DatasetError::NoFeatures);
    }
    if x.iter().any(|r| r.len() != first.len()) {
        return Err(DatasetError::RaggedRows);
    }
    if x.iter().flatten().any(|v| v.is_nan()) {
        return Err(DatasetError::NanFeature);
    }
    Ok(())
}

impl Dataset {
    /// Build a classification dataset with unit weights.
    pub fn classification(
        x: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Self, DatasetError> {
        let n = x.len();
        let w = vec![1.0; n];
        Self::classification_weighted(x, labels, n_classes, w)
    }

    /// Build a weighted classification dataset.
    pub fn classification_weighted(
        x: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_classes: usize,
        w: Vec<f64>,
    ) -> Result<Self, DatasetError> {
        check_rows(&x)?;
        if labels.len() != x.len() || w.len() != x.len() {
            return Err(DatasetError::LengthMismatch);
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(DatasetError::BadLabel);
        }
        if w.iter().any(|&wi| wi <= 0.0 || !wi.is_finite()) {
            return Err(DatasetError::NonPositiveWeight);
        }
        Ok(Dataset {
            x,
            y: Targets::Class { labels, n_classes },
            w,
        })
    }

    /// Build a regression dataset with unit weights.
    pub fn regression(x: Vec<Vec<f64>>, values: Vec<f64>) -> Result<Self, DatasetError> {
        let n = x.len();
        let w = vec![1.0; n];
        Self::regression_weighted(x, values, w)
    }

    /// Build a weighted regression dataset.
    pub fn regression_weighted(
        x: Vec<Vec<f64>>,
        values: Vec<f64>,
        w: Vec<f64>,
    ) -> Result<Self, DatasetError> {
        check_rows(&x)?;
        if values.len() != x.len() || w.len() != x.len() {
            return Err(DatasetError::LengthMismatch);
        }
        if w.iter().any(|&wi| wi <= 0.0 || !wi.is_finite()) {
            return Err(DatasetError::NonPositiveWeight);
        }
        Ok(Dataset {
            x,
            y: Targets::Value(values),
            w,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.x[0].len()
    }

    /// Number of classes (classification only).
    pub fn n_classes(&self) -> Option<usize> {
        match &self.y {
            Targets::Class { n_classes, .. } => Some(*n_classes),
            Targets::Value(_) => None,
        }
    }

    /// Class label of sample `i` (classification only).
    pub fn label(&self, i: usize) -> Option<usize> {
        match &self.y {
            Targets::Class { labels, .. } => Some(labels[i]),
            Targets::Value(_) => None,
        }
    }

    /// Regression value of sample `i` (regression only).
    pub fn value(&self, i: usize) -> Option<f64> {
        match &self.y {
            Targets::Value(v) => Some(v[i]),
            Targets::Class { .. } => None,
        }
    }

    /// Weighted class histogram over the whole dataset (classification).
    pub fn class_weights(&self) -> Option<Vec<f64>> {
        match &self.y {
            Targets::Class { labels, n_classes } => {
                let mut h = vec![0.0; *n_classes];
                for (l, &w) in labels.iter().zip(self.w.iter()) {
                    h[*l] += w;
                }
                Some(h)
            }
            Targets::Value(_) => None,
        }
    }

    /// Append another dataset of the same schema (used by DAgger rounds).
    pub fn extend(&mut self, other: &Dataset) -> Result<(), DatasetError> {
        if other.is_empty() {
            return Ok(());
        }
        if self.n_features() != other.n_features() {
            return Err(DatasetError::RaggedRows);
        }
        match (&mut self.y, &other.y) {
            (
                Targets::Class { labels, n_classes },
                Targets::Class {
                    labels: ol,
                    n_classes: onc,
                },
            ) => {
                if n_classes != onc {
                    return Err(DatasetError::BadLabel);
                }
                labels.extend_from_slice(ol);
            }
            (Targets::Value(v), Targets::Value(ov)) => v.extend_from_slice(ov),
            _ => return Err(DatasetError::LengthMismatch),
        }
        self.x.extend(other.x.iter().cloned());
        self.w.extend_from_slice(&other.w);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (Vec<Vec<f64>>, Vec<usize>) {
        (vec![vec![0.0, 1.0], vec![1.0, 0.0]], vec![0, 1])
    }

    #[test]
    fn classification_ok() {
        let (x, y) = xy();
        let d = Dataset::classification(x, y, 2).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), Some(2));
        assert_eq!(d.class_weights(), Some(vec![1.0, 1.0]));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Dataset::classification(vec![], vec![], 2).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn rejects_ragged() {
        let x = vec![vec![0.0], vec![1.0, 2.0]];
        assert_eq!(
            Dataset::classification(x, vec![0, 1], 2).unwrap_err(),
            DatasetError::RaggedRows
        );
    }

    #[test]
    fn rejects_bad_label() {
        let (x, _) = xy();
        assert_eq!(
            Dataset::classification(x, vec![0, 5], 2).unwrap_err(),
            DatasetError::BadLabel
        );
    }

    #[test]
    fn rejects_bad_weights() {
        let (x, y) = xy();
        assert_eq!(
            Dataset::classification_weighted(x, y, 2, vec![1.0, 0.0]).unwrap_err(),
            DatasetError::NonPositiveWeight
        );
    }

    #[test]
    fn rejects_nan_feature_keeps_infinite() {
        let x = vec![vec![0.0, f64::NAN], vec![1.0, 0.0]];
        assert_eq!(
            Dataset::classification(x.clone(), vec![0, 1], 2).unwrap_err(),
            DatasetError::NanFeature
        );
        assert_eq!(
            Dataset::regression_weighted(x, vec![0.0, 1.0], vec![1.0, 2.0]).unwrap_err(),
            DatasetError::NanFeature
        );
        let inf = vec![vec![f64::NEG_INFINITY, 0.0], vec![f64::INFINITY, 1.0]];
        assert!(Dataset::classification(inf.clone(), vec![0, 1], 2).is_ok());
        assert!(Dataset::regression(inf, vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn rejects_zero_width_rows() {
        assert_eq!(
            Dataset::classification(vec![vec![]; 20], vec![0; 20], 2).unwrap_err(),
            DatasetError::NoFeatures
        );
        assert_eq!(
            Dataset::regression(vec![vec![]; 3], vec![0.0; 3]).unwrap_err(),
            DatasetError::NoFeatures
        );
    }

    #[test]
    fn regression_value_access() {
        let d = Dataset::regression(vec![vec![1.0], vec![2.0]], vec![10.0, 20.0]).unwrap();
        assert_eq!(d.value(1), Some(20.0));
        assert_eq!(d.label(0), None);
        assert_eq!(d.n_classes(), None);
    }

    #[test]
    fn extend_merges() {
        let (x, y) = xy();
        let mut a = Dataset::classification(x.clone(), y.clone(), 2).unwrap();
        let b = Dataset::classification(x, y, 2).unwrap();
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn extend_schema_mismatch() {
        let (x, y) = xy();
        let mut a = Dataset::classification(x.clone(), y, 2).unwrap();
        let b = Dataset::regression(x, vec![0.0, 1.0]).unwrap();
        assert!(a.extend(&b).is_err());
    }
}
