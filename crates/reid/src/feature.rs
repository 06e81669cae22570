//! ReID feature vectors and distances.

/// Maximum possible Euclidean distance between two unit-norm features; the
/// paper's normalized distance `d̃` is `d / NORMALIZER ∈ [0, 1]`.
pub const NORMALIZER: f64 = 2.0;

/// A feature vector produced by the (simulated) ReID model.
///
/// Invariant: unit Euclidean norm (enforced by [`Feature::normalized`],
/// which every producer in this crate goes through).
#[derive(Debug, Clone, PartialEq)]
pub struct Feature(Vec<f64>);

impl Feature {
    /// Wraps raw components, rescaling to unit norm. A zero vector becomes
    /// the first basis vector to keep the unit-norm invariant.
    pub fn normalized(mut components: Vec<f64>) -> Self {
        let norm = components.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut components {
                *x /= norm;
            }
        } else if let Some(first) = components.first_mut() {
            *first = 1.0;
        }
        Feature(components)
    }

    /// Wraps raw components **verbatim** — no rescaling. Two callers need
    /// this: checkpoint restore (re-normalizing an already-unit vector would
    /// perturb the low bits and break byte-exact resume) and fault injectors
    /// that deliberately build corrupted (non-finite) vectors. Everybody
    /// else goes through [`Feature::normalized`].
    pub fn from_raw(components: Vec<f64>) -> Self {
        Feature(components)
    }

    /// True when every component is finite. A backend reply failing this
    /// check is treated as a corrupted inference and retried.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// Dimensionality of the feature space.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw components.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Euclidean distance — the paper's `d(b₁, b₂)`. In `[0, 2]` for unit
    /// features.
    pub fn euclidean(&self, other: &Feature) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "feature dims must match");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Normalized Euclidean distance `d̃ = d / 2 ∈ [0, 1]` for unit
    /// features (§IV-B of the paper).
    pub fn normalized_distance(&self, other: &Feature) -> f64 {
        (self.euclidean(other) / NORMALIZER).clamp(0.0, 1.0)
    }

    /// Cosine similarity in `[-1, 1]` (used by the DeepSORT-style
    /// appearance association in `tm-track`).
    pub fn cosine_similarity(&self, other: &Feature) -> f64 {
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_rescales_to_unit_norm() {
        let f = Feature::normalized(vec![3.0, 4.0]);
        let norm: f64 = f.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!((f.as_slice()[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_becomes_basis_vector() {
        let f = Feature::normalized(vec![0.0, 0.0, 0.0]);
        assert_eq!(f.as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn euclidean_of_identical_is_zero() {
        let f = Feature::normalized(vec![1.0, 2.0, 3.0]);
        assert_eq!(f.euclidean(&f), 0.0);
    }

    #[test]
    fn antipodal_unit_features_have_distance_two() {
        let a = Feature::normalized(vec![1.0, 0.0]);
        let b = Feature::normalized(vec![-1.0, 0.0]);
        assert!((a.euclidean(&b) - 2.0).abs() < 1e-12);
        assert!((a.normalized_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_unit_features() {
        let a = Feature::normalized(vec![1.0, 0.0]);
        let b = Feature::normalized(vec![0.0, 1.0]);
        assert!((a.euclidean(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert!((a.cosine_similarity(&b)).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let f = Feature::normalized(vec![0.2, -0.4, 0.9]);
        assert!((f.cosine_similarity(&f) - 1.0).abs() < 1e-12);
    }
}
