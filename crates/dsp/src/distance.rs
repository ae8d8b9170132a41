//! Euclidean-distance metrics and the paper's Eq. 1 detection threshold.
//!
//! The data-analysis module identifies a hardware Trojan when the Euclidean
//! distance between fresh measurements and the golden (Trojan-free)
//! fingerprint exceeds
//!
//! ```text
//! EDth = argmax_{Di, Dj ∈ Dg} ‖Di − Dj‖₂          (paper Eq. 1)
//! ```
//!
//! i.e. the largest distance observed *within* the golden set — a margin for
//! residual noise that survives denoising and PCA.

use crate::DspError;

/// Independent accumulator lanes of the squared-distance kernel.
///
/// Four lanes break the loop-carried dependency of a sequential f64 sum
/// (which the compiler may never reassociate), so the inner loop
/// autovectorizes; the lane combine order is fixed —
/// `((l0 + l2) + (l1 + l3)) + tail` — making the result a deterministic
/// function of the inputs alone.
pub const DISTANCE_LANES: usize = 4;

/// The lane-structured squared-difference kernel shared by every distance
/// function: 4 independent accumulators over `chunks_exact` blocks, a
/// sequential tail, and the fixed lane combine.
#[inline]
fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; DISTANCE_LANES];
    let mut ca = a.chunks_exact(DISTANCE_LANES);
    let mut cb = b.chunks_exact(DISTANCE_LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..DISTANCE_LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail
}

/// Euclidean (L2) distance between two equal-length vectors.
///
/// Computed with the lane-structured kernel ([`DISTANCE_LANES`]
/// accumulators, fixed combine order); see [`euclidean_reference`] for
/// the sequential scalar ordering it replaced.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), emtrust_dsp::DspError> {
/// use emtrust_dsp::distance::euclidean;
///
/// let d = euclidean(&[0.0, 0.0], &[3.0, 4.0])?;
/// assert!((d - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    Ok(euclidean_sqr(a, b)?.sqrt())
}

/// Squared Euclidean distance (no square root; cheaper for comparisons).
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the lengths differ.
pub fn euclidean_sqr(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(sum_sq_diff(a, b))
}

/// The sequential scalar Euclidean distance — one accumulator, strictly
/// left-to-right summation. Retained as the reference path for the lane
/// kernel: equivalence tests bound the reassociation error against it,
/// and the perf-regression bench (`exp_throughput`) times it as the
/// before side of the hot-path ratio.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the lengths differ.
pub fn euclidean_reference(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Flattens a uniform set of vectors into one contiguous row-major
/// buffer, validating dimensions up front. The pair scans walk this SoA
/// layout instead of chasing one heap pointer per vector.
fn flatten_set(set: &[Vec<f64>]) -> Result<(Vec<f64>, usize), DspError> {
    let dim = set.first().map_or(0, Vec::len);
    let mut flat = Vec::with_capacity(set.len() * dim);
    for v in set {
        if v.len() != dim {
            return Err(DspError::LengthMismatch {
                expected: dim,
                actual: v.len(),
            });
        }
        flat.extend_from_slice(v);
    }
    Ok((flat, dim))
}

/// All pairwise Euclidean distances within a set of vectors.
///
/// Returns the `n·(n−1)/2` distances of the upper triangle in row-major
/// order. This is the raw material for the histogram panels of paper Fig. 6.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if any vector disagrees in length
/// with the first.
pub fn pairwise_distances(set: &[Vec<f64>]) -> Result<Vec<f64>, DspError> {
    let _span = emtrust_telemetry::span("pairwise_scan");
    let n = set.len();
    let (flat, dim) = flatten_set(set)?;
    let row = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(sum_sq_diff(row(i), row(j)).sqrt());
        }
    }
    Ok(out)
}

/// All cross distances between two sets (`|a|·|b|` values).
///
/// Used for golden-vs-suspect distributions (blue stripes in Fig. 6).
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] on inconsistent vector lengths.
pub fn cross_distances(a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<Vec<f64>, DspError> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push(euclidean(x, y)?);
        }
    }
    Ok(out)
}

/// The paper's Eq. 1 threshold: the maximum pairwise distance within the
/// golden (Trojan-free) set.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if fewer than two golden vectors
/// are supplied (no pair exists), or [`DspError::LengthMismatch`] on
/// inconsistent vector lengths.
pub fn eq1_threshold(golden: &[Vec<f64>]) -> Result<f64, DspError> {
    let _span = emtrust_telemetry::span("eq1_scan");
    let n = golden.len();
    if n < 2 {
        return Err(DspError::InvalidParameter {
            what: "eq1 threshold needs at least two golden vectors",
        });
    }
    let (flat, dim) = flatten_set(golden)?;
    let row = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut best = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            best = best.max(sum_sq_diff(row(i), row(j)));
        }
    }
    Ok(best.sqrt())
}

/// [`eq1_threshold`] over the sequential scalar kernel
/// ([`euclidean_reference`]) and the unflattened vector-of-vectors
/// layout — the pre-optimization scan retained for equivalence tests and
/// as the before side of the `exp_throughput` hot-path ratio.
///
/// # Errors
///
/// Same as [`eq1_threshold`].
pub fn eq1_threshold_reference(golden: &[Vec<f64>]) -> Result<f64, DspError> {
    let n = golden.len();
    if n < 2 {
        return Err(DspError::InvalidParameter {
            what: "eq1 threshold needs at least two golden vectors",
        });
    }
    let mut best = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            best = best.max(euclidean_reference(&golden[i], &golden[j])?);
        }
    }
    Ok(best)
}

/// The component-wise mean of a set of equal-length vectors.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `set` is empty and
/// [`DspError::LengthMismatch`] on inconsistent lengths.
pub fn centroid(set: &[Vec<f64>]) -> Result<Vec<f64>, DspError> {
    let first = set.first().ok_or(DspError::EmptyInput)?;
    let dim = first.len();
    let mut acc = vec![0.0; dim];
    for v in set {
        if v.len() != dim {
            return Err(DspError::LengthMismatch {
                expected: dim,
                actual: v.len(),
            });
        }
        for (a, x) in acc.iter_mut().zip(v) {
            *a += x;
        }
    }
    let n = set.len() as f64;
    for a in acc.iter_mut() {
        *a /= n;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_345() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_rejects_mismatch() {
        assert!(matches!(
            euclidean(&[1.0], &[1.0, 2.0]),
            Err(DspError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn pairwise_count_is_n_choose_2() {
        let set: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        assert_eq!(pairwise_distances(&set).unwrap().len(), 15);
    }

    #[test]
    fn cross_count_is_product() {
        let a: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let b: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        assert_eq!(cross_distances(&a, &b).unwrap().len(), 12);
    }

    #[test]
    fn eq1_threshold_is_max_intra_distance() {
        let golden = vec![vec![0.0], vec![1.0], vec![4.0]];
        assert!((eq1_threshold(&golden).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_threshold_needs_two_vectors() {
        assert!(eq1_threshold(&[vec![1.0]]).is_err());
        assert!(eq1_threshold(&[]).is_err());
    }

    #[test]
    fn centroid_of_symmetric_points_is_origin() {
        let set = vec![vec![1.0, -2.0], vec![-1.0, 2.0]];
        let c = centroid(&set).unwrap();
        assert!(c.iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn centroid_rejects_ragged_input() {
        let set = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(centroid(&set).is_err());
    }

    /// A scalar mirror of the lane kernel: the same four accumulator
    /// lanes computed as four strided scalar passes, combined in the same
    /// fixed order. Any structural drift in `sum_sq_diff` shows up as a
    /// bit difference here.
    fn sum_sq_diff_scalar_mirror(a: &[f64], b: &[f64]) -> f64 {
        let blocks = a.len() / DISTANCE_LANES;
        let mut acc = [0.0f64; DISTANCE_LANES];
        for (l, lane) in acc.iter_mut().enumerate() {
            for k in 0..blocks {
                let i = k * DISTANCE_LANES + l;
                let d = a[i] - b[i];
                *lane += d * d;
            }
        }
        let mut tail = 0.0;
        for i in blocks * DISTANCE_LANES..a.len() {
            let d = a[i] - b[i];
            tail += d * d;
        }
        ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail
    }

    proptest! {
        #[test]
        fn lane_kernel_is_bit_identical_to_scalar_mirror(
            a in proptest::collection::vec(-100.0f64..100.0, 1..=67),
            offs in proptest::collection::vec(-1.0f64..1.0, 67..=67),
        ) {
            let b: Vec<f64> = a.iter().zip(&offs).map(|(x, o)| x + o).collect();
            let fast = euclidean_sqr(&a, &b).unwrap();
            let mirror = sum_sq_diff_scalar_mirror(&a, &b);
            prop_assert_eq!(fast.to_bits(), mirror.to_bits());
        }

        #[test]
        fn lane_kernel_matches_sequential_reference(
            a in proptest::collection::vec(-100.0f64..100.0, 1..=67),
            offs in proptest::collection::vec(-1.0f64..1.0, 67..=67),
        ) {
            let b: Vec<f64> = a.iter().zip(&offs).map(|(x, o)| x + o).collect();
            let fast = euclidean(&a, &b).unwrap();
            let reference = euclidean_reference(&a, &b).unwrap();
            prop_assert!((fast - reference).abs() <= 1e-12 * (1.0 + reference));
        }

        #[test]
        fn flattened_eq1_scan_matches_reference_scan(
            set in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 6..=6), 2..10),
        ) {
            let opt = eq1_threshold(&set).unwrap();
            let reference = eq1_threshold_reference(&set).unwrap();
            prop_assert!((opt - reference).abs() <= 1e-12 * (1.0 + reference));
        }

        #[test]
        fn triangle_inequality(
            a in proptest::collection::vec(-10.0f64..10.0, 8..=8),
            b in proptest::collection::vec(-10.0f64..10.0, 8..=8),
            c in proptest::collection::vec(-10.0f64..10.0, 8..=8),
        ) {
            let ab = euclidean(&a, &b).unwrap();
            let bc = euclidean(&b, &c).unwrap();
            let ac = euclidean(&a, &c).unwrap();
            prop_assert!(ac <= ab + bc + 1e-9);
        }

        #[test]
        fn distance_is_symmetric_and_zero_on_self(
            a in proptest::collection::vec(-10.0f64..10.0, 4..32),
        ) {
            let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
            prop_assert!((euclidean(&a, &b).unwrap() - euclidean(&b, &a).unwrap()).abs() < 1e-12);
            prop_assert!(euclidean(&a, &a).unwrap() < 1e-12);
        }

        #[test]
        fn eq1_threshold_bounds_all_intra_distances(
            set in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 4..=4), 2..12),
        ) {
            let th = eq1_threshold(&set).unwrap();
            for d in pairwise_distances(&set).unwrap() {
                prop_assert!(d <= th + 1e-12);
            }
        }
    }
}
