//! Scalar statistics: RMS, SNR (paper Eq. 2 and Eq. 3), moments and
//! normalization helpers used throughout trace processing.

use crate::DspError;

/// Arithmetic mean of `xs`. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of `xs`. Returns `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of `xs`.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of `xs` (upper median for even lengths). Returns `0.0` for an
/// empty slice.
///
/// The order statistic at index `len / 2` is selected in `O(n)`, not
/// sorted for. NaNs order after every number, so a NaN-bearing slice
/// never panics and yields a NaN only when at most `len / 2` of its
/// entries are numbers; on finite input the value is the sorted slice's
/// element at `len / 2`.
///
/// The spectral detectors use this as a robust per-spectrum noise-floor
/// estimate: a handful of strong clock harmonics cannot drag the median
/// the way they would drag the mean.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    let mid = v.len() / 2;
    *v.select_nth_unstable_by(mid, nan_last).1
}

/// `partial_cmp` made total: every NaN equals every other and orders
/// after every number.
fn nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Root-mean-square value of `xs`. Returns `0.0` for an empty slice.
///
/// This is the quantity the paper feeds into Eq. 2:
/// `SNR_voltage = SignalVoltage_RMS / NoiseVoltage_RMS`.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Voltage-ratio SNR per the paper's Eq. 2.
///
/// Returns `f64::INFINITY` when `noise_rms == 0` and the signal is nonzero,
/// and `0.0` when both are zero.
pub fn snr_voltage(signal_rms: f64, noise_rms: f64) -> f64 {
    if noise_rms == 0.0 {
        if signal_rms == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        signal_rms / noise_rms
    }
}

/// SNR in decibels per the paper's Eq. 3: `SNR_dB = 20·log10(SNR_voltage)`.
pub fn snr_db(signal_rms: f64, noise_rms: f64) -> f64 {
    20.0 * snr_voltage(signal_rms, noise_rms).log10()
}

/// Minimum and maximum of `xs`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `xs` is empty.
pub fn min_max(xs: &[f64]) -> Result<(f64, f64), DspError> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    Ok((lo, hi))
}

/// Subtracts the mean from `xs` in place (DC removal).
pub fn remove_mean(xs: &mut [f64]) {
    let m = mean(xs);
    for x in xs.iter_mut() {
        *x -= m;
    }
}

/// Scales `xs` in place to unit RMS. A zero signal is left unchanged.
pub fn normalize_rms(xs: &mut [f64]) {
    let r = rms(xs);
    if r > 0.0 {
        for x in xs.iter_mut() {
            *x /= r;
        }
    }
}

/// Scales `xs` in place to unit Euclidean norm. A zero vector is unchanged.
pub fn normalize_l2(xs: &mut [f64]) {
    let n = xs.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 0.0 {
        for x in xs.iter_mut() {
            *x /= n;
        }
    }
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if lengths differ and
/// [`DspError::EmptyInput`] if the slices are empty.
pub fn correlation(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        num += (x - ma) * (y - mb);
        da += (x - ma) * (x - ma);
        db += (y - mb) * (y - mb);
    }
    let denom = (da * db).sqrt();
    Ok(if denom == 0.0 { 0.0 } else { num / denom })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-15);
        assert!((variance(&xs) - 1.25).abs() < 1e-15);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn empty_slices_are_benign() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert!(min_max(&[]).is_err());
    }

    #[test]
    fn rms_of_constant_is_its_magnitude() {
        assert!((rms(&[-3.0; 10]) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn median_is_the_order_statistic() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Upper median for even lengths (index n/2 after sorting).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        // Robust to a dominating outlier.
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 1e9]), 1.0);
    }

    #[test]
    fn median_orders_nan_last_and_never_panics() {
        assert_eq!(median(&[f64::NAN, 3.0, 1.0, 2.0, f64::NAN]), 3.0);
        assert_eq!(median(&[2.0, f64::NAN, 1.0]), 2.0);
        assert!(median(&[f64::NAN, f64::NAN, 1.0]).is_nan());
        // Shapes that made a sort with an inconsistent comparator panic
        // ("does not correctly implement a total order").
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let n = rng.gen_range(1..64);
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        f64::NAN
                    } else {
                        rng.gen_range(-10.0..10.0)
                    }
                })
                .collect();
            let m = median(&xs);
            let finite = xs.iter().filter(|x| !x.is_nan()).count();
            assert_eq!(m.is_nan(), finite <= n / 2, "{xs:?}");
        }
    }

    #[test]
    fn snr_matches_paper_equations() {
        // A 10:1 voltage ratio is exactly 20 dB.
        assert!((snr_db(10.0, 1.0) - 20.0).abs() < 1e-12);
        // The paper's on-chip simulated value: 29.976 dB ≈ ratio 31.55.
        let ratio = snr_voltage(31.55, 1.0);
        assert!((20.0 * ratio.log10() - 29.98).abs() < 0.01);
    }

    #[test]
    fn snr_degenerate_cases() {
        assert_eq!(snr_voltage(0.0, 0.0), 0.0);
        assert_eq!(snr_voltage(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn min_max_finds_extremes() {
        let (lo, hi) = min_max(&[3.0, -1.0, 4.0, 1.5]).unwrap();
        assert_eq!(lo, -1.0);
        assert_eq!(hi, 4.0);
    }

    #[test]
    fn remove_mean_zeroes_the_mean() {
        let mut xs = vec![1.0, 2.0, 3.0, 10.0];
        remove_mean(&mut xs);
        assert!(mean(&xs).abs() < 1e-12);
    }

    #[test]
    fn normalize_rms_gives_unit_rms() {
        let mut xs = vec![1.0, -2.0, 3.0, -4.0];
        normalize_rms(&mut xs);
        assert!((rms(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut xs = vec![0.0; 4];
        normalize_l2(&mut xs);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn correlation_of_identical_signals_is_one() {
        let a = [1.0, 3.0, 2.0, 5.0];
        assert!((correlation(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_negated_signal_is_minus_one() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((correlation(&a, &b).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_rejects_mismatched_lengths() {
        assert!(correlation(&[1.0], &[1.0, 2.0]).is_err());
    }

    proptest! {
        #[test]
        fn median_equals_the_sorted_order_statistic(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
            dup in proptest::collection::vec(-3i8..3, 0..40),
        ) {
            // Mixes in small integers so ties and repeats occur.
            let xs: Vec<f64> = xs.into_iter().chain(dup.into_iter().map(f64::from)).collect();
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(median(&xs) == sorted[xs.len() / 2]);
        }

        #[test]
        fn rms_is_nonnegative_and_bounded_by_max_abs(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..200)
        ) {
            let r = rms(&xs);
            let max_abs = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            prop_assert!(r >= 0.0);
            prop_assert!(r <= max_abs + 1e-9);
        }

        #[test]
        fn normalized_l2_has_unit_norm(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..100)
        ) {
            prop_assume!(xs.iter().any(|&x| x.abs() > 1e-6));
            let mut ys = xs.clone();
            normalize_l2(&mut ys);
            let n: f64 = ys.iter().map(|y| y * y).sum::<f64>().sqrt();
            prop_assert!((n - 1.0).abs() < 1e-9);
        }

        #[test]
        fn correlation_is_within_unit_interval(
            a in proptest::collection::vec(-100.0f64..100.0, 4..64),
        ) {
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            let c = correlation(&a, &b).unwrap();
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        }
    }
}
