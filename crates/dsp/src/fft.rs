//! Iterative radix-2 fast Fourier transform.
//!
//! The trust-evaluation framework inspects EM traces in the frequency domain
//! (paper §III-E and Fig. 4/Fig. 6 i–l), so the FFT is a load-bearing
//! substrate. This implementation is the classic Cooley–Tukey
//! decimation-in-time transform with an in-place bit-reversal permutation.

use crate::DspError;

/// A complex number over `f64`.
///
/// A deliberately small, local type: the crate does not pull in a numerics
/// dependency for the handful of operations the FFT needs.
///
/// # Examples
///
/// ```
/// use emtrust_dsp::fft::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub const ZERO: Self = Self::new(0.0, 0.0);

    /// `e^{iθ}` for a phase `theta` in radians.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Scales both parts by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

/// Performs an in-place forward FFT on `buf`.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `buf.len()` is not a power of two,
/// and [`DspError::EmptyInput`] if it is empty.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), emtrust_dsp::DspError> {
/// use emtrust_dsp::fft::{fft_in_place, Complex};
///
/// // A DC signal concentrates all energy in bin 0.
/// let mut buf = vec![Complex::new(1.0, 0.0); 8];
/// fft_in_place(&mut buf)?;
/// assert!((buf[0].re - 8.0).abs() < 1e-12);
/// assert!(buf[1..].iter().all(|c| c.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(buf: &mut [Complex]) -> Result<(), DspError> {
    emtrust_telemetry::counter("fft.transforms", 1);
    transform(buf, Direction::Forward)
}

/// Performs an in-place inverse FFT on `buf`, including the `1/N` scaling.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `buf.len()` is not a power of two,
/// and [`DspError::EmptyInput`] if it is empty.
pub fn ifft_in_place(buf: &mut [Complex]) -> Result<(), DspError> {
    transform(buf, Direction::Inverse)?;
    let scale = 1.0 / buf.len() as f64;
    for c in buf.iter_mut() {
        *c = c.scale(scale);
    }
    Ok(())
}

/// Computes the FFT of a real-valued signal, returning the complex bins.
///
/// The output has the same length as the input; bins above `N/2` mirror the
/// lower half (conjugate symmetry).
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `signal.len()` is not a power of
/// two, and [`DspError::EmptyInput`] if it is empty.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

/// Returns the next power of two `>= n` (and `>= 1`).
///
/// Useful for choosing FFT sizes for arbitrary-length traces: callers
/// zero-pad up to this length.
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

fn transform(buf: &mut [Complex], dir: Direction) -> Result<(), DspError> {
    let n = buf.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !n.is_power_of_two() {
        return Err(DspError::NotPowerOfTwo { len: n });
    }
    if n == 1 {
        return Ok(());
    }

    bit_reverse_permute(buf);

    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };

    // Per-stage twiddle table. The factors are generated with the same
    // `w = w * wlen` recurrence the butterflies used to run inline, so
    // every value — and therefore every output bit — is unchanged; but
    // hoisting them out of the butterfly loop removes the loop-carried
    // complex multiply, leaving an inner loop of independent
    // load/multiply/add triples the compiler can pipeline and vectorize.
    let mut twiddles: Vec<Complex> = Vec::with_capacity(n / 2);

    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        let half = len / 2;
        twiddles.clear();
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..half {
            twiddles.push(w);
            w = w * wlen;
        }
        let mut i = 0;
        while i < n {
            // Split the block into its even/odd halves so the inner loop
            // indexes three parallel slices with no aliasing and no
            // cross-iteration dependency.
            let (lo, hi) = buf[i..i + len].split_at_mut(half);
            for ((a, b), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(&twiddles) {
                let u = *a;
                let v = *b * tw;
                *a = u + v;
                *b = u - v;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

fn bit_reverse_permute(buf: &mut [Complex]) {
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The O(N²) DFT, the oracle for every fast transform in the crate.
    pub(crate) fn naive_dft(signal: &[f64]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (t, &x) in signal.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc + Complex::from_polar_unit(ang).scale(x);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let signal: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let fast = fft_real(&signal).unwrap();
        let slow = naive_dft(&signal);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.im - b.im).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pure_tone_lands_in_its_bin() {
        let n = 256;
        let k = 17;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64).cos())
            .collect();
        let bins = fft_real(&signal).unwrap();
        // cos splits between bins k and n-k, each of magnitude n/2.
        assert!((bins[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((bins[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, b) in bins.iter().enumerate() {
            if i != k && i != n - k {
                assert!(b.abs() < 1e-9, "bin {i} = {}", b.abs());
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let err = fft_real(&[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err, DspError::NotPowerOfTwo { len: 3 });
    }

    #[test]
    fn rejects_empty() {
        let err = fft_real(&[]).unwrap_err();
        assert_eq!(err, DspError::EmptyInput);
    }

    #[test]
    fn single_element_is_identity() {
        let bins = fft_real(&[42.0]).unwrap();
        assert_eq!(bins.len(), 1);
        assert!((bins[0].re - 42.0).abs() < 1e-15);
    }

    #[test]
    fn real_input_has_conjugate_symmetry() {
        let signal: Vec<f64> = (0..32).map(|i| (i as f64 * 0.37).sin()).collect();
        let bins = fft_real(&signal).unwrap();
        for k in 1..16 {
            let a = bins[k];
            let b = bins[32 - k].conj();
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!((z.abs() - 5.0).abs() < 1e-15);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-15);
        assert_eq!(z.conj().im, 4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z.scale(2.0), Complex::new(6.0, -8.0));
    }

    /// The pre-table transform: twiddles generated by the same recurrence
    /// but inline in the butterfly loop. The production transform must
    /// reproduce this bit for bit.
    fn reference_transform(buf: &mut [Complex], sign: f64) {
        let n = buf.len();
        bit_reverse_permute(buf);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar_unit(ang);
            let mut i = 0;
            while i < n {
                let mut w = Complex::new(1.0, 0.0);
                for j in 0..len / 2 {
                    let u = buf[i + j];
                    let v = buf[i + j + len / 2] * w;
                    buf[i + j] = u + v;
                    buf[i + j + len / 2] = u - v;
                    w = w * wlen;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    proptest! {
        #[test]
        fn table_fft_is_bit_identical_to_scalar_reference(
            signal in proptest::collection::vec(-100.0f64..100.0, 128..=128),
        ) {
            let mut fast: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
            let mut slow = fast.clone();
            fft_in_place(&mut fast).unwrap();
            reference_transform(&mut slow, -1.0);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }

        #[test]
        fn ifft_inverts_fft(signal in proptest::collection::vec(-100.0f64..100.0, 1..=128)) {
            // Round length down to a power of two.
            let n = 1usize << (usize::BITS - 1 - signal.len().leading_zeros());
            let signal = &signal[..n];
            let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
            fft_in_place(&mut buf).unwrap();
            ifft_in_place(&mut buf).unwrap();
            for (orig, round) in signal.iter().zip(&buf) {
                prop_assert!((orig - round.re).abs() < 1e-9);
                prop_assert!(round.im.abs() < 1e-9);
            }
        }

        #[test]
        fn parseval_energy_is_conserved(signal in proptest::collection::vec(-10.0f64..10.0, 64..=64)) {
            let time_energy: f64 = signal.iter().map(|x| x * x).sum();
            let bins = fft_real(&signal).unwrap();
            let freq_energy: f64 = bins.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }
    }
}
