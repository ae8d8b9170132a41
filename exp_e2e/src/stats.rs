//! Order statistics over op latencies and the FNV decision digest.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile that is backed by data: the sample count beyond it
/// is large enough to say something about the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

/// Percentiles tried from the highest down, in tenths of a percent so
/// that ranks are exact integers.
const TAIL_LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER_PER_MILLE`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank; `None` when even
/// the median lacks them (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER_PER_MILLE.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// FNV-1a over the run's decisions: only outputs that float rounding
/// cannot move (alarm bits, verdict labels, region names, toggle totals,
/// ciphertexts, counters) are fed in, so an optimisation that keeps the
/// physics bit-identical keeps the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn bool(&mut self, value: bool) {
        self.bytes(&[u8::from(value)]);
    }

    pub fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: not even the median has ten beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: only the median qualifies (rank 10, 10 beyond).
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&twenty),
            Some(Tail {
                percentile: 50.0,
                value: 10.0,
                beyond: 10
            })
        );
        // 1000 samples: p99.9 has one beyond, p99 has exactly ten.
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            tail(&many),
            Some(Tail {
                percentile: 99.0,
                value: 990.0,
                beyond: 10
            })
        );
        // 10 000 samples: p99.9 qualifies.
        let lots: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&lots).map(|t| t.percentile), Some(99.9));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Digest::default();
        a.str("ab");
        a.u64(1);
        let mut b = Digest::default();
        b.u64(1);
        b.str("ab");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.str("ab");
        c.u64(1);
        assert_eq!(a, c);
    }
}
