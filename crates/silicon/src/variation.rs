//! Per-chip process variation.
//!
//! Fabricated 180 nm dies differ from the nominal corner: a die-to-die
//! offset shifts every cell together, and within-die random variation
//! perturbs each cell independently. Both are modelled as multiplicative
//! Gaussian factors on the cell's switched charge (and hence its EM
//! contribution): `factor = (1 + die_offset) · (1 + N(0, σ_wid))`.

use emtrust_em::noise::standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default die-to-die sigma (3 %).
pub const DEFAULT_D2D_SIGMA: f64 = 0.03;

/// Default within-die sigma (2 %).
pub const DEFAULT_WID_SIGMA: f64 = 0.02;

/// A process-variation generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    d2d_sigma: f64,
    wid_sigma: f64,
}

impl ProcessVariation {
    /// Nominal 180 nm variation magnitudes.
    pub fn nominal() -> Self {
        Self {
            d2d_sigma: DEFAULT_D2D_SIGMA,
            wid_sigma: DEFAULT_WID_SIGMA,
        }
    }

    /// Custom variation magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if either sigma is negative or ≥ 0.5 (factors must stay
    /// positive).
    pub fn new(d2d_sigma: f64, wid_sigma: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&d2d_sigma) && (0.0..0.5).contains(&wid_sigma),
            "variation sigmas must be in [0, 0.5)"
        );
        Self {
            d2d_sigma,
            wid_sigma,
        }
    }

    /// A zero-variation corner (ideal silicon) — useful for isolating
    /// measurement-chain effects in tests.
    pub fn none() -> Self {
        Self {
            d2d_sigma: 0.0,
            wid_sigma: 0.0,
        }
    }

    /// Die-to-die sigma.
    pub fn d2d_sigma(&self) -> f64 {
        self.d2d_sigma
    }

    /// Within-die sigma.
    pub fn wid_sigma(&self) -> f64 {
        self.wid_sigma
    }

    /// Draws the per-cell factors for chip number `chip_id` with
    /// `n_cells` cells. Deterministic per `(chip_id, n_cells)`.
    pub fn factors(&self, chip_id: u64, n_cells: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(0x51C0_D1E5 ^ chip_id);
        let die_offset = self.d2d_sigma * standard_normal(&mut rng);
        (0..n_cells)
            .map(|_| {
                let wid = self.wid_sigma * standard_normal(&mut rng);
                ((1.0 + die_offset) * (1.0 + wid)).max(0.05)
            })
            .collect()
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_dsp::stats::{mean, std_dev};

    #[test]
    fn factors_are_near_one() {
        let v = ProcessVariation::nominal();
        let f = v.factors(1, 10_000);
        let m = mean(&f);
        assert!((m - 1.0).abs() < 0.1, "mean factor {m}");
        assert!(f.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn within_die_spread_matches_sigma() {
        let v = ProcessVariation::new(0.0, 0.02);
        let f = v.factors(3, 20_000);
        let s = std_dev(&f);
        assert!((s - 0.02).abs() < 0.003, "spread {s}");
    }

    #[test]
    fn chips_differ_but_redraws_do_not() {
        let v = ProcessVariation::nominal();
        let a = v.factors(1, 100);
        let b = v.factors(1, 100);
        let c = v.factors(2, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn die_to_die_offset_shifts_whole_chips() {
        let v = ProcessVariation::new(0.05, 0.0);
        let means: Vec<f64> = (0..20).map(|id| mean(&v.factors(id, 500))).collect();
        let spread = std_dev(&means);
        assert!(spread > 0.02, "die means must spread, got {spread}");
    }

    #[test]
    fn zero_variation_gives_unit_factors() {
        let f = ProcessVariation::none().factors(9, 64);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "sigmas")]
    fn excessive_sigma_is_rejected() {
        let _ = ProcessVariation::new(0.6, 0.0);
    }
}
