//! Environment noise.
//!
//! "Random white noise is also added in the simulation to mimic the
//! real-world environment noises. […] The external probe is inevitable to
//! be disturbed by environmental noises in collecting EM radiations, while
//! the proposed on-chip EM sensor is less affected." (paper §IV-B)
//!
//! The two calibrated constants below are the reproduction's only tuned
//! values (documented in DESIGN.md): they set the absolute noise floors so
//! that the simulated SNR experiment (E2) lands near the paper's
//! 29.976 dB / 17.483 dB. Everything downstream — detection outcomes,
//! orderings, histogram separability — follows without further tuning.

use crate::coil::Coil;
use crate::emf::VoltageTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Calibrated environment-noise RMS seen by the on-chip sensor, volts.
///
/// Small: the sensor sits under the package, shielded from the ambient.
/// Calibrated so E2's on-chip SNR lands at the paper's 29.976 dB for the
/// reference AES workload (signal RMS ≈ 2.0 µV).
pub const ONCHIP_ENV_NOISE_RMS_V: f64 = 6.34e-8;

/// Calibrated environment-noise RMS seen by the external probe, volts.
///
/// The probe's long unshielded loop picks up lab ambience; relative to its
/// (much weaker, ≈0.21 µV) signal this is a far larger perturbation.
/// Calibrated so E2's external SNR lands at the paper's 17.483 dB.
pub const EXTERNAL_ENV_NOISE_RMS_V: f64 = 2.85e-8;

/// Additive white Gaussian noise with a fixed RMS.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    rms_v: f64,
    rng: StdRng,
}

impl NoiseModel {
    /// Creates a noise source with the given RMS (volts) and seed.
    ///
    /// # Panics
    ///
    /// Panics if `rms_v` is negative.
    pub fn new(rms_v: f64, seed: u64) -> Self {
        assert!(rms_v >= 0.0, "noise rms must be non-negative");
        Self {
            rms_v,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The calibrated environment noise for a coil.
    pub fn environment_for(coil: &Coil, seed: u64) -> Self {
        let rms = match coil {
            Coil::OnChip(_) => ONCHIP_ENV_NOISE_RMS_V,
            Coil::External(_) => EXTERNAL_ENV_NOISE_RMS_V,
        };
        Self::new(rms, seed)
    }

    /// The configured RMS in volts.
    pub fn rms_v(&self) -> f64 {
        self.rms_v
    }

    /// Draws `n` noise samples.
    pub fn samples(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_sample()).collect()
    }

    /// Adds noise to a voltage trace in place.
    pub fn add_to(&mut self, trace: &mut VoltageTrace) {
        for s in trace.samples_mut() {
            *s += self.next_sample();
        }
    }

    /// One Gaussian sample with the configured RMS (Box–Muller). Kept
    /// apart from [`standard_normal`]: scaling its result by the RMS
    /// rounds differently and would move every measured trace.
    fn next_sample(&mut self) -> f64 {
        if self.rms_v == 0.0 {
            return 0.0;
        }
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        self.rms_v * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// One standard normal draw from `rng` (Box–Muller, cosine half): the
/// Gaussian sampler of the scope, the process variation and the supply
/// sense noise. Inlined so their per-sample loops keep it in line across
/// the crate boundary.
#[inline]
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_dsp::stats::{mean, rms};

    #[test]
    fn noise_has_the_requested_rms() {
        let mut n = NoiseModel::new(2.5, 1);
        let s = n.samples(100_000);
        assert!((rms(&s) - 2.5).abs() < 0.05, "rms {}", rms(&s));
        assert!(mean(&s).abs() < 0.05);
    }

    #[test]
    fn zero_rms_is_silent() {
        let mut n = NoiseModel::new(0.0, 1);
        assert!(n.samples(100).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn seeding_is_deterministic() {
        let a = NoiseModel::new(1.0, 7).samples(64);
        let b = NoiseModel::new(1.0, 7).samples(64);
        let c = NoiseModel::new(1.0, 8).samples(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn add_to_perturbs_a_trace() {
        let mut v = VoltageTrace::new(vec![0.0; 256], 1.0);
        NoiseModel::new(0.1, 3).add_to(&mut v);
        assert!(v.rms_v() > 0.05);
    }

    #[test]
    fn environment_constants_reflect_the_papers_asymmetry() {
        use emtrust_layout::floorplan::Die;
        use emtrust_layout::probe::ExternalProbe;
        use emtrust_layout::spiral::SpiralSensor;
        let die = Die::square(600.0).unwrap();
        let on = NoiseModel::environment_for(&Coil::OnChip(SpiralSensor::for_die(die).unwrap()), 0);
        let ext = NoiseModel::environment_for(&Coil::External(ExternalProbe::over_die(die)), 0);
        assert_eq!(on.rms_v(), ONCHIP_ENV_NOISE_RMS_V);
        assert_eq!(ext.rms_v(), EXTERNAL_ENV_NOISE_RMS_V);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rms_is_rejected() {
        let _ = NoiseModel::new(-1.0, 0);
    }
}
