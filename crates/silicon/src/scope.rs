//! The oscilloscope front-end.
//!
//! Section V's data comes off a bench oscilloscope: finite analog
//! bandwidth, input-referred noise from the probe/cable/preamp chain, and
//! quantization. All three are modelled; their magnitudes are per-channel
//! (the external probe's chain is noisier than the bonded-out sensor
//! pair, which is why its silicon SNR drops below its simulated SNR —
//! exactly the asymmetry the paper reports in §V-A).

use crate::SiliconError;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::noise::standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An oscilloscope acquisition channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Oscilloscope {
    bandwidth_hz: f64,
    input_noise_rms_v: f64,
    bits: u32,
    full_scale_v: f64,
}

impl Oscilloscope {
    /// The channel wired to the on-chip sensor pads: short bond wires,
    /// tiny additional noise. 12-bit hi-res acquisition, ±100 µV
    /// effective range after the preamp (the emf waveform is impulsive,
    /// so the range leaves crest-factor head-room).
    pub fn onchip_channel() -> Self {
        Self {
            bandwidth_hz: 250e6,
            input_noise_rms_v: 1.0e-8,
            bits: 12,
            full_scale_v: 100e-6,
        }
    }

    /// The channel behind the external probe: long cable and RF preamp,
    /// noticeably noisier. 12-bit, ±10 µV effective range.
    pub fn external_channel() -> Self {
        Self {
            bandwidth_hz: 250e6,
            input_noise_rms_v: 3.3e-8,
            bits: 12,
            full_scale_v: 10e-6,
        }
    }

    /// A custom front-end.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] on non-positive
    /// bandwidth/full-scale, negative noise, or `bits` outside `4..=16`.
    pub fn new(
        bandwidth_hz: f64,
        input_noise_rms_v: f64,
        bits: u32,
        full_scale_v: f64,
    ) -> Result<Self, SiliconError> {
        if bandwidth_hz <= 0.0 || full_scale_v <= 0.0 {
            return Err(SiliconError::InvalidParameter {
                what: "bandwidth and full scale must be positive",
            });
        }
        if input_noise_rms_v < 0.0 {
            return Err(SiliconError::InvalidParameter {
                what: "input noise must be non-negative",
            });
        }
        if !(4..=16).contains(&bits) {
            return Err(SiliconError::InvalidParameter {
                what: "adc resolution must be 4..=16 bits",
            });
        }
        Ok(Self {
            bandwidth_hz,
            input_noise_rms_v,
            bits,
            full_scale_v,
        })
    }

    /// Analog bandwidth in hertz.
    pub fn bandwidth_hz(&self) -> f64 {
        self.bandwidth_hz
    }

    /// Input-referred noise RMS in volts.
    pub fn input_noise_rms_v(&self) -> f64 {
        self.input_noise_rms_v
    }

    /// ADC resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale range (±) in volts.
    pub fn full_scale_v(&self) -> f64 {
        self.full_scale_v
    }

    /// Acquires a trace: adds input-referred noise, applies a single-pole
    /// low-pass at the analog bandwidth, then quantizes.
    pub fn acquire(&self, input: &VoltageTrace, seed: u64) -> VoltageTrace {
        let fs = input.sample_rate_hz();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05C0_9E11);
        // Single-pole IIR: alpha = dt / (rc + dt).
        let rc = 1.0 / (2.0 * std::f64::consts::PI * self.bandwidth_hz);
        let dt = 1.0 / fs;
        let alpha = dt / (rc + dt);
        let lsb = 2.0 * self.full_scale_v / f64::from(1u32 << self.bits);
        let mut state = 0.0;
        let samples: Vec<f64> = input
            .samples()
            .iter()
            .map(|&v| {
                let noisy = v + self.input_noise_rms_v * standard_normal(&mut rng);
                state += alpha * (noisy - state);
                let clipped = state.clamp(-self.full_scale_v, self.full_scale_v);
                (clipped / lsb).round() * lsb
            })
            .collect();
        VoltageTrace::new(samples, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(amp: f64, freq: f64, fs: f64, n: usize) -> VoltageTrace {
        VoltageTrace::new(
            (0..n)
                .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
                .collect(),
            fs,
        )
    }

    #[test]
    fn in_band_signal_passes() {
        let scope = Oscilloscope::new(250e6, 0.0, 12, 1e-5).unwrap();
        let input = tone(5e-6, 10e6, 640e6, 4096);
        let out = scope.acquire(&input, 0);
        let ratio = out.rms_v() / input.rms_v();
        assert!(ratio > 0.9, "in-band attenuation {ratio}");
    }

    #[test]
    fn out_of_band_signal_is_attenuated() {
        let scope = Oscilloscope::new(10e6, 0.0, 12, 1e-5).unwrap();
        let input = tone(5e-6, 200e6, 640e6, 4096);
        let out = scope.acquire(&input, 0);
        let ratio = out.rms_v() / input.rms_v();
        assert!(ratio < 0.3, "out-of-band leakage {ratio}");
    }

    #[test]
    fn clipping_limits_the_output() {
        let scope = Oscilloscope::new(1e9, 0.0, 8, 1e-6).unwrap();
        let input = tone(10e-6, 1e6, 640e6, 2048);
        let out = scope.acquire(&input, 0);
        let max = out.samples().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max <= 1e-6 + 1e-12);
    }

    #[test]
    fn quantization_steps_are_visible_at_low_resolution() {
        let scope = Oscilloscope::new(1e9, 0.0, 4, 1.0).unwrap();
        let input = tone(0.9, 1e6, 640e6, 1024);
        let out = scope.acquire(&input, 0);
        let lsb = 2.0 / 16.0;
        for &s in out.samples() {
            let steps = s / lsb;
            assert!((steps - steps.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_floor_appears_on_silent_input() {
        let scope = Oscilloscope::new(250e6, 1e-7, 12, 1e-5).unwrap();
        let silent = VoltageTrace::new(vec![0.0; 8192], 640e6);
        let out = scope.acquire(&silent, 3);
        assert!(out.rms_v() > 2e-8, "noise floor {}", out.rms_v());
    }

    #[test]
    fn acquisition_is_deterministic_per_seed() {
        let scope = Oscilloscope::external_channel();
        let input = tone(1e-7, 5e6, 640e6, 512);
        assert_eq!(
            scope.acquire(&input, 9).samples(),
            scope.acquire(&input, 9).samples()
        );
        assert_ne!(
            scope.acquire(&input, 9).samples(),
            scope.acquire(&input, 10).samples()
        );
    }

    #[test]
    fn channel_presets_reflect_the_asymmetry() {
        let on = Oscilloscope::onchip_channel();
        let ext = Oscilloscope::external_channel();
        assert!(ext.input_noise_rms_v() > on.input_noise_rms_v());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Oscilloscope::new(0.0, 0.0, 8, 1.0).is_err());
        assert!(Oscilloscope::new(1e6, -1.0, 8, 1.0).is_err());
        assert!(Oscilloscope::new(1e6, 0.0, 2, 1.0).is_err());
        assert!(Oscilloscope::new(1e6, 0.0, 8, 0.0).is_err());
    }
}
