//! Prior-art comparison bench: global power fingerprinting.
//!
//! (Formerly the `baseline` module — renamed so the [`crate::baseline`]
//! contract, which decides where a detector's notion of "normal" comes
//! from, owns that name. This module is the Agrawal-style *power*
//! baseline the paper compares against.)
//!
//! The side-channel prior art the paper positions itself against
//! (Agrawal et al., "Trojan detection using IC fingerprinting", S&P 2007
//! — reference \[3\]) measures the chip's *total supply current* and
//! fingerprints it, with no spatial information. This module implements
//! that baseline over the same substrate so the two approaches can be
//! compared head to head:
//!
//! - the EM sensor sees `Σ_c k_c·dI_c/dt` — per-cell currents weighted by
//!   *where* they flow, with the spiral's strong spatial kernel,
//! - the power baseline sees `Σ_c I_c` — everything summed into one
//!   terminal, plus the (proportionally larger) supply-network noise.
//!
//! Because the Trojan strip sits at the die edge where the spiral still
//! couples well but the power measurement dilutes it into the full-chip
//! current, and because a VDD pin measurement carries regulator/board
//! noise, the EM sensor retains margin where the baseline thins out.

use crate::acquisition::{Stimulus, TraceSet};
use crate::campaign::{Block, Campaign};
use crate::TrustError;
use emtrust_em::noise::standard_normal;
use emtrust_netlist::library::Library;
use emtrust_power::{ChargeTable, ClockConfig, CurrentModel};
use emtrust_trojan::{ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measurement noise on the global supply-current sense path, as a
/// fraction of the golden trace's RMS current. Board-level current
/// sensing (shunt + amplifier across the VDD pin) is far noisier,
/// relatively, than the on-die sensor: board regulators, shared-plane
/// ripple and shunt-amplifier noise together sit around a tenth of the
/// dynamic current's scale.
pub const SUPPLY_SENSE_NOISE_FRACTION: f64 = 0.10;

/// Effective bandwidth of the VDD-pin measurement, hertz. The package
/// and decoupling network integrate the die's sub-nanosecond current
/// pulses before they reach the shunt — the physical reason global power
/// fingerprinting cannot see small fast radiators the way an on-die
/// sensor can.
pub const SUPPLY_SENSE_BANDWIDTH_HZ: f64 = 20e6;

/// A global power-fingerprinting bench over a [`ProtectedChip`].
#[derive(Debug)]
pub struct PowerBaseline<'c> {
    chip: &'c ProtectedChip,
    model: CurrentModel,
    /// The unweighted charge table: the total supply current.
    table: ChargeTable,
    noise_rms_a: f64,
}

impl<'c> PowerBaseline<'c> {
    /// Builds the baseline bench and calibrates its sense-path noise to
    /// the chip's golden current level.
    ///
    /// # Errors
    ///
    /// Propagates simulation/power-model errors from the calibration run.
    pub fn new(chip: &'c ProtectedChip) -> Result<Self, TrustError> {
        let model = CurrentModel::new(Library::generic_180nm(), ClockConfig::reference());
        let table = model
            .charge_table(chip.netlist(), &[None])
            .map_err(emtrust_em::EmError::from)?;
        let mut baseline = Self {
            chip,
            model,
            table,
            noise_rms_a: 0.0,
        };
        // Calibrate: one golden block sets the current scale.
        let golden =
            baseline.collect(*b"calibration-key!", Stimulus::Fixed([0; 16]), 1, None, 0)?;
        let rms = emtrust_dsp::stats::rms(&golden.traces()[0]);
        baseline.noise_rms_a = SUPPLY_SENSE_NOISE_FRACTION * rms;
        Ok(baseline)
    }

    /// The calibrated sense-path noise RMS in amperes.
    pub fn noise_rms_a(&self) -> f64 {
        self.noise_rms_a
    }

    /// Collects `n_traces` total-supply-current traces (amperes), one per
    /// encryption — the baseline's analogue of
    /// [`crate::acquisition::TestBench::collect_with`].
    ///
    /// # Errors
    ///
    /// Propagates simulation and power-model errors.
    pub fn collect(
        &self,
        key: [u8; 16],
        stimulus: Stimulus,
        n_traces: usize,
        armed: Option<TrojanKind>,
        seed: u64,
    ) -> Result<TraceSet, TrustError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x0b5e);
        let warmup: [u8; 16] = match stimulus {
            Stimulus::Fixed(block) => block,
            Stimulus::RandomPerTrace => rng.gen(),
        };
        let plaintexts: Vec<[u8; 16]> = (0..n_traces)
            .map(|_| match stimulus {
                Stimulus::Fixed(block) => block,
                Stimulus::RandomPerTrace => rng.gen(),
            })
            .collect();
        let campaign = Campaign::new(self.chip, key, armed, Some(warmup));
        let mut traces = Vec::with_capacity(n_traces);
        campaign.record(&plaintexts, &self.table, None, |_, blocks| {
            for Block { bins, .. } in blocks {
                let trace = self
                    .table
                    .render(&bins, None)
                    .map_err(emtrust_em::EmError::from)?
                    .swap_remove(0);
                let mut samples = trace.into_samples();
                // Package/decap low-pass, then sense noise.
                let fs = self.model.clock().sample_rate_hz();
                let rc = 1.0 / (2.0 * std::f64::consts::PI * SUPPLY_SENSE_BANDWIDTH_HZ);
                let alpha = (1.0 / fs) / (rc + 1.0 / fs);
                let mut state = samples.first().copied().unwrap_or(0.0);
                for s in samples.iter_mut() {
                    state += alpha * (*s - state);
                    *s = state + self.noise_rms_a * standard_normal(&mut noise_rng);
                }
                traces.push(samples);
            }
            Ok(())
        })?;
        TraceSet::new(traces, self.model.clock().sample_rate_hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{FingerprintConfig, GoldenFingerprint};

    const KEY: [u8; 16] = *b"baseline-key-123";
    const STIM: Stimulus = Stimulus::Fixed(*b"baseline-block-1");

    #[test]
    fn baseline_collects_current_traces() {
        let chip = ProtectedChip::golden();
        let baseline = PowerBaseline::new(&chip).unwrap();
        let set = baseline.collect(KEY, STIM, 2, None, 1).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.traces()[0].len(), 12 * 64);
        // Currents are milliampere-class, positive on average.
        let mean = emtrust_dsp::stats::mean(&set.traces()[0]);
        assert!(mean > 0.0, "mean supply current must be positive");
        assert!(baseline.noise_rms_a() > 0.0);
    }

    #[test]
    fn power_baseline_catches_the_power_hog_but_misses_the_stealthy_leaker() {
        // The paper's motivation: modern Trojans are "small enough to
        // evade power consumption based fingerprinting". The global
        // power baseline must catch T4 (a deliberate power hog) yet lose
        // T3 (the stealthy CDMA leaker) — which the EM framework still
        // flags (see E3: 81-88% per-trace rate on-chip).
        use crate::acquisition::TestBench;
        use emtrust_silicon::Channel;
        let chip = ProtectedChip::with_all_trojans();

        let baseline = PowerBaseline::new(&chip).unwrap();
        let cfg = FingerprintConfig {
            pca_components: None,
            ..FingerprintConfig::default()
        };
        let golden = baseline.collect(KEY, STIM, 12, None, 2).unwrap();
        let fp = GoldenFingerprint::fit(&golden, cfg).unwrap();
        let margin = |kind| {
            let armed = baseline.collect(KEY, STIM, 8, Some(kind), 3).unwrap();
            fp.centroid_distance(&armed).unwrap() / fp.threshold()
        };
        let t4 = margin(TrojanKind::T4PowerDegrader);
        let t3 = margin(TrojanKind::T3CdmaLeaker);
        assert!(t4 > 1.0, "power baseline must catch T4 ({t4:.2})");
        assert!(
            t3 < 2.0 && t3 < t4 / 3.0,
            "power baseline must be marginal on T3 (t3 {t3:.2}, t4 {t4:.2})"
        );

        // The EM sensor's per-trace alarms still catch T3.
        let bench = TestBench::simulation(&chip).unwrap();
        let golden_em = bench
            .collect_with(KEY, STIM, 16, None, Channel::OnChipSensor, 2)
            .unwrap();
        let fp_em = GoldenFingerprint::fit(&golden_em, cfg).unwrap();
        let armed_em = bench
            .collect_with(
                KEY,
                STIM,
                8,
                Some(TrojanKind::T3CdmaLeaker),
                Channel::OnChipSensor,
                3,
            )
            .unwrap();
        let over = fp_em
            .set_distances(&armed_em)
            .unwrap()
            .into_iter()
            .filter(|&d| d > fp_em.threshold())
            .count();
        assert!(
            over * 2 >= 8,
            "EM sensor must flag the majority of T3 traces ({over}/8)"
        );
    }

    #[test]
    fn baseline_misses_the_leakage_channel() {
        // T2's *leakage* channel is a DC effect buried in the supply
        // noise; the power baseline's per-trace verdicts should be far
        // weaker on T3 (tiny radiator) than on T4.
        let chip = ProtectedChip::with_all_trojans();
        let baseline = PowerBaseline::new(&chip).unwrap();
        let cfg = FingerprintConfig {
            pca_components: None,
            ..FingerprintConfig::default()
        };
        let golden = baseline.collect(KEY, STIM, 12, None, 5).unwrap();
        let fp = GoldenFingerprint::fit(&golden, cfg).unwrap();
        let d3 = fp
            .centroid_distance(
                &baseline
                    .collect(KEY, STIM, 8, Some(TrojanKind::T3CdmaLeaker), 6)
                    .unwrap(),
            )
            .unwrap();
        let d4 = fp
            .centroid_distance(
                &baseline
                    .collect(KEY, STIM, 8, Some(TrojanKind::T4PowerDegrader), 6)
                    .unwrap(),
            )
            .unwrap();
        assert!(d4 > 3.0 * d3, "T4 ({d4:.3}) must dwarf T3 ({d3:.3})");
    }

    #[test]
    fn deterministic_per_seed() {
        let chip = ProtectedChip::golden();
        let baseline = PowerBaseline::new(&chip).unwrap();
        let a = baseline.collect(KEY, STIM, 1, None, 9).unwrap();
        let b = baseline.collect(KEY, STIM, 1, None, 9).unwrap();
        let c = baseline.collect(KEY, STIM, 1, None, 10).unwrap();
        assert_eq!(a.traces(), b.traces());
        assert_ne!(a.traces(), c.traces());
    }
}
