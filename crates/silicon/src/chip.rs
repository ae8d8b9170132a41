//! One die of the reference design with both measurement channels.

use crate::scope::Oscilloscope;
use crate::variation::ProcessVariation;
use crate::SiliconError;
use emtrust_em::coil::Coil;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::pipeline::{EmSensor, PointCurrentSource};
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::probe::ExternalProbe;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::graph::Netlist;
use emtrust_netlist::library::Library;
use emtrust_power::{ChargeBins, ClockConfig, CurrentModel};
use emtrust_sim::activity::ActivityTrace;

/// Which measurement channel to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// The on-chip spiral sensor (`Sensor In`/`Sensor Out` pads).
    OnChipSensor,
    /// The external probe above the package.
    ExternalProbe,
}

/// The reference physical design of `netlist`: a die sized for 0.7
/// utilization in the generic 180 nm library, the netlist placed on it,
/// and the library's power model at the reference clock. Every die and
/// every sensor array lays its netlist out this way.
///
/// # Errors
///
/// Propagates die-sizing and placement errors.
pub fn reference_design(netlist: &Netlist) -> Result<(Floorplan, CurrentModel), SiliconError> {
    let library = Library::generic_180nm();
    let die = Die::for_netlist(netlist, &library, 0.7)?;
    let floorplan = Floorplan::place(netlist, &library, die)?;
    Ok((
        floorplan,
        CurrentModel::new(library, ClockConfig::reference()),
    ))
}

/// A die of the reference design, measurable through both channels: the
/// ideal die of the paper's simulation (§IV), or a fabricated one with
/// its own process-variation draw behind oscilloscope front-ends (§V).
#[derive(Debug)]
pub struct FabricatedChip {
    chip_id: u64,
    floorplan: Floorplan,
    onchip: EmSensor,
    external: EmSensor,
    onchip_scope: Option<Oscilloscope>,
    external_scope: Option<Oscilloscope>,
}

impl FabricatedChip {
    /// The ideal die of `netlist` (paper §IV): chip id 0, nominal cells
    /// and no oscilloscope, so a measurement is the emf plus environment
    /// noise.
    ///
    /// # Errors
    ///
    /// Propagates layout and EM-pipeline construction errors.
    pub fn ideal(netlist: &Netlist) -> Result<Self, SiliconError> {
        let (floorplan, model) = reference_design(netlist)?;
        let die = floorplan.die();
        let onchip = EmSensor::new(
            Coil::OnChip(SpiralSensor::for_die(die)?),
            netlist,
            &floorplan,
            model,
        )?;
        // The probe reweights the spiral's table: one compile per die.
        let external = onchip.for_coil(
            Coil::External(ExternalProbe::over_die(die)),
            netlist,
            &floorplan,
        )?;
        Ok(Self {
            chip_id: 0,
            floorplan,
            onchip,
            external,
            onchip_scope: None,
            external_scope: None,
        })
    }

    /// "Fabricates" chip number `chip_id` of `netlist`: the ideal die
    /// with the chip's process-variation draw applied to both channels'
    /// weights and the default oscilloscope channels attached.
    ///
    /// # Errors
    ///
    /// Propagates layout and EM-pipeline construction errors.
    pub fn fabricate(
        netlist: &Netlist,
        chip_id: u64,
        variation: ProcessVariation,
    ) -> Result<Self, SiliconError> {
        let mut chip = Self::ideal(netlist)?;
        let factors = variation.factors(chip_id, netlist.cell_count());
        chip.onchip.scale_weights(&factors)?;
        chip.external.scale_weights(&factors)?;
        chip.chip_id = chip_id;
        chip.onchip_scope = Some(Oscilloscope::onchip_channel());
        chip.external_scope = Some(Oscilloscope::external_channel());
        Ok(chip)
    }

    /// This die's serial number.
    pub fn chip_id(&self) -> u64 {
        self.chip_id
    }

    /// The placed floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The EM channel for `channel` (pre-scope).
    pub fn sensor(&self, channel: Channel) -> &EmSensor {
        match channel {
            Channel::OnChipSensor => &self.onchip,
            Channel::ExternalProbe => &self.external,
        }
    }

    /// Replaces a channel's oscilloscope front-end.
    pub fn set_scope(&mut self, channel: Channel, scope: Oscilloscope) {
        match channel {
            Channel::OnChipSensor => self.onchip_scope = Some(scope),
            Channel::ExternalProbe => self.external_scope = Some(scope),
        }
    }

    /// A full bench measurement of binned activity, made with the
    /// channel's [`EmSensor::charge_table`]: [`EmSensor::measure`] (emf
    /// and environment noise), then the channel's oscilloscope, if any.
    /// Noise and scope randomness are seeded from `seed` and the chip id
    /// alone.
    ///
    /// # Errors
    ///
    /// Propagates power/EM pipeline errors.
    pub fn measure(
        &self,
        bins: &ChargeBins,
        channel: Channel,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        seed: u64,
    ) -> Result<VoltageTrace, SiliconError> {
        let trace =
            self.sensor(channel)
                .measure(bins, extra_leakage_a, injections, seed ^ self.chip_id)?;
        Ok(self.digitize(channel, trace, seed))
    }

    /// [`Self::measure`] of a stored recording of `netlist`, binned with
    /// the channel's table across `workers` threads; the result is
    /// bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Fails on a netlist other than the one the chip was fabricated
    /// from, and propagates power/EM pipeline errors.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_with(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        channel: Channel,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        seed: u64,
        workers: usize,
    ) -> Result<VoltageTrace, SiliconError> {
        let table = self.sensor(channel).charge_table();
        if netlist.cell_count() != table.cells() {
            let (expected, actual) = (netlist.cell_count(), table.cells());
            let mismatch = emtrust_power::PowerError::LengthMismatch { expected, actual };
            return Err(SiliconError::Em(mismatch.into()));
        }
        let bins = table.bin_trace(activity, workers);
        self.measure(&bins, channel, extra_leakage_a, injections, seed)
    }

    /// The paper's noise-measurement step: chip powered, encryption idle.
    pub fn measure_noise(&self, channel: Channel, n_samples: usize, seed: u64) -> VoltageTrace {
        let noise = self
            .sensor(channel)
            .measure_noise(n_samples, seed ^ self.chip_id);
        self.digitize(channel, noise, seed)
    }

    /// The channel's oscilloscope front-end on a measured trace; the
    /// trace itself on a channel without one.
    fn digitize(&self, channel: Channel, trace: VoltageTrace, seed: u64) -> VoltageTrace {
        let scope = match channel {
            Channel::OnChipSensor => &self.onchip_scope,
            Channel::ExternalProbe => &self.external_scope,
        };
        match scope {
            Some(scope) => scope.acquire(&trace, seed.wrapping_mul(31) ^ self.chip_id),
            None => trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_sim::engine::Simulator;

    fn bank_netlist(flops: usize) -> Netlist {
        let mut n = Netlist::new("bank");
        n.push_module("aes");
        for _ in 0..flops {
            let (q, d) = n.dff_deferred();
            let nq = n.not(q);
            n.connect_dff_d(d, nq);
            n.mark_output("q", q);
        }
        n.pop_module();
        n
    }

    fn activity(n: &Netlist, cycles: usize) -> ActivityTrace {
        let mut sim = Simulator::new(n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.run(cycles);
        sim.take_recording()
    }

    /// `cycles` recorded cycles of `n`, binned with `channel`'s table.
    fn bins(chip: &FabricatedChip, channel: Channel, n: &Netlist, cycles: usize) -> ChargeBins {
        chip.sensor(channel)
            .charge_table()
            .bin_trace(&activity(n, cycles), 1)
    }

    #[test]
    fn fabrication_succeeds_and_chips_differ() {
        let n = bank_netlist(64);
        let a = FabricatedChip::fabricate(&n, 1, ProcessVariation::nominal()).unwrap();
        let b = FabricatedChip::fabricate(&n, 2, ProcessVariation::nominal()).unwrap();
        assert_eq!(a.chip_id(), 1);
        // Different dies have different per-cell weights.
        assert_ne!(
            a.sensor(Channel::OnChipSensor).weights(),
            b.sensor(Channel::OnChipSensor).weights()
        );
    }

    #[test]
    fn onchip_channel_sees_more_signal_than_external() {
        let n = bank_netlist(64);
        let chip = FabricatedChip::fabricate(&n, 7, ProcessVariation::none()).unwrap();
        let emf = |channel| {
            let bins = bins(&chip, channel, &n, 8);
            chip.sensor(channel).emf(&bins, None, &[]).unwrap()
        };
        let (on, ext) = (emf(Channel::OnChipSensor), emf(Channel::ExternalProbe));
        assert!(on.rms_v() > 3.0 * ext.rms_v());
    }

    #[test]
    fn measurement_includes_noise_and_is_seed_deterministic() {
        let n = bank_netlist(16);
        let chip = FabricatedChip::fabricate(&n, 1, ProcessVariation::nominal()).unwrap();
        let bins = bins(&chip, Channel::OnChipSensor, &n, 4);
        let measure = |seed| {
            chip.measure(&bins, Channel::OnChipSensor, None, &[], seed)
                .unwrap()
        };
        let (a, b, c) = (measure(5), measure(5), measure(6));
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn binned_measurement_equals_the_recorded_one_on_both_channels() {
        let n = bank_netlist(16);
        let chip = FabricatedChip::fabricate(&n, 3, ProcessVariation::nominal()).unwrap();
        let act = activity(&n, 5);
        for channel in [Channel::OnChipSensor, Channel::ExternalProbe] {
            let bins = chip.sensor(channel).charge_table().bin_trace(&act, 1);
            let binned = chip.measure(&bins, channel, None, &[], 8).unwrap();
            for workers in [1, 3] {
                let recorded = chip.measure_with(&n, &act, channel, None, &[], 8, workers);
                assert_eq!(binned, recorded.unwrap(), "{channel:?}, {workers} workers");
            }
        }
        let other = bank_netlist(17);
        let recorded = chip.measure_with(&other, &act, Channel::OnChipSensor, None, &[], 8, 1);
        assert!(
            recorded.is_err(),
            "a netlist other than the chip's must be refused"
        );
    }

    #[test]
    fn die_tables_bin_like_tables_compiled_from_their_weights() {
        let n = bank_netlist(16);
        let chip = FabricatedChip::fabricate(&n, 3, ProcessVariation::nominal()).unwrap();
        let act = activity(&n, 5);
        for channel in [Channel::OnChipSensor, Channel::ExternalProbe] {
            let sensor = chip.sensor(channel);
            let fresh = sensor
                .model()
                .charge_table(&n, &[Some(sensor.weights())])
                .unwrap();
            let got = sensor.charge_table().bin_trace(&act, 1);
            let expected = fresh.bin_trace(&act, 1);
            assert_eq!(got, expected, "{channel:?}");
            let render = |table: &emtrust_power::ChargeTable| table.render(&got, None).unwrap();
            assert_eq!(render(sensor.charge_table()), render(&fresh), "{channel:?}");
        }
    }

    #[test]
    fn ideal_die_measures_emf_plus_environment_noise() {
        use emtrust_em::noise::NoiseModel;
        let n = bank_netlist(16);
        let chip = FabricatedChip::ideal(&n).unwrap();
        assert_eq!(chip.chip_id(), 0);
        for channel in [Channel::OnChipSensor, Channel::ExternalProbe] {
            let bins = bins(&chip, channel, &n, 4);
            let sensor = chip.sensor(channel);
            let mut expected = sensor.emf(&bins, None, &[]).unwrap();
            NoiseModel::environment_for(sensor.coil(), 9).add_to(&mut expected);
            let got = chip.measure(&bins, channel, None, &[], 9).unwrap();
            assert_eq!(got, expected, "{channel:?}: no scope, no quantization");
            let mut noise = VoltageTrace::new(vec![0.0; 256], got.sample_rate_hz());
            NoiseModel::environment_for(sensor.coil(), 9).add_to(&mut noise);
            assert_eq!(chip.measure_noise(channel, 256, 9), noise, "{channel:?}");
        }
    }

    #[test]
    fn noise_measurement_is_nonzero_but_small() {
        let n = bank_netlist(16);
        let chip = FabricatedChip::fabricate(&n, 1, ProcessVariation::nominal()).unwrap();
        let noise = chip.measure_noise(Channel::OnChipSensor, 8192, 1);
        assert!(noise.rms_v() > 1e-9);
        assert!(noise.rms_v() < 1e-6);
    }

    #[test]
    fn scope_can_be_replaced() {
        let n = bank_netlist(16);
        let mut chip = FabricatedChip::fabricate(&n, 1, ProcessVariation::none()).unwrap();
        let noisy = Oscilloscope::new(250e6, 1e-6, 12, 1e-3).unwrap();
        let bins = bins(&chip, Channel::OnChipSensor, &n, 4);
        let before = chip
            .measure(&bins, Channel::OnChipSensor, None, &[], 2)
            .unwrap();
        chip.set_scope(Channel::OnChipSensor, noisy);
        let after = chip
            .measure(&bins, Channel::OnChipSensor, None, &[], 2)
            .unwrap();
        assert!(after.rms_v() > before.rms_v());
    }

    #[test]
    fn variation_perturbs_the_signal_slightly() {
        let n = bank_netlist(64);
        let ideal = FabricatedChip::fabricate(&n, 3, ProcessVariation::none()).unwrap();
        let real = FabricatedChip::fabricate(&n, 3, ProcessVariation::nominal()).unwrap();
        let emf = |chip: &FabricatedChip| {
            let bins = bins(chip, Channel::OnChipSensor, &n, 8);
            chip.sensor(Channel::OnChipSensor)
                .emf(&bins, None, &[])
                .unwrap()
        };
        let (a, b) = (emf(&ideal), emf(&real));
        let ratio = b.rms_v() / a.rms_v();
        assert!((0.8..1.2).contains(&ratio), "variation ratio {ratio}");
        assert_ne!(a.samples(), b.samples());
    }
}
