//! One fabricated die with both measurement channels.

use crate::scope::Oscilloscope;
use crate::variation::ProcessVariation;
use crate::SiliconError;
use emtrust_em::coil::Coil;
use emtrust_em::emf::VoltageTrace;
use emtrust_em::noise::NoiseModel;
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

/// A fabricated die: a placed netlist with one specific process-variation
/// draw, measurable through both channels.
#[derive(Debug)]
pub struct FabricatedChip {
    chip_id: u64,
    floorplan: Floorplan,
    onchip: EmSensor,
    external: EmSensor,
    onchip_scope: Oscilloscope,
    external_scope: Oscilloscope,
}

impl FabricatedChip {
    /// "Fabricates" chip number `chip_id` of `netlist`: sizes and places
    /// the die, draws the chip's process variation, builds both coils and
    /// their coupling kernels, and attaches the default oscilloscope
    /// channels.
    ///
    /// # Errors
    ///
    /// Propagates layout and EM-pipeline construction errors.
    pub fn fabricate(
        netlist: &Netlist,
        chip_id: u64,
        variation: ProcessVariation,
    ) -> Result<Self, SiliconError> {
        let library = Library::generic_180nm();
        let die = Die::for_netlist(netlist, &library, 0.7)?;
        let floorplan = Floorplan::place(netlist, &library, die)?;
        let model = CurrentModel::new(library, ClockConfig::reference());
        let mut onchip = EmSensor::new(
            Coil::OnChip(SpiralSensor::for_die(die)?),
            netlist,
            &floorplan,
            model.clone(),
        )?;
        let mut external = EmSensor::new(
            Coil::External(ExternalProbe::over_die(die)),
            netlist,
            &floorplan,
            model,
        )?;
        let factors = variation.factors(chip_id, netlist.cell_count());
        onchip.scale_weights(&factors)?;
        external.scale_weights(&factors)?;
        Ok(Self {
            chip_id,
            floorplan,
            onchip,
            external,
            onchip_scope: Oscilloscope::onchip_channel(),
            external_scope: Oscilloscope::external_channel(),
        })
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
            Channel::OnChipSensor => self.onchip_scope = scope,
            Channel::ExternalProbe => self.external_scope = scope,
        }
    }

    fn scope(&self, channel: Channel) -> &Oscilloscope {
        match channel {
            Channel::OnChipSensor => &self.onchip_scope,
            Channel::ExternalProbe => &self.external_scope,
        }
    }

    /// A full bench measurement of recorded activity: emf → environment
    /// noise → oscilloscope front-end.
    ///
    /// # Errors
    ///
    /// Propagates power/EM pipeline errors.
    pub fn measure(
        &self,
        netlist: &Netlist,
        activity: &ActivityTrace,
        channel: Channel,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        seed: u64,
    ) -> Result<VoltageTrace, SiliconError> {
        self.measure_with(
            netlist,
            activity,
            channel,
            extra_leakage_a,
            injections,
            seed,
            1,
        )
    }

    /// [`Self::measure`] with current synthesis fanned across `workers`
    /// threads. Noise and scope randomness are seeded from `seed` and the
    /// chip id alone, so the result is bit-identical for every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates power/EM pipeline errors.
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
        let _span = emtrust_telemetry::span("silicon_measure");
        let emf = self.sensor(channel).emf_with(
            netlist,
            activity,
            extra_leakage_a,
            injections,
            workers,
        )?;
        Ok(self.acquire(channel, emf, seed))
    }

    /// [`Self::measure`] of binned activity, made with the channel's
    /// [`EmSensor::charge_table`]: the measurement a streamed acquisition
    /// starts from.
    ///
    /// # Errors
    ///
    /// Propagates power/EM pipeline errors.
    pub fn measure_bins(
        &self,
        bins: &ChargeBins,
        channel: Channel,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        seed: u64,
    ) -> Result<VoltageTrace, SiliconError> {
        let _span = emtrust_telemetry::span("silicon_measure");
        let emf = self
            .sensor(channel)
            .emf_bins(bins, extra_leakage_a, injections)?;
        Ok(self.acquire(channel, emf, seed))
    }

    /// Environment noise and the scope front-end on a noiseless emf.
    fn acquire(&self, channel: Channel, mut emf: VoltageTrace, seed: u64) -> VoltageTrace {
        let sensor = self.sensor(channel);
        NoiseModel::environment_for(sensor.coil(), seed ^ self.chip_id).add_to(&mut emf);
        self.scope(channel)
            .acquire(&emf, seed.wrapping_mul(31) ^ self.chip_id)
    }

    /// The paper's noise-measurement step: chip powered, encryption idle.
    pub fn measure_noise(&self, channel: Channel, n_samples: usize, seed: u64) -> VoltageTrace {
        let sensor = self.sensor(channel);
        let mut trace = VoltageTrace::new(
            vec![0.0; n_samples],
            sensor.model().clock().sample_rate_hz(),
        );
        NoiseModel::environment_for(sensor.coil(), seed ^ self.chip_id).add_to(&mut trace);
        self.scope(channel)
            .acquire(&trace, seed.wrapping_mul(31) ^ self.chip_id)
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
        let act = activity(&n, 8);
        let on = chip
            .sensor(Channel::OnChipSensor)
            .emf(&n, &act, None, &[])
            .unwrap();
        let ext = chip
            .sensor(Channel::ExternalProbe)
            .emf(&n, &act, None, &[])
            .unwrap();
        assert!(on.rms_v() > 3.0 * ext.rms_v());
    }

    #[test]
    fn measurement_includes_noise_and_is_seed_deterministic() {
        let n = bank_netlist(16);
        let chip = FabricatedChip::fabricate(&n, 1, ProcessVariation::nominal()).unwrap();
        let act = activity(&n, 4);
        let a = chip
            .measure(&n, &act, Channel::OnChipSensor, None, &[], 5)
            .unwrap();
        let b = chip
            .measure(&n, &act, Channel::OnChipSensor, None, &[], 5)
            .unwrap();
        let c = chip
            .measure(&n, &act, Channel::OnChipSensor, None, &[], 6)
            .unwrap();
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
            let binned = chip.measure_bins(&bins, channel, None, &[], 8).unwrap();
            let recorded = chip.measure(&n, &act, channel, None, &[], 8).unwrap();
            assert_eq!(binned, recorded, "{channel:?}");
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
        let act = activity(&n, 4);
        let before = chip
            .measure(&n, &act, Channel::OnChipSensor, None, &[], 2)
            .unwrap();
        chip.set_scope(Channel::OnChipSensor, noisy);
        let after = chip
            .measure(&n, &act, Channel::OnChipSensor, None, &[], 2)
            .unwrap();
        assert!(after.rms_v() > before.rms_v());
    }

    #[test]
    fn variation_perturbs_the_signal_slightly() {
        let n = bank_netlist(64);
        let act = activity(&n, 8);
        let ideal = FabricatedChip::fabricate(&n, 3, ProcessVariation::none()).unwrap();
        let real = FabricatedChip::fabricate(&n, 3, ProcessVariation::nominal()).unwrap();
        let a = ideal
            .sensor(Channel::OnChipSensor)
            .emf(&n, &act, None, &[])
            .unwrap();
        let b = real
            .sensor(Channel::OnChipSensor)
            .emf(&n, &act, None, &[])
            .unwrap();
        let ratio = b.rms_v() / a.rms_v();
        assert!((0.8..1.2).contains(&ratio), "variation ratio {ratio}");
        assert_ne!(a.samples(), b.samples());
    }
}
