//! End-to-end measurement pipeline: activity → flux-weighted current →
//! emf → noisy sensor output.

use crate::coil::Coil;
use crate::coupling::{CouplingMap, DEFAULT_COUPLING_STEP_UM};
use crate::dipole::DEFAULT_DIPOLE_AREA_UM2;
use crate::emf::{emf_from_weighted_current, VoltageTrace};
use crate::noise::NoiseModel;
use crate::EmError;
use emtrust_layout::floorplan::Floorplan;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::graph::Netlist;
use emtrust_netlist::library::Library;
use emtrust_power::{ChargeBins, ChargeTable, ClockConfig, CurrentModel, CurrentTrace};

/// An analog current source at a die location — the A2 Trojan's injection
/// interface (current samples must match the pipeline's sample rate).
#[derive(Debug, Clone)]
pub struct PointCurrentSource {
    /// Die location in µm.
    pub location_um: (f64, f64),
    /// Current samples in amperes.
    pub samples: Vec<f64>,
}

/// Assembly configuration for an [`EmSensor`], replacing the pipeline's
/// historical positional constructor with the same consuming builder
/// idiom as [`emtrust_layout::probe::ExternalProbe`]
/// (`ExternalProbe::over_die(..).with_standoff(..)`).
///
/// Every knob has a sensible default: the coil defaults to the paper's
/// on-chip spiral over the floorplan's die, the power model to the
/// generic 180 nm library at the reference clock, and the coupling grid
/// to the map's default step and dipole area. With the defaults,
/// [`EmPipelineConfig::build`] is bit-identical to the legacy
/// [`EmSensor::new`] path.
///
/// # Examples
///
/// ```no_run
/// # use emtrust_em::pipeline::EmPipelineConfig;
/// # fn demo(netlist: &emtrust_netlist::graph::Netlist,
/// #         floorplan: &emtrust_layout::floorplan::Floorplan)
/// #         -> Result<(), emtrust_em::EmError> {
/// let sensor = EmPipelineConfig::default()
///     .with_coupling_step(20.0)?
///     .build(netlist, floorplan)?;
/// # let _ = sensor; Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmPipelineConfig {
    coil: Option<Coil>,
    model: Option<CurrentModel>,
    coupling_step_um: Option<f64>,
    dipole_area_um2: Option<f64>,
}

impl EmPipelineConfig {
    /// Uses an explicit coil instead of the default on-chip spiral.
    pub fn with_coil(mut self, coil: Coil) -> Self {
        self.coil = Some(coil);
        self
    }

    /// Uses an explicit power model instead of the generic 180 nm
    /// library at the reference clock.
    pub fn with_model(mut self, model: CurrentModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Overrides the coupling-map grid step
    /// ([`DEFAULT_COUPLING_STEP_UM`] by default).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] if `step_um <= 0`.
    pub fn with_coupling_step(mut self, step_um: f64) -> Result<Self, EmError> {
        if step_um <= 0.0 {
            return Err(EmError::InvalidParameter {
                what: "grid step must be positive",
            });
        }
        self.coupling_step_um = Some(step_um);
        Ok(self)
    }

    /// Overrides the effective cell dipole area
    /// ([`DEFAULT_DIPOLE_AREA_UM2`] by default).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] if `area_um2 <= 0`.
    pub fn with_dipole_area(mut self, area_um2: f64) -> Result<Self, EmError> {
        if area_um2 <= 0.0 {
            return Err(EmError::InvalidParameter {
                what: "dipole area must be positive",
            });
        }
        self.dipole_area_um2 = Some(area_um2);
        Ok(self)
    }

    /// Assembles the sensor over a placed netlist: resolves the coil and
    /// model defaults, computes the coupling map, and samples the
    /// per-cell weight vector.
    ///
    /// # Errors
    ///
    /// Propagates layout errors from default-coil construction and
    /// coupling-map construction errors.
    pub fn build(self, netlist: &Netlist, floorplan: &Floorplan) -> Result<EmSensor, EmError> {
        let coil = match self.coil {
            Some(coil) => coil,
            None => Coil::OnChip(SpiralSensor::for_die(floorplan.die()).map_err(EmError::Layout)?),
        };
        let model = self.model.unwrap_or_else(|| {
            CurrentModel::new(Library::generic_180nm(), ClockConfig::reference())
        });
        let map = CouplingMap::build_with_step(
            &coil,
            floorplan.die(),
            self.coupling_step_um.unwrap_or(DEFAULT_COUPLING_STEP_UM),
            self.dipole_area_um2.unwrap_or(DEFAULT_DIPOLE_AREA_UM2),
        )?;
        let weights = map.weights_for(netlist, floorplan);
        let table = model.charge_table(netlist, &[Some(&weights)])?;
        Ok(EmSensor {
            coil,
            map,
            weights,
            model,
            table,
        })
    }
}

/// A measurement channel: one coil over one placed netlist.
///
/// The sensor compiles its [`ChargeTable`] once, when it is built, and
/// again whenever [`EmSensor::scale_weights`] changes the weights; every
/// measurement renders from it.
#[derive(Debug)]
pub struct EmSensor {
    coil: Coil,
    map: CouplingMap,
    weights: Vec<f64>,
    model: CurrentModel,
    table: ChargeTable,
}

impl EmSensor {
    /// Builds the channel: computes the coil's coupling map over the
    /// floorplan's die and the per-cell weight vector.
    ///
    /// A thin delegate to [`EmPipelineConfig`], kept for the common case
    /// where both the coil and the model are explicit.
    ///
    /// # Errors
    ///
    /// Propagates coupling-map construction errors.
    pub fn new(
        coil: Coil,
        netlist: &Netlist,
        floorplan: &Floorplan,
        model: CurrentModel,
    ) -> Result<Self, EmError> {
        EmPipelineConfig::default()
            .with_coil(coil)
            .with_model(model)
            .build(netlist, floorplan)
    }

    /// Scales the per-cell weights element-wise — the hook through which
    /// `emtrust-silicon` applies per-chip process variation (each cell's
    /// switched charge varies chip to chip).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] if `factors` does not have one
    /// entry per cell.
    pub fn scale_weights(&mut self, factors: &[f64]) -> Result<(), EmError> {
        if factors.len() != self.weights.len() {
            return Err(EmError::InvalidParameter {
                what: "variation factors must cover every cell",
            });
        }
        for (w, f) in self.weights.iter_mut().zip(factors) {
            *w *= f;
        }
        self.table.reweight(&[Some(&self.weights)])?;
        Ok(())
    }

    /// The coil.
    pub fn coil(&self) -> &Coil {
        &self.coil
    }

    /// The precomputed coupling map.
    pub fn coupling(&self) -> &CouplingMap {
        &self.map
    }

    /// The per-cell weight (mutual inductance) vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The underlying power model.
    pub fn model(&self) -> &CurrentModel {
        &self.model
    }

    /// The compiled charge table of this sensor's weights (one set).
    pub fn charge_table(&self) -> &ChargeTable {
        &self.table
    }

    /// The noiseless emf of binned activity (see
    /// [`ChargeTable::bin_cycle`] and [`ChargeTable::bin_trace`]),
    /// rendered from this sensor's table.
    ///
    /// - `extra_leakage_a`: per-cycle extra leakage (T2's channel),
    /// - `injections`: analog point current sources (A2's channel).
    ///
    /// # Errors
    ///
    /// Propagates power-model errors (bins of another table, a leakage
    /// vector that doesn't cover every cycle).
    pub fn emf(
        &self,
        bins: &ChargeBins,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
    ) -> Result<VoltageTrace, EmError> {
        let _span = emtrust_telemetry::span("emf");
        let mut weighted = {
            let _synth = emtrust_telemetry::span("synthesize");
            self.table.render(bins, extra_leakage_a)?.swap_remove(0)
        };
        inject(&self.map, &mut weighted, injections);
        Ok(emf_from_weighted_current(&weighted))
    }

    /// A *measured* trace of binned activity: [`Self::emf`] plus this
    /// coil's environment noise, freshly seeded from `noise_seed`.
    ///
    /// # Errors
    ///
    /// Propagates power-model errors.
    pub fn measure(
        &self,
        bins: &ChargeBins,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        noise_seed: u64,
    ) -> Result<VoltageTrace, EmError> {
        let _span = emtrust_telemetry::span("measure");
        let mut trace = self.emf(bins, extra_leakage_a, injections)?;
        NoiseModel::environment_for(&self.coil, noise_seed).add_to(&mut trace);
        Ok(trace)
    }

    /// A pure-noise measurement of length `n_samples` (the paper's step 1:
    /// chip powered, no encryption).
    pub fn measure_noise(&self, n_samples: usize, noise_seed: u64) -> VoltageTrace {
        let mut trace =
            VoltageTrace::new(vec![0.0; n_samples], self.model.clock().sample_rate_hz());
        NoiseModel::environment_for(&self.coil, noise_seed).add_to(&mut trace);
        trace
    }
}

/// Adds each analog injection to a flux-weighted current, scaled by the
/// coil's coupling at the source location.
pub(crate) fn inject(
    map: &CouplingMap,
    weighted: &mut CurrentTrace,
    injections: &[PointCurrentSource],
) {
    for src in injections {
        let m = map.at(src.location_um.0, src.location_um.1);
        if m == 0.0 || src.samples.is_empty() {
            continue;
        }
        let scaled: Vec<f64> = src.samples.iter().map(|&i| i * m).collect();
        weighted.add_assign(&CurrentTrace::new(scaled, weighted.sample_rate_hz()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_layout::floorplan::Die;
    use emtrust_layout::spiral::SpiralSensor;
    use emtrust_netlist::library::Library;
    use emtrust_power::ClockConfig;
    use emtrust_sim::activity::ActivityTrace;
    use emtrust_sim::engine::Simulator;

    fn small_design() -> (Netlist, Floorplan) {
        let mut n = emtrust_netlist::graph::Netlist::new("bank");
        n.push_module("aes");
        for _ in 0..32 {
            let (q, d) = n.dff_deferred();
            let nq = n.not(q);
            n.connect_dff_d(d, nq);
            n.mark_output("q", q);
        }
        n.pop_module();
        let lib = Library::generic_180nm();
        let die = Die::square(600.0).unwrap();
        let fp = Floorplan::place(&n, &lib, die).unwrap();
        (n, fp)
    }

    fn sensor(n: &Netlist, fp: &Floorplan) -> EmSensor {
        let coil: Coil = SpiralSensor::for_die(fp.die()).unwrap().into();
        let model = CurrentModel::new(Library::generic_180nm(), ClockConfig::reference());
        EmSensor::new(coil, n, fp, model).unwrap()
    }

    fn activity(n: &Netlist, cycles: usize) -> ActivityTrace {
        let mut sim = Simulator::new(n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.run(cycles);
        sim.take_recording()
    }

    /// `cycles` recorded cycles, binned with the sensor's table.
    fn bins(s: &EmSensor, n: &Netlist, cycles: usize) -> ChargeBins {
        s.charge_table().bin_trace(&activity(n, cycles), 1)
    }

    #[test]
    fn switching_produces_nonzero_emf() {
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        let emf = s.emf(&bins(&s, &n, 4), None, &[]).unwrap();
        assert_eq!(emf.len(), 4 * 64);
        assert!(emf.rms_v() > 0.0, "toggling flops must induce an emf");
    }

    #[test]
    fn emf_is_deterministic_but_measurement_is_noisy() {
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        let bins = bins(&s, &n, 2);
        let a = s.emf(&bins, None, &[]).unwrap();
        let b = s.emf(&bins, None, &[]).unwrap();
        assert_eq!(a, b);
        let m1 = s.measure(&bins, None, &[], 1).unwrap();
        let m2 = s.measure(&bins, None, &[], 2).unwrap();
        assert_ne!(m1.samples(), m2.samples());
    }

    #[test]
    fn injection_adds_signal() {
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        let bins = bins(&s, &n, 2);
        let base = s.emf(&bins, None, &[]).unwrap();
        let c = fp.die().center();
        let inj = PointCurrentSource {
            location_um: (c.x, c.y),
            samples: (0..128)
                .map(|i| if i % 2 == 0 { 1e-3 } else { -1e-3 })
                .collect(),
        };
        let with = s.emf(&bins, None, &[inj]).unwrap();
        assert!(with.rms_v() > base.rms_v());
    }

    #[test]
    fn injection_far_outside_the_die_is_clamped_not_lost() {
        // Clamping to the grid edge keeps the call well-defined.
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        let inj = PointCurrentSource {
            location_um: (-1e6, -1e6),
            samples: vec![1.0; 64],
        };
        assert!(s.emf(&bins(&s, &n, 1), None, &[inj]).is_ok());
    }

    #[test]
    fn noise_only_measurement_has_the_environment_rms() {
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        let noise = s.measure_noise(40_000, 5);
        let expected = crate::noise::ONCHIP_ENV_NOISE_RMS_V;
        assert!((noise.rms_v() - expected).abs() < 0.05 * expected);
    }

    #[test]
    fn config_defaults_match_the_legacy_constructor() {
        let (n, fp) = small_design();
        let legacy = sensor(&n, &fp);
        let built = EmPipelineConfig::default().build(&n, &fp).unwrap();
        assert_eq!(built.weights(), legacy.weights());
        assert_eq!(built.coupling(), legacy.coupling());
        assert_eq!(built.coil().name(), legacy.coil().name());
    }

    #[test]
    fn config_knobs_validate_and_apply() {
        assert!(EmPipelineConfig::default().with_coupling_step(0.0).is_err());
        assert!(EmPipelineConfig::default().with_dipole_area(-1.0).is_err());
        let (n, fp) = small_design();
        let s = EmPipelineConfig::default()
            .with_coupling_step(30.0)
            .unwrap()
            .build(&n, &fp)
            .unwrap();
        assert_eq!(s.coupling().step_um(), 30.0);
    }

    #[test]
    fn cached_table_renders_like_a_fresh_synthesis_after_scaling() {
        // The sensor's table must follow its weights: after process
        // variation rescales them, a measurement equals a synthesis from
        // the scaled weights, bit for bit.
        let (n, fp) = small_design();
        let mut s = sensor(&n, &fp);
        let act = activity(&n, 6);
        let factors: Vec<f64> = (0..n.cell_count()).map(|i| 0.8 + 0.01 * i as f64).collect();
        s.scale_weights(&factors).unwrap();
        let fresh = s
            .model()
            .synthesize_with(&n, &act, Some(s.weights()), None, 1)
            .unwrap();
        let bins = s.charge_table().bin_trace(&act, 1);
        let mut emf = s.emf(&bins, None, &[]).unwrap();
        assert_eq!(emf, emf_from_weighted_current(&fresh));
        NoiseModel::environment_for(s.coil(), 9).add_to(&mut emf);
        assert_eq!(s.measure(&bins, None, &[], 9).unwrap(), emf);
    }

    #[test]
    fn accessors_expose_the_channel() {
        let (n, fp) = small_design();
        let s = sensor(&n, &fp);
        assert_eq!(s.coil().name(), "on-chip sensor");
        assert_eq!(s.weights().len(), n.cell_count());
        assert!(s.coupling().mean_abs() > 0.0);
        assert_eq!(s.model().clock().samples_per_cycle(), 64);
    }
}
