//! A tiled array of on-chip spiral sub-sensors.
//!
//! The paper's single spiral covers the whole die, which detects *that* a
//! Trojan switched but not *where*. An [`EmArray`] tiles the die into an
//! `rows × cols` grid and centres a smaller spiral over each tile; every
//! sub-coil still couples (weakly) to the whole die through its own exact
//! [`crate::coupling::CouplingMap`], but couples far more strongly to the
//! cells under it. Comparing per-tile anomaly scores therefore localizes
//! the switching cells — the spatial information a single coil integrates
//! away.
//!
//! The cost discipline is the point of the design: the array compiles one
//! [`ChargeTable`] over all `N` tiles' weights, so every toggle is binned
//! **once** for all `N` flux-weighted currents and each current is
//! rendered from its bins: an `N`-sensor array costs one event walk plus
//! `N` cheap per-bin deposits, not `N` full simulation passes.

use crate::coil::Coil;
use crate::emf::{emf_from_weighted_current, VoltageTrace};
use crate::noise::NoiseModel;
use crate::pipeline::{inject, EmSensor, PointCurrentSource};
use crate::EmError;
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::geometry::{Point, Rect};
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::graph::Netlist;
use emtrust_power::{ChargeBins, ChargeTable, CurrentModel};

/// Per-tile noise-seed salt: tile `t` draws its environment noise from
/// `noise_seed ^ salt(t)`, keeping tile streams independent while leaving
/// tile 0 (`salt(0) == 0`) bit-identical to a single-sensor measurement
/// with the same seed.
fn tile_noise_salt(tile: usize) -> u64 {
    (tile as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// One array element: a sub-spiral centred on its die tile, with the full
/// per-cell coupling machinery of an [`EmSensor`].
#[derive(Debug)]
pub struct EmTile {
    row: usize,
    col: usize,
    rect: Rect,
    sensor: EmSensor,
}

impl EmTile {
    /// Grid row (0 = southmost).
    pub fn row(&self) -> usize {
        self.row
    }

    /// Grid column (0 = westmost).
    pub fn col(&self) -> usize {
        self.col
    }

    /// The die tile this sub-sensor is centred on.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The tile centre — the sensor's nominal location on the die.
    pub fn center(&self) -> Point {
        self.rect.center()
    }

    /// The underlying measurement channel.
    pub fn sensor(&self) -> &EmSensor {
        &self.sensor
    }
}

/// An `rows × cols` grid of sub-spirals over one placed netlist, measured
/// together from a single current-synthesis pass.
#[derive(Debug)]
pub struct EmArray {
    rows: usize,
    cols: usize,
    tiles: Vec<EmTile>,
    /// One weight set per tile, in tile order.
    table: ChargeTable,
}

impl EmArray {
    /// Builds the array: tiles the floorplan's die ([`Die::tiles`]),
    /// centres a `turns`-turn spiral on each tile, and precomputes each
    /// sub-coil's coupling map **over the full die** (cells outside a
    /// coil's own tile still couple, just weakly — that decay is what the
    /// localizer exploits).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::Layout`] if the grid is degenerate or a tile is
    /// too small for `turns` at the minimum metal pitch.
    pub fn build(
        netlist: &Netlist,
        floorplan: &Floorplan,
        model: CurrentModel,
        rows: usize,
        cols: usize,
        turns: usize,
    ) -> Result<Self, EmError> {
        let rects = floorplan.die().tiles(rows, cols).map_err(EmError::Layout)?;
        let mut tiles: Vec<EmTile> = Vec::with_capacity(rects.len());
        for (i, rect) in rects.into_iter().enumerate() {
            let coil = Coil::OnChip(
                SpiralSensor::with_turns(Die { core: rect }, turns).map_err(EmError::Layout)?,
            );
            // Every tile after the first reweights the first one's table.
            let sensor = match tiles.first() {
                None => EmSensor::new(coil, netlist, floorplan, model.clone())?,
                Some(first) => first.sensor.for_coil(coil, netlist, floorplan)?,
            };
            tiles.push(EmTile {
                row: i / cols,
                col: i % cols,
                rect,
                sensor,
            });
        }
        let weight_sets: Vec<Option<&[f64]>> =
            tiles.iter().map(|t| Some(t.sensor.weights())).collect();
        // `Die::tiles` rejects an empty grid, so tile 0 exists.
        let mut table = tiles[0].sensor.charge_table().clone();
        table.reweight(&weight_sets)?;
        Ok(Self {
            rows,
            cols,
            tiles,
            table,
        })
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of sub-sensors (`rows × cols`).
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the array has no sensors (never true for a built array).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tiles in row-major order from the south-west corner.
    pub fn tiles(&self) -> &[EmTile] {
        &self.tiles
    }

    /// Applies per-chip process variation to every sub-sensor's weight
    /// vector (see [`EmSensor::scale_weights`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] if `factors` does not have
    /// one entry per cell.
    pub fn scale_weights(&mut self, factors: &[f64]) -> Result<(), EmError> {
        for tile in &mut self.tiles {
            tile.sensor.scale_weights(factors)?;
        }
        let weight_sets: Vec<Option<&[f64]>> = self
            .tiles
            .iter()
            .map(|t| Some(t.sensor.weights()))
            .collect();
        self.table.reweight(&weight_sets)?;
        Ok(())
    }

    /// The compiled charge table of every tile's weights, one set per
    /// tile in tile order.
    pub fn charge_table(&self) -> &ChargeTable {
        &self.table
    }

    /// The noiseless emf of **every** sub-sensor from one shared set of
    /// bins (made with [`Self::charge_table`]), in tile order.
    ///
    /// `extra_leakage_a` and `injections` are the same side channels as
    /// [`EmSensor::emf`]; each injection is scaled by each tile's own
    /// coupling at the source location.
    ///
    /// # Errors
    ///
    /// Propagates power-model errors (bins of another table, a leakage
    /// vector that doesn't cover every cycle).
    pub fn emf_multi(
        &self,
        bins: &ChargeBins,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
    ) -> Result<Vec<VoltageTrace>, EmError> {
        let _span = emtrust_telemetry::span("emf_multi");
        let currents = {
            let _synth = emtrust_telemetry::span("synthesize_multi");
            self.table.render(bins, extra_leakage_a)?
        };
        let emfs = self.tiles.iter().zip(currents).map(|(tile, mut weighted)| {
            inject(tile.sensor.coupling(), &mut weighted, injections);
            emf_from_weighted_current(&weighted)
        });
        Ok(emfs.collect())
    }

    /// One *measured* trace per sub-sensor: [`Self::emf_multi`] plus each
    /// coil's environment noise, seeded per tile from `noise_seed` (tile 0
    /// uses `noise_seed` unchanged, so a `1 × 1` array reproduces
    /// [`EmSensor::measure`] bit for bit).
    ///
    /// # Errors
    ///
    /// Propagates power-model errors.
    pub fn measure_multi(
        &self,
        bins: &ChargeBins,
        extra_leakage_a: Option<&[f64]>,
        injections: &[PointCurrentSource],
        noise_seed: u64,
    ) -> Result<Vec<VoltageTrace>, EmError> {
        let _span = emtrust_telemetry::span("measure_multi");
        let mut traces = self.emf_multi(bins, extra_leakage_a, injections)?;
        self.add_noise(&mut traces, noise_seed);
        Ok(traces)
    }

    fn add_noise(&self, traces: &mut [VoltageTrace], noise_seed: u64) {
        for (t, trace) in traces.iter_mut().enumerate() {
            NoiseModel::environment_for(
                self.tiles[t].sensor.coil(),
                noise_seed ^ tile_noise_salt(t),
            )
            .add_to(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emtrust_netlist::library::Library;
    use emtrust_power::ClockConfig;
    use emtrust_sim::activity::ActivityTrace;
    use emtrust_sim::engine::Simulator;

    fn small_design() -> (Netlist, Floorplan) {
        design(32)
    }

    fn design(flops: usize) -> (Netlist, Floorplan) {
        let mut n = Netlist::new("bank");
        n.push_module("aes");
        for _ in 0..flops {
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

    fn model() -> CurrentModel {
        CurrentModel::new(Library::generic_180nm(), ClockConfig::reference())
    }

    fn activity(n: &Netlist, cycles: usize) -> ActivityTrace {
        let mut sim = Simulator::new(n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.run(cycles);
        sim.take_recording()
    }

    #[test]
    fn one_by_one_array_reproduces_the_single_sensor() {
        let (n, fp) = small_design();
        let array = EmArray::build(&n, &fp, model(), 1, 1, 20).unwrap();
        let coil: Coil = SpiralSensor::for_die(fp.die()).unwrap().into();
        let single = EmSensor::new(coil, &n, &fp, model()).unwrap();
        let act = activity(&n, 3);
        let array_bins = array.charge_table().bin_trace(&act, 2);
        let from_array = array.measure_multi(&array_bins, None, &[], 7).unwrap();
        let single_bins = single.charge_table().bin_trace(&act, 2);
        let from_single = single.measure(&single_bins, None, &[], 7).unwrap();
        assert_eq!(from_array.len(), 1);
        assert_eq!(from_array[0], from_single);
    }

    #[test]
    fn scaled_array_renders_like_a_fresh_multi_synthesis() {
        let (n, fp) = small_design();
        let mut arr = EmArray::build(&n, &fp, model(), 2, 2, 4).unwrap();
        let factors: Vec<f64> = (0..n.cell_count()).map(|i| 1.2 - 0.01 * i as f64).collect();
        arr.scale_weights(&factors).unwrap();
        let act = activity(&n, 5);
        let sets: Vec<&[f64]> = arr.tiles().iter().map(|t| t.sensor().weights()).collect();
        let fresh = model().synthesize_multi(&n, &act, &sets, None, 1).unwrap();
        let bins = arr.charge_table().bin_trace(&act, 1);
        let emfs = arr.emf_multi(&bins, None, &[]).unwrap();
        let expected: Vec<VoltageTrace> = fresh.iter().map(emf_from_weighted_current).collect();
        assert_eq!(emfs, expected);
    }

    #[test]
    fn tables_reweighted_from_the_first_tile_bin_like_fresh_ones() {
        let (n, fp) = small_design();
        let arr = EmArray::build(&n, &fp, model(), 2, 2, 4).unwrap();
        let act = activity(&n, 5);
        let mut sets = Vec::new();
        for tile in arr.tiles() {
            let weights = Some(tile.sensor().weights());
            let fresh = model().charge_table(&n, &[weights]).unwrap();
            let got = tile.sensor().charge_table().bin_trace(&act, 1);
            assert_eq!(got, fresh.bin_trace(&act, 1));
            sets.push(weights);
        }
        let fresh = model().charge_table(&n, &sets).unwrap();
        let got = arr.charge_table().bin_trace(&act, 1);
        assert_eq!(got, fresh.bin_trace(&act, 1));
    }

    #[test]
    fn another_coil_over_another_design_is_an_error() {
        let (n, fp) = small_design();
        let (other_n, other_fp) = design(16);
        let coil = || Coil::from(SpiralSensor::for_die(fp.die()).unwrap());
        let first = EmSensor::new(coil(), &n, &fp, model()).unwrap();
        for (netlist, floorplan) in [(&other_n, &fp), (&n, &other_fp)] {
            assert!(matches!(
                first.for_coil(coil(), netlist, floorplan),
                Err(EmError::InvalidParameter { .. })
            ));
        }
        assert!(first.for_coil(coil(), &n, &fp).is_ok());
    }

    #[test]
    fn grid_tiles_are_row_major_and_cover_the_die() {
        let (n, fp) = small_design();
        let array = EmArray::build(&n, &fp, model(), 2, 3, 6).unwrap();
        assert_eq!(array.rows(), 2);
        assert_eq!(array.cols(), 3);
        assert_eq!(array.len(), 6);
        assert!(!array.is_empty());
        let area: f64 = array.tiles().iter().map(|t| t.rect().area()).sum();
        assert!((area - fp.die().core.area()).abs() < 1e-6 * area);
        // Row-major from the SW corner.
        assert_eq!((array.tiles()[0].row(), array.tiles()[0].col()), (0, 0));
        assert_eq!((array.tiles()[4].row(), array.tiles()[4].col()), (1, 1));
        assert!(array.tiles()[3].center().y > array.tiles()[0].center().y);
    }

    #[test]
    fn multi_emf_is_bit_identical_across_worker_counts() {
        let (n, fp) = small_design();
        let array = EmArray::build(&n, &fp, model(), 2, 2, 6).unwrap();
        let act = activity(&n, 4);
        let emf = |workers| {
            let bins = array.charge_table().bin_trace(&act, workers);
            array.emf_multi(&bins, None, &[]).unwrap()
        };
        let (serial, parallel) = (emf(1), emf(4));
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|t| t.rms_v() > 0.0));
    }

    #[test]
    fn tile_noise_streams_differ_between_tiles() {
        let (n, fp) = small_design();
        let array = EmArray::build(&n, &fp, model(), 2, 2, 6).unwrap();
        let bins = array.charge_table().bin_trace(&activity(&n, 2), 1);
        let noiseless = array.emf_multi(&bins, None, &[]).unwrap();
        let measured = array.measure_multi(&bins, None, &[], 9).unwrap();
        let noise: Vec<Vec<f64>> = measured
            .iter()
            .zip(&noiseless)
            .map(|(m, e)| {
                m.samples()
                    .iter()
                    .zip(e.samples())
                    .map(|(a, b)| a - b)
                    .collect()
            })
            .collect();
        assert_ne!(noise[0], noise[1]);
        assert_ne!(noise[1], noise[2]);
    }

    #[test]
    fn injection_registers_strongest_on_the_nearest_tile() {
        let (n, fp) = small_design();
        let array = EmArray::build(&n, &fp, model(), 2, 2, 6).unwrap();
        let bins = array.charge_table().bin_trace(&activity(&n, 2), 1);
        // Inject at the centre of tile 3 (NE).
        let c = array.tiles()[3].center();
        let inj = PointCurrentSource {
            location_um: (c.x, c.y),
            samples: (0..128)
                .map(|i| if i % 2 == 0 { 1e-3 } else { -1e-3 })
                .collect(),
        };
        let base = array.emf_multi(&bins, None, &[]).unwrap();
        let with = array.emf_multi(&bins, None, &[inj]).unwrap();
        let gain = |t: usize| with[t].rms_v() - base[t].rms_v();
        for t in 0..3 {
            assert!(
                gain(3) > gain(t),
                "NE tile must see the NE injection strongest (tile {t})"
            );
        }
    }

    #[test]
    fn degenerate_grids_are_rejected() {
        let (n, fp) = small_design();
        assert!(EmArray::build(&n, &fp, model(), 0, 2, 6).is_err());
        // 600/8 = 75 µm tiles; 300 turns → pitch below the metal rule.
        assert!(EmArray::build(&n, &fp, model(), 8, 8, 300).is_err());
    }
}
