//! Precomputed coupling (mutual-inductance) maps.
//!
//! Evaluating the turn-by-turn line integral for every one of ~12 000
//! cells would be wasteful: the kernel varies smoothly on the scale of the
//! coil pitch. A [`CouplingMap`] therefore evaluates the exact integral on
//! a uniform grid over the die once, and every cell samples it bilinearly.

use crate::coil::Coil;
use crate::dipole::{mutual_inductance_row_per_um2, DIPOLE_AREA_UM2};
use crate::EmError;
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_netlist::graph::Netlist;

/// Default grid step of [`CouplingMap::build`], in µm.
pub const DEFAULT_COUPLING_STEP_UM: f64 = 10.0;

/// A gridded mutual-inductance kernel `M(x, y)` for one coil, in henries
/// per cell (the cell dipole area [`DIPOLE_AREA_UM2`] is baked in).
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingMap {
    x0: f64,
    y0: f64,
    step_um: f64,
    nx: usize,
    ny: usize,
    /// Row-major `ny × nx` kernel values.
    values: Vec<f64>,
}

impl CouplingMap {
    /// Builds the kernel for `coil` over `die` with the default grid step
    /// (10 µm).
    ///
    /// # Errors
    ///
    /// Propagates [`CouplingMap::build_with_step`] errors.
    pub fn build(coil: &Coil, die: Die) -> Result<Self, EmError> {
        Self::build_with_step(coil, die, DEFAULT_COUPLING_STEP_UM)
    }

    /// Builds the kernel with a custom grid step (µm).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] if `step_um <= 0`.
    pub fn build_with_step(coil: &Coil, die: Die, step_um: f64) -> Result<Self, EmError> {
        if step_um <= 0.0 {
            return Err(EmError::InvalidParameter {
                what: "grid step must be positive",
            });
        }
        let x0 = die.core.min.x;
        let y0 = die.core.min.y;
        let nx = (die.width_um() / step_um).ceil() as usize + 1;
        let ny = (die.height_um() / step_um).ceil() as usize + 1;
        let polys = coil.turn_polygons();
        let z = coil.z_um();
        // SoA sweep: grid coordinates are precomputed once, and the loop
        // nest runs polygon-outermost so one turn's vertex data stays hot
        // while it accumulates into the contiguous `values` rows. Each row
        // is integrated `LANES` grid points at a time (the last block
        // runs past the row end into padding that is thrown away). A run
        // of identical turns (the probe's stacked circles) is integrated
        // once per grid point and its value added once per turn. So the
        // per-point sequence of additions (and with it every accumulation
        // bit) is exactly that of the point-outermost, turn-by-turn loop.
        const LANES: usize = 8;
        let xs: Vec<f64> = (0..nx.next_multiple_of(LANES))
            .map(|ix| x0 + ix as f64 * step_um)
            .collect();
        let ys: Vec<f64> = (0..ny).map(|iy| y0 + iy as f64 * step_um).collect();
        let mut values = vec![0.0; nx * ny];
        for run in polys.chunk_by(|a, b| a == b) {
            let p = &run[0];
            for (row, &y) in values.chunks_exact_mut(nx).zip(&ys) {
                for (cells, &block) in row.chunks_mut(LANES).zip(xs.as_chunks::<LANES>().0) {
                    let m = mutual_inductance_row_per_um2(p, z, block, y);
                    for (v, &m) in cells.iter_mut().zip(&m) {
                        for _ in run {
                            *v += m;
                        }
                    }
                }
            }
        }
        for v in values.iter_mut() {
            *v *= DIPOLE_AREA_UM2;
        }
        Ok(Self {
            x0,
            y0,
            step_um,
            nx,
            ny,
            values,
        })
    }

    /// Kernel value at a die position (bilinear interpolation; clamped to
    /// the grid boundary).
    pub fn at(&self, x_um: f64, y_um: f64) -> f64 {
        let fx = ((x_um - self.x0) / self.step_um).clamp(0.0, (self.nx - 1) as f64);
        let fy = ((y_um - self.y0) / self.step_um).clamp(0.0, (self.ny - 1) as f64);
        let ix = (fx as usize).min(self.nx - 2);
        let iy = (fy as usize).min(self.ny - 2);
        let tx = fx - ix as f64;
        let ty = fy - iy as f64;
        let v = |i: usize, j: usize| self.values[j * self.nx + i];
        v(ix, iy) * (1.0 - tx) * (1.0 - ty)
            + v(ix + 1, iy) * tx * (1.0 - ty)
            + v(ix, iy + 1) * (1.0 - tx) * ty
            + v(ix + 1, iy + 1) * tx * ty
    }

    /// Per-cell weight vector for a placed netlist, indexed by
    /// [`emtrust_netlist::graph::CellId::index`] — ready to hand to the
    /// power model's weighted synthesis.
    pub fn weights_for(&self, netlist: &Netlist, floorplan: &Floorplan) -> Vec<f64> {
        (0..netlist.cell_count())
            .map(|i| {
                let p = floorplan.locations()[i];
                self.at(p.x, p.y)
            })
            .collect()
    }

    /// The grid step in µm.
    pub fn step_um(&self) -> f64 {
        self.step_um
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Mean kernel magnitude over the grid — a scalar summary of how
    /// strongly the coil couples to the die.
    pub fn mean_abs(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|v| v.abs()).sum::<f64>() / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dipole::{mutual_inductance_per_um2, mutual_inductance_per_um2_powf};
    use emtrust_layout::geometry::Point;
    use emtrust_layout::probe::ExternalProbe;
    use emtrust_layout::spiral::SpiralSensor;

    fn die() -> Die {
        Die::square(600.0).unwrap()
    }

    fn onchip_map() -> CouplingMap {
        let coil: Coil = SpiralSensor::for_die(die()).unwrap().into();
        CouplingMap::build_with_step(&coil, die(), 30.0).unwrap()
    }

    #[test]
    fn center_couples_strongest_for_the_spiral() {
        let map = onchip_map();
        let center = map.at(300.0, 300.0);
        let edge = map.at(30.0, 30.0);
        assert!(center > 0.0);
        assert!(
            center > 3.0 * edge.abs(),
            "center {center:.3e} vs edge {edge:.3e}"
        );
    }

    #[test]
    fn onchip_kernel_dwarfs_external_kernel() {
        let die = die();
        let on = onchip_map();
        let ext_coil: Coil = ExternalProbe::over_die(die).into();
        let ext = CouplingMap::build_with_step(&ext_coil, die, 30.0).unwrap();
        // The paper's core claim, emerging from geometry: the on-chip
        // sensor couples far more strongly than the probe at 100 µm.
        assert!(
            on.mean_abs() > 10.0 * ext.mean_abs(),
            "on-chip {:.3e} vs external {:.3e}",
            on.mean_abs(),
            ext.mean_abs()
        );
    }

    #[test]
    fn interpolation_is_continuous() {
        let map = onchip_map();
        let a = map.at(300.0, 300.0);
        let b = map.at(301.0, 300.0);
        assert!((a - b).abs() < 0.2 * a.abs().max(1e-30));
    }

    #[test]
    fn out_of_grid_positions_clamp() {
        let map = onchip_map();
        let inside = map.at(0.0, 0.0);
        let outside = map.at(-50.0, -50.0);
        assert_eq!(inside, outside);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let coil: Coil = SpiralSensor::for_die(die()).unwrap().into();
        assert!(CouplingMap::build_with_step(&coil, die(), 0.0).is_err());
    }

    #[test]
    fn weights_follow_placement() {
        use emtrust_netlist::graph::Netlist;
        use emtrust_netlist::library::Library;
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.push_module("aes");
        let mut last = a;
        for _ in 0..50 {
            last = n.not(last);
        }
        n.pop_module();
        n.mark_output("y", last);
        let lib = Library::generic_180nm();
        let fp = Floorplan::place(&n, &lib, die()).unwrap();
        let map = onchip_map();
        let w = map.weights_for(&n, &fp);
        assert_eq!(w.len(), 50);
        for (i, &wi) in w.iter().enumerate() {
            let p = fp.locations()[i];
            assert!((wi - map.at(p.x, p.y)).abs() < 1e-18);
        }
    }

    /// The reference sweep: one grid point at a time, summing the
    /// `kernel` over every turn in order.
    fn point_outer_reference(
        coil: &Coil,
        die: Die,
        step: f64,
        kernel: fn(&[Point], f64, f64, f64) -> f64,
    ) -> Vec<f64> {
        let nx = (die.width_um() / step).ceil() as usize + 1;
        let ny = (die.height_um() / step).ceil() as usize + 1;
        let polys = coil.turn_polygons();
        let z = coil.z_um();
        let mut values = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let x = die.core.min.x + ix as f64 * step;
                let y = die.core.min.y + iy as f64 * step;
                let m: f64 = polys.iter().map(|p| kernel(p, z, x, y)).sum();
                values.push(m * DIPOLE_AREA_UM2);
            }
        }
        values
    }

    fn both_coils(die: Die) -> [Coil; 2] {
        [
            SpiralSensor::for_die(die).unwrap().into(),
            ExternalProbe::over_die(die).into(),
        ]
    }

    #[test]
    fn polygon_outer_sweep_is_bit_identical_to_point_outer_reference() {
        // The production sweep (polygon-outermost, each run of identical
        // probe turns integrated once) must reproduce the turn-by-turn
        // point-outer sum bit for bit, for both coils.
        let die = die();
        let step = 30.0;
        for coil in both_coils(die) {
            let map = CouplingMap::build_with_step(&coil, die, step).unwrap();
            let reference = point_outer_reference(&coil, die, step, mutual_inductance_per_um2);
            assert_eq!(map.values.len(), reference.len());
            for (i, (v, r)) in map.values.iter().zip(&reference).enumerate() {
                assert_eq!(v.to_bits(), r.to_bits(), "{}: grid index {i}", coil.name());
            }
        }
    }

    #[test]
    fn maps_agree_with_the_powf_kernel_on_both_die_sizes() {
        // The golden (550 µm) and all-Trojan (630 µm) die sizes, default
        // grid step: the `r·√r` kernel moves no map value by more than
        // 1e-14 of the map's peak |M|.
        for side in [550.0, 630.0] {
            let die = Die::square(side).unwrap();
            for coil in both_coils(die) {
                let map = CouplingMap::build(&coil, die).unwrap();
                let reference = point_outer_reference(
                    &coil,
                    die,
                    DEFAULT_COUPLING_STEP_UM,
                    mutual_inductance_per_um2_powf,
                );
                let peak = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let worst = map
                    .values
                    .iter()
                    .zip(&reference)
                    .map(|(v, r)| (v - r).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    worst <= 1e-14 * peak,
                    "{} on {side} µm: {:.1e} of peak |M|",
                    coil.name(),
                    worst / peak
                );
            }
        }
    }

    #[test]
    fn grid_shape_matches_die() {
        let map = onchip_map();
        let (nx, ny) = map.grid_shape();
        assert_eq!(nx, 21);
        assert_eq!(ny, 21);
        assert_eq!(map.step_um(), 30.0);
    }
}
