//! Magnetic-dipole field math.
//!
//! A switching cell drives charge around its local supply loop. Seen from
//! the coil plane (5 µm above for the on-chip spiral, 100 µm for the
//! external probe) that loop is tiny, so the cell is modelled as a
//! **vertical magnetic dipole** `m = I · A_eff` at the cell location.
//!
//! The mutual inductance between the dipole and a coil turn is computed
//! through the dipole's vector potential (Stokes' theorem):
//!
//! ```text
//! Φ = ∮_turn A · dl,     A(r) = (μ0 m / 4π) · (ρ / (ρ² + z²)^{3/2}) · φ̂
//! ```
//!
//! which avoids integrating the sharply peaked `B_z` over the enclosed
//! area — the line integrand is smooth for any `z > 0`.

use emtrust_layout::geometry::Point;

/// Vacuum permeability, H/m.
pub const MU0: f64 = 4.0e-7 * std::f64::consts::PI;

/// Effective supply-loop area of one standard cell, in µm²
/// (local loop length ≈ 10 µm × metal-stack height ≈ 3 µm).
pub const DIPOLE_AREA_UM2: f64 = 30.0;

/// Mutual inductance (in henries) between a unit-area vertical dipole at
/// `(dipole_x_um, dipole_y_um, 0)` and a closed polygon loop at height
/// `z_um`, per µm² of dipole area.
///
/// Multiply by the cell's effective loop area (µm²) to get the actual
/// mutual inductance. The polygon is traversed in the order given; a
/// counter-clockwise loop above the dipole yields a positive coupling.
///
/// # Panics
///
/// Panics if the polygon has fewer than 3 vertices or `z_um <= 0`.
pub fn mutual_inductance_per_um2(
    polygon_um: &[Point],
    z_um: f64,
    dipole_x_um: f64,
    dipole_y_um: f64,
) -> f64 {
    mutual_inductance_row_per_um2(polygon_um, z_um, [dipole_x_um], dipole_y_um)[0]
}

/// [`mutual_inductance_per_um2`] for `N` dipoles on one row (shared
/// `dipole_y_um`), integrated in lockstep so the square roots and
/// divisions of the `N` lanes vectorize. Each lane is bit-identical to
/// the single-dipole call.
///
/// # Panics
///
/// Panics if the polygon has fewer than 3 vertices or `z_um <= 0`.
pub(crate) fn mutual_inductance_row_per_um2<const N: usize>(
    polygon_um: &[Point],
    z_um: f64,
    dipole_xs_um: [f64; N],
    dipole_y_um: f64,
) -> [f64; N] {
    // (ρ²+z²)^{3/2} as r·√r: one square root instead of a `powf`, within
    // about 1 ulp of it per term.
    loop_integral(polygon_um, z_um, dipole_xs_um, dipole_y_um, |a_dl, r| {
        a_dl / (r * r.sqrt())
    })
}

/// The midpoint-rule line integral behind [`mutual_inductance_per_um2`],
/// one lane per dipole. The caller turns each step's
/// `(−y·dx + x·dy, ρ² + z²)` (SI units) into its term of the sum.
///
/// Every lane adds its own terms in its own segment and step order, so
/// its sum does not depend on `N` or on the other lanes. The lanes run
/// in lockstep for the step count they share; a lane whose rounding
/// gives an edge one more step finishes it alone.
#[inline(always)]
fn loop_integral<const N: usize>(
    polygon_um: &[Point],
    z_um: f64,
    dipole_xs_um: [f64; N],
    dipole_y_um: f64,
    term: impl Fn(f64, f64) -> f64,
) -> [f64; N] {
    assert!(polygon_um.len() >= 3, "loop polygon needs >= 3 vertices");
    assert!(z_um > 0.0, "coil plane must be above the dipole");
    const UM: f64 = 1e-6;
    let z = z_um * UM;
    let z2 = z * z;
    // Maximum discretization step: fine near the dipole scale.
    let max_step = (z_um.max(2.0) * 2.0) * UM;

    let mut total = [0.0; N];
    let next = polygon_um[1..].iter().chain(&polygon_um[..1]);
    for (a, b) in polygon_um.iter().zip(next) {
        let (mut ax, mut dx, mut dy) = ([0.0; N], [0.0; N], [0.0; N]);
        let mut steps = [0usize; N];
        let ay = (a.y - dipole_y_um) * UM;
        let by = (b.y - dipole_y_um) * UM;
        for k in 0..N {
            ax[k] = (a.x - dipole_xs_um[k]) * UM;
            let bx = (b.x - dipole_xs_um[k]) * UM;
            let len = ((bx - ax[k]).powi(2) + (by - ay).powi(2)).sqrt();
            // A zero-length edge contributes no steps.
            if len != 0.0 {
                steps[k] = (len / max_step).ceil().max(1.0) as usize;
                dx[k] = (bx - ax[k]) / steps[k] as f64;
                dy[k] = (by - ay) / steps[k] as f64;
            }
        }
        // A·dl at the midpoint of step `s`, with A = k (−y, x) / (ρ²+z²)^{3/2}
        // and dl = (dx, dy).
        let step_term = |k: usize, s: usize| {
            let x = ax[k] + (s as f64 + 0.5) * dx[k];
            let y = ay + (s as f64 + 0.5) * dy[k];
            let rho2 = x * x + y * y;
            term(-y * dx[k] + x * dy[k], rho2 + z2)
        };
        let shared = steps.iter().copied().min().unwrap_or(0);
        for s in 0..shared {
            let t: [f64; N] = std::array::from_fn(|k| step_term(k, s));
            for k in 0..N {
                total[k] += t[k];
            }
        }
        for k in 0..N {
            for s in shared..steps[k] {
                total[k] += step_term(k, s);
            }
        }
    }
    // Prefactor: μ0/(4π) × dipole area (1 µm² = 1e-12 m²).
    total.map(|t| MU0 / (4.0 * std::f64::consts::PI) * 1e-12 * t)
}

/// [`mutual_inductance_per_um2`] with `powf(1.5)` in place of `r·√r`:
/// the oracle its tests hold it to.
#[cfg(test)]
pub(crate) fn mutual_inductance_per_um2_powf(
    polygon_um: &[Point],
    z_um: f64,
    dipole_x_um: f64,
    dipole_y_um: f64,
) -> f64 {
    loop_integral(polygon_um, z_um, [dipole_x_um], dipole_y_um, |a_dl, r| {
        a_dl / r.powf(1.5)
    })[0]
}

/// `∮ |A·dl|` by the same quadrature: the scale of the rounding error
/// of [`mutual_inductance_per_um2`], which equals its magnitude wherever
/// no terms cancel (a dipole inside a convex loop).
#[cfg(test)]
fn abs_line_integral_per_um2(
    polygon_um: &[Point],
    z_um: f64,
    dipole_x_um: f64,
    dipole_y_um: f64,
) -> f64 {
    loop_integral(polygon_um, z_um, [dipole_x_um], dipole_y_um, |a_dl, r| {
        a_dl.abs() / r.powf(1.5)
    })[0]
}

/// `B_z` (tesla) of a vertical dipole of moment `m_si` (A·m²) at lateral
/// distance `rho_m` and height `z_m` — used for cross-checking the line
/// integral in tests and for field-map visualization.
pub fn dipole_bz(m_si: f64, rho_m: f64, z_m: f64) -> f64 {
    let r2 = rho_m * rho_m + z_m * z_m;
    MU0 * m_si / (4.0 * std::f64::consts::PI) * (2.0 * z_m * z_m - rho_m * rho_m) / r2.powf(2.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_loop(half_um: f64, cx: f64, cy: f64) -> Vec<Point> {
        vec![
            Point::new(cx - half_um, cy - half_um),
            Point::new(cx + half_um, cy - half_um),
            Point::new(cx + half_um, cy + half_um),
            Point::new(cx - half_um, cy + half_um),
        ]
    }

    #[test]
    fn centered_dipole_couples_positively() {
        let m = mutual_inductance_per_um2(&square_loop(50.0, 0.0, 0.0), 5.0, 0.0, 0.0);
        assert!(m > 0.0);
    }

    #[test]
    fn reversed_loop_flips_the_sign() {
        let ccw = square_loop(50.0, 0.0, 0.0);
        let cw: Vec<Point> = ccw.iter().rev().copied().collect();
        let a = mutual_inductance_per_um2(&ccw, 5.0, 0.0, 0.0);
        let b = mutual_inductance_per_um2(&cw, 5.0, 0.0, 0.0);
        assert!((a + b).abs() < 1e-12 * a.abs().max(1e-30));
    }

    #[test]
    fn coupling_decays_with_coil_height() {
        let near = mutual_inductance_per_um2(&square_loop(50.0, 0.0, 0.0), 5.0, 0.0, 0.0);
        let far = mutual_inductance_per_um2(&square_loop(50.0, 0.0, 0.0), 100.0, 0.0, 0.0);
        assert!(
            near > 5.0 * far,
            "near {near:.3e} should dominate far {far:.3e}"
        );
    }

    #[test]
    fn distant_dipole_couples_weakly() {
        let inside = mutual_inductance_per_um2(&square_loop(50.0, 0.0, 0.0), 5.0, 0.0, 0.0);
        let outside = mutual_inductance_per_um2(&square_loop(50.0, 0.0, 0.0), 5.0, 500.0, 0.0);
        assert!(inside.abs() > 100.0 * outside.abs());
    }

    #[test]
    fn line_integral_matches_circular_disk_formula() {
        // For a circular loop of radius R centred over the dipole, the flux
        // has the closed form Φ = μ0 m R² / (2 (R²+z²)^{3/2}).
        let radius_um = 80.0;
        let z_um = 10.0;
        let n = 720;
        let circle: Vec<Point> = (0..n)
            .map(|i| {
                let th = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point::new(radius_um * th.cos(), radius_um * th.sin())
            })
            .collect();
        let numeric = mutual_inductance_per_um2(&circle, z_um, 0.0, 0.0);
        let r = radius_um * 1e-6;
        let z = z_um * 1e-6;
        let analytic = MU0 * 1e-12 * r * r / (2.0 * (r * r + z * z).powf(1.5));
        assert!(
            (numeric - analytic).abs() < 0.01 * analytic,
            "numeric {numeric:.4e} vs analytic {analytic:.4e}"
        );
    }

    #[test]
    fn sqrt_kernel_agrees_with_the_powf_reference_on_every_call() {
        // Square loops from a small turn to a full 630 µm die spiral turn,
        // and the probe's 180-gon, at both coil heights; dipoles on a grid
        // that runs well outside every loop. The error is relative to
        // ∮|A·dl|, which is |M| for every dipole inside a loop (all of the
        // probe's calls). Outside a small loop the terms cancel down to
        // ~1e-19 H, where a plain relative error reaches 4e-14.
        let circle: Vec<Point> = (0..180)
            .map(|i| {
                let th = 2.0 * std::f64::consts::PI * i as f64 / 180.0;
                Point::new(1575.0 * th.cos(), 1575.0 * th.sin())
            })
            .collect();
        let loops = [
            square_loop(20.0, 0.0, 0.0),
            square_loop(150.0, 10.0, -5.0),
            square_loop(315.0, 0.0, 0.0),
            circle,
        ];
        for poly in &loops {
            for z in [5.0, 100.0] {
                for iy in -20..=20 {
                    for ix in -20..=20 {
                        let (x, y) = (ix as f64 * 41.0, iy as f64 * 37.0);
                        let fast = mutual_inductance_per_um2(poly, z, x, y);
                        let reference = mutual_inductance_per_um2_powf(poly, z, x, y);
                        let scale = abs_line_integral_per_um2(poly, z, x, y);
                        let rel = (fast - reference).abs() / scale;
                        assert!(
                            rel <= 1e-14,
                            "z {z}, dipole ({x}, {y}): {fast:e} vs {reference:e} ({rel:.1e})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_lanes_are_bit_identical_to_single_dipole_calls() {
        // A 100 µm edge at z = 5 µm is exactly 10 steps of 10 µm, so the
        // rounding of `(b − x) − (a − x)` gives some dipoles an 11th
        // step: the sweep must include rows whose lanes disagree, or the
        // lone-lane tail goes unexercised.
        let poly = square_loop(50.0, 3.0, -2.0);
        let edge_steps = |x: f64| {
            let (a, b) = ((poly[0].x - x) * 1e-6, (poly[1].x - x) * 1e-6);
            ((b - a).abs() / 10e-6).ceil() as usize
        };
        let mut ragged_rows = 0;
        for iy in -12..=12 {
            let y = iy as f64 * 10.0;
            for ix in (-40..40).step_by(8) {
                let xs: [f64; 8] = std::array::from_fn(|k| (ix + k as i32) as f64 * 10.0);
                let lanes = mutual_inductance_row_per_um2(&poly, 5.0, xs, y);
                for (&x, lane) in xs.iter().zip(lanes) {
                    let single = mutual_inductance_per_um2(&poly, 5.0, x, y);
                    assert_eq!(lane.to_bits(), single.to_bits(), "dipole ({x}, {y})");
                }
                if xs.iter().any(|&x| edge_steps(x) != edge_steps(xs[0])) {
                    ragged_rows += 1;
                }
            }
        }
        assert!(ragged_rows > 0, "no row exercised a lone-lane tail");
    }

    #[test]
    fn bz_changes_sign_at_the_magic_angle() {
        // Bz > 0 under the axis, < 0 far to the side (2z² < ρ²).
        assert!(dipole_bz(1.0, 0.0, 1e-6) > 0.0);
        assert!(dipole_bz(1.0, 10e-6, 1e-6) < 0.0);
    }

    #[test]
    #[should_panic(expected = "above the dipole")]
    fn zero_height_is_rejected() {
        let _ = mutual_inductance_per_um2(&square_loop(10.0, 0.0, 0.0), 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "3 vertices")]
    fn degenerate_polygon_is_rejected() {
        let _ =
            mutual_inductance_per_um2(&[Point::new(0.0, 0.0), Point::new(1.0, 0.0)], 5.0, 0.0, 0.0);
    }
}
