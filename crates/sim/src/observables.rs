//! Macroscopic observables extracted from distribution fields.

use lbm_core::field::{DistField, ScalarField, VectorField};
use lbm_core::kernels::{KernelCtx, MAX_Q};
use lbm_core::moments::Moments;

/// Compute density and velocity over the *owned* region of `f`.
pub fn macro_fields(ctx: &KernelCtx, f: &DistField) -> (ScalarField, VectorField) {
    let owned = f.owned_dims();
    let d = f.alloc_dims();
    let q = ctx.lat.q();
    let h = f.halo();
    let mut rho = ScalarField::new(owned);
    let mut u = VectorField::new(owned);
    let mut cell = [0.0f64; MAX_Q];
    for x in 0..owned.nx {
        for y in 0..owned.ny {
            for z in 0..owned.nz {
                let lin = d.idx(x + h, y, z);
                f.gather_cell(lin, &mut cell[..q]);
                let m = Moments::of_cell(&ctx.lat, &cell[..q]);
                rho.set(x, y, z, m.rho);
                u.set(x, y, z, m.u);
            }
        }
    }
    (rho, u)
}

/// Mean `u_axis(y)` profile over the owned x planes for `y ∈ y_range`,
/// averaged over all z (`z_slice = None`) or taken at one z slice — the
/// latter is the cavity centre-line observable.
pub fn u_profile(
    ctx: &KernelCtx,
    f: &DistField,
    y_range: std::ops::Range<usize>,
    axis: usize,
    z_slice: Option<usize>,
) -> Vec<f64> {
    profile_impl(ctx, f, y_range, axis, z_slice, None)
}

/// Mean `u_axis(y)` over the *fluid* cells of each row of `bounds` (masked
/// solid cells skipped — their transform state is not a flow velocity).
/// Rows with no fluid cells in the scanned z range report 0.
pub fn u_profile_fluid(
    ctx: &KernelCtx,
    f: &DistField,
    bounds: &lbm_core::boundary::BoundarySpec,
    axis: usize,
    z_slice: Option<usize>,
) -> Vec<f64> {
    let ny = f.alloc_dims().ny;
    profile_impl(ctx, f, bounds.fluid_y(ny), axis, z_slice, Some(bounds))
}

fn profile_impl(
    ctx: &KernelCtx,
    f: &DistField,
    y_range: std::ops::Range<usize>,
    axis: usize,
    z_slice: Option<usize>,
    bounds: Option<&lbm_core::boundary::BoundarySpec>,
) -> Vec<f64> {
    assert!(axis < 3, "velocity axis must be 0..3");
    let d = f.alloc_dims();
    let q = ctx.lat.q();
    let owned_x = f.owned_x();
    let mut cell = [0.0f64; MAX_Q];
    let mut out = Vec::with_capacity(y_range.len());
    let z_range = match z_slice {
        Some(z) => z..z + 1,
        None => 0..d.nz,
    };
    for y in y_range {
        let mut sum = 0.0;
        let mut n = 0usize;
        for x in owned_x.clone() {
            for z in z_range.clone() {
                if bounds.is_some_and(|b| !b.is_fluid(d.ny, y, z)) {
                    continue;
                }
                let lin = d.idx(x, y, z);
                f.gather_cell(lin, &mut cell[..q]);
                let m = Moments::of_cell(&ctx.lat, &cell[..q]);
                sum += m.u[axis];
                n += 1;
            }
        }
        out.push(if n > 0 { sum / n as f64 } else { 0.0 });
    }
    out
}

/// Density on the plane `z = z_slice` over the owned region, as a 2-D
/// (nx × ny) scalar field — the Fig. 1-style visual.
pub fn density_slice(ctx: &KernelCtx, f: &DistField, z_slice: usize) -> ScalarField {
    let owned = f.owned_dims();
    let d = f.alloc_dims();
    let q = ctx.lat.q();
    let h = f.halo();
    let mut out = ScalarField::new(lbm_core::index::Dim3::new(owned.nx, owned.ny, 1));
    let mut cell = [0.0f64; MAX_Q];
    for x in 0..owned.nx {
        for y in 0..owned.ny {
            let lin = d.idx(x + h, y, z_slice);
            f.gather_cell(lin, &mut cell[..q]);
            let m = Moments::of_cell(&ctx.lat, &cell[..q]);
            out.set(x, y, 0, m.rho);
        }
    }
    out
}

/// Peak |u| over the owned region (stability monitor).
pub fn max_speed(ctx: &KernelCtx, f: &DistField) -> f64 {
    max_speed_fluid(ctx, f, &lbm_core::boundary::BoundarySpec::periodic())
}

/// Peak |u| over the owned *fluid* cells of `bounds` (wall rows and masked
/// cells skipped — their populations carry boundary-transform state whose
/// formal "velocity" is not a flow observable).
pub fn max_speed_fluid(
    ctx: &KernelCtx,
    f: &DistField,
    bounds: &lbm_core::boundary::BoundarySpec,
) -> f64 {
    let d = f.alloc_dims();
    let q = ctx.lat.q();
    let mut cell = [0.0f64; MAX_Q];
    let mut peak: f64 = 0.0;
    for x in f.owned_x() {
        for y in bounds.fluid_y(d.ny) {
            for z in 0..d.nz {
                if !bounds.is_fluid(d.ny, y, z) {
                    continue;
                }
                let lin = d.idx(x, y, z);
                f.gather_cell(lin, &mut cell[..q]);
                let m = Moments::of_cell(&ctx.lat, &cell[..q]);
                let s = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).sqrt();
                peak = peak.max(s);
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::Bgk;
    use lbm_core::equilibrium::EqOrder;
    use lbm_core::index::Dim3;
    use lbm_core::lattice::LatticeKind;

    fn ctx() -> KernelCtx {
        KernelCtx::new(LatticeKind::D3Q19, EqOrder::Second, Bgk::new(0.8).unwrap())
    }

    #[test]
    fn macro_fields_recover_initialisation() {
        let c = ctx();
        let mut f = DistField::new(c.lat.q(), Dim3::new(4, 5, 6), 1).unwrap();
        lbm_core::init::from_macroscopic(&c, &mut f, |x, y, z| {
            (
                1.0 + 0.01 * x as f64,
                [0.001 * y as f64, 0.0, 0.002 * z as f64],
            )
        });
        let (rho, u) = macro_fields(&c, &f);
        // owned x index 0 maps to alloc x=1.
        assert!((rho.get(0, 0, 0) - 1.01).abs() < 1e-12);
        assert!((u.get(0, 3, 0)[0] - 0.003).abs() < 1e-12);
        assert!((u.get(0, 0, 4)[2] - 0.008).abs() < 1e-12);
    }

    #[test]
    fn profile_averages_over_x_and_z() {
        let c = ctx();
        let mut f = DistField::new(c.lat.q(), Dim3::new(3, 4, 5), 0).unwrap();
        lbm_core::init::from_macroscopic(&c, &mut f, |_x, y, _z| {
            (1.0, [y as f64 * 0.01, 0.0, 0.0])
        });
        let p = u_profile(&c, &f, 0..4, 0, None);
        for (y, v) in p.iter().enumerate() {
            assert!((v - y as f64 * 0.01).abs() < 1e-12, "y={y}");
        }
    }

    #[test]
    fn density_slice_and_max_speed() {
        let c = ctx();
        let mut f = DistField::new(c.lat.q(), Dim3::new(3, 3, 4), 0).unwrap();
        lbm_core::init::from_macroscopic(&c, &mut f, |x, _y, z| {
            (if z == 2 { 1.5 } else { 1.0 }, [0.01 * x as f64, 0.0, 0.0])
        });
        let s = density_slice(&c, &f, 2);
        assert!((s.get(1, 1, 0) - 1.5).abs() < 1e-12);
        let s0 = density_slice(&c, &f, 0);
        assert!((s0.get(1, 1, 0) - 1.0).abs() < 1e-12);
        assert!((max_speed(&c, &f) - 0.02).abs() < 1e-9);
    }
}
