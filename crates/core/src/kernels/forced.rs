//! Scenario collide: BGK with optional Guo forcing, restricted to fluid
//! cells (y-wall rows and masked cells skipped).
//!
//! This is the scalar-class collide half used by the `Orig`…`LoBr` rungs
//! whenever a run has boundary conditions or a body force — the
//! walled/driven flows that motivate the paper (§I). Since the
//! [`CollideOp`](crate::kernels::op::CollideOp) refactor the entry point is
//! a thin instantiation of the shared boundary-aware driver in
//! [`crate::kernels::op`]: the per-cell rule is [`GuoForced`] (half-force
//! velocity shift `u = (Σ f c + G/2)/ρ`, BGK relaxation toward `f^eq(ρ, u)`,
//! source `S_i` post-relaxation) or, for `G = 0`, the monomorphized
//! [`PlainBgk`] rule — the identical code path the periodic CF/LoBr collide
//! compiles to.
//!
//! Like every kernel entry point it chunks across the installed pool and is
//! one plain call outside one (see [`crate::kernels::par`]); each chunk runs
//! the identical per-cell arithmetic in the identical order, so threaded
//! scenario runs are bit-identical to serial runs — the same guarantee the
//! periodic ladder kernels give. The SIMD- and Fused-class scenario variants
//! live in [`crate::kernels::simd`] and [`crate::kernels::fused_simd`].

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::op;
use crate::kernels::KernelCtx;

/// Scenario collide over planes `x ∈ [x_lo, x_hi)`: BGK + Guo forcing
/// `g` on every fluid cell of `bounds`, leaving wall rows and masked cells
/// untouched (their post-stream state was already transformed by
/// [`BoundarySpec::apply`]).
pub fn collide_forced(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| op::collide_cells(
        ctx, f, x_lo, x_hi, rule, bounds
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{ChannelWalls, SectionMask};
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.9).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, 0).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.02 + (state % 613) as f64 / 900.0;
        }
        f
    }

    #[test]
    fn unforced_periodic_matches_plain_collide() {
        // g = 0 and no boundaries: must agree with the naive BGK collide to
        // reassociation tolerance (different accumulation form).
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(5, 4, 6);
            let mut a = random_field(c.lat.q(), dims, 7);
            let mut b = a.clone();
            crate::kernels::naive::collide(&c, &mut a, 0, dims.nx);
            collide_forced(&c, &mut b, 0, dims.nx, [0.0; 3], &BoundarySpec::periodic());
            assert!(a.max_abs_diff_owned(&b) < 1e-14, "{kind:?}");
        }
    }

    #[test]
    fn forcing_injects_momentum_and_conserves_mass() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 6, 5);
        let g = [3e-5, 0.0, 0.0];
        let mut f = random_field(c.lat.q(), dims, 11);
        let mass0: f64 = f.as_slice().iter().sum();
        let mom0: f64 = (0..c.lat.q())
            .map(|i| f.slab(i).iter().sum::<f64>() * c.consts.c[i][0])
            .sum();
        collide_forced(&c, &mut f, 0, dims.nx, g, &BoundarySpec::periodic());
        let mass1: f64 = f.as_slice().iter().sum();
        let mom1: f64 = (0..c.lat.q())
            .map(|i| f.slab(i).iter().sum::<f64>() * c.consts.c[i][0])
            .sum();
        assert!((mass0 - mass1).abs() < 1e-10 * mass0, "{mass0} vs {mass1}");
        // The Guo scheme injects exactly g per cell and step: the relaxation
        // toward the half-force-shifted equilibrium contributes ω·g/2 and
        // the source term the remaining (1 − ω/2)·g.
        let cells = (dims.nx * dims.ny * dims.nz) as f64;
        let want = mom0 + cells * g[0];
        assert!((mom1 - want).abs() < 1e-10, "{mom1} vs {want}");
    }

    #[test]
    fn wall_rows_and_masked_cells_are_skipped() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 4);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(6, 4, |_y, z| z == 3));
        let mut f = random_field(c.lat.q(), dims, 23);
        let before = f.clone();
        collide_forced(&c, &mut f, 0, dims.nx, [1e-4, 0.0, 0.0], &bounds);
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 0..dims.nx {
                for z in 0..dims.nz {
                    // Wall rows untouched.
                    for y in [0usize, 5] {
                        let lin = d.idx(x, y, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "wall row");
                    }
                    // Fluid rows changed except the masked column.
                    let lin = d.idx(x, 2, z);
                    if z == 3 {
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        assert!(f.max_abs_diff_owned(&before) > 0.0, "fluid must collide");
    }

    #[test]
    fn parallel_is_bitwise_identical_to_serial() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(11, 8, 7);
            let bounds = BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(3));
            let g = [2e-5, 0.0, 1e-5];
            let mut a = random_field(c.lat.q(), dims, 41);
            let mut b = a.clone();
            collide_forced(&c, &mut a, 0, dims.nx, g, &bounds);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(5)
                .build()
                .unwrap();
            pool.install(|| collide_forced(&c, &mut b, 0, dims.nx, g, &bounds));
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn respects_x_range_and_empty_range() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(6, 4, 4);
        let mut f = random_field(c.lat.q(), dims, 3);
        let before = f.clone();
        collide_forced(&c, &mut f, 2, 2, [0.0; 3], &BoundarySpec::periodic());
        assert_eq!(f.max_abs_diff_owned(&before), 0.0);
        collide_forced(&c, &mut f, 2, 4, [0.0; 3], &BoundarySpec::periodic());
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (0..2).chain(4..6) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &f.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()]
                );
            }
        }
    }
}
