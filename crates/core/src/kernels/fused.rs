//! Fused stream+collide — the paper's future-work direction implemented.
//!
//! The paper's conclusion (§VII) singles out "methods to alter the algorithm
//! as to reduce the memory accesses per lattice update" as the way past the
//! bandwidth wall. The classic answer is to *fuse* the two sweeps: pull the
//! shifted populations, relax them, and store the post-collision state in a
//! single pass. Per step this moves `2·Q·8` bytes per cell (one read, one
//! write per velocity) instead of the split pipeline's `4·Q·8` (stream
//! read+write, collide read+write) — halving the traffic that Table II
//! proves is the binding constraint.
//!
//! The kernel is generic over the cell operator
//! ([`crate::kernels::op::CollideOp`]) *and* boundary-aware, so the fused
//! top rung also runs walled/forced scenarios in one pass. The key
//! observation is that the split scenario pipeline's three phases touch
//! disjoint state: the boundary transform rewrites only *solid* cells from
//! their own arrivals, and the collide rewrites only *fluid* cells from
//! their own arrivals — so one sweep can dispatch per row/cell:
//!
//! * fluid cells — gather (= the pull-stream), accumulate moments, relax
//!   under the operator (plain or Guo-forced), store;
//! * wall rows — gather, then store the wall transform of the gathered
//!   arrivals (bounce-back / moving / Maxwell-diffuse — identical
//!   arithmetic to [`crate::boundary::BoundarySpec::apply`]);
//! * masked cells — the full-way bounce-back of their gathered arrivals.
//!
//! The result is bitwise identical to the split stream → boundary-apply →
//! forced-collide pipeline while keeping the fused rung's `2·Q·8` traffic.
//!
//! This module holds the scalar variant, [`crate::kernels::fused_simd`] the
//! AVX2+FMA one, and [`crate::kernels::par`] the threaded drivers. The
//! ablation benchmark (`cargo bench -p lbm-bench kernels`) quantifies what
//! the paper predicted.

use crate::boundary::{BoundarySpec, WallKind};
use crate::equilibrium::{feq_i, EqOrder};
use crate::field::DistField;
use crate::kernels::op::{CollideOp, OpConsts, PlainBgk};
use crate::kernels::{KernelCtx, StreamTables, MAX_Q};

/// z-block for the fused gather (the whole Q×ZBF tile lives on the stack:
/// 39×64×8 B ≈ 20 KiB; larger blocks amortise the per-row gather setup).
pub(crate) const ZBF: usize = 64;

/// One fused LBM step over planes `x ∈ [x_lo, x_hi)`: `dst ← collide(pull(src))`.
///
/// Halo contract identical to [`crate::kernels::dh::stream`]: `src` must be
/// valid on `[x_lo − k, x_hi + k)`. `src` is read-only (the double-buffer
/// swap is the caller's, as with the split kernels).
pub fn stream_collide(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    stream_collide_cells(
        ctx,
        tables,
        src,
        dst,
        x_lo,
        x_hi,
        PlainBgk,
        &BoundarySpec::periodic(),
    );
}

/// Boundary-aware fused step: the rule `op` on the fluid cells of `bounds`,
/// the wall/mask transforms on its solid cells, all in one pass.
#[allow(clippy::too_many_arguments)]
pub fn stream_collide_cells<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    check_fused_bounds(ctx, src, dst, x_lo, x_hi);
    let total = dst.as_slice().len();
    let dst_ptr = dst.as_mut_ptr();
    // SAFETY: `&mut dst` grants exclusive access to all `total` doubles, and
    // the bounds check above keeps every raw write inside them.
    unsafe { stream_collide_cells_raw(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds) }
}

/// Hard bounds/shape checks shared by the safe fused entry points: the raw
/// kernels write through pointers, so an out-of-range `x_hi` must fail loudly
/// here (in release builds too) rather than corrupt memory.
pub(crate) fn check_fused_bounds(
    ctx: &KernelCtx,
    src: &DistField,
    dst: &DistField,
    x_lo: usize,
    x_hi: usize,
) {
    assert_eq!(src.alloc_dims(), dst.alloc_dims(), "src/dst shape mismatch");
    assert_eq!(src.q(), dst.q(), "src/dst velocity-count mismatch");
    let k = ctx.lat.reach();
    assert!(
        x_lo >= k && x_hi + k <= src.alloc_dims().nx,
        "fused x-range [{x_lo}, {x_hi}) needs k = {k} halo planes inside nx = {}",
        src.alloc_dims().nx
    );
}

/// Raw-destination form of the boundary-aware fused step, shared with the
/// SIMD fallback.
///
/// # Safety
/// `dst_ptr` must point to `total` initialised doubles laid out exactly like
/// `src` (same `alloc_dims`, same `q`, consecutive velocity slabs), and the
/// caller must guarantee exclusive access to the x-planes `[x_lo, x_hi)` of
/// every slab. `src` must be valid on `[x_lo − k, x_hi + k)` and must not
/// alias the destination.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn stream_collide_cells_raw<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst_ptr: *mut f64,
    total: usize,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    // SAFETY: `fused_impl` has this function's contract, which the caller
    // upholds.
    unsafe {
        if ctx.third_order() {
            fused_impl::<true, O>(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds);
        } else {
            fused_impl::<false, O>(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds);
        }
    }
}

/// Store the wall transform of the gathered arrivals for one z-block of a
/// solid wall row — the tile-resident form of
/// [`crate::boundary::BoundarySpec::apply`]'s per-row transform (identical
/// per-cell arithmetic, so fused and split scenario paths agree bitwise).
///
/// # Safety
/// `dst_ptr`/`total`/`slab_len` as in [`stream_collide_cells_raw`];
/// `dbase + z0 + blk` must stay within every slab and inside the caller's
/// exclusive x-plane range; `blk ≤ ZBF`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn store_wall_block(
    ctx: &KernelCtx,
    kind: WallKind,
    fq: &[[f64; ZBF]; MAX_Q],
    opp: &[usize; MAX_Q],
    q: usize,
    dst_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    dbase: usize,
    z0: usize,
    blk: usize,
) {
    let cs2 = ctx.lat.cs2();
    match kind {
        WallKind::BounceBack => {
            for i in 0..q {
                let off = i * slab_len + dbase + z0;
                debug_assert!(off + blk <= total);
                let line = &fq[opp[i]];
                for j in 0..blk {
                    // SAFETY: off+blk ≤ total per the caller's contract.
                    unsafe { *dst_ptr.add(off + j) = line[j] };
                }
            }
        }
        WallKind::Moving { u, rho } => {
            for i in 0..q {
                let c = ctx.lat.velocities()[i];
                let cu = c[0] as f64 * u[0] + c[1] as f64 * u[1] + c[2] as f64 * u[2];
                // The identical expression BoundarySpec::apply evaluates per
                // cell; it is constant per velocity, so hoisting it out of
                // the z loop preserves every bit.
                let corr = 2.0 * ctx.lat.weights()[i] * rho * cu / cs2;
                let off = i * slab_len + dbase + z0;
                debug_assert!(off + blk <= total);
                let line = &fq[opp[i]];
                for j in 0..blk {
                    // SAFETY: j < blk and off+blk ≤ total per the caller's
                    // contract.
                    unsafe { *dst_ptr.add(off + j) = line[j] + corr };
                }
            }
        }
        WallKind::Diffuse { u } => {
            // Per-cell arriving mass, accumulated over velocities in index
            // order — the same summation order BoundarySpec::apply uses.
            let mut mass = [0.0f64; ZBF];
            for line in fq.iter().take(q) {
                for j in 0..blk {
                    mass[j] += line[j];
                }
            }
            for i in 0..q {
                let off = i * slab_len + dbase + z0;
                debug_assert!(off + blk <= total);
                for (j, m) in mass.iter().enumerate().take(blk) {
                    // feq sums to its density argument, so emitting
                    // feq(mass, u_wall) conserves the arriving mass.
                    // SAFETY: j < blk and off+blk ≤ total per the caller's
                    // contract.
                    unsafe { *dst_ptr.add(off + j) = feq_i(&ctx.lat, EqOrder::Second, i, *m, u) };
                }
            }
        }
    }
}

/// Overwrite the masked solid cells of one fluid-row z-block with the
/// full-way bounce-back of their gathered arrivals. (The AVX2 kernel gets
/// the same values from its pair body's bounce blend.)
///
/// # Safety
/// `dst_ptr`/`total`/`slab_len` as in [`stream_collide_cells_raw`];
/// `dbase + z0 + blk` must stay within every slab and inside the caller's
/// exclusive x-plane range; `blk ≤ ZBF`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn store_masked_cells(
    mask: &crate::boundary::SectionMask,
    fq: &[[f64; ZBF]; MAX_Q],
    opp: &[usize; MAX_Q],
    q: usize,
    dst_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    y: usize,
    dbase: usize,
    z0: usize,
    blk: usize,
) {
    for j in 0..blk {
        if mask.is_solid(y, z0 + j) {
            for i in 0..q {
                let off = i * slab_len + dbase + z0 + j;
                debug_assert!(off < total);
                // SAFETY: off < total per the caller's contract.
                unsafe { *dst_ptr.add(off) = fq[opp[i]][j] };
            }
        }
    }
}

/// # Safety
/// See [`stream_collide_cells_raw`].
#[allow(clippy::too_many_arguments)]
unsafe fn fused_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst_ptr: *mut f64,
    total: usize,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    let d = src.alloc_dims();
    debug_assert!(x_lo >= ctx.lat.reach());
    debug_assert!(x_hi + ctx.lat.reach() <= d.nx);
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let nz = d.nz;
    let slab_len = src.slab_stride();
    let vel = ctx.lat.velocities();
    let mask = bounds.mask();

    // The one shared per-invocation hoist: equilibrium-constant rows, the
    // bounce-back permutation, the force terms, and the Guo source
    // coefficients when forced — see `kernels::op`.
    let oc = OpConsts::new(ctx, &op);
    let g = oc.g;
    let hg = oc.half_g;

    // Gather tile: pulled populations for one z-block, all velocities.
    let mut fq = [[0.0f64; ZBF]; MAX_Q];
    let mut rho = [0.0f64; ZBF];
    let mut mx = [0.0f64; ZBF];
    let mut my = [0.0f64; ZBF];
    let mut mz = [0.0f64; ZBF];
    let mut ux = [0.0f64; ZBF];
    let mut uy = [0.0f64; ZBF];
    let mut uz = [0.0f64; ZBF];
    let mut u2 = [0.0f64; ZBF];
    let mut ug = [0.0f64; ZBF];

    let src_data = src.as_slice();

    for x in x_lo..x_hi {
        for y in 0..d.ny {
            let wall = bounds.wall_row_kind(d.ny, y);
            let dbase = d.idx(x, y, 0);
            let mut z0 = 0;
            while z0 < nz {
                let blk = (nz - z0).min(ZBF);
                rho[..blk].fill(0.0);
                mx[..blk].fill(0.0);
                my[..blk].fill(0.0);
                mz[..blk].fill(0.0);
                // Pull + accumulate: for each velocity, gather the shifted
                // z-segment as at most two contiguous copies (the rotate-copy
                // of the optimized stream, not per-element wrap lookups) and
                // fold it into the moments (wall rows only gather — their
                // arrivals are transformed, not collided).
                for i in 0..q {
                    let c = vel[i];
                    let xs = (x as isize - c[0] as isize) as usize;
                    let ys = tables.y_for(c[1]).src(y);
                    let srow = &src_data[i * slab_len + d.idx(xs, ys, 0)..][..nz];
                    let line = &mut fq[i];
                    // Source start for dst index z0: (z0 − cz) mod nz.
                    let start = (z0 as isize - c[2] as isize).rem_euclid(nz as isize) as usize;
                    if start + blk <= nz {
                        line[..blk].copy_from_slice(&srow[start..start + blk]);
                    } else {
                        let first = nz - start;
                        line[..first].copy_from_slice(&srow[start..]);
                        line[first..blk].copy_from_slice(&srow[..blk - first]);
                    }
                    if wall.is_none() {
                        let cf = oc.cw[i];
                        for j in 0..blk {
                            let fv = line[j];
                            rho[j] += fv;
                            mx[j] += fv * cf[0];
                            my[j] += fv * cf[1];
                            mz[j] += fv * cf[2];
                        }
                    }
                }
                if let Some(kind) = wall {
                    // Solid wall row: the arrivals are transformed, not
                    // collided — the in-pass form of the split pipeline's
                    // boundary-apply step.
                    // SAFETY: dbase+z0+blk is inside every slab (same
                    // bound as the stores below), within this caller's
                    // exclusive x-planes.
                    unsafe {
                        store_wall_block(
                            ctx, kind, &fq, &oc.opp, q, dst_ptr, total, slab_len, dbase, z0, blk,
                        )
                    };
                    z0 += blk;
                    continue;
                }
                for j in 0..blk {
                    let inv = 1.0 / rho[j];
                    if O::FORCED {
                        ux[j] = (mx[j] + hg[0]) * inv;
                        uy[j] = (my[j] + hg[1]) * inv;
                        uz[j] = (mz[j] + hg[2]) * inv;
                        ug[j] = ux[j] * g[0] + uy[j] * g[1] + uz[j] * g[2];
                    } else {
                        ux[j] = mx[j] * inv;
                        uy[j] = my[j] * inv;
                        uz[j] = mz[j] * inv;
                    }
                    u2[j] = ux[j] * ux[j] + uy[j] * uy[j] + uz[j] * uz[j];
                }
                // Relax and store — the only write traffic of the step.
                for i in 0..q {
                    let cf = oc.cw[i];
                    let line = &fq[i];
                    let off = i * slab_len + dbase + z0;
                    debug_assert!(off + blk <= total);
                    // SAFETY: off+blk ≤ total per the layout contract, and
                    // x ∈ [x_lo, x_hi) keeps writes inside this caller's
                    // exclusive plane range.
                    let out = unsafe { std::slice::from_raw_parts_mut(dst_ptr.add(off), blk) };
                    for (j, o) in out.iter_mut().enumerate() {
                        let xi = cf[0] * ux[j] + cf[1] * uy[j] + cf[2] * uz[j];
                        let mut poly =
                            1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2[j] * k.inv_2cs2;
                        if THIRD {
                            poly += xi * (xi * xi - 3.0 * k.cs2 * u2[j]) * k.inv_6cs6;
                        }
                        let feq = cf[3] * rho[j] * poly;
                        let fv = line[j];
                        let mut next = fv + omega * (feq - fv);
                        if O::FORCED {
                            next += oc.sa[i] - oc.sb[i] * ug[j] + oc.sc[i] * xi;
                        }
                        *o = next;
                    }
                }
                // Masked solid cells inside a fluid row: overwrite the
                // collided garbage with the full-way bounce-back of their
                // gathered arrivals (sparse — cavity side walls and carved
                // geometry).
                if let Some(m) = mask {
                    // SAFETY: dbase+z0+blk stays inside every slab and in
                    // this caller's exclusive x-planes, as for the stores
                    // above, and blk ≤ ZBF.
                    unsafe {
                        store_masked_cells(
                            m, &fq, &oc.opp, q, dst_ptr, total, slab_len, y, dbase, z0, blk,
                        )
                    };
                }
                z0 += blk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::ChannelWalls;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::kernels::op::GuoForced;
    use crate::kernels::{dh, OptLevel};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.75).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut s = seed | 1;
        for v in f.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = 0.03 + (s % 709) as f64 / 1000.0;
        }
        f
    }

    #[test]
    fn fused_equals_split_stream_then_collide() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            // nz = 37 straddles a fused block boundary.
            let dims = Dim3::new(6, 7, 37);
            let src = random_field(c.lat.q(), dims, k, 77);
            let tables = StreamTables::new(dims.ny, dims.nz);

            let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
            crate::kernels::collide(OptLevel::Dh, &c, &mut split, k, k + dims.nx);

            let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
            stream_collide(&c, &tables, &src, &mut fused, k, k + dims.nx);

            assert_eq!(split.max_abs_diff_owned(&fused), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn fused_scenario_equals_split_scenario_bitwise() {
        // The boundary-aware fused pass must reproduce the split pipeline
        // (stream → boundary apply → forced collide) bit for bit.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(5, 9, 13);
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls::no_slip(k))
                .with_mask(crate::boundary::SectionMask::from_fn(9, 13, |_y, z| {
                    z >= 10
                }));
            let g = [3e-5, 0.0, 1e-5];
            let src = random_field(c.lat.q(), dims, k, 51);
            let tables = StreamTables::new(dims.ny, dims.nz);

            let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
            bounds.apply(&c, &mut split, k, k + dims.nx);
            crate::kernels::forced::collide_forced(&c, &mut split, k, k + dims.nx, g, &bounds);

            let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
            stream_collide_cells(
                &c,
                &tables,
                &src,
                &mut fused,
                k,
                k + dims.nx,
                GuoForced { g },
                &bounds,
            );
            assert_eq!(split.max_abs_diff_owned(&fused), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn fused_scenario_handles_moving_and_diffuse_walls_bitwise() {
        use crate::boundary::WallKind;
        let c = ctx(LatticeKind::D3Q19);
        let k = c.lat.reach();
        let dims = Dim3::new(4, 8, 9);
        let bounds = BoundarySpec::periodic().with_walls(ChannelWalls {
            low: WallKind::Diffuse { u: [0.0; 3] },
            high: WallKind::Moving {
                u: [0.04, 0.0, 0.02],
                rho: 1.0,
            },
            layers: 1,
        });
        let src = random_field(c.lat.q(), dims, k, 67);
        let tables = StreamTables::new(dims.ny, dims.nz);

        let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
        dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
        bounds.apply(&c, &mut split, k, k + dims.nx);
        crate::kernels::forced::collide_forced(&c, &mut split, k, k + dims.nx, [0.0; 3], &bounds);

        let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
        stream_collide_cells(
            &c,
            &tables,
            &src,
            &mut fused,
            k,
            k + dims.nx,
            PlainBgk,
            &bounds,
        );
        assert_eq!(split.max_abs_diff_owned(&fused), 0.0);
    }

    #[test]
    fn fused_respects_x_range() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(8, 6, 8);
        let src = random_field(c.lat.q(), dims, 1, 3);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut dst = DistField::new(c.lat.q(), dims, 1).unwrap();
        let before = dst.clone();
        stream_collide(&c, &tables, &src, &mut dst, 3, 5);
        let d = dst.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (1..3).chain(5..9) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &dst.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()],
                    "x={x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "halo planes")]
    fn fused_rejects_out_of_range_x_in_release_too() {
        // The raw-pointer kernels must never be reachable with a range that
        // walks off the allocation: the safe wrapper asserts (not
        // debug-asserts) the halo contract.
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 7, 8);
        let src = random_field(c.lat.q(), dims, 1, 5);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut dst = DistField::new(c.lat.q(), dims, 1).unwrap();
        // alloc nx = 6, k = 1: x_hi may be at most 5.
        stream_collide(&c, &tables, &src, &mut dst, 1, 6);
    }

    #[test]
    fn fused_is_split_invariant() {
        let c = ctx(LatticeKind::D3Q39);
        let dims = Dim3::new(8, 7, 9);
        let k = c.lat.reach();
        let src = random_field(c.lat.q(), dims, k, 21);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut whole = DistField::new(c.lat.q(), dims, k).unwrap();
        stream_collide(&c, &tables, &src, &mut whole, k, k + dims.nx);
        let mut parts = DistField::new(c.lat.q(), dims, k).unwrap();
        stream_collide(&c, &tables, &src, &mut parts, k, k + 3);
        stream_collide(&c, &tables, &src, &mut parts, k + 3, k + dims.nx);
        assert_eq!(whole.max_abs_diff_owned(&parts), 0.0);
    }
}
