//! Vectorized fused stream+collide — the `Fused` rung's AVX2+FMA path.
//!
//! Same single-pass data flow as the scalar [`crate::kernels::fused`] kernel
//! (`2·Q·8` bytes/cell: one read and one write per velocity), with the
//! moment accumulation, reciprocal, equilibrium polynomial and relaxation
//! performed on 4-wide `f64` z-lanes over the gathered tile — the same
//! vectorization the paper hand-coded for the collide function (§V-G),
//! applied to the kernel shape its conclusion (§VII) asks for.
//!
//! Like the scalar variant, the kernel is generic over the cell operator
//! ([`crate::kernels::op::CollideOp`]) and boundary-aware: the Guo force is
//! broadcast into the vectorized moment accumulation (half-force shift, then
//! the hoisted source `sa_i − sb_i (u·G) + sc_i ξ_i` in the store pass), wall
//! rows store the wall transform of the gathered tile instead of colliding,
//! and masked cells are fixed up with full-way bounce-back after the vector
//! stores — so forced/walled scenarios run the full fused rung.
//!
//! The gather phase is the scalar rotate-copy (it is already a memcpy, which
//! the platform vectorizes); the tile then stays cache-resident for the two
//! vector passes. Feature detection happens at runtime; without AVX2+FMA the
//! rung falls back to the scalar fused kernel, so the crate stays portable.

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::fused::{self, ZBF};
use crate::kernels::op::{CollideOp, PlainBgk};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::simd::simd_available;
use crate::kernels::{KernelCtx, StreamTables};

/// One fused LBM step `dst ← collide(pull(src))` over planes
/// `x ∈ [x_lo, x_hi)`, vectorized when the host supports AVX2+FMA and
/// falling back to the scalar fused kernel otherwise.
///
/// Halo contract identical to [`fused::stream_collide`]: `src` must be valid
/// on `[x_lo − k, x_hi + k)`; `src` is read-only.
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

/// Boundary-aware vectorized fused step: the rule `op` on the fluid cells of
/// `bounds`, the wall/mask transforms on its solid cells, in one pass —
/// chunked over destination planes across the installed pool (see
/// [`super::par`]).
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
    fused::check_fused_bounds(ctx, src, dst, x_lo, x_hi);
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_ptr());
    x_chunks(x_lo, x_hi, |lo, hi| {
        // SAFETY: `&mut dst` is held for the whole sweep, the chunks
        // partition [x_lo, x_hi) — which the bounds check above keeps inside
        // the allocation — so each call writes its own planes of `dst`;
        // `src` is only read and never aliases `dst` (distinct fields).
        unsafe { stream_collide_cells_raw(ctx, tables, src, base.get(), total, lo, hi, op, bounds) }
    });
}

/// Raw-destination dispatch of one chunk: AVX2+FMA when available, scalar
/// fused otherwise.
///
/// # Safety
/// Same contract as [`fused::stream_collide_cells_raw`].
#[allow(clippy::too_many_arguments)]
unsafe fn stream_collide_cells_raw<O: CollideOp>(
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
    #[cfg(target_arch = "x86_64")]
    {
        if simd_available() {
            // SAFETY: feature presence checked above; contract forwarded.
            unsafe {
                if ctx.third_order() {
                    fused_avx2::<true, O>(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds);
                } else {
                    fused_avx2::<false, O>(
                        ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds,
                    );
                }
            }
            return;
        }
    }
    // SAFETY: contract forwarded.
    unsafe {
        fused::stream_collide_cells_raw(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds)
    }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available and the layout/exclusivity
/// contract of [`fused::stream_collide_cells_raw`] holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fused_avx2<const THIRD: bool, O: CollideOp>(
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
    use std::arch::x86_64::*;

    use crate::kernels::op::OpConsts;
    use crate::kernels::MAX_Q;

    const LANES: usize = 4;
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

    // Gather tile plus per-lane moment scratch; everything stays L1/L2-hot.
    let mut fq = [[0.0f64; ZBF]; MAX_Q];
    let mut rho = [0.0f64; ZBF];
    let mut ux = [0.0f64; ZBF];
    let mut uy = [0.0f64; ZBF];
    let mut uz = [0.0f64; ZBF];
    let mut u2 = [0.0f64; ZBF];
    let mut ug = [0.0f64; ZBF];

    let src_data = src.as_slice();

    // SAFETY: all raw offsets below are i·slab_len + dbase + z0 + j with
    // j < blk and z0 + blk ≤ nz, hence within `total`; debug-asserted per
    // row. Tile/scratch loads index stack arrays within ZBF.
    unsafe {
        let v_one = _mm256_set1_pd(1.0);
        let v_omega = _mm256_set1_pd(omega);
        let v_inv_cs2 = _mm256_set1_pd(k.inv_cs2);
        let v_inv_2cs4 = _mm256_set1_pd(k.inv_2cs4);
        let v_inv_2cs2 = _mm256_set1_pd(k.inv_2cs2);
        let v_inv_6cs6 = _mm256_set1_pd(k.inv_6cs6);
        let v_3cs2 = _mm256_set1_pd(3.0 * k.cs2);
        let v_hg0 = _mm256_set1_pd(hg[0]);
        let v_hg1 = _mm256_set1_pd(hg[1]);
        let v_hg2 = _mm256_set1_pd(hg[2]);
        let v_g0 = _mm256_set1_pd(g[0]);
        let v_g1 = _mm256_set1_pd(g[1]);
        let v_g2 = _mm256_set1_pd(g[2]);

        // Balanced z-blocks (sizes differ by ≤ 1) instead of a short tail
        // block: with the row prefetch below hiding the gather latency, the
        // full-ZBF tile wins even for the high-Q lattices, and balanced
        // blocks keep the per-row copy overhead even across blocks.
        let nblocks = nz.div_ceil(ZBF);

        for x in x_lo..x_hi {
            for y in 0..d.ny {
                let wall = bounds.wall_row_kind(d.ny, y);
                let dbase = d.idx(x, y, 0);
                for b in 0..nblocks {
                    let z0 = b * nz / nblocks;
                    let blk = (b + 1) * nz / nblocks - z0;
                    // Round the accumulate/finalize loops up to whole lane
                    // groups: lanes in [blk, vec_end) compute garbage (rho 0
                    // → ±inf/NaN macroscopics — IEEE arithmetic on them has
                    // no penalty) and are never stored to `dst`.
                    let vec_end = blk.div_ceil(LANES) * LANES;
                    // Phase 1 — pull + accumulate: rotate-copy each
                    // velocity's shifted z-segment into the tile (at most
                    // two contiguous memcpys per row, as in the scalar
                    // fused kernel) and immediately fold the L1-hot row
                    // into the moment arrays. Interleaving keeps the tile
                    // from being traversed a second cold time — decisive
                    // for the high-Q lattices whose tile outgrows L1. Wall
                    // rows only gather: their arrivals are transformed.
                    for i in 0..q {
                        let c = vel[i];
                        let xs = (x as isize - c[0] as isize) as usize;
                        let ys = tables.y_for(c[1]).src(y);
                        let row_off = i * slab_len + d.idx(xs, ys, 0);
                        let srow = &src_data[row_off..][..nz];
                        if b == 0 {
                            // Software-prefetch this velocity's *next* y-row:
                            // the gather cycles Q short interleaved streams,
                            // which defeats the hardware streamer exactly for
                            // the high-Q lattices; one row of lookahead per
                            // stream hides the L3 latency. (Clamped in-bounds;
                            // the wrap rows it occasionally misses are noise.)
                            let mut p = row_off + nz;
                            let end = (row_off + 2 * nz).min(src_data.len());
                            while p < end {
                                _mm_prefetch::<_MM_HINT_T0>(src_data.as_ptr().add(p) as *const i8);
                                p += 8;
                            }
                            // …and this velocity's destination row, so the
                            // phase-3 store's read-for-ownership overlaps
                            // the gather instead of stalling the writes.
                            let mut p = i * slab_len + dbase;
                            let end = (p + nz).min(total);
                            while p < end {
                                _mm_prefetch::<_MM_HINT_T0>(dst_ptr.add(p) as *const i8);
                                p += 8;
                            }
                        }
                        let line = &mut fq[i];
                        let start = (z0 as isize - c[2] as isize).rem_euclid(nz as isize) as usize;
                        if start + blk <= nz {
                            line[..blk].copy_from_slice(&srow[start..start + blk]);
                        } else {
                            let first = nz - start;
                            line[..first].copy_from_slice(&srow[start..]);
                            line[first..blk].copy_from_slice(&srow[..blk - first]);
                        }
                        if wall.is_some() {
                            continue;
                        }
                        line[blk..vec_end].fill(0.0);
                        let cf = oc.cw[i];
                        let vcx = _mm256_set1_pd(cf[0]);
                        let vcy = _mm256_set1_pd(cf[1]);
                        let vcz = _mm256_set1_pd(cf[2]);
                        let first_vel = i == 0;
                        let mut j = 0;
                        while j < vec_end {
                            let fv = _mm256_loadu_pd(line.as_ptr().add(j));
                            // rho/ux/uy/uz hold the running moment sums
                            // (velocity division happens after the loop).
                            let (vr, vx, vy, vz) = if first_vel {
                                (
                                    _mm256_setzero_pd(),
                                    _mm256_setzero_pd(),
                                    _mm256_setzero_pd(),
                                    _mm256_setzero_pd(),
                                )
                            } else {
                                (
                                    _mm256_loadu_pd(rho.as_ptr().add(j)),
                                    _mm256_loadu_pd(ux.as_ptr().add(j)),
                                    _mm256_loadu_pd(uy.as_ptr().add(j)),
                                    _mm256_loadu_pd(uz.as_ptr().add(j)),
                                )
                            };
                            _mm256_storeu_pd(rho.as_mut_ptr().add(j), _mm256_add_pd(vr, fv));
                            _mm256_storeu_pd(ux.as_mut_ptr().add(j), _mm256_fmadd_pd(fv, vcx, vx));
                            _mm256_storeu_pd(uy.as_mut_ptr().add(j), _mm256_fmadd_pd(fv, vcy, vy));
                            _mm256_storeu_pd(uz.as_mut_ptr().add(j), _mm256_fmadd_pd(fv, vcz, vz));
                            j += LANES;
                        }
                    }
                    if let Some(kind) = wall {
                        // Solid wall row: store the transform of the tile —
                        // the in-pass form of the split boundary apply.
                        // SAFETY: dbase+z0+blk inside every slab, within
                        // this caller's exclusive x-planes.
                        fused::store_wall_block(
                            ctx, kind, &fq, &oc.opp, q, dst_ptr, total, slab_len, dbase, z0, blk,
                        );
                        continue;
                    }
                    // Phase 2 — finalize macroscopics: one short vector pass
                    // turning the moment sums into velocities (Guo half-force
                    // shift applied to the momentum when forced).
                    let mut j = 0;
                    while j < vec_end {
                        let vrho = _mm256_loadu_pd(rho.as_ptr().add(j));
                        let vinv = _mm256_div_pd(v_one, vrho);
                        let mut vmx = _mm256_loadu_pd(ux.as_ptr().add(j));
                        let mut vmy = _mm256_loadu_pd(uy.as_ptr().add(j));
                        let mut vmz = _mm256_loadu_pd(uz.as_ptr().add(j));
                        if O::FORCED {
                            vmx = _mm256_add_pd(vmx, v_hg0);
                            vmy = _mm256_add_pd(vmy, v_hg1);
                            vmz = _mm256_add_pd(vmz, v_hg2);
                        }
                        let vux = _mm256_mul_pd(vmx, vinv);
                        let vuy = _mm256_mul_pd(vmy, vinv);
                        let vuz = _mm256_mul_pd(vmz, vinv);
                        let vu2 = _mm256_fmadd_pd(
                            vux,
                            vux,
                            _mm256_fmadd_pd(vuy, vuy, _mm256_mul_pd(vuz, vuz)),
                        );
                        _mm256_storeu_pd(ux.as_mut_ptr().add(j), vux);
                        _mm256_storeu_pd(uy.as_mut_ptr().add(j), vuy);
                        _mm256_storeu_pd(uz.as_mut_ptr().add(j), vuz);
                        _mm256_storeu_pd(u2.as_mut_ptr().add(j), vu2);
                        if O::FORCED {
                            let vug = _mm256_fmadd_pd(
                                vux,
                                v_g0,
                                _mm256_fmadd_pd(vuy, v_g1, _mm256_mul_pd(vuz, v_g2)),
                            );
                            _mm256_storeu_pd(ug.as_mut_ptr().add(j), vug);
                        }
                        j += LANES;
                    }
                    // Phase 3 — relax + store: per velocity the broadcasts
                    // are hoisted out of the lane loop, and the row write is
                    // the step's only memory write traffic. Only whole lane
                    // groups inside `blk` are stored vectorized; the last
                    // partial group finishes scalar.
                    let store_end = blk - blk % LANES;
                    for i in 0..q {
                        let c = oc.cw[i];
                        let off = i * slab_len + dbase + z0;
                        debug_assert!(off + blk <= total);
                        let vcx = _mm256_set1_pd(c[0]);
                        let vcy = _mm256_set1_pd(c[1]);
                        let vcz = _mm256_set1_pd(c[2]);
                        let vw = _mm256_set1_pd(c[3]);
                        let mut j = 0;
                        while j < store_end {
                            let vux = _mm256_loadu_pd(ux.as_ptr().add(j));
                            let vuy = _mm256_loadu_pd(uy.as_ptr().add(j));
                            let vuz = _mm256_loadu_pd(uz.as_ptr().add(j));
                            let vu2 = _mm256_loadu_pd(u2.as_ptr().add(j));
                            let vrho = _mm256_loadu_pd(rho.as_ptr().add(j));
                            let vxi = _mm256_fmadd_pd(
                                vcx,
                                vux,
                                _mm256_fmadd_pd(vcy, vuy, _mm256_mul_pd(vcz, vuz)),
                            );
                            // poly = 1 + ξ/cs² + ξ²/(2cs⁴) − u²/(2cs²) [+3rd]
                            let mut vpoly = _mm256_fmadd_pd(vxi, v_inv_cs2, v_one);
                            vpoly = _mm256_fmadd_pd(_mm256_mul_pd(vxi, vxi), v_inv_2cs4, vpoly);
                            vpoly = _mm256_fnmadd_pd(vu2, v_inv_2cs2, vpoly);
                            if THIRD {
                                let t = _mm256_fnmadd_pd(v_3cs2, vu2, _mm256_mul_pd(vxi, vxi));
                                vpoly = _mm256_fmadd_pd(_mm256_mul_pd(vxi, t), v_inv_6cs6, vpoly);
                            }
                            let vfeq = _mm256_mul_pd(_mm256_mul_pd(vw, vrho), vpoly);
                            let fv = _mm256_loadu_pd(fq[i].as_ptr().add(j));
                            let mut out = _mm256_fmadd_pd(v_omega, _mm256_sub_pd(vfeq, fv), fv);
                            if O::FORCED {
                                // S_i = sa_i − sb_i (u·G) + sc_i ξ_i.
                                let vug = _mm256_loadu_pd(ug.as_ptr().add(j));
                                let vs = _mm256_fmadd_pd(
                                    _mm256_set1_pd(oc.sc[i]),
                                    vxi,
                                    _mm256_fnmadd_pd(
                                        _mm256_set1_pd(oc.sb[i]),
                                        vug,
                                        _mm256_set1_pd(oc.sa[i]),
                                    ),
                                );
                                out = _mm256_add_pd(out, vs);
                            }
                            _mm256_storeu_pd(dst_ptr.add(off + j), out);
                            j += LANES;
                        }
                        while j < blk {
                            let xi = c[0] * ux[j] + c[1] * uy[j] + c[2] * uz[j];
                            let mut poly =
                                1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2[j] * k.inv_2cs2;
                            if THIRD {
                                poly += xi * (xi * xi - 3.0 * k.cs2 * u2[j]) * k.inv_6cs6;
                            }
                            let feq = c[3] * rho[j] * poly;
                            let fv = fq[i][j];
                            let mut next = fv + omega * (feq - fv);
                            if O::FORCED {
                                next += oc.sa[i] - oc.sb[i] * ug[j] + oc.sc[i] * xi;
                            }
                            *dst_ptr.add(off + j) = next;
                            j += 1;
                        }
                    }
                    // Masked solid cells inside a fluid row: overwrite the
                    // collided garbage with the full-way bounce-back of the
                    // gathered arrivals (shared with the scalar kernel).
                    if let Some(m) = mask {
                        fused::store_masked_cells(
                            m, &fq, &oc.opp, q, dst_ptr, total, slab_len, y, dbase, z0, blk,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{ChannelWalls, SectionMask};
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::kernels::op::GuoForced;
    use crate::kernels::{dh, OptLevel};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind, order: EqOrder) -> KernelCtx {
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut s = seed | 1;
        for v in f.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = 0.03 + (s % 811) as f64 / 1100.0;
        }
        f
    }

    #[test]
    fn fused_simd_matches_split_within_fma_tolerance() {
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q27, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let k = c.lat.reach();
            // nz = 13 forces both a tile boundary path and a scalar tail.
            let dims = Dim3::new(5, 7, 13);
            let src = random_field(c.lat.q(), dims, k, 91);
            let tables = StreamTables::new(dims.ny, dims.nz);

            let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
            crate::kernels::collide(OptLevel::Dh, &c, &mut split, k, k + dims.nx);

            let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
            stream_collide(&c, &tables, &src, &mut fused, k, k + dims.nx);

            let diff = split.max_abs_diff_owned(&fused);
            // FMA re-rounding only: a few ulps of O(1) values.
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn fused_simd_matches_fused_scalar_closely() {
        let c = ctx(LatticeKind::D3Q39, EqOrder::Third);
        let k = c.lat.reach();
        let dims = Dim3::new(4, 7, 37);
        let src = random_field(c.lat.q(), dims, k, 17);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
        let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
        fused::stream_collide(&c, &tables, &src, &mut a, k, k + dims.nx);
        stream_collide(&c, &tables, &src, &mut b, k, k + dims.nx);
        assert!(a.max_abs_diff_owned(&b) < 1e-13);
    }

    #[test]
    fn fused_simd_scenario_matches_fused_scalar_scenario_closely() {
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let k = c.lat.reach();
            let dims = Dim3::new(4, 9, 13);
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls::no_slip(k))
                .with_mask(SectionMask::from_fn(9, 13, |_y, z| z >= 10));
            let op = GuoForced {
                g: [4e-5, 0.0, -1e-5],
            };
            let src = random_field(c.lat.q(), dims, k, 39);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
            let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
            fused::stream_collide_cells(&c, &tables, &src, &mut a, k, k + dims.nx, op, &bounds);
            stream_collide_cells(&c, &tables, &src, &mut b, k, k + dims.nx, op, &bounds);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
            // Wall rows and masked cells are pure copies/transforms of the
            // same gathered arrivals: bitwise equal even under FMA.
            let d = a.alloc_dims();
            for i in 0..c.lat.q() {
                for x in k..k + dims.nx {
                    for z in 0..dims.nz {
                        for y in (0..k).chain(9 - k..9) {
                            let lin = d.idx(x, y, z);
                            assert_eq!(a.slab(i)[lin], b.slab(i)[lin], "wall row");
                        }
                        if z >= 10 {
                            let lin = d.idx(x, 4, z);
                            assert_eq!(a.slab(i)[lin], b.slab(i)[lin], "masked");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_simd_respects_x_range() {
        let c = ctx(LatticeKind::D3Q19, EqOrder::Second);
        let dims = Dim3::new(8, 7, 9);
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
}
