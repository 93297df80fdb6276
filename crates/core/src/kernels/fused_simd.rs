//! Vectorized fused stream+collide — the `Fused` rung's vector path.
//!
//! Same single-pass data flow as the scalar [`crate::kernels::fused`] kernel
//! (one read and one write per velocity), with no tile in between. Each
//! fluid row is a row view for the lane-generic ±c pair body the sparse
//! backend and the AA sweep also run ([`crate::kernels::op`]'s
//! `tile_pairs`: paired moment sums, one division per line, equilibrium
//! and Guo source once per pair), on the widest lane instance the CPU runs
//! (AVX-512 or AVX2, bitwise equal):
//!
//! * **Loads** — velocity `i` reads its arrivals in place, from its source
//!   row `(x − cx_i, y − cy_i)` shifted by `−cz_i`. In the groups at the
//!   row's ends (its seams), the velocities whose window wraps in z read
//!   through an 8-lane stack buffer, filled from a wrap-index table built
//!   once per call. The body's moment loop touches every velocity's source
//!   row `op::AHEAD` doubles (4 lines) past each 8-cell group: Q streams are
//!   more than the hardware prefetcher follows. Past a row's end the touch
//!   lands on the next y-row, which is read next.
//! * **Stores** — 8 cells at a time, so every velocity row of a group is one
//!   whole 64-byte line of `dst`, written with one 8-lane or two
//!   back-to-back 4-lane streaming stores and no read-for-ownership: `2·Q·8` bytes/cell is what reaches
//!   DRAM. When `nz` is not a multiple of 8 the rows are not line-aligned;
//!   such rows collide 64 cells at a time into a stack frame that goes to
//!   `dst` as one non-temporal row copy per velocity. Each chunk of the
//!   sweep ends with one `sfence`.
//!
//! Like the scalar variant, the kernel is generic over the cell operator
//! ([`crate::kernels::op::CollideOp`]) and boundary-aware. Wall rows gather
//! into a `Q × 64` tile and store its wall transform instead of colliding
//! (the scalar kernel's code, bitwise). Masked cells take the pair body's
//! bounce select `(t_i, t_o) = (f_o, f_i)`, which is the scalar kernel's
//! full-way bounce-back, bitwise. Fluid cells agree with the scalar kernel
//! within re-rounding, since pair evaluation reassociates the arithmetic.
//!
//! Feature detection happens once, at runtime
//! ([`crate::kernels::simd::lanes`]); without AVX2+FMA the rung falls back
//! to the scalar fused kernel, so the crate stays portable.

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::fused;
#[cfg(target_arch = "x86_64")]
use crate::kernels::op::{Avx512, Lane, Portable, GROUP};
use crate::kernels::op::{CollideOp, PlainBgk};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::simd::{self, Lanes};
use crate::kernels::{KernelCtx, StreamTables};

/// One fused LBM step `dst ← collide(pull(src))` over planes
/// `x ∈ [x_lo, x_hi)`, vectorized when the host supports AVX2+FMA (on
/// 8 lanes where it also has AVX-512F) and
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
    stream_collide_on(simd::lanes(), ctx, tables, src, dst, x_lo, x_hi, op, bounds);
}

/// [`stream_collide_cells`] on the pair-body instance `lanes` (checked to
/// run on this CPU), or the scalar fused kernel on [`Lanes::Scalar`].
#[allow(clippy::too_many_arguments)]
fn stream_collide_on<O: CollideOp>(
    lanes: Lanes,
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    let lanes = simd::supported(lanes);
    fused::check_fused_bounds(ctx, src, dst, x_lo, x_hi);
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_ptr());
    x_chunks(x_lo, x_hi, |lo, hi| {
        // SAFETY: `&mut dst` is held for the whole sweep, the chunks
        // partition [x_lo, x_hi) — which the bounds check above keeps inside
        // the allocation — so each call writes its own planes of `dst`;
        // `src` is only read and never aliases `dst` (distinct fields). The
        // CPU runs `lanes` (checked above).
        unsafe {
            stream_collide_cells_raw(
                lanes,
                ctx,
                tables,
                src,
                base.get(),
                total,
                lo,
                hi,
                op,
                bounds,
            )
        }
    });
}

/// Raw-destination dispatch of one chunk: the pair body on `lanes`, or the
/// scalar fused kernel on [`Lanes::Scalar`].
///
/// # Safety
/// The CPU must run `lanes`, and the contract of
/// [`fused::stream_collide_cells_raw`] must hold.
#[allow(clippy::too_many_arguments)]
unsafe fn stream_collide_cells_raw<O: CollideOp>(
    lanes: Lanes,
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
    // SAFETY: the CPU runs `lanes`, and the entry points have this
    // function's layout contract, which the caller upholds.
    unsafe {
        let (d, t) = (dst_ptr, total);
        match (lanes, ctx.third_order()) {
            (Lanes::Avx512, true) => {
                return fused_avx512::<true, O>(ctx, tables, src, d, t, x_lo, x_hi, op, bounds)
            }
            (Lanes::Avx512, false) => {
                return fused_avx512::<false, O>(ctx, tables, src, d, t, x_lo, x_hi, op, bounds)
            }
            (Lanes::Avx2, true) => {
                return fused_avx2::<true, O>(ctx, tables, src, d, t, x_lo, x_hi, op, bounds)
            }
            (Lanes::Avx2, false) => {
                return fused_avx2::<false, O>(ctx, tables, src, d, t, x_lo, x_hi, op, bounds)
            }
            (Lanes::Scalar, _) => {}
        }
    }
    // SAFETY: the scalar fused body has this function's contract, which the
    // caller upholds.
    unsafe {
        fused::stream_collide_cells_raw(ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds)
    }
}

/// The vector fused pass of one chunk on the lane instance `V` (see the
/// module docs).
///
/// # Safety
/// The layout/exclusivity contract of [`fused::stream_collide_cells_raw`]
/// must hold.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn fused_rows<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
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
    use crate::kernels::fused::ZBF;
    use crate::kernels::op::{tile_pairs, OpConsts, PairConsts, RowPtrs, GROUP};
    use crate::kernels::simd::{sfence, stream_frame};
    use crate::kernels::MAX_Q;

    /// Cells per call of the pair body: one `u64` fluid word.
    const CHUNK: usize = u64::BITS as usize;
    let d = src.alloc_dims();
    debug_assert!(x_lo >= ctx.lat.reach());
    debug_assert!(x_hi + ctx.lat.reach() <= d.nx);
    let q = ctx.lat.q();
    let k = ctx.lat.reach();
    let nz = d.nz;
    let slab_len = src.slab_stride();
    let vel = ctx.lat.velocities();
    let mask = bounds.mask();
    let src_data = src.as_slice();

    // The shared per-invocation hoist (see `kernels::op`) and its ±c pairs.
    let oc = OpConsts::new(ctx, &op);
    let pc = PairConsts::new(&oc, q);

    // Rows start on a cache line when `nz` is a whole number of groups: the
    // body then streams straight into `dst`. Otherwise it collides into
    // `frame`, which is streamed out row by row.
    let direct = nz.is_multiple_of(GROUP)
        && slab_len.is_multiple_of(GROUP)
        && (dst_ptr as usize).is_multiple_of(64);
    // The group at z reads source cells [z − cz, z − cz + 8), inside the
    // row for every |cz| ≤ k iff k ≤ z and z + 8 + k ≤ nz.
    let interior = |z: usize| z >= k && z + GROUP + k <= nz;
    // wrap[z − cz + k] = (z − cz) mod nz, for every lane of a seam group.
    let wrap: Vec<usize> = (0..nz + 2 * k)
        .map(|t| (t as isize - k as isize).rem_euclid(nz as isize) as usize)
        .collect();

    // Wall-row gather tile, the collided chunk of an unaligned row, and the
    // seam groups' wrapped arrivals; all stay cache-hot.
    let mut fq = [[0.0f64; ZBF]; MAX_Q];
    let mut frame = [[0.0f64; CHUNK]; MAX_Q];
    let mut seam = [[0.0f64; GROUP]; MAX_Q];
    // The source rows of a seam group: in place or in `seam`.
    let mut seam_from: [*const f64; MAX_Q];

    // SAFETY: source rows are `row_off[i] + [0, nz)` inside `src_data`; the
    // body reads `sp[i] + z + [0, 8)` only where that window lies inside the
    // row, and everything else from `seam`. It writes `dp[i] + [0, nz)`
    // — row (x, y) of slab i, within `total` (debug-asserted) and in plane
    // x ∈ [x_lo, x_hi), which the caller grants exclusively — or `frame`.
    // `direct` rows are 64-byte aligned, as the streaming stores of either
    // lane instance need; `v` proves the instance's features.
    unsafe {
        for x in x_lo..x_hi {
            for y in 0..d.ny {
                let dbase = d.idx(x, y, 0);
                let mut row_off = [0usize; MAX_Q];
                for i in 0..q {
                    let c = vel[i];
                    let xs = (x as isize - c[0] as isize) as usize;
                    let ys = tables.y_for(c[1]).src(y);
                    row_off[i] = i * slab_len + d.idx(xs, ys, 0);
                    debug_assert!(i * slab_len + dbase + nz <= total);
                }
                if let Some(kind) = bounds.wall_row_kind(d.ny, y) {
                    // Solid wall row: rotate-copy each velocity's shifted
                    // z-segment into the tile (at most two memcpys, as in
                    // the scalar fused kernel) and store its transform —
                    // the in-pass form of the split boundary apply.
                    for z0 in (0..nz).step_by(ZBF) {
                        let blk = (nz - z0).min(ZBF);
                        for i in 0..q {
                            let srow = &src_data[row_off[i]..][..nz];
                            let line = &mut fq[i];
                            let start =
                                (z0 as isize - vel[i][2] as isize).rem_euclid(nz as isize) as usize;
                            if start + blk <= nz {
                                line[..blk].copy_from_slice(&srow[start..start + blk]);
                            } else {
                                let first = nz - start;
                                line[..first].copy_from_slice(&srow[start..]);
                                line[first..blk].copy_from_slice(&srow[..blk - first]);
                            }
                        }
                        fused::store_wall_block(
                            ctx, kind, &fq, &oc.opp, q, dst_ptr, total, slab_len, dbase, z0, blk,
                        );
                    }
                    continue;
                }
                // The row view: shifted source rows, `dst` rows.
                let mut sp = [src_data.as_ptr(); MAX_Q];
                let mut dp = [dst_ptr; MAX_Q];
                for i in 0..q {
                    sp[i] = sp[i].add(row_off[i]).wrapping_offset(-(vel[i][2] as isize));
                    dp[i] = dp[i].add(i * slab_len + dbase);
                }
                for z0 in (0..nz).step_by(CHUNK) {
                    let n = (nz - z0).min(CHUNK);
                    // Masked cells clear their bit and take the body's
                    // bounce select; pad lanes stay fluid.
                    let fluid = mask.map_or(u64::MAX, |m| {
                        (0..n)
                            .filter(|&j| m.is_solid(y, z0 + j))
                            .fold(u64::MAX, |bits, j| bits & !(1 << j))
                    });
                    let mut out = dp;
                    if !direct {
                        for i in 0..q {
                            out[i] = frame[i].as_mut_ptr().wrapping_sub(z0);
                        }
                    }
                    let mut z = z0;
                    while z < z0 + n {
                        let (from, groups) = if interior(z) {
                            let mut end = z + GROUP;
                            while end < z0 + n && interior(end) {
                                end += GROUP;
                            }
                            (&sp, (end - z) / GROUP)
                        } else {
                            // Seam group: a velocity whose window leaves the
                            // row, or any velocity of a short last group,
                            // reads wrapped lanes (pad lanes 1.0, a harmless
                            // density, never stored); the others still load
                            // in place.
                            let lanes = (nz - z).min(GROUP);
                            seam_from = sp;
                            for i in 0..q {
                                let cz = vel[i][2] as isize;
                                let s = z as isize - cz;
                                if lanes == GROUP && s >= 0 && s as usize + GROUP <= nz {
                                    continue;
                                }
                                let srow = &src_data[row_off[i]..][..nz];
                                let at = s + k as isize;
                                for (l, x) in seam[i].iter_mut().enumerate() {
                                    *x = if l < lanes {
                                        srow[wrap[at as usize + l]]
                                    } else {
                                        1.0
                                    };
                                }
                                seam_from[i] = seam[i].as_ptr().wrapping_sub(z);
                            }
                            (&seam_from, 1)
                        };
                        let (rows, bits) = (RowPtrs(from, &out), fluid >> (z - z0));
                        if direct {
                            tile_pairs::<V, THIRD, true, O, _>(
                                v, ctx, &oc, &pc, rows, z, groups, bits,
                            );
                        } else {
                            tile_pairs::<V, THIRD, false, O, _>(
                                v, ctx, &oc, &pc, rows, z, groups, bits,
                            );
                        }
                        z += groups * GROUP;
                    }
                    if !direct {
                        for (row, &to) in frame.iter().zip(&dp).take(q) {
                            stream_frame(&row[..n], std::slice::from_raw_parts_mut(to.add(z0), n));
                        }
                    }
                }
            }
        }
    }
    sfence();
}

/// [`fused_rows`] on [`Portable<8>`](Portable).
///
/// # Safety
/// AVX2+FMA must be available, and [`fused_rows`]' contract must hold.
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
    // SAFETY: AVX2+FMA and the layout contract per this function's contract.
    unsafe {
        let v = Portable::<GROUP>::assume();
        fused_rows::<_, THIRD, O>(v, ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds)
    }
}

/// [`fused_rows`] on [`Avx512`].
///
/// # Safety
/// AVX-512F, AVX2 and FMA must be available, and [`fused_rows`]' contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fused_avx512<const THIRD: bool, O: CollideOp>(
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
    // SAFETY: AVX-512F, AVX2, FMA and the layout contract per this function's
    // contract.
    unsafe {
        let v = Avx512::assume();
        fused_rows::<_, THIRD, O>(v, ctx, tables, src, dst_ptr, total, x_lo, x_hi, op, bounds)
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

    #[test]
    fn fused_simd_matches_fused_scalar_on_every_row_shape() {
        // Every row shape the AVX2 pass can meet: single cells, short last
        // groups with pad lanes, rows made only of seam groups, rows of
        // whole 8-cell groups streamed straight into `dst` (nz 8, 48, 64,
        // 96, 128), several 64-cell chunks and unaligned rows (odd nz)
        // under the streamed copy-out. Fluid cells agree with scalar fused
        // within re-rounding; wall rows and masked cells are
        // copies/transforms of the same arrivals, so they are bitwise. And
        // the whole output is bitwise the scalar-pulled rows run through
        // the pair body's frame-row instantiation.
        if !simd::simd_available() {
            return;
        }
        type Solid = fn(usize, usize) -> bool;
        let masks: [Option<Solid>; 3] = [
            None,
            // Every 4-lane line mixes solid and fluid lanes.
            Some(|y, z| (y + z) % 3 == 0),
            // Cells 4..8 of every row: one all-solid line.
            Some(|_, z| (4..8).contains(&z)),
        ];
        let ny = 4;
        for kind in LatticeKind::ALL {
            for nz in (1..=13).chain([48, 64, 67, 96, 128]) {
                // The fused gather wraps z by rotate-copy, valid at any nz,
                // and reads only the y tables; the z tables need nz > 3.
                let tables = StreamTables::new(ny, nz.max(4));
                for order in [EqOrder::Second, EqOrder::Third] {
                    let c = ctx(kind, order);
                    let src = random_field(c.lat.q(), Dim3::new(2, ny, nz), c.lat.reach(), 7);
                    for (m, walls) in (0..masks.len()).flat_map(|m| [(m, false), (m, true)]) {
                        let mut bounds = BoundarySpec::periodic();
                        if let Some(solid) = masks[m] {
                            bounds = bounds.with_mask(SectionMask::from_fn(ny, nz, solid));
                        }
                        if walls {
                            bounds = bounds.with_walls(ChannelWalls::no_slip(1));
                        }
                        let case = format!("{kind:?} {order:?} nz={nz} mask {m} walls={walls}");
                        let g = [3e-5, -2e-5, 1e-5];
                        assert_simd_matches_scalar(&c, &tables, &src, &bounds, PlainBgk, &case);
                        assert_simd_matches_scalar(
                            &c,
                            &tables,
                            &src,
                            &bounds,
                            GuoForced { g },
                            &case,
                        );
                    }
                }
            }
        }
    }

    /// One fused step of `src` by the scalar and the AVX2 kernel: fluid
    /// cells agree to 1e-13, wall rows and masked cells bitwise, and the
    /// AVX2 output is bitwise [`frame_body_image`] of the step.
    fn assert_simd_matches_scalar<O: CollideOp>(
        c: &KernelCtx,
        tables: &StreamTables,
        src: &DistField,
        bounds: &BoundarySpec,
        op: O,
        case: &str,
    ) {
        let k = c.lat.reach();
        let d = src.alloc_dims();
        let (mut a, mut b) = (src.clone(), src.clone());
        fused::stream_collide_cells(c, tables, src, &mut a, k, d.nx - k, op, bounds);
        stream_collide_cells(c, tables, src, &mut b, k, d.nx - k, op, bounds);
        for i in 0..c.lat.q() {
            for x in k..d.nx - k {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let (va, vb) = (a.slab(i)[d.idx(x, y, z)], b.slab(i)[d.idx(x, y, z)]);
                        let ok = if bounds.is_fluid(d.ny, y, z) {
                            (va - vb).abs() <= 1e-13
                        } else {
                            va.to_bits() == vb.to_bits()
                        };
                        assert!(
                            ok,
                            "{case} forced={} slot {i} at ({x},{y},{z}): scalar {va} vs simd {vb}",
                            O::FORCED
                        );
                    }
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            let want = frame_body_image(c, src, bounds, op, &a);
            let (got, want) = (b.as_slice(), want.as_slice());
            for (p, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{case} forced={} at offset {p}: row view {g} vs frame body {w}",
                    O::FORCED
                );
            }
        }
    }

    /// What the AVX2 fused step must write, built the slow way: each fluid
    /// row pulled by a per-cell scalar gather into a `q·64` frame, 64 cells
    /// at a time, and run through the pair body's frame-row instantiation
    /// (the sparse steps' body), with the fluid bits of `bounds`. Wall rows
    /// and the planes outside the sweep come from `walls`, the scalar fused
    /// step.
    #[cfg(target_arch = "x86_64")]
    fn frame_body_image<O: CollideOp>(
        c: &KernelCtx,
        src: &DistField,
        bounds: &BoundarySpec,
        op: O,
        walls: &DistField,
    ) -> DistField {
        use crate::geometry::TILE_CELLS;
        use crate::kernels::op::{frame_pairs_avx2, OpConsts, PairConsts};

        let (q, k) = (c.lat.q(), c.lat.reach());
        let d = src.alloc_dims();
        let oc = OpConsts::new(c, &op);
        let pc = PairConsts::new(&oc, q);
        let wrap =
            |v: usize, s: i32, n: usize| (v as isize - s as isize).rem_euclid(n as isize) as usize;
        let mut image = walls.clone();
        let (mut buf, mut out) = (vec![1.0; q * TILE_CELLS], vec![0.0; q * TILE_CELLS]);
        for x in k..d.nx - k {
            for y in (0..d.ny).filter(|&y| bounds.wall_row_kind(d.ny, y).is_none()) {
                for z0 in (0..d.nz).step_by(TILE_CELLS) {
                    let n = (d.nz - z0).min(TILE_CELLS);
                    let mut fluid = u64::MAX;
                    for j in 0..n {
                        if !bounds.is_fluid(d.ny, y, z0 + j) {
                            fluid &= !(1 << j);
                        }
                        for (i, cv) in c.lat.velocities().iter().enumerate() {
                            let (xs, ys) =
                                ((x as isize - cv[0] as isize) as usize, wrap(y, cv[1], d.ny));
                            buf[i * TILE_CELLS + j] =
                                src.slab(i)[d.idx(xs, ys, wrap(z0 + j, cv[2], d.nz))];
                        }
                    }
                    // SAFETY: the caller checked AVX2+FMA; `buf` and `out`
                    // hold q·64 doubles, as the frame body asserts.
                    unsafe {
                        if c.third_order() {
                            frame_pairs_avx2::<true, O>(c, &oc, &pc, fluid, &buf, &mut out);
                        } else {
                            frame_pairs_avx2::<false, O>(c, &oc, &pc, fluid, &buf, &mut out);
                        }
                    }
                    for i in 0..q {
                        let row = d.idx(x, y, z0);
                        image.slab_mut(i)[row..row + n]
                            .copy_from_slice(&out[i * TILE_CELLS..][..n]);
                    }
                }
            }
        }
        image
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn fused_simd_streamed_stores_stay_inside_the_swept_planes() {
        // The vector pass writes `dst` through raw streaming stores: with
        // all of `dst` NaN-poisoned, one step on [x_lo, x_hi) must leave
        // every value outside those planes (halo planes and slab pads
        // included) with its NaN bits and every value inside finite — on
        // line-aligned rows (nz = 96) and unaligned ones (nz = 13), with and
        // without masked cells, serial and split across a pool, on every
        // vector instance this CPU runs.
        let poison = f64::from_bits(0x7ff8_dead_beef_0001);
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let (q, k) = (c.lat.q(), c.lat.reach());
            for nz in [13, 96] {
                let dims = Dim3::new(6, 5, nz);
                let src = random_field(q, dims, k, 61);
                let tables = StreamTables::new(dims.ny, nz);
                let (x_lo, x_hi) = (k + 1, k + 5);
                for masked in [false, true] {
                    let mut bounds = BoundarySpec::periodic();
                    if masked {
                        bounds =
                            bounds.with_mask(SectionMask::from_fn(5, nz, |y, z| (y + z) % 3 == 0));
                    }
                    for (lanes, threads) in simd::vector_lanes()
                        .into_iter()
                        .flat_map(|l| [(l, 1), (l, 4)])
                    {
                        let mut dst = DistField::new(q, dims, k).unwrap();
                        dst.as_mut_slice().fill(poison);
                        let step = |dst: &mut DistField| {
                            stream_collide_on(
                                lanes, &c, &tables, &src, dst, x_lo, x_hi, PlainBgk, &bounds,
                            )
                        };
                        if threads == 1 {
                            step(&mut dst);
                        } else {
                            pool(threads).install(|| step(&mut dst));
                        }
                        let d = dst.alloc_dims();
                        let stride = dst.slab_stride();
                        for (p, v) in dst.as_slice().iter().enumerate() {
                            let r = p % stride;
                            let inside = r < d.len() && (x_lo..x_hi).contains(&(r / d.plane()));
                            assert!(
                                if inside {
                                    v.is_finite()
                                } else {
                                    v.to_bits() == poison.to_bits()
                                },
                                "{kind:?} nz={nz} masked={masked} {lanes:?} threads={threads} offset {p} \
                                 (inside: {inside}): {v}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_instances_agree_on_the_fused_step() {
        // Every vector instance this CPU runs writes the same bits: single
        // cells, short last groups, seam-only rows, rows streamed straight
        // into `dst` (nz 64, 96) and unaligned rows under the streamed
        // copy-out (67), with masked cells and wall rows, plain and Guo,
        // serial and on 4 threads.
        let ny = 5;
        for kind in LatticeKind::ALL {
            let order = if kind == LatticeKind::D3Q39 {
                EqOrder::Third
            } else {
                EqOrder::Second
            };
            let c = ctx(kind, order);
            let k = c.lat.reach();
            for nz in [1, 3, 8, 13, 64, 67, 96] {
                let dims = Dim3::new(3, ny, nz);
                let tables = StreamTables::new(ny, nz.max(4));
                let src = random_field(c.lat.q(), dims, k, 53 + nz as u64);
                let bounds = BoundarySpec::periodic()
                    .with_walls(ChannelWalls::no_slip(1))
                    .with_mask(SectionMask::from_fn(ny, nz, |y, z| (y + z) % 3 == 0));
                for (g, threads) in [([0.0; 3], 1), ([3e-5, -2e-5, 1e-5], 4)] {
                    let mut first: Option<DistField> = None;
                    for lanes in simd::vector_lanes() {
                        let mut dst = DistField::new(c.lat.q(), dims, k).unwrap();
                        let step = |dst: &mut DistField| {
                            crate::kernels::op::with_op!(g, |op| stream_collide_on(
                                lanes,
                                &c,
                                &tables,
                                &src,
                                dst,
                                k,
                                k + dims.nx,
                                op,
                                &bounds
                            ))
                        };
                        if threads == 1 {
                            step(&mut dst);
                        } else {
                            pool(threads).install(|| step(&mut dst));
                        }
                        let case = format!("{kind:?} nz={nz} g={g:?} {lanes:?}");
                        match &first {
                            None => first = Some(dst),
                            Some(want) => {
                                for (p, (a, b)) in
                                    want.as_slice().iter().zip(dst.as_slice()).enumerate()
                                {
                                    assert!(
                                        a.to_bits() == b.to_bits(),
                                        "{case} offset {p}: {a} vs {b}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Kahan-compensated sum, so the invariant checks below measure the
    /// kernel's rounding and not the checker's.
    fn kahan(terms: impl Iterator<Item = f64>) -> f64 {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        for t in terms {
            let y = t - comp;
            let next = sum + y;
            comp = (next - sum) - y;
            sum = next;
        }
        sum
    }

    #[test]
    fn fused_pair_body_keeps_the_per_cell_invariants() {
        // Every fluid cell keeps the mass of its arrivals and gains exactly
        // G of momentum: |Σ out − Σ f| ≤ 1e-14 ρ and
        // |Σ c·out − Σ c·f − G| ≤ 1e-14, in compensated sums. The arrivals
        // f are the pull-stream of src; near equilibrium, so ρ ≈ 1.
        if !simd::simd_available() {
            return;
        }
        let g = [2e-5, -1e-5, 3e-5];
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let (q, k) = (c.lat.q(), c.lat.reach());
            let vel = c.lat.velocities();
            let dims = Dim3::new(3, 5, 13);
            let mut src = DistField::new(q, dims, k).unwrap();
            let mut s = 29u64;
            for i in 0..q {
                let w = c.lat.weights()[i];
                for v in src.slab_mut(i) {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    *v = w * (1.0 + 0.1 * ((s % 2001) as f64 / 1000.0 - 1.0));
                }
            }
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut arrived = DistField::new(q, dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut arrived, k, k + dims.nx);
            for bounds in [
                BoundarySpec::periodic(),
                BoundarySpec::periodic().with_mask(SectionMask::from_fn(
                    dims.ny,
                    dims.nz,
                    |y, z| (y + z) % 3 == 0,
                )),
            ] {
                let mut out = DistField::new(q, dims, k).unwrap();
                stream_collide_cells(
                    &c,
                    &tables,
                    &src,
                    &mut out,
                    k,
                    k + dims.nx,
                    GuoForced { g },
                    &bounds,
                );
                let d = out.alloc_dims();
                for x in k..k + dims.nx {
                    for y in 0..dims.ny {
                        for z in (0..dims.nz).filter(|&z| bounds.is_fluid(dims.ny, y, z)) {
                            let lin = d.idx(x, y, z);
                            let f = |i: usize| arrived.slab(i)[lin];
                            let t = |i: usize| out.slab(i)[lin];
                            let rho = kahan((0..q).map(f));
                            let dm = kahan((0..q).map(t).chain((0..q).map(|i| -f(i))));
                            assert!(
                                dm.abs() <= 1e-14 * rho,
                                "{kind:?} ({x},{y},{z}) mass {dm:e}"
                            );
                            for ax in 0..3 {
                                let c_ax = |i: usize| f64::from(vel[i][ax]);
                                let dp = kahan(
                                    (0..q)
                                        .map(|i| c_ax(i) * t(i))
                                        .chain((0..q).map(|i| -c_ax(i) * f(i)))
                                        .chain([-g[ax]]),
                                );
                                assert!(
                                    dp.abs() <= 1e-14,
                                    "{kind:?} ({x},{y},{z}) axis {ax}: {dp:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
