//! `SIMD` — explicit short-vector collide (paper §V-G).
//!
//! The paper hand-coded double-hummer intrinsics (BG/P) and QPX quad-word
//! operations (BG/Q) for the collide function, on 16-byte-aligned data. The
//! host analogue is AVX2+FMA over 4-wide `f64` lanes: four consecutive
//! z-cells are collided at once — moment accumulation, one vector reciprocal,
//! equilibrium polynomial, and relaxation all in vector registers with fused
//! multiply-adds (the same `fpmadd` idea the paper invokes).
//!
//! The kernel is generic over the cell operator
//! ([`crate::kernels::op::CollideOp`]): the [`PlainBgk`] instantiation is
//! the periodic ladder rung, while [`GuoForced`](crate::kernels::op)
//! broadcasts the force vector into the vectorized moment accumulation
//! (half-force velocity shift) and adds the hoisted Guo source —
//! `sa_i − sb_i (u·G) + sc_i ξ_i` — in the relax pass, two extra fmas per
//! (lane group, velocity). Row dispatch is [`BoundarySpec`]-aware: wall rows
//! are skipped and masked cells excluded via fluid z-runs, each run swept
//! vector-first with a scalar tail, so walled/forced scenarios run the same
//! vectorized collide as the periodic flows.
//!
//! Feature detection happens at runtime; without AVX2+FMA the rung falls
//! back to the shared scalar cell-operator body (so the crate stays
//! portable, and the benchmark harness reports when the fallback was taken).
//! Streaming is already a memcpy exercise after LoBr, so this rung reuses
//! the CF/LoBr stream.

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::op::{self, CollideOp, OpConsts, PlainBgk};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::KernelCtx;

/// True when the vectorized path is available on this CPU.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Copy a finished row (or frame) of populations to its destination with
/// non-temporal stores: a two-grid step writes every destination value once
/// and does not read it again this step, so streaming it past the cache
/// saves the read-for-ownership of every line. A scalar head brings the
/// destination to a 16-byte boundary — dense rows of odd `nz` start 8 bytes
/// off one — then a `MOVNTPD` body, then a scalar tail. Values are copied
/// bit for bit either way. Pair every sequence of calls with an [`sfence`].
/// Always inlined, so a caller's fixed row length reaches the loop.
#[inline(always)]
pub(crate) fn stream_frame(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_loadu_pd, _mm_stream_pd};
        let n = dst.len();
        let head = usize::from(n > 0 && dst.as_ptr() as usize % 16 != 0);
        let tail = head + (n - head) / 2 * 2;
        if head == 1 {
            dst[0] = src[0];
        }
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        let run = |lo: usize, hi: usize| {
            for k in (lo..hi).step_by(2) {
                // SAFETY: both calls below pass hi ≤ tail ≤ n and an even
                // hi − lo, so k + 2 ≤ n for both slices; `d + lo` is 16-byte
                // aligned (lo is where the head ends) and k steps by 2.
                unsafe { _mm_stream_pd(d.add(k), _mm_loadu_pd(s.add(k))) };
            }
        };
        if head == 0 && tail == n {
            // Aligned even copies, among them every sparse frame row: the
            // caller's own bounds let a fixed-length row unroll fully.
            run(0, n);
        } else {
            run(head, tail);
        }
        if tail < n {
            dst[tail] = src[tail];
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

/// Drain the write-combining buffers after a non-temporal store sequence.
/// Called once per raw-body call (i.e. per chunk of the sweep), *before*
/// the chunk completes: NT stores are weakly ordered, and the disjoint-chunk
/// bitwise guarantee needs every chunk's stores globally visible when its
/// task joins.
#[inline]
pub(crate) fn sfence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SFENCE is baseline SSE, always present on x86_64.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    };
}

/// Vectorized BGK collide over planes `x ∈ [x_lo, x_hi)`; falls back to the
/// scalar cell-operator body when AVX2+FMA is unavailable.
pub fn collide(ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
    collide_cells(ctx, f, x_lo, x_hi, PlainBgk, &BoundarySpec::periodic());
}

/// Vectorized boundary-aware collide: the rule `op` applied to every fluid
/// cell of `bounds` over planes `x ∈ [x_lo, x_hi)` (wall rows and masked
/// cells untouched), AVX2+FMA when available with scalar fallback, chunked
/// across the installed pool (see [`super::par`]).
pub fn collide_cells<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    if x_lo >= x_hi {
        return;
    }
    let d = f.alloc_dims();
    debug_assert!(x_hi <= d.nx);
    let total = f.as_slice().len();
    let slab_len = f.slab_stride();
    let base = SendPtr(f.as_mut_ptr());
    let oc = OpConsts::new(ctx, &op);
    x_chunks(x_lo, x_hi, |lo, hi| {
        // SAFETY: `&mut f` is held for the whole sweep and the chunks
        // partition [x_lo, x_hi), so each call has exclusive access to its
        // planes; offsets are bounded by the layout contract.
        unsafe { collide_cells_raw::<O>(base.get(), total, slab_len, ctx, &oc, bounds, d, lo, hi) }
    });
}

/// Raw-pointer dispatch of one chunk: AVX2+FMA when available, the shared
/// scalar body otherwise.
///
/// # Safety
/// Same contract as [`op::collide_cells_raw`].
#[allow(clippy::too_many_arguments)]
unsafe fn collide_cells_raw<O: CollideOp>(
    base_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    ctx: &KernelCtx,
    oc: &OpConsts,
    bounds: &BoundarySpec,
    d: crate::index::Dim3,
    x_lo: usize,
    x_hi: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_available() {
            // SAFETY: feature presence checked above; contract forwarded.
            unsafe {
                if ctx.third_order() {
                    collide_avx2::<true, O>(
                        base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi,
                    );
                } else {
                    collide_avx2::<false, O>(
                        base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi,
                    );
                }
            }
            return;
        }
    }
    // SAFETY: contract forwarded.
    unsafe { op::collide_cells_raw::<O>(base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi) }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available and the layout/exclusivity
/// contract of [`op::collide_cells_raw`] holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn collide_avx2<const THIRD: bool, O: CollideOp>(
    base_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    ctx: &KernelCtx,
    oc: &OpConsts,
    bounds: &BoundarySpec,
    d: crate::index::Dim3,
    x_lo: usize,
    x_hi: usize,
) {
    use std::arch::x86_64::*;

    const LANES: usize = 4;
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let fluid_y = bounds.fluid_y(d.ny);
    let mask = bounds.mask();
    let hg = oc.half_g;
    let g = oc.g;

    // SAFETY: all pointer offsets below are i*slab_len + base + z with
    // z + LANES ≤ nz, hence within `total`; debug-asserted per row.
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

        for x in x_lo..x_hi {
            for y in fluid_y.clone() {
                let base = d.idx(x, y, 0);
                debug_assert!(base + d.nz <= slab_len);
                // Fluid z-runs of this row (one full run when there is no
                // mask), each run swept vector-first with a scalar tail.
                let mut zs = 0usize;
                while let Some((run_lo, run_hi)) = op::next_fluid_run(mask, y, d.nz, &mut zs) {
                    let run_len = run_hi - run_lo;
                    let vec_end = run_lo + (run_len - run_len % LANES);
                    let mut z = run_lo;
                    while z < vec_end {
                        let off = base + z;
                        // Pass 1: moments.
                        let mut vrho = _mm256_setzero_pd();
                        let mut vmx = _mm256_setzero_pd();
                        let mut vmy = _mm256_setzero_pd();
                        let mut vmz = _mm256_setzero_pd();
                        for i in 0..q {
                            let c = oc.cw[i];
                            debug_assert!(i * slab_len + off + LANES <= total);
                            let fv = _mm256_loadu_pd(base_ptr.add(i * slab_len + off));
                            vrho = _mm256_add_pd(vrho, fv);
                            if c[0] != 0.0 {
                                vmx = _mm256_fmadd_pd(fv, _mm256_set1_pd(c[0]), vmx);
                            }
                            if c[1] != 0.0 {
                                vmy = _mm256_fmadd_pd(fv, _mm256_set1_pd(c[1]), vmy);
                            }
                            if c[2] != 0.0 {
                                vmz = _mm256_fmadd_pd(fv, _mm256_set1_pd(c[2]), vmz);
                            }
                        }
                        let vinv = _mm256_div_pd(v_one, vrho);
                        if O::FORCED {
                            // Guo half-force shift of the momentum before the
                            // velocity division: u = (m + G/2)/ρ.
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
                        let vug = if O::FORCED {
                            _mm256_fmadd_pd(
                                vux,
                                v_g0,
                                _mm256_fmadd_pd(vuy, v_g1, _mm256_mul_pd(vuz, v_g2)),
                            )
                        } else {
                            _mm256_setzero_pd()
                        };
                        // Pass 2: equilibrium + relax (+ Guo source).
                        for i in 0..q {
                            let c = oc.cw[i];
                            let mut vxi = _mm256_setzero_pd();
                            if c[0] != 0.0 {
                                vxi = _mm256_fmadd_pd(_mm256_set1_pd(c[0]), vux, vxi);
                            }
                            if c[1] != 0.0 {
                                vxi = _mm256_fmadd_pd(_mm256_set1_pd(c[1]), vuy, vxi);
                            }
                            if c[2] != 0.0 {
                                vxi = _mm256_fmadd_pd(_mm256_set1_pd(c[2]), vuz, vxi);
                            }
                            // poly = 1 + xi/cs2 + xi²/(2cs⁴) − u²/(2cs²) [+ third]
                            let mut vpoly = _mm256_fmadd_pd(vxi, v_inv_cs2, v_one);
                            vpoly = _mm256_fmadd_pd(_mm256_mul_pd(vxi, vxi), v_inv_2cs4, vpoly);
                            vpoly = _mm256_fnmadd_pd(vu2, v_inv_2cs2, vpoly);
                            if THIRD {
                                let t = _mm256_fnmadd_pd(v_3cs2, vu2, _mm256_mul_pd(vxi, vxi));
                                vpoly = _mm256_fmadd_pd(_mm256_mul_pd(vxi, t), v_inv_6cs6, vpoly);
                            }
                            let vfeq =
                                _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(c[3]), vrho), vpoly);
                            let p = base_ptr.add(i * slab_len + off);
                            let fv = _mm256_loadu_pd(p);
                            let mut out = _mm256_fmadd_pd(v_omega, _mm256_sub_pd(vfeq, fv), fv);
                            if O::FORCED {
                                // S_i = sa_i − sb_i (u·G) + sc_i ξ_i.
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
                            _mm256_storeu_pd(p, out);
                        }
                        z += LANES;
                    }
                    // Scalar tail (run_len % 4 cells), reciprocal form.
                    while z < run_hi {
                        let off = base + z;
                        let mut rho = 0.0;
                        let mut m = [0.0f64; 3];
                        for i in 0..q {
                            let c = oc.cw[i];
                            let fv = *base_ptr.add(i * slab_len + off);
                            rho += fv;
                            m[0] += fv * c[0];
                            m[1] += fv * c[1];
                            m[2] += fv * c[2];
                        }
                        let inv = 1.0 / rho;
                        let u = if O::FORCED {
                            [
                                (m[0] + hg[0]) * inv,
                                (m[1] + hg[1]) * inv,
                                (m[2] + hg[2]) * inv,
                            ]
                        } else {
                            [m[0] * inv, m[1] * inv, m[2] * inv]
                        };
                        let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
                        let ug = u[0] * g[0] + u[1] * g[1] + u[2] * g[2];
                        for i in 0..q {
                            let c = oc.cw[i];
                            let xi = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
                            let mut poly =
                                1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
                            if THIRD {
                                poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
                            }
                            let feq = c[3] * rho * poly;
                            let p = base_ptr.add(i * slab_len + off);
                            let fv = *p;
                            let mut next = fv + omega * (feq - fv);
                            if O::FORCED {
                                next += oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
                            }
                            *p = next;
                        }
                        z += 1;
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
    use crate::kernels::dh;
    use crate::kernels::op::GuoForced;
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.85).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, 0).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.04 + (state % 769) as f64 / 1300.0;
        }
        f
    }

    #[test]
    fn simd_collide_matches_dh_within_fma_tolerance() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            // nz = 11 forces a 3-cell scalar tail.
            let dims = Dim3::new(4, 3, 11);
            let mut a = random_field(c.lat.q(), dims, 71);
            let mut b = a.clone();
            dh::collide(&c, &mut a, 0, dims.nx);
            collide(&c, &mut b, 0, dims.nx);
            let diff = a.max_abs_diff_owned(&b);
            // FMA re-rounding only: differences are a few ulps of O(1) values.
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn simd_collide_conserves_mass_exactly_enough() {
        let c = ctx(LatticeKind::D3Q39);
        let dims = Dim3::new(3, 3, 16);
        let mut f = random_field(c.lat.q(), dims, 5);
        let before = f.owned_mass();
        collide(&c, &mut f, 0, dims.nx);
        let after = f.owned_mass();
        assert!(
            (before - after).abs() < 1e-10 * before.abs(),
            "{before} vs {after}"
        );
    }

    #[test]
    fn forced_simd_matches_forced_scalar_within_fma_tolerance() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(3, 8, 11); // scalar tail + walls
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls::no_slip(3))
                .with_mask(SectionMask::from_fn(8, 11, |_y, z| z == 5));
            let op = GuoForced {
                g: [4e-5, 0.0, -2e-5],
            };
            let mut a = random_field(c.lat.q(), dims, 77);
            let mut b = a.clone();
            op::collide_cells(&c, &mut a, 0, dims.nx, op, &bounds);
            collide_cells(&c, &mut b, 0, dims.nx, op, &bounds);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn forced_simd_skips_walls_and_mask() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 9);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(6, 9, |_y, z| z == 4));
        let mut f = random_field(c.lat.q(), dims, 13);
        let before = f.clone();
        collide_cells(
            &c,
            &mut f,
            0,
            dims.nx,
            GuoForced {
                g: [1e-4, 0.0, 0.0],
            },
            &bounds,
        );
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 0..dims.nx {
                for z in 0..dims.nz {
                    for y in [0usize, 5] {
                        let lin = d.idx(x, y, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "wall row");
                    }
                    let lin = d.idx(x, 2, z);
                    if z == 4 {
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        assert!(f.max_abs_diff_owned(&before) > 0.0, "fluid must collide");
    }

    #[test]
    fn availability_probe_is_stable() {
        assert_eq!(simd_available(), simd_available());
    }
}
