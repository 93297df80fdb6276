//! `DH` — data-handling kernels (paper §V-B).
//!
//! The paper's biggest single-node win (30% on BG/P, 75% on BG/Q):
//!
//! * **stream**: loops reordered so each velocity slab is swept contiguously
//!   (“all velocities are iterated over followed by the z-, y- and
//!   x-coordinates in memory order”). Here that becomes one rotate-copy of
//!   each z-line: at most two `copy_from_slice` calls per (velocity, x, y)
//!   row — pure streaming stores that saturate load/store units;
//! * **collide**: z-line blocks processed in two passes over the velocity
//!   slabs (moment accumulation, then relax), with macroscopic division
//!   replaced by one reciprocal per cell and all equilibrium constants
//!   hoisted ([`crate::equilibrium::EqConsts`]).

use crate::field::DistField;
use crate::kernels::{KernelCtx, StreamTables};

/// z-block length for the line-blocked collide (fits L1 comfortably:
/// 8 stack lines × 64 × 8 B = 4 KiB).
pub(crate) const ZB: usize = 64;

/// Stream one velocity's slab over `x ∈ [x_lo, x_hi)` using rotate-copies.
///
/// Factored out so [`crate::kernels::par::stream_par`] can run one velocity
/// per task — each task owns its destination slab exclusively.
pub fn stream_velocity(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src_slab: &[f64],
    dst_slab: &mut [f64],
    dims: crate::index::Dim3,
    i: usize,
    x_lo: usize,
    x_hi: usize,
) {
    let c = ctx.lat.velocities()[i];
    let (cx, cy, cz) = (c[0], c[1], c[2]);
    let nz = dims.nz;
    let ty = tables.y_for(cy);
    for x in x_lo..x_hi {
        let xs = (x as isize - cx as isize) as usize;
        for y in 0..dims.ny {
            let ys = ty.src(y);
            let db = dims.idx(x, y, 0);
            let sb = dims.idx(xs, ys, 0);
            let dline = &mut dst_slab[db..db + nz];
            let sline = &src_slab[sb..sb + nz];
            if cz == 0 {
                dline.copy_from_slice(sline);
            } else if cz > 0 {
                let m = cz as usize;
                dline[m..].copy_from_slice(&sline[..nz - m]);
                dline[..m].copy_from_slice(&sline[nz - m..]);
            } else {
                let m = (-cz) as usize;
                dline[..nz - m].copy_from_slice(&sline[m..]);
                dline[nz - m..].copy_from_slice(&sline[..m]);
            }
        }
    }
}

/// Slab-ordered pull-stream over planes `x ∈ [x_lo, x_hi)` (halo contract as
/// in [`crate::kernels::ghost`]).
pub fn stream(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    let dims = src.alloc_dims();
    debug_assert!(x_lo >= ctx.lat.reach());
    debug_assert!(x_hi + ctx.lat.reach() <= dims.nx);
    for i in 0..ctx.lat.q() {
        // Split borrows: each velocity reads slab i of src, writes slab i of dst.
        let src_slab = src.slab(i);
        let dst_slab = dst.slab_mut(i);
        stream_velocity(ctx, tables, src_slab, dst_slab, dims, i, x_lo, x_hi);
    }
}

/// Line-blocked two-pass BGK collide over planes `x ∈ [x_lo, x_hi)`.
pub fn collide(ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
    if ctx.third_order() {
        collide_impl::<true>(ctx, f, x_lo, x_hi);
    } else {
        collide_impl::<false>(ctx, f, x_lo, x_hi);
    }
}

fn collide_impl<const THIRD: bool>(ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
    let d = f.alloc_dims();
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let slab_len = f.slab_stride();
    let data = f.as_mut_slice();

    let mut rho = [0.0f64; ZB];
    let mut mx = [0.0f64; ZB];
    let mut my = [0.0f64; ZB];
    let mut mz = [0.0f64; ZB];
    let mut ux = [0.0f64; ZB];
    let mut uy = [0.0f64; ZB];
    let mut uz = [0.0f64; ZB];
    let mut u2 = [0.0f64; ZB];

    for x in x_lo..x_hi {
        for y in 0..d.ny {
            let base = d.idx(x, y, 0);
            let mut z0 = 0;
            while z0 < d.nz {
                let blk = (d.nz - z0).min(ZB);
                rho[..blk].fill(0.0);
                mx[..blk].fill(0.0);
                my[..blk].fill(0.0);
                mz[..blk].fill(0.0);
                // Pass 1: accumulate moments, one contiguous slab segment at
                // a time.
                for i in 0..q {
                    let c = k.c[i];
                    let off = i * slab_len + base + z0;
                    let s = &data[off..off + blk];
                    for (j, &fv) in s.iter().enumerate() {
                        rho[j] += fv;
                        mx[j] += fv * c[0];
                        my[j] += fv * c[1];
                        mz[j] += fv * c[2];
                    }
                }
                // One reciprocal per cell (the paper's division removal).
                for j in 0..blk {
                    let inv = 1.0 / rho[j];
                    ux[j] = mx[j] * inv;
                    uy[j] = my[j] * inv;
                    uz[j] = mz[j] * inv;
                    u2[j] = ux[j] * ux[j] + uy[j] * uy[j] + uz[j] * uz[j];
                }
                // Pass 2: equilibrium + relax per slab segment.
                for i in 0..q {
                    let c = k.c[i];
                    let w = k.w[i];
                    let off = i * slab_len + base + z0;
                    let s = &mut data[off..off + blk];
                    for (j, fv) in s.iter_mut().enumerate() {
                        let xi = c[0] * ux[j] + c[1] * uy[j] + c[2] * uz[j];
                        let mut poly =
                            1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2[j] * k.inv_2cs2;
                        if THIRD {
                            poly += xi * (xi * xi - 3.0 * k.cs2 * u2[j]) * k.inv_6cs6;
                        }
                        let feq = w * rho[j] * poly;
                        *fv += omega * (feq - *fv);
                    }
                }
                z0 += blk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::kernels::{ghost, naive};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(1.1).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.05 + (state % 997) as f64 / 1500.0;
        }
        f
    }

    #[test]
    fn dh_stream_matches_ghost_stream() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(6, 5, 9);
            let src = random_field(c.lat.q(), dims, k, 99);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
            let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
            ghost::stream(&c, &tables, &src, &mut a, k, k + dims.nx);
            stream(&c, &tables, &src, &mut b, k, k + dims.nx);
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn dh_collide_matches_naive_within_reassociation() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(4, 3, 70); // exercise a partial z-block too
            let mut a = random_field(c.lat.q(), dims, 0, 5);
            let mut b = a.clone();
            naive::collide(&c, &mut a, 0, dims.nx);
            collide(&c, &mut b, 0, dims.nx);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn dh_collide_is_deterministic_across_range_splits() {
        // Collide [0,nx) must equal collide [0,2) then [2,nx) bitwise —
        // the property the deep-halo region schedule relies on.
        let c = ctx(LatticeKind::D3Q39);
        let dims = Dim3::new(5, 4, 6);
        let mut a = random_field(c.lat.q(), dims, 0, 11);
        let mut b = a.clone();
        collide(&c, &mut a, 0, dims.nx);
        collide(&c, &mut b, 0, 2);
        collide(&c, &mut b, 2, dims.nx);
        assert_eq!(a.max_abs_diff_owned(&b), 0.0);
    }
}
