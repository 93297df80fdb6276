//! Sparse tiled stream+collide drivers — fluid-cell-cost compute over the
//! packed tile list of [`crate::geometry::SparseTiles`].
//!
//! Populations live in a **tile-major** [`SparseField`]: one contiguous
//! `q·64`-double frame per allocated tile (`data[(t·q + i)·64 + c]`), so a
//! tile's whole working set streams through cache together and a boundary
//! tile's frame is exactly the message payload of the distributed halo
//! exchange.
//!
//! One step is a fused pull-stream + boundary + collide into a second
//! buffer (two-grid): for every stored cell the streamed populations are
//! gathered through the per-tile neighbour table (an unallocated neighbour
//! reads as vacuum `0.0` — exact under the rim-allocation rule), then fluid
//! cells run the *identical* per-cell BGK/Guo arithmetic as the dense
//! [`crate::kernels::op`] drivers (same accumulation order, same reciprocal
//! form) while solid cells store the full-way bounce-back of their gathered
//! values — so on a shared geometry the sparse fluid trajectory is
//! **bitwise equal** to the dense masked path.
//!
//! Two tile bodies share the per-cell arithmetic: scalar and AVX2 (4-wide
//! z-lines of a tile; no FMA contractions, so it is bitwise equal to the
//! scalar body — unlike the dense `Simd` rung, which trades exactness for
//! fused multiply-adds). Like every kernel entry point, each step chunks its
//! tile lists across the installed pool and is one plain sweep outside one
//! (see [`crate::kernels::par`]); chunks hold disjoint tiles, so threaded
//! steps are bitwise equal to serial ones.

use rayon::prelude::*;

use crate::align::AlignedBuf;
use crate::equilibrium::feq_i;
use crate::error::{Error, Result};
use crate::geometry::{tile_cell, SparseTiles, TILE_B, TILE_CELLS, TILE_NEIGHBORS};
use crate::index::Dim3;
use crate::kernels::op::{with_op, CollideOp, OpConsts};
use crate::kernels::par::{chunk_bounds, chunk_count, in_pool, SendPtr};
use crate::kernels::{KernelCtx, MAX_Q};
use crate::lattice::Lattice;

/// Tile-major population storage: `q · 64` doubles per allocated tile.
#[derive(Clone, Debug)]
pub struct SparseField {
    q: usize,
    tiles: usize,
    data: AlignedBuf,
}

impl SparseField {
    /// Allocate a zeroed field for `tiles` packed tiles of a `q`-velocity
    /// lattice.
    pub fn new(q: usize, tiles: usize) -> Result<Self> {
        if q == 0 || q > MAX_Q {
            return Err(Error::BadParameter(format!("q {q} outside 1..={MAX_Q}")));
        }
        if tiles == 0 {
            return Err(Error::BadParameter("sparse field with 0 tiles".into()));
        }
        Ok(Self {
            q,
            tiles,
            data: AlignedBuf::new(q * tiles * TILE_CELLS),
        })
    }

    /// Velocity count.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Packed tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles
    }

    /// Doubles per tile frame (`q · 64`).
    pub fn frame_len(&self) -> usize {
        self.q * TILE_CELLS
    }

    /// Tile `t`'s frame, velocity-major (`[i · 64 + c]`).
    #[inline]
    pub fn frame(&self, t: usize) -> &[f64] {
        let fl = self.frame_len();
        &self.data.as_slice()[t * fl..(t + 1) * fl]
    }

    /// Mutable tile frame.
    #[inline]
    pub fn frame_mut(&mut self, t: usize) -> &mut [f64] {
        let fl = self.frame_len();
        &mut self.data.as_mut_slice()[t * fl..(t + 1) * fl]
    }

    /// The whole storage as one slice (tile-major).
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable whole-storage view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Resident bytes of this buffer.
    pub fn resident_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Copy the `q` populations of cell `c` in tile `t` into `out[..q]`.
    pub fn gather_cell(&self, t: usize, c: usize, out: &mut [f64]) {
        let f = self.frame(t);
        for (i, o) in out.iter_mut().enumerate().take(self.q) {
            *o = f[i * TILE_CELLS + c];
        }
    }
}

/// One merged unit-stride run of a gather row: `len` consecutive
/// destination cells starting at `dst` all pull from the same neighbour
/// `slot` at consecutive source cells starting at `src`. Because cells are
/// packed z-fastest and every velocity shift is a constant offset, a row's
/// 64 entries collapse into a handful of such segments — the full-tile fast
/// path replaces the per-cell table walk with one `copy_from_slice` per
/// segment.
#[derive(Clone, Copy, Debug)]
struct Seg {
    dst: u8,
    src: u8,
    slot: u8,
    len: u8,
}

/// Geometry-independent streaming table for one lattice: for every
/// `(velocity, destination cell)` pair, which neighbour-table slot the pull
/// source lives in and its cell index there. Valid because every velocity
/// component is ≤ 3 < [`TILE_B`], so the source is at most one tile away.
///
/// Alongside the per-cell entries it carries the merged segment plan
/// ([`Seg`]) driving the full-tile direct-addressed fast path; both views
/// describe the identical source addresses, so the fast path is bitwise
/// equal to the walk by construction.
#[derive(Clone, Debug)]
pub struct GatherTable {
    q: usize,
    /// `[i · 64 + c] = (neighbour slot, source cell)`.
    entries: Vec<(u8, u8)>,
    /// Merged segments, all velocities concatenated.
    segs: Vec<Seg>,
    /// `segs` range of velocity `i`: `seg_off[i]..seg_off[i + 1]`.
    seg_off: Vec<u32>,
}

impl GatherTable {
    /// Build the table for `lat`.
    pub fn new(lat: &Lattice) -> Self {
        let q = lat.q();
        let mut entries = vec![(0u8, 0u8); q * TILE_CELLS];
        let split = |s: isize| -> (isize, usize) {
            if s < 0 {
                (-1, (s + TILE_B as isize) as usize)
            } else if s >= TILE_B as isize {
                (1, (s - TILE_B as isize) as usize)
            } else {
                (0, s as usize)
            }
        };
        for (i, c) in lat.velocities().iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (dx, ox) = split(lx as isize - c[0] as isize);
                        let (dy, oy) = split(ly as isize - c[1] as isize);
                        let (dz, oz) = split(lz as isize - c[2] as isize);
                        entries[i * TILE_CELLS + tile_cell(lx, ly, lz)] = (
                            crate::geometry::neighbor_slot(dx, dy, dz) as u8,
                            tile_cell(ox, oy, oz) as u8,
                        );
                    }
                }
            }
        }
        // Merge each row into unit-stride segments: extend while the next
        // destination cell pulls from the same slot at the next source cell.
        let mut segs = Vec::new();
        let mut seg_off = Vec::with_capacity(q + 1);
        seg_off.push(0u32);
        for i in 0..q {
            let row = &entries[i * TILE_CELLS..(i + 1) * TILE_CELLS];
            let mut c = 0usize;
            while c < TILE_CELLS {
                let (slot, src) = row[c];
                let mut len = 1usize;
                while c + len < TILE_CELLS {
                    let (s2, c2) = row[c + len];
                    if s2 != slot || c2 as usize != src as usize + len {
                        break;
                    }
                    len += 1;
                }
                segs.push(Seg {
                    dst: c as u8,
                    src,
                    slot,
                    len: len as u8,
                });
                c += len;
            }
            seg_off.push(segs.len() as u32);
        }
        Self {
            q,
            entries,
            segs,
            seg_off,
        }
    }

    /// The 64 `(slot, source cell)` entries of velocity `i`.
    #[inline]
    fn row(&self, i: usize) -> &[(u8, u8)] {
        &self.entries[i * TILE_CELLS..(i + 1) * TILE_CELLS]
    }

    /// The merged segments of velocity `i`'s row.
    #[inline]
    fn seg_row(&self, i: usize) -> &[Seg] {
        &self.segs[self.seg_off[i] as usize..self.seg_off[i + 1] as usize]
    }
}

/// Whether the AVX2 sparse collide is usable on this host.
pub fn sparse_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One sparse step `dst ← collide(bounce(pull(src)))` over the owned tiles
/// of `tiles`. `g` selects plain BGK (`[0; 3]`) or Guo forcing; `use_simd`
/// opts into the AVX2 tile collide (bitwise equal, see module docs) when the
/// host supports it. Inside a pool the owned tiles are split into disjoint
/// contiguous chunks — bitwise equal, because every tile reads only `src`
/// and writes only its own `dst` frame.
pub fn step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| step_with(ctx, tiles, gt, src, dst, op, use_simd));
}

#[allow(clippy::too_many_arguments)]
fn step_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    op: O,
    use_simd: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(src.q(), q, "src q mismatch");
    assert_eq!(dst.q(), q, "dst q mismatch");
    assert_eq!(src.tile_count(), tiles.tile_count(), "src tile mismatch");
    assert_eq!(dst.tile_count(), tiles.tile_count(), "dst tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    let simd = use_simd && sparse_simd_available();
    if ctx.third_order() {
        step_impl::<true, O>(ctx, tiles, gt, src, dst, &oc, simd);
    } else {
        step_impl::<false, O>(ctx, tiles, gt, src, dst, &oc, simd);
    }
}

#[allow(clippy::too_many_arguments)]
fn step_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
) {
    let q = ctx.lat.q();
    let frame = dst.frame_len();
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_slice().as_mut_ptr());
    let src_data = src.as_slice();

    // Fast-class tiles (all-fluid, all neighbours allocated) replace the
    // per-cell table walk with the merged segment copies; the gathered
    // buffer is identical, so the collide output is bitwise equal. Both
    // lists are in packed (z-local) order.
    let run = move |list: &[usize], fast: bool| {
        let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
        for (idx, &t) in list.iter().enumerate() {
            let nbrs = &tiles.neighbors[t];
            if let Some(&t_next) = list.get(idx + 1) {
                // The indirect gather defeats the hardware stride
                // prefetcher (the stream restarts at an arbitrary frame on
                // every tile), so touch the next tile's source frame — the
                // dominant gather source: every interior cell pulls from it
                // — and its neighbour row while this tile computes; the AA
                // and fused kernels' next-row pattern, adapted to tiles.
                prefetch_next_tile(src_data, tiles, t_next, frame);
            }
            if fast {
                gather_tile_fast(q, gt, nbrs, src_data, &mut buf);
            } else {
                gather_tile(q, gt, nbrs, src_data, &mut buf);
            }
            debug_assert!((t + 1) * frame <= total);
            // SAFETY: the fast/slow lists partition the owned tiles and
            // chunks partition each list; each task writes only its own
            // tiles' frames, which are disjoint slices of dst.
            let dstf = unsafe { std::slice::from_raw_parts_mut(base.get().add(t * frame), frame) };
            let fluid = tiles.tiles[t].fluid;
            #[cfg(target_arch = "x86_64")]
            if simd {
                // SAFETY: `simd` implies AVX2 was detected at runtime.
                unsafe { tile_cells_avx2::<THIRD, O>(ctx, oc, fluid, &buf, dstf) };
                continue;
            }
            let _ = simd;
            tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, &buf, dstf);
        }
    };

    drive_tile_lists(&tiles.fast_owned, &tiles.slow_owned, run);
}

/// Run `work(sublist, is_fast)` over the fast and slow tile lists: chunked
/// across the installed pool, one plain call per list outside one. Chunks
/// never straddle the class boundary, so the branch-free fast body is not
/// serialized behind rim tiles sharing its chunk.
fn drive_tile_lists(fast: &[usize], slow: &[usize], work: impl Fn(&[usize], bool) + Sync) {
    let n = fast.len() + slow.len();
    if !in_pool() || n <= 1 {
        work(fast, true);
        work(slow, false);
        return;
    }
    let chunks_of = |len: usize| if len == 0 { 0 } else { chunk_count(len) };
    let cf = chunks_of(fast.len());
    let cs = chunks_of(slow.len());
    (0..cf + cs).into_par_iter().for_each(|c| {
        let (list, chunks, c, is_fast) = if c < cf {
            (fast, cf, c, true)
        } else {
            (slow, cs, c - cf, false)
        };
        let (lo, hi) = chunk_bounds(0, list.len(), chunks, c);
        if lo < hi {
            work(&list[lo..hi], is_fast);
        }
    });
}

/// Software-prefetch the gather sources of tile `t_next`: its own source
/// frame (`q·TILE_CELLS` doubles — the self slot every interior cell pulls
/// through) and its neighbour-table row. Boundary cells also pull single
/// lines from adjacent frames; those are left to demand misses — touching
/// up to `TILE_NEIGHBORS` extra frames would evict more than it hides.
#[inline]
fn prefetch_next_tile(src: &[f64], tiles: &SparseTiles, t_next: usize, frame: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let nbr_ptr = std::ptr::from_ref(&tiles.neighbors[t_next]).cast::<i8>();
        // SAFETY: PREFETCHT0 is a hint and cannot fault; the offsets below
        // are clamped to the slice.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(nbr_ptr) };
        let lo = t_next * frame;
        let hi = (lo + frame).min(src.len());
        let mut p = lo;
        while p < hi {
            // SAFETY: p < src.len() — in-bounds pointer, hint-only.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(src.as_ptr().add(p).cast::<i8>()) };
            p += 8;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (src, tiles, t_next, frame);
}

/// Pull-stream one tile through the neighbour table into `buf[i·64 + c]`;
/// an unallocated neighbour (`-1`) contributes vacuum.
#[inline]
fn gather_tile(
    q: usize,
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    for i in 0..q {
        let row = gt.row(i);
        let out = &mut buf[i * TILE_CELLS..(i + 1) * TILE_CELLS];
        for (c, o) in out.iter_mut().enumerate() {
            let (slot, sc) = row[c];
            let t = nbrs[slot as usize];
            *o = if t < 0 {
                0.0
            } else {
                src[(t as usize * q + i) * TILE_CELLS + sc as usize]
            };
        }
    }
}

/// Direct-addressed pull-stream for a fast-class tile: every neighbour is
/// allocated, so each merged segment is one unit-stride block copy at a
/// constant intra-tile offset — no per-cell slot decode, no vacuum branch.
/// Produces the identical `buf` as [`gather_tile`] on such tiles.
#[inline]
fn gather_tile_fast(
    q: usize,
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    for i in 0..q {
        let out = &mut buf[i * TILE_CELLS..(i + 1) * TILE_CELLS];
        for s in gt.seg_row(i) {
            let t = nbrs[s.slot as usize] as usize;
            let (d, so, len) = (s.dst as usize, s.src as usize, s.len as usize);
            let lo = (t * q + i) * TILE_CELLS + so;
            out[d..d + len].copy_from_slice(&src[lo..lo + len]);
        }
    }
}

/// The streamed (pull) image of packed tile `t`: `buf[i·64 + c]` receives
/// exactly what the fused two-grid step would gather before bouncing and
/// colliding, vacuum zeros included. Sparse AA storage holds this image
/// directly at even-parity boundaries, so cross-storage equivalence checks
/// compare an AA frame against `streamed_tile` of the two-grid state.
pub fn streamed_tile(
    q: usize,
    gt: &GatherTable,
    tiles: &SparseTiles,
    f: &SparseField,
    t: usize,
    buf: &mut [f64],
) {
    gather_tile(q, gt, &tiles.neighbors[t], f.as_slice(), buf);
}

/// Scalar tile body: per-cell BGK/Guo collide on fluid cells (the exact
/// arithmetic of the dense `op::collide_cells` driver), full-way bounce-back
/// on solid cells.
fn tile_cells_scalar<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    fluid: u64,
    buf: &[f64],
    dst: &mut [f64],
) {
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let hg = oc.half_g;
    let g = oc.g;
    for c in 0..TILE_CELLS {
        if fluid & (1u64 << c) == 0 {
            for i in 0..q {
                dst[i * TILE_CELLS + c] = buf[oc.opp[i] * TILE_CELLS + c];
            }
            continue;
        }
        let mut rho = 0.0f64;
        let mut mx = 0.0f64;
        let mut my = 0.0f64;
        let mut mz = 0.0f64;
        for i in 0..q {
            let cc = oc.cw[i];
            let fv = buf[i * TILE_CELLS + c];
            rho += fv;
            mx += fv * cc[0];
            my += fv * cc[1];
            mz += fv * cc[2];
        }
        let inv = 1.0 / rho;
        let (ux, uy, uz, ug);
        if O::FORCED {
            ux = (mx + hg[0]) * inv;
            uy = (my + hg[1]) * inv;
            uz = (mz + hg[2]) * inv;
            ug = ux * g[0] + uy * g[1] + uz * g[2];
        } else {
            ux = mx * inv;
            uy = my * inv;
            uz = mz * inv;
            ug = 0.0;
        }
        let u2 = ux * ux + uy * uy + uz * uz;
        for i in 0..q {
            let cc = oc.cw[i];
            let w = cc[3];
            let xi = cc[0] * ux + cc[1] * uy + cc[2] * uz;
            let mut poly = 1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
            if THIRD {
                poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
            }
            let feq = w * rho * poly;
            let fv = buf[i * TILE_CELLS + c];
            let mut next = fv + omega * (feq - fv);
            if O::FORCED {
                next += oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
            }
            dst[i * TILE_CELLS + c] = next;
        }
    }
}

/// AVX2 tile body: 4-wide z-lines of the tile, **without** FMA contractions
/// — every lane performs the scalar driver's operation sequence, so the
/// result is bitwise equal to [`tile_cells_scalar`]. Mixed fluid/solid lines
/// blend the collide result with the bounce-back line by the fluid bitmap.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_cells_avx2<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    fluid: u64,
    buf: &[f64],
    dst: &mut [f64],
) {
    use std::arch::x86_64::*;

    const LANES: usize = 4;
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let hg = oc.half_g;
    let g = oc.g;
    debug_assert!(buf.len() >= q * TILE_CELLS && dst.len() >= q * TILE_CELLS);
    let bp = buf.as_ptr();
    let dp = dst.as_mut_ptr();

    // SAFETY: all offsets are i·64 + line·4 with i < q and line < 16, hence
    // within the q·64 frames checked above.
    unsafe {
        let v_one = _mm256_set1_pd(1.0);
        let v_omega = _mm256_set1_pd(ctx.omega);
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

        for line in 0..TILE_CELLS / LANES {
            let off = line * LANES;
            let bits = (fluid >> off) & 0xF;
            if bits == 0 {
                for i in 0..q {
                    let b = _mm256_loadu_pd(bp.add(oc.opp[i] * TILE_CELLS + off));
                    _mm256_storeu_pd(dp.add(i * TILE_CELLS + off), b);
                }
                continue;
            }
            // Moments, accumulated in the scalar order (no term skipping,
            // no FMA).
            let mut vrho = _mm256_setzero_pd();
            let mut vmx = _mm256_setzero_pd();
            let mut vmy = _mm256_setzero_pd();
            let mut vmz = _mm256_setzero_pd();
            for i in 0..q {
                let c = oc.cw[i];
                let fv = _mm256_loadu_pd(bp.add(i * TILE_CELLS + off));
                vrho = _mm256_add_pd(vrho, fv);
                vmx = _mm256_add_pd(vmx, _mm256_mul_pd(fv, _mm256_set1_pd(c[0])));
                vmy = _mm256_add_pd(vmy, _mm256_mul_pd(fv, _mm256_set1_pd(c[1])));
                vmz = _mm256_add_pd(vmz, _mm256_mul_pd(fv, _mm256_set1_pd(c[2])));
            }
            let vinv = _mm256_div_pd(v_one, vrho);
            let (vux, vuy, vuz);
            let mut vug = _mm256_setzero_pd();
            if O::FORCED {
                vux = _mm256_mul_pd(_mm256_add_pd(vmx, v_hg0), vinv);
                vuy = _mm256_mul_pd(_mm256_add_pd(vmy, v_hg1), vinv);
                vuz = _mm256_mul_pd(_mm256_add_pd(vmz, v_hg2), vinv);
                vug = _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(vux, v_g0), _mm256_mul_pd(vuy, v_g1)),
                    _mm256_mul_pd(vuz, v_g2),
                );
            } else {
                vux = _mm256_mul_pd(vmx, vinv);
                vuy = _mm256_mul_pd(vmy, vinv);
                vuz = _mm256_mul_pd(vmz, vinv);
            }
            let vu2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(vux, vux), _mm256_mul_pd(vuy, vuy)),
                _mm256_mul_pd(vuz, vuz),
            );
            let blend_mask = if bits == 0xF {
                _mm256_setzero_pd() // unused
            } else {
                let m = |b: u64| -> f64 {
                    if bits & (1 << b) != 0 {
                        f64::from_bits(1u64 << 63)
                    } else {
                        0.0
                    }
                };
                _mm256_setr_pd(m(0), m(1), m(2), m(3))
            };
            for i in 0..q {
                let c = oc.cw[i];
                let vxi = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_mul_pd(_mm256_set1_pd(c[0]), vux),
                        _mm256_mul_pd(_mm256_set1_pd(c[1]), vuy),
                    ),
                    _mm256_mul_pd(_mm256_set1_pd(c[2]), vuz),
                );
                let mut vpoly = _mm256_sub_pd(
                    _mm256_add_pd(
                        _mm256_add_pd(v_one, _mm256_mul_pd(vxi, v_inv_cs2)),
                        _mm256_mul_pd(_mm256_mul_pd(vxi, vxi), v_inv_2cs4),
                    ),
                    _mm256_mul_pd(vu2, v_inv_2cs2),
                );
                if THIRD {
                    let inner = _mm256_sub_pd(_mm256_mul_pd(vxi, vxi), _mm256_mul_pd(v_3cs2, vu2));
                    vpoly =
                        _mm256_add_pd(vpoly, _mm256_mul_pd(_mm256_mul_pd(vxi, inner), v_inv_6cs6));
                }
                let vfeq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(c[3]), vrho), vpoly);
                let fv = _mm256_loadu_pd(bp.add(i * TILE_CELLS + off));
                let mut vnext = _mm256_add_pd(fv, _mm256_mul_pd(v_omega, _mm256_sub_pd(vfeq, fv)));
                if O::FORCED {
                    let src = _mm256_add_pd(
                        _mm256_sub_pd(
                            _mm256_set1_pd(oc.sa[i]),
                            _mm256_mul_pd(_mm256_set1_pd(oc.sb[i]), vug),
                        ),
                        _mm256_mul_pd(_mm256_set1_pd(oc.sc[i]), vxi),
                    );
                    vnext = _mm256_add_pd(vnext, src);
                }
                let out = if bits == 0xF {
                    vnext
                } else {
                    let b = _mm256_loadu_pd(bp.add(oc.opp[i] * TILE_CELLS + off));
                    _mm256_blendv_pd(b, vnext, blend_mask)
                };
                _mm256_storeu_pd(dp.add(i * TILE_CELLS + off), out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-place AA-pattern storage: one frame per tile, no src/dst pair.
//
// Slot convention (the sparse transcription of `kernels::aa`): at *even*
// parity, slot `(P, i)` holds the post-stream population `f_i(P)` — the
// streamed image of the two-grid state. The even step collides each cell
// locally and stores the result velocity-swapped (`slot (P, opp(i)) ←
// f*_i(P)`); the odd step is the in-place stream+collide+stream: writer `x`
// gathers slot `(x − c_j, opp(j))` (= the streamed `f_j(x)`), collides, and
// scatters slot `(x + c_i, i) ← f**_i(x)`, restoring even parity.
//
// Correctness hinges on slot ownership: slot `(P, i)` is gathered by exactly
// the writer `x = P − c_i` and scattered by exactly the same `x`, so a
// writer's read set equals its write set and distinct writers touch disjoint
// slots — gather-before-scatter per tile makes the whole pass race-free
// across tiles, threads and ranks with no special wall handling. Solid
// cells are strict no-ops both phases (the even bounce + swapped store is
// the identity on their slots); a fluid writer's scatter into a solid
// neighbour's slot is the in-flight bounce-back storage that the same
// writer re-gathers next odd step — full-way bounce-back with the two-grid
// delay, bitwise.
// ---------------------------------------------------------------------------

/// Even (in-place, local) AA step over the owned fluid tiles: collide every
/// cell and store the result velocity-swapped into the same frame. Rim
/// tiles are untouched (the swapped bounce store is the identity there).
/// Chunked across the installed pool; bitwise equal to the plain sweep,
/// since every tile touches only its own frame.
pub fn aa_even_step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_even_with(ctx, tiles, f, op, use_simd));
}

/// Odd (in-place, streaming) AA step: gather through the neighbour table at
/// the opposite velocity, collide, scatter velocity-forward. Computes the
/// owned fluid tiles plus the adjacent ghost-writer tiles (distributed
/// builds), whose shallow cells duplicate the neighbour rank's scatter into
/// our boundary slots. Chunked across the installed pool; bitwise equal to
/// the plain sweep by the slot-ownership argument in the section docs.
pub fn aa_odd_step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_odd_with(ctx, tiles, gt, f, op, use_simd));
}

fn aa_even_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    op: O,
    use_simd: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    let oc = OpConsts::new(ctx, &op);
    let simd = use_simd && sparse_simd_available();
    if ctx.third_order() {
        aa_even_impl::<true, O>(ctx, tiles, f, &oc, simd);
    } else {
        aa_even_impl::<false, O>(ctx, tiles, f, &oc, simd);
    }
}

fn aa_even_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
) {
    let q = ctx.lat.q();
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize], _fast: bool| {
        let mut out = [0.0f64; MAX_Q * TILE_CELLS];
        for &t in list {
            debug_assert!((t + 1) * frame <= total);
            let fluid = tiles.tiles[t].fluid;
            // SAFETY: the even step touches only the tile's own frame and
            // the work lists partition distinct tiles across tasks.
            let fr = unsafe { std::slice::from_raw_parts_mut(base.get().add(t * frame), frame) };
            let outf = &mut out[..frame];
            #[cfg(target_arch = "x86_64")]
            if simd {
                // SAFETY: `simd` implies AVX2 was detected at runtime.
                unsafe { tile_cells_avx2::<THIRD, O>(ctx, oc, fluid, fr, outf) };
                store_swapped(q, &oc.opp, outf, fr);
                continue;
            }
            let _ = simd;
            tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, fr, outf);
            store_swapped(q, &oc.opp, outf, fr);
        }
    };
    drive_tile_lists(&tiles.aa_even_fast, &tiles.aa_even_slow, run);
}

/// `frame[opp(i)·64 ..] ← out[i·64 ..]` for all velocities — the AA
/// cross-store. On solid cells `out` holds the bounce copy
/// `frame[opp(i)·64 + c]`, so the swapped store is the identity there.
#[inline]
fn store_swapped(q: usize, opp: &[usize; MAX_Q], out: &[f64], frame: &mut [f64]) {
    for i in 0..q {
        let o = opp[i] * TILE_CELLS;
        frame[o..o + TILE_CELLS].copy_from_slice(&out[i * TILE_CELLS..(i + 1) * TILE_CELLS]);
    }
}

#[allow(clippy::too_many_arguments)]
fn aa_odd_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    op: O,
    use_simd: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    let simd = use_simd && sparse_simd_available();
    if ctx.third_order() {
        aa_odd_impl::<true, O>(ctx, tiles, gt, f, &oc, simd);
    } else {
        aa_odd_impl::<false, O>(ctx, tiles, gt, f, &oc, simd);
    }
}

#[allow(clippy::too_many_arguments)]
fn aa_odd_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
) {
    let q = ctx.lat.q();
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize], fast: bool| {
        let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
        let mut out = [0.0f64; MAX_Q * TILE_CELLS];
        for (idx, &t) in list.iter().enumerate() {
            let nbrs = &tiles.neighbors[t];
            // SAFETY: slot `(P, i)` is read only by writer `P − c_i` and
            // written only by the same writer (section docs); the work
            // lists assign each writer cell to exactly one task and every
            // tile gathers all of its slots before scattering any, so no
            // location is concurrently read and written by different tasks.
            let src = unsafe { std::slice::from_raw_parts(base.get().cast_const(), total) };
            if let Some(&t_next) = list.get(idx + 1) {
                prefetch_next_tile(src, tiles, t_next, frame);
            }
            if fast {
                gather_tile_aa_fast(q, &oc.opp, gt, nbrs, src, &mut buf);
            } else {
                gather_tile_aa(q, &oc.opp, gt, nbrs, src, &mut buf);
            }
            let fluid = tiles.tiles[t].fluid;
            let outf = &mut out[..frame];
            #[cfg(target_arch = "x86_64")]
            if simd {
                // SAFETY: `simd` implies AVX2 was detected at runtime.
                unsafe { tile_cells_avx2::<THIRD, O>(ctx, oc, fluid, &buf, outf) };
            } else {
                tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, &buf, outf);
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = simd;
                tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, &buf, outf);
            }
            // SAFETY: scatter targets are the writer-owned slots above.
            unsafe {
                if fast {
                    scatter_tile_aa::<true>(q, &oc.opp, gt, nbrs, fluid, outf, base.get());
                } else {
                    scatter_tile_aa::<false>(q, &oc.opp, gt, nbrs, fluid, outf, base.get());
                }
            }
        }
    };
    drive_tile_lists(&tiles.aa_odd_fast, &tiles.aa_odd_slow, run);
}

/// Odd-step pull: `buf[j·64 + c] ← field[(x − c_j, opp(j))]` through the
/// neighbour table (vacuum for unallocated sources, which only ever feeds
/// discarded solid/deep-ghost outputs).
#[inline]
fn gather_tile_aa(
    q: usize,
    opp: &[usize; MAX_Q],
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    for i in 0..q {
        let row = gt.row(i);
        let oi = opp[i];
        let out = &mut buf[i * TILE_CELLS..(i + 1) * TILE_CELLS];
        for (c, o) in out.iter_mut().enumerate() {
            let (slot, sc) = row[c];
            let t = nbrs[slot as usize];
            *o = if t < 0 {
                0.0
            } else {
                src[(t as usize * q + oi) * TILE_CELLS + sc as usize]
            };
        }
    }
}

/// Segment-copy variant of [`gather_tile_aa`] for fast-class tiles.
#[inline]
fn gather_tile_aa_fast(
    q: usize,
    opp: &[usize; MAX_Q],
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    for i in 0..q {
        let oi = opp[i];
        let out = &mut buf[i * TILE_CELLS..(i + 1) * TILE_CELLS];
        for s in gt.seg_row(i) {
            let t = nbrs[s.slot as usize] as usize;
            let (d, so, len) = (s.dst as usize, s.src as usize, s.len as usize);
            let lo = (t * q + oi) * TILE_CELLS + so;
            out[d..d + len].copy_from_slice(&src[lo..lo + len]);
        }
    }
}

/// Odd-step push: `field[(x + c_i, i)] ← out[i·64 + c]` for the writer
/// cells. `FAST` scatters the whole tile by segment copies (all cells
/// fluid, all neighbours allocated); otherwise only fluid writers scatter,
/// and a `-1` target (deep ghost writer past the halo) is discarded — the
/// owning rank computes that slot itself.
///
/// # Safety
/// Caller must uphold the slot-ownership partition documented on the
/// section: the written slots belong exclusively to this tile's writers.
#[inline]
unsafe fn scatter_tile_aa<const FAST: bool>(
    q: usize,
    opp: &[usize; MAX_Q],
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    fluid: u64,
    out: &[f64],
    base: *mut f64,
) {
    for i in 0..q {
        let oi = opp[i];
        if FAST {
            for s in gt.seg_row(oi) {
                let t = nbrs[s.slot as usize] as usize;
                let (d, so, len) = (s.dst as usize, s.src as usize, s.len as usize);
                let lo = (t * q + i) * TILE_CELLS + so;
                // SAFETY: in-bounds by the frame layout; exclusivity per
                // the function contract.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        out.as_ptr().add(i * TILE_CELLS + d),
                        base.add(lo),
                        len,
                    );
                }
            }
        } else {
            let row = gt.row(oi);
            let mut bits = fluid;
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (slot, sc) = row[c];
                let t = nbrs[slot as usize];
                if t >= 0 {
                    // SAFETY: as above.
                    unsafe {
                        *base.add((t as usize * q + i) * TILE_CELLS + sc as usize) =
                            out[i * TILE_CELLS + c];
                    }
                }
            }
        }
    }
}

/// Initialise a field to *even-parity AA state* — the streamed image of the
/// two-grid equilibrium init: slot `(P, i) ← feq_i(state(P − c_i))` when
/// the source cell's tile is allocated, else `0.0`. Matching
/// [`init_equilibrium`] + one pull-stream bitwise, so an AA run and a
/// two-grid run started from the same `state` stay comparable step for
/// step. Ghost frames get the same rule where the source is locally
/// addressable (they are overwritten by the halo exchange before first
/// use).
pub fn init_equilibrium_aa(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    gdims: Dim3,
    state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
) {
    assert_eq!(f.tile_count(), tiles.tile_count());
    let td = tiles.tdims;
    let (lnx, lny, lnz) = (td.nx * TILE_B, td.ny * TILE_B, td.nz * TILE_B);
    let vels = ctx.lat.velocities().to_vec();
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        let frame = f.frame_mut(t);
        for lx in 0..TILE_B {
            let x = ti.tx * TILE_B + lx;
            for ly in 0..TILE_B {
                let y = ti.ty * TILE_B + ly;
                for lz in 0..TILE_B {
                    let z = ti.tz * TILE_B + lz;
                    let c = tile_cell(lx, ly, lz);
                    for (i, cv) in vels.iter().enumerate() {
                        let sxi = x as isize - cv[0] as isize;
                        let sx = if tiles.ghost_cols == 0 {
                            Some(sxi.rem_euclid(lnx as isize) as usize)
                        } else if (0..lnx as isize).contains(&sxi) {
                            Some(sxi as usize)
                        } else {
                            None
                        };
                        let sy = (y as isize - cv[1] as isize).rem_euclid(lny as isize) as usize;
                        let sz = (z as isize - cv[2] as isize).rem_euclid(lnz as isize) as usize;
                        frame[i * TILE_CELLS + c] = match sx {
                            None => 0.0,
                            Some(sx) => {
                                let tt =
                                    tiles.tile_of[td.idx(sx / TILE_B, sy / TILE_B, sz / TILE_B)];
                                if tt < 0 {
                                    0.0
                                } else {
                                    let gx = tiles.global_cell_x(sx, gdims.nx);
                                    let (rho, u) = state(gx, sy, sz);
                                    feq_i(&ctx.lat, ctx.order, i, rho, u)
                                }
                            }
                        };
                    }
                }
            }
        }
    }
}

/// Initialise every stored cell of every packed tile to the equilibrium of
/// `state(gx, gy, gz)` — the same `feq_i` evaluation as the dense
/// [`crate::init::from_macroscopic`] — then zero the *escaping* slots of
/// owned tiles (slot `i` of cell `P` where `P + c_i` falls in an
/// unallocated tile). Nothing ever reads an escaping slot and each step
/// rewrites it to the vacuum pull (zero), so zeroing them at init makes the
/// stored mass exactly conserved from step 0.
pub fn init_equilibrium(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    gdims: Dim3,
    state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
) {
    let q = ctx.lat.q();
    assert_eq!(f.tile_count(), tiles.tile_count());
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        let frame = f.frame_mut(t);
        for lx in 0..TILE_B {
            let gx = tiles.global_cell_x(ti.tx * TILE_B + lx, gdims.nx);
            for ly in 0..TILE_B {
                let gy = ti.ty * TILE_B + ly;
                for lz in 0..TILE_B {
                    let gz = ti.tz * TILE_B + lz;
                    let (rho, u) = state(gx, gy, gz);
                    let c = tile_cell(lx, ly, lz);
                    for i in 0..q {
                        frame[i * TILE_CELLS + c] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                    }
                }
            }
        }
    }
    zero_escaping_slots(ctx, tiles, gt, f);
}

/// Zero the escaping slots of the owned tiles (see [`init_equilibrium`]).
/// Ghost tiles are skipped: their frames are overwritten by the halo
/// exchange before every step.
pub fn zero_escaping_slots(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
) {
    let q = ctx.lat.q();
    // Slot i of cell c escapes iff the *forward* target tile is
    // unallocated; the forward offset of i is the pull offset of opp(i),
    // so reuse the gather table rows of the opposites.
    let opp: Vec<usize> = (0..q).map(|i| ctx.lat.opposite(i)).collect();
    for t in 0..tiles.owned_tiles {
        let nbrs = tiles.neighbors[t];
        let frame = f.frame_mut(t);
        for (i, &oi) in opp.iter().enumerate() {
            let row = gt.row(oi);
            for (c, &(slot, _)) in row.iter().enumerate() {
                if nbrs[slot as usize] < 0 {
                    frame[i * TILE_CELLS + c] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::geometry::Geometry;
    use crate::index::wrap;
    use crate::lattice::LatticeKind;

    fn ctx_for(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
    }

    fn smooth_state(d: Dim3) -> impl Fn(usize, usize, usize) -> (f64, [f64; 3]) {
        move |x, y, z| {
            let tau = std::f64::consts::TAU;
            let fx = x as f64 / d.nx as f64 * tau;
            let fy = y as f64 / d.ny as f64 * tau;
            let fz = z as f64 / d.nz as f64 * tau;
            (
                1.0 + 0.05 * fx.sin() * fy.cos(),
                [0.02 * fy.sin(), -0.01 * fz.cos(), 0.015 * fx.sin()],
            )
        }
    }

    /// Textbook dense periodic reference on the full box: pull-stream with
    /// vacuum outside the allocated tile set, bounce solids, collide fluid
    /// with the identical scalar arithmetic. Ground truth for the packed
    /// indirect-addressing machinery.
    struct DenseRef {
        d: Dim3,
        q: usize,
        stored: Vec<bool>,
        fluid: Vec<bool>,
        f: Vec<f64>, // [cell * q + i]
    }

    impl DenseRef {
        fn new(ctx: &KernelCtx, geom: &Geometry, tiles: &SparseTiles) -> Self {
            let d = geom.dims();
            let q = ctx.lat.q();
            let mut stored = vec![false; d.nx * d.ny * d.nz];
            let mut fluid = vec![false; d.nx * d.ny * d.nz];
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let t = tiles.tile_of[tiles.tdims.idx(x / TILE_B, y / TILE_B, z / TILE_B)];
                        stored[d.idx(x, y, z)] = t >= 0;
                        fluid[d.idx(x, y, z)] = geom.is_fluid(x, y, z);
                    }
                }
            }
            Self {
                d,
                q,
                stored,
                fluid,
                f: vec![0.0; d.nx * d.ny * d.nz * q],
            }
        }

        fn init(
            &mut self,
            ctx: &KernelCtx,
            state: &impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
        ) {
            let (d, q) = (self.d, self.q);
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        let (rho, u) = state(x, y, z);
                        for i in 0..q {
                            self.f[cell * q + i] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                        }
                    }
                }
            }
            // Zero escaping slots like the sparse init.
            let next = self.escape_zeroed(ctx);
            self.f = next;
        }

        fn escape_zeroed(&self, ctx: &KernelCtx) -> Vec<f64> {
            let (d, q) = (self.d, self.q);
            let mut out = self.f.clone();
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        for (i, c) in ctx.lat.velocities().iter().enumerate() {
                            let tx = wrap(x, c[0], d.nx);
                            let ty = wrap(y, c[1], d.ny);
                            let tz = wrap(z, c[2], d.nz);
                            if !self.stored[d.idx(tx, ty, tz)] {
                                out[cell * q + i] = 0.0;
                            }
                        }
                    }
                }
            }
            out
        }

        fn step(&mut self, ctx: &KernelCtx, g: [f64; 3]) {
            let (d, q) = (self.d, self.q);
            let k = &ctx.consts;
            let omega = ctx.omega;
            let third = ctx.third_order();
            let oc = with_op!(g, |op| OpConsts::new(ctx, &op));
            let forced = g != [0.0; 3];
            let src = self.f.clone();
            let mut streamed = vec![0.0f64; MAX_Q];
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        for (i, c) in ctx.lat.velocities().iter().enumerate() {
                            let sx = wrap(x, -c[0], d.nx);
                            let sy = wrap(y, -c[1], d.ny);
                            let sz = wrap(z, -c[2], d.nz);
                            let s = d.idx(sx, sy, sz);
                            streamed[i] = if self.stored[s] { src[s * q + i] } else { 0.0 };
                        }
                        if !self.fluid[cell] {
                            for i in 0..q {
                                self.f[cell * q + i] = streamed[oc.opp[i]];
                            }
                            continue;
                        }
                        let mut rho = 0.0;
                        let (mut mx, mut my, mut mz) = (0.0, 0.0, 0.0);
                        for i in 0..q {
                            let cc = oc.cw[i];
                            let fv = streamed[i];
                            rho += fv;
                            mx += fv * cc[0];
                            my += fv * cc[1];
                            mz += fv * cc[2];
                        }
                        let inv = 1.0 / rho;
                        let (ux, uy, uz, ug);
                        if forced {
                            ux = (mx + oc.half_g[0]) * inv;
                            uy = (my + oc.half_g[1]) * inv;
                            uz = (mz + oc.half_g[2]) * inv;
                            ug = ux * oc.g[0] + uy * oc.g[1] + uz * oc.g[2];
                        } else {
                            ux = mx * inv;
                            uy = my * inv;
                            uz = mz * inv;
                            ug = 0.0;
                        }
                        let u2 = ux * ux + uy * uy + uz * uz;
                        for i in 0..q {
                            let cc = oc.cw[i];
                            let xi = cc[0] * ux + cc[1] * uy + cc[2] * uz;
                            let mut poly =
                                1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
                            if third {
                                poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
                            }
                            let feq = cc[3] * rho * poly;
                            let fv = streamed[i];
                            let mut next = fv + omega * (feq - fv);
                            if forced {
                                next += oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
                            }
                            self.f[cell * q + i] = next;
                        }
                    }
                }
            }
        }
    }

    fn sparse_setup(
        ctx: &KernelCtx,
        geom: &Geometry,
    ) -> (SparseTiles, GatherTable, SparseField, SparseField) {
        let tiles = SparseTiles::build_serial(geom).unwrap();
        let gt = GatherTable::new(&ctx.lat);
        let q = ctx.lat.q();
        let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
        let dst = SparseField::new(q, tiles.tile_count()).unwrap();
        init_equilibrium(
            ctx,
            &tiles,
            &gt,
            &mut f,
            geom.dims(),
            smooth_state(geom.dims()),
        );
        (tiles, gt, f, dst)
    }

    fn assert_matches_dense(kind: LatticeKind, geom: &Geometry, g: [f64; 3], steps: usize) {
        let ctx = ctx_for(kind);
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, geom);
        let mut dref = DenseRef::new(&ctx, geom, &tiles);
        let state = smooth_state(geom.dims());
        dref.init(&ctx, &state);
        for _ in 0..steps {
            step(&ctx, &tiles, &gt, &f, &mut tmp, g, false);
            std::mem::swap(&mut f, &mut tmp);
            dref.step(&ctx, g);
        }
        let q = ctx.lat.q();
        let d = geom.dims();
        let mut cell = vec![0.0f64; q];
        let mut checked = 0usize;
        for (t, ti) in tiles.tiles.iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (x, y, z) = (
                            ti.tx * TILE_B + lx,
                            ti.ty * TILE_B + ly,
                            ti.tz * TILE_B + lz,
                        );
                        f.gather_cell(t, tile_cell(lx, ly, lz), &mut cell);
                        for i in 0..q {
                            let want = dref.f[d.idx(x, y, z) * q + i];
                            assert!(
                                cell[i].to_bits() == want.to_bits(),
                                "{kind:?} cell ({x},{y},{z}) i={i}: sparse {} dense {}",
                                cell[i],
                                want
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn sparse_matches_dense_reference_pipe() {
        let geom = Geometry::pipe(
            Dim3 {
                nx: 8,
                ny: 16,
                nz: 16,
            },
            5.0,
        )
        .unwrap();
        assert_matches_dense(LatticeKind::D3Q19, &geom, [0.0; 3], 3);
        assert_matches_dense(LatticeKind::D3Q19, &geom, [1e-5, 0.0, 0.0], 3);
        assert_matches_dense(LatticeKind::D3Q39, &geom, [0.0; 3], 2);
        assert_matches_dense(LatticeKind::D3Q39, &geom, [1e-5, 2e-6, 0.0], 2);
    }

    #[test]
    fn sparse_matches_dense_reference_porous_and_bifurcation() {
        let d = Dim3 {
            nx: 16,
            ny: 16,
            nz: 16,
        };
        let geom = Geometry::porous(d, 2.5, 0.15, 11).unwrap();
        assert_matches_dense(LatticeKind::D3Q27, &geom, [0.0, 1e-5, 0.0], 2);
        let geom = Geometry::bifurcation(
            Dim3 {
                nx: 24,
                ny: 24,
                nz: 16,
            },
            6.0,
            3.5,
        )
        .unwrap();
        assert_matches_dense(LatticeKind::D3Q15, &geom, [1e-5, 0.0, 0.0], 2);
    }

    /// An explicit pool, so the threaded cases cross chunk seams whatever
    /// the host's width.
    fn test_pool() -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn simd_and_par_are_bitwise_equal_to_scalar() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(
                Dim3 {
                    nx: 8,
                    ny: 16,
                    nz: 16,
                },
                6.0,
            )
            .unwrap();
            let g = [1e-5, 0.0, 3e-6];
            let (tiles, gt, f, _) = sparse_setup(&ctx, &geom);
            let n = tiles.tile_count();
            let q = ctx.lat.q();
            let mut scalar = SparseField::new(q, n).unwrap();
            let mut simd = SparseField::new(q, n).unwrap();
            let mut par = SparseField::new(q, n).unwrap();
            step(&ctx, &tiles, &gt, &f, &mut scalar, g, false);
            step(&ctx, &tiles, &gt, &f, &mut simd, g, true);
            test_pool().install(|| step(&ctx, &tiles, &gt, &f, &mut par, g, false));
            for t in 0..tiles.owned_tiles {
                assert_eq!(
                    scalar.frame(t),
                    par.frame(t),
                    "{kind:?} par tile {t} differs"
                );
                if sparse_simd_available() {
                    for (a, b) in scalar.frame(t).iter().zip(simd.frame(t)) {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{kind:?} simd differs: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stored_mass_is_conserved_exactly_in_structure() {
        // With escaping slots zeroed at init, no stored slot ever streams
        // to nowhere: total stored mass moves only through collide roundoff.
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::porous(
            Dim3 {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            2.0,
            0.1,
            5,
        )
        .unwrap();
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        for _ in 0..20 {
            step(&ctx, &tiles, &gt, &f, &mut tmp, [1e-5, 0.0, 0.0], false);
            std::mem::swap(&mut f, &mut tmp);
        }
        let m1 = mass(&f);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "stored mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn single_fluid_cell_tile_stays_finite_and_conservative() {
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::from_fn(
            Dim3 {
                nx: 8,
                ny: 8,
                nz: 8,
            },
            |x, y, z| (x, y, z) == (4, 4, 4),
        )
        .unwrap();
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
        assert_eq!(tiles.owned_fluid_cells, 1);
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        for _ in 0..10 {
            step(&ctx, &tiles, &gt, &f, &mut tmp, [0.0; 3], false);
            std::mem::swap(&mut f, &mut tmp);
        }
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        // The cell trades populations with its bounce-back rim, but the
        // total stored mass is exact.
        assert!(((mass(&f) - m0) / m0).abs() < 1e-12);
        // And the fluid cell itself stays near unit density.
        let mut cell = vec![0.0f64; ctx.lat.q()];
        let t = tiles.tile_of[tiles.tdims.idx(1, 1, 1)] as usize;
        f.gather_cell(t, tile_cell(0, 0, 0), &mut cell);
        let rho: f64 = cell.iter().sum();
        assert!((rho - 1.0).abs() < 0.05, "rho {rho}");
    }

    /// Clone with the fast path disabled: every tile classified slow, so
    /// the step runs the per-cell gather walk everywhere.
    fn force_slow(tiles: &SparseTiles) -> SparseTiles {
        let mut t = tiles.clone();
        let demote = |fast: &mut Vec<usize>, slow: &mut Vec<usize>| {
            let mut all: Vec<usize> = fast.drain(..).chain(slow.drain(..)).collect();
            all.sort_unstable();
            *slow = all;
        };
        let (ef, es) = (&mut t.aa_even_fast, &mut t.aa_even_slow);
        demote(ef, es);
        let (of, os) = (&mut t.aa_odd_fast, &mut t.aa_odd_slow);
        demote(of, os);
        let (ff, fs) = (&mut t.fast_owned, &mut t.slow_owned);
        demote(ff, fs);
        t
    }

    #[test]
    fn segments_reproduce_gather_rows() {
        for kind in [
            LatticeKind::D3Q15,
            LatticeKind::D3Q19,
            LatticeKind::D3Q27,
            LatticeKind::D3Q39,
        ] {
            let gt = GatherTable::new(&Lattice::new(kind));
            for i in 0..gt.q {
                let row = gt.row(i);
                let mut covered = 0usize;
                for s in gt.seg_row(i) {
                    for k in 0..s.len as usize {
                        let (slot, sc) = row[s.dst as usize + k];
                        assert_eq!(slot, s.slot);
                        assert_eq!(sc as usize, s.src as usize + k);
                        covered += 1;
                    }
                }
                assert_eq!(covered, TILE_CELLS, "{kind:?} i={i} segments leak");
            }
        }
    }

    #[test]
    fn fast_path_is_bitwise_equal_to_gather_path() {
        // Wide pipe: plenty of interior (fast) tiles plus wall (slow) ones.
        let d = Dim3 {
            nx: 8,
            ny: 24,
            nz: 24,
        };
        for (kind, g) in [
            (LatticeKind::D3Q15, [1e-5, 0.0, 0.0]),
            (LatticeKind::D3Q19, [0.0; 3]),
            (LatticeKind::D3Q27, [0.0, 2e-6, 0.0]),
            (LatticeKind::D3Q39, [1e-5, 0.0, 3e-6]),
        ] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(d, 10.0).unwrap();
            let (tiles, gt, f, _) = sparse_setup(&ctx, &geom);
            assert!(!tiles.fast_owned.is_empty(), "{kind:?} no fast tiles");
            let slow_tiles = force_slow(&tiles);
            let q = ctx.lat.q();
            let n = tiles.tile_count();
            let mut a = SparseField::new(q, n).unwrap();
            let mut b = SparseField::new(q, n).unwrap();
            for simd in [false, true] {
                step(&ctx, &tiles, &gt, &f, &mut a, g, simd);
                step(&ctx, &slow_tiles, &gt, &f, &mut b, g, simd);
                assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} simd={simd}");
                test_pool().install(|| step(&ctx, &tiles, &gt, &f, &mut b, g, simd));
                assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} par simd={simd}");
            }
        }
    }

    /// Run `pairs` AA even/odd pairs in place.
    #[allow(clippy::too_many_arguments)]
    fn run_aa_pairs(
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        gt: &GatherTable,
        f: &mut SparseField,
        g: [f64; 3],
        pairs: usize,
        simd: bool,
        par: bool,
    ) {
        let mut run = || {
            for _ in 0..pairs {
                aa_even_step(ctx, tiles, f, g, simd);
                aa_odd_step(ctx, tiles, gt, f, g, simd);
            }
        };
        if par {
            test_pool().install(run);
        } else {
            run();
        }
    }

    #[test]
    fn aa_pairs_match_two_grid_streamed_image() {
        for (kind, geom, g) in [
            (
                LatticeKind::D3Q19,
                Geometry::pipe(
                    Dim3 {
                        nx: 8,
                        ny: 16,
                        nz: 16,
                    },
                    5.0,
                )
                .unwrap(),
                [1e-5, 0.0, 0.0],
            ),
            (
                LatticeKind::D3Q39,
                Geometry::pipe(
                    Dim3 {
                        nx: 8,
                        ny: 16,
                        nz: 16,
                    },
                    5.0,
                )
                .unwrap(),
                [0.0; 3],
            ),
            (
                LatticeKind::D3Q27,
                Geometry::porous(
                    Dim3 {
                        nx: 16,
                        ny: 16,
                        nz: 16,
                    },
                    2.5,
                    0.15,
                    11,
                )
                .unwrap(),
                [0.0, 1e-5, 0.0],
            ),
            (
                LatticeKind::D3Q15,
                Geometry::bifurcation(
                    Dim3 {
                        nx: 24,
                        ny: 24,
                        nz: 16,
                    },
                    6.0,
                    3.5,
                )
                .unwrap(),
                [1e-5, 0.0, 0.0],
            ),
        ] {
            let ctx = ctx_for(kind);
            let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
            let q = ctx.lat.q();
            let mut aa = SparseField::new(q, tiles.tile_count()).unwrap();
            init_equilibrium_aa(
                &ctx,
                &tiles,
                &mut aa,
                geom.dims(),
                smooth_state(geom.dims()),
            );
            let pairs = 3;
            for _ in 0..2 * pairs {
                step(&ctx, &tiles, &gt, &f, &mut tmp, g, false);
                std::mem::swap(&mut f, &mut tmp);
            }
            run_aa_pairs(&ctx, &tiles, &gt, &mut aa, g, pairs, false, false);
            // The AA field at even parity must equal the streamed image of
            // the two-grid field on every fluid cell's slots.
            let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
            for t in 0..tiles.owned_tiles {
                let fluid = tiles.tiles[t].fluid;
                if fluid == 0 {
                    continue;
                }
                gather_tile(q, &gt, &tiles.neighbors[t], f.as_slice(), &mut buf);
                let frame = aa.frame(t);
                for c in 0..TILE_CELLS {
                    if fluid & (1 << c) == 0 {
                        continue;
                    }
                    for i in 0..q {
                        let (want, got) = (buf[i * TILE_CELLS + c], frame[i * TILE_CELLS + c]);
                        assert!(
                            (want - got).abs() <= 1e-11 * want.abs().max(1.0),
                            "{kind:?} tile {t} cell {c} i={i}: aa {got} vs streamed {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn aa_fast_simd_and_par_are_bitwise_equal() {
        for (kind, g) in [
            (LatticeKind::D3Q19, [1e-5, 0.0, 0.0]),
            (LatticeKind::D3Q39, [0.0; 3]),
        ] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(
                Dim3 {
                    nx: 8,
                    ny: 24,
                    nz: 24,
                },
                10.0,
            )
            .unwrap();
            let tiles = SparseTiles::build_serial(&geom).unwrap();
            assert!(!tiles.aa_even_fast.is_empty(), "{kind:?} no fast AA tiles");
            let slow_tiles = force_slow(&tiles);
            let gt = GatherTable::new(&ctx.lat);
            let q = ctx.lat.q();
            let mut reference = SparseField::new(q, tiles.tile_count()).unwrap();
            init_equilibrium_aa(
                &ctx,
                &tiles,
                &mut reference,
                geom.dims(),
                smooth_state(geom.dims()),
            );
            let variants: [(&SparseTiles, bool, bool); 4] = [
                (&tiles, false, false),    // fast path, scalar, serial
                (&tiles, true, false),     // fast path, simd
                (&tiles, false, true),     // fast path, threaded
                (&slow_tiles, true, true), // slow walk, simd, threaded
            ];
            let mut outputs = Vec::new();
            for (t, simd, par) in variants {
                let mut f = reference.clone();
                run_aa_pairs(&ctx, t, &gt, &mut f, g, 2, simd, par);
                outputs.push(f);
            }
            let head = outputs[0].as_slice();
            assert!(head.iter().all(|v| v.is_finite()));
            for (v, o) in outputs.iter().enumerate().skip(1) {
                for (a, b) in head.iter().zip(o.as_slice()) {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{kind:?} variant {v}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn aa_stored_mass_is_conserved_exactly() {
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::porous(
            Dim3 {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            2.0,
            0.1,
            5,
        )
        .unwrap();
        let tiles = SparseTiles::build_serial(&geom).unwrap();
        let gt = GatherTable::new(&ctx.lat);
        let mut f = SparseField::new(ctx.lat.q(), tiles.tile_count()).unwrap();
        init_equilibrium_aa(&ctx, &tiles, &mut f, geom.dims(), smooth_state(geom.dims()));
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        run_aa_pairs(
            &ctx,
            &tiles,
            &gt,
            &mut f,
            [1e-5, 0.0, 0.0],
            10,
            false,
            false,
        );
        let m1 = mass(&f);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "AA stored mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn gather_table_inverts_velocities() {
        let lat = Lattice::new(LatticeKind::D3Q39);
        let gt = GatherTable::new(&lat);
        // Pulling along i then pushing along i must return to the cell.
        for (i, c) in lat.velocities().iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (slot, sc) = gt.row(i)[tile_cell(lx, ly, lz)];
                        let sc = sc as usize;
                        let (sx, sy, sz) = (sc / 16, (sc / 4) % 4, sc % 4);
                        // Reconstruct the absolute source coordinate from
                        // the slot's tile offset; it must equal dst - c.
                        let s = slot as isize;
                        let (dx, dy, dz) = (s / 9 - 1, (s / 3) % 3 - 1, s % 3 - 1);
                        assert_eq!(
                            dx * TILE_B as isize + sx as isize,
                            lx as isize - c[0] as isize
                        );
                        assert_eq!(
                            dy * TILE_B as isize + sy as isize,
                            ly as isize - c[1] as isize
                        );
                        assert_eq!(
                            dz * TILE_B as isize + sz as isize,
                            lz as isize - c[2] as isize
                        );
                    }
                }
            }
        }
    }
}
