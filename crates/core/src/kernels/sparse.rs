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
//! buffer (two-grid): for every stored tile the streamed populations are
//! gathered z-line by z-line through the per-tile neighbour table into an
//! L1 frame (an unallocated neighbour reads as vacuum `0.0` — exact under
//! the rim-allocation rule), then fluid cells collide while solid cells
//! store the full-way bounce-back of their gathered values, straight into
//! the tile's `dst` frame. The gather is a copy, one 4-lane vector per
//! z-line on AVX2 hosts, so either form fills the same frame.
//!
//! Two tile bodies do the collide. The scalar body runs the *identical*
//! per-cell BGK/Guo arithmetic as the dense [`crate::kernels::op`] drivers
//! (same accumulation order, same reciprocal form), so on a shared geometry
//! the scalar sparse fluid trajectory is **bitwise equal** to the dense
//! masked path. The vector body evaluates every ±c velocity pair once on
//! 8-cell groups of a tile: it is the lane-generic `op::tile_pairs` on the
//! frame's velocity rows, the body the dense fused rung runs on shifted
//! source rows, on the widest lane instance the CPU runs (AVX-512 or AVX2,
//! bitwise equal).
//! That reassociates the arithmetic, so — like the dense `Simd` rung — it
//! agrees with the scalar body within re-rounding (fluid cells; the
//! bounce-back of solid cells is a copy and stays bitwise). The two-grid
//! step runs it straight into `dst`: with streaming stores where its two
//! fields do not fit in half the last-level cache, with plain stores
//! (`op::frame_pairs`, the body the AA steps run into an L1 frame) where
//! they do, so that a cache-resident `dst` is still cached when the next
//! step reads it as `src` ([`streams`]). The per-line arithmetic is the
//! same, so both stores write the same bits.
//!
//! The in-place AA steps work on one frame per tile. The even step collides
//! each tile in place; the odd step gathers on the same z-line windows with
//! each velocity reading its opposite's row, and scatters back through them
//! as the transpose, storing only fluid writers' lanes. Each step runs one
//! tile list in packed order. Like every kernel entry point, each step
//! chunks its tile list across the installed pool and is one plain sweep
//! outside one (see [`crate::kernels::par`]); chunks hold disjoint tiles
//! and both bodies are per-tile, so threaded steps are bitwise equal to
//! serial ones.

use crate::align::AlignedBuf;
use crate::error::{Error, Result};
use crate::geometry::{tile_cell, SparseTiles, TILE_B, TILE_CELLS, TILE_NEIGHBORS};
use crate::index::Dim3;
use crate::init::SiteStates;
use crate::kernels::op::{self, with_op, CollideOp, OpConsts, PairConsts};
#[cfg(target_arch = "x86_64")]
use crate::kernels::op::{frame_pairs_avx2, frame_pairs_avx512, prefetch};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::simd::{self, sfence, Lanes};
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

/// One destination z-line `(lx, ly, 0..4)` of a velocity's pull. Every
/// `|c_z| ≤ 3 < TILE_B`, so its four sources are a window of two source
/// z-lines laid end to end: the line at frame offset `off` in neighbour slot
/// `lo` (the lower-z tile), then the same line in slot `hi`. The window
/// starts [`GatherTable::zshift`] cells into `lo`'s line; a velocity with
/// `c_z = 0` has shift 0 and `lo == hi`. A line starts at `lz = 0` of a
/// velocity row, so `off + TILE_B ≤ q·64` always.
#[derive(Clone, Copy, Debug)]
struct ZLine {
    lo: u8,
    hi: u8,
    off: u16,
}

/// z-lines per tile and velocity (`TILE_B²`).
const TILE_LINES: usize = TILE_B * TILE_B;

/// A z-line plan: the 16 [`ZLine`]s of every velocity, and the cache lines
/// they read outside the tile's own frame.
#[derive(Clone, Debug)]
struct LinePlan {
    /// `[i · 16 + lx · 4 + ly]`: the z-lines of velocity `i`.
    lines: Vec<ZLine>,
    /// `(slot, frame offset)` of every 64-byte line the plan reads outside
    /// the tile's own frame, in slot order.
    nbr_lines: Vec<(u8, u16)>,
}

impl LinePlan {
    /// The plan of `lines`, with their neighbour cache lines collected.
    fn new(lines: Vec<ZLine>) -> Self {
        let own = crate::geometry::neighbor_slot(0, 0, 0) as u8;
        // A z-line is 32 bytes at a 32-byte aligned offset, so it lies
        // inside one 64-byte line of the frame.
        let nbr_lines: std::collections::BTreeSet<(u8, u16)> = lines
            .iter()
            .flat_map(|l| [(l.lo, l.off & !7), (l.hi, l.off & !7)])
            .filter(|&(s, _)| s != own)
            .collect();
        Self {
            lines,
            nbr_lines: nbr_lines.into_iter().collect(),
        }
    }

    /// The 16 z-lines of velocity `i`.
    #[inline]
    fn velocity(&self, i: usize) -> &[ZLine] {
        &self.lines[i * TILE_LINES..(i + 1) * TILE_LINES]
    }
}

/// Geometry-independent streaming table for one lattice: for every
/// `(velocity, destination cell)` pair, which neighbour-table slot the pull
/// source lives in and its cell index there. Valid because every velocity
/// component is ≤ 3 < [`TILE_B`], so the source is at most one tile away.
///
/// It holds those source addresses three ways:
/// * the per-cell entries (the slot-decode walk, used by [`streamed_tile`]
///   and [`zero_escaping_slots`]);
/// * the two-grid z-line plan, where velocity `i` reads row `i` of its
///   sources;
/// * the AA odd plan, the same lines and shifts with velocity `j` reading
///   row `opp(j)`, which its gather pulls through and its scatter writes
///   back through as the transpose.
///
/// A `q·64` zero frame stands in for every unallocated neighbour, so one
/// branch-free gather serves full, partial and rim tiles alike (the portable
/// `gather_lines` on either plan, or `gather_lines_avx2` with one vector per
/// line on the two-grid plan).
#[derive(Clone, Debug)]
pub struct GatherTable {
    q: usize,
    /// `[i · 64 + c] = (neighbour slot, source cell)`.
    entries: Vec<(u8, u8)>,
    /// Per velocity, the window start in its `lo` line: `(−c_z) mod 4`.
    zshift: Vec<u8>,
    /// The vacuum frame unallocated neighbours read (`q · 64` zeros).
    zero: Vec<f64>,
    /// The two-grid pull: `buf[i] ← src[(x − c_i, i)]`.
    pull: LinePlan,
    /// The AA odd pull `buf[j] ← f[(x − c_j, opp(j))]`.
    odd: LinePlan,
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
        // z-lines: a line's x/y source is one tile; in z a positive c_z
        // reaches down into the dz = −1 tile, a negative one up into +1.
        let mut lines = Vec::with_capacity(q * TILE_LINES);
        let mut zshift = Vec::with_capacity(q);
        for (i, c) in lat.velocities().iter().enumerate() {
            let cz = c[2] as isize;
            zshift.push((-cz).rem_euclid(TILE_B as isize) as u8);
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    let (dx, ox) = split(lx as isize - c[0] as isize);
                    let (dy, oy) = split(ly as isize - c[1] as isize);
                    let slot = |dz| crate::geometry::neighbor_slot(dx, dy, dz) as u8;
                    let (lo, hi) = match cz.signum() {
                        1 => (slot(-1), slot(0)),
                        -1 => (slot(0), slot(1)),
                        _ => (slot(0), slot(0)),
                    };
                    let off = (i * TILE_CELLS + tile_cell(ox, oy, 0)) as u16;
                    lines.push(ZLine { lo, hi, off });
                }
            }
        }
        // The odd plan moves each velocity's lines from row j to row opp(j).
        let odd_lines = lines
            .iter()
            .enumerate()
            .map(|(k, l)| {
                let j = k / TILE_LINES;
                let off = l.off as usize - j * TILE_CELLS + lat.opposite(j) * TILE_CELLS;
                ZLine {
                    off: off as u16,
                    ..*l
                }
            })
            .collect();
        Self {
            q,
            entries,
            zshift,
            zero: vec![0.0; q * TILE_CELLS],
            pull: LinePlan::new(lines),
            odd: LinePlan::new(odd_lines),
        }
    }

    /// The 64 `(slot, source cell)` entries of velocity `i`.
    #[inline]
    fn row(&self, i: usize) -> &[(u8, u8)] {
        &self.entries[i * TILE_CELLS..(i + 1) * TILE_CELLS]
    }
}

/// One sparse step `dst ← collide(bounce(pull(src)))` over the owned tiles
/// of `tiles`. `g` selects plain BGK (`[0; 3]`) or Guo forcing; `use_simd`
/// opts into the vector pair body (within re-rounding of the scalar one,
/// see module docs) when the host supports it. The vector body streams
/// `dst` past the cache only where the two fields do not fit in half the
/// last-level cache ([`streams`]); either store writes the same bits. Inside
/// a pool the owned tiles are split into disjoint contiguous chunks —
/// bitwise equal, because every tile reads only `src` and writes only its
/// own `dst` frame.
pub fn step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    let lanes = simd::lanes_for(use_simd);
    let stream = streams(
        src.resident_bytes() + dst.resident_bytes(),
        simd::llc_bytes(),
    );
    with_op!(g, |op| step_with(
        ctx, tiles, gt, src, dst, op, lanes, stream
    ));
}

/// Whether the two-grid step's vector body stores `dst` past the cache: when
/// its two fields, `bytes` together, exceed half the last-level cache `llc`,
/// or `llc` is unknown. Below that the next step's `src` is this step's
/// `dst`, and plain stores leave it in the cache, where streaming stores
/// would evict it to DRAM; above it the fields cycle through DRAM anyway and
/// streaming saves the read-for-ownership of every `dst` line. Half, not
/// all, of the cache: on a 300 MiB L3, plain stores won up to 246 MiB of
/// fields, tied at 296 MiB and lost at 394 MiB.
pub(crate) fn streams(bytes: u64, llc: Option<u64>) -> bool {
    llc.is_none_or(|llc| bytes > llc / 2)
}

/// [`step`] on the lane instance `lanes`, storing `dst` with streaming
/// stores where `stream` and plain ones otherwise (the vector body; the
/// scalar one always stores plainly).
#[allow(clippy::too_many_arguments)]
fn step_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    op: O,
    lanes: Lanes,
    stream: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(src.q(), q, "src q mismatch");
    assert_eq!(dst.q(), q, "dst q mismatch");
    assert_eq!(src.tile_count(), tiles.tile_count(), "src tile mismatch");
    assert_eq!(dst.tile_count(), tiles.tile_count(), "dst tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    let pc = pair_table(lanes, &oc, q);
    // Only the vector body streams.
    let stream = stream && pc.is_some();
    if ctx.third_order() {
        step_impl::<true, O>(ctx, tiles, gt, src, dst, &oc, pc.as_ref(), stream);
    } else {
        step_impl::<false, O>(ctx, tiles, gt, src, dst, &oc, pc.as_ref(), stream);
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
    pc: Option<&(Lanes, PairConsts)>,
    stream: bool,
) {
    let frame = dst.frame_len();
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_slice().as_mut_ptr());
    let src_data = src.as_slice();

    let dst_frame = move |t: usize| {
        assert!((t + 1) * frame <= total);
        // SAFETY: in bounds by the assert; chunks partition the owned tiles
        // and each tile's frame is taken once, so every task writes only
        // its own tiles' frames, which are disjoint slices of dst.
        unsafe { std::slice::from_raw_parts_mut(base.get().add(t * frame), frame) }
    };
    // The owned tiles run in packed (z-local) order: the next tile mostly
    // reads source lines the current one already brought in. A tile is
    // gathered into the L1-resident `buf` and collided from there straight
    // into its `dst` frame. Each task runs one contiguous range of them.
    let run = move |lo: usize, hi: usize| {
        let mut buf = GatherFrame([0.0; MAX_Q * TILE_CELLS]);
        for t in lo..hi {
            if t + 1 < hi {
                prefetch_tile_sources(src_data, &gt.pull, tiles, t + 1, frame);
            }
            let (nbrs, fluid) = (&tiles.neighbors[t], tiles.tiles[t].fluid);
            pull_collide::<THIRD, O>(
                ctx,
                oc,
                pc,
                stream,
                gt,
                nbrs,
                src_data,
                fluid,
                &mut buf.0,
                dst_frame(t),
            );
        }
        // Streaming stores are weakly ordered; plain ones need no fence.
        if stream {
            sfence();
        }
    };
    x_chunks(0, tiles.owned_tiles, run);
}

/// The vector tile body's instance and ±c pair table, or `None` where the
/// steps run the scalar body (`lanes` is [`Lanes::Scalar`]). Checks that
/// the CPU runs `lanes`.
fn pair_table(lanes: Lanes, oc: &OpConsts, q: usize) -> Option<(Lanes, PairConsts)> {
    op::pair_body(simd::supported(lanes), oc, q)
}

/// Run `work(sublist)` over a tile list: chunked across the installed pool,
/// one plain call outside one.
fn drive_tiles(list: &[usize], work: impl Fn(&[usize]) + Sync) {
    x_chunks(0, list.len(), |lo, hi| work(&list[lo..hi]));
}

/// Software-prefetch everything tile `t_next`'s z-line gather on `plan`
/// reads: its own source frame (`q·TILE_CELLS` doubles, the self slot every
/// interior cell pulls through), its neighbour-table row, and the plan's
/// neighbour lines (156 for D3Q19) in each of its allocated neighbours —
/// about half of a tile's source lines lie in other tiles' frames. The
/// indirect gather defeats the hardware stride prefetcher: every tile
/// restarts the stream at an arbitrary frame.
#[inline]
fn prefetch_tile_sources(
    src: &[f64],
    plan: &LinePlan,
    tiles: &SparseTiles,
    t_next: usize,
    frame: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        let nbrs = &tiles.neighbors[t_next];
        prefetch(std::ptr::from_ref(nbrs).cast());
        let lo = t_next * frame;
        let hi = (lo + frame).min(src.len());
        let mut p = lo;
        while p < hi {
            prefetch(src.as_ptr().wrapping_add(p));
            p += 8;
        }
        for &(slot, off) in &plan.nbr_lines {
            let n = nbrs[slot as usize];
            if n >= 0 {
                prefetch(src.as_ptr().wrapping_add(n as usize * frame + off as usize));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (src, plan, tiles, t_next, frame);
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

/// A `q·64` gather frame on a cache line of its own, so each of its
/// velocity rows is one aligned pair of lines.
#[repr(C, align(64))]
struct GatherFrame([f64; MAX_Q * TILE_CELLS]);

/// The source frame behind each neighbour slot: the neighbour's own frame
/// in `src`, or the table's zero frame where it is unallocated.
#[inline]
fn source_frames<'a>(
    gt: &'a GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &'a [f64],
) -> [&'a [f64]; TILE_NEIGHBORS] {
    let frame = gt.zero.len();
    let mut from = [gt.zero.as_slice(); TILE_NEIGHBORS];
    for (f, &n) in from.iter_mut().zip(nbrs) {
        if n >= 0 {
            let lo = n as usize * frame;
            *f = &src[lo..lo + frame];
        }
    }
    from
}

/// Pull-stream one tile z-line by z-line on `plan` into `buf[i·64 + c]`:
/// each destination line is a window of two source lines ([`ZLine`]), and
/// an unallocated neighbour reads the table's zero frame. On the two-grid
/// plan these are the same copies as [`gather_tile`] without its per-cell
/// slot decode and vacuum branch, so `buf` is bitwise the same. It reads
/// exactly the window's four cells of each line and nothing beside them,
/// which the in-place AA odd step relies on. The portable gather; the
/// two-grid step on AVX2 hosts runs [`gather_lines_avx2`].
#[inline]
fn gather_lines(
    q: usize,
    gt: &GatherTable,
    plan: &LinePlan,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    let frame = q * TILE_CELLS;
    let from = source_frames(gt, nbrs, src);
    for (i, out) in buf[..frame].chunks_exact_mut(TILE_CELLS).enumerate() {
        let lines = plan.velocity(i);
        match gt.zshift[i] {
            0 => window_lines::<0>(&from, lines, out),
            1 => window_lines::<1>(&from, lines, out),
            2 => window_lines::<2>(&from, lines, out),
            _ => window_lines::<3>(&from, lines, out),
        }
    }
}

/// One velocity's 16 z-lines: line `l` gets cells `[K, K + 4)` of its `lo`
/// source line followed by its `hi` source line.
#[inline(always)]
fn window_lines<const K: usize>(from: &[&[f64]; TILE_NEIGHBORS], lines: &[ZLine], out: &mut [f64]) {
    for (l, o) in lines.iter().zip(out.chunks_exact_mut(TILE_B)) {
        let off = l.off as usize;
        let lo = &from[l.lo as usize][off..off + TILE_B];
        let hi = &from[l.hi as usize][off..off + TILE_B];
        for (j, v) in o.iter_mut().enumerate() {
            *v = if j + K < TILE_B {
                lo[j + K]
            } else {
                hi[j + K - TILE_B]
            };
        }
    }
}

/// [`gather_lines`] on the two-grid plan with one 4-lane vector per z-line:
/// the window of `lo` line `a` and `hi` line `b` at shift `K` is `a` itself
/// for `K = 0`; otherwise `m = [a₂ a₃ b₀ b₁]` (the middle 128-bit halves)
/// gives `[a₁ a₂ a₃ b₀]`, `m` and `[a₃ b₀ b₁ b₂]` for `K = 1, 2, 3`, one
/// in-lane shuffle each. A copy, so `buf` is bitwise [`gather_lines`]'
/// frame. Each velocity's 16 lines run monomorphised on its shift. Its
/// whole-line loads also read the lanes beside each window, which is fine
/// on a read-only `src` and is why the in-place AA odd step does not use it.
///
/// # Safety
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_lines_avx2(
    q: usize,
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
) {
    use std::arch::x86_64::*;
    let frame = q * TILE_CELLS;
    assert!(gt.q == q && buf.len() >= frame);
    let from = source_frames(gt, nbrs, src);
    for (i, out) in buf[..frame].chunks_exact_mut(TILE_CELLS).enumerate() {
        let lines = gt.pull.velocity(i);
        // SAFETY: every `from` slice is one `q·64` frame and every line
        // offset satisfies `off + 4 ≤ q·64` (`GatherTable::new`), so both
        // 4-double loads are in bounds; each store writes one whole chunk
        // of `out`. AVX2 per this function's contract.
        unsafe {
            macro_rules! window {
                ($k:literal) => {
                    for (l, o) in lines.iter().zip(out.chunks_exact_mut(TILE_B)) {
                        let off = l.off as usize;
                        let a = _mm256_loadu_pd(from[l.lo as usize].as_ptr().add(off));
                        let v = if $k == 0 {
                            a
                        } else {
                            let b = _mm256_loadu_pd(from[l.hi as usize].as_ptr().add(off));
                            let m = _mm256_permute2f128_pd::<0x21>(a, b);
                            match $k {
                                1 => _mm256_shuffle_pd::<0b0101>(a, m),
                                2 => m,
                                _ => _mm256_shuffle_pd::<0b0101>(m, b),
                            }
                        };
                        _mm256_storeu_pd(o.as_mut_ptr(), v);
                    }
                };
            }
            match gt.zshift[i] {
                0 => window!(0),
                1 => window!(1),
                2 => window!(2),
                _ => window!(3),
            }
        }
    }
}

/// Pull-stream tile `nbrs` into the L1 frame `buf` and collide it straight
/// into its `dst` frame `to` — the two-grid step's whole per-tile work.
/// With a pair table: the AVX2 gather, then the pair body on its instance
/// ([`frame_pairs`](op::frame_pairs), the AA steps' body), with streaming
/// stores where `stream`, so that every velocity fills one whole cache line
/// of `to` per group, and with plain stores otherwise. Either way the
/// stored bits are the same. Without one, the portable gather and the
/// scalar body, with plain stores.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pull_collide<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: Option<&(Lanes, PairConsts)>,
    stream: bool,
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    fluid: u64,
    buf: &mut [f64],
    to: &mut [f64],
) {
    let q = ctx.lat.q();
    #[cfg(target_arch = "x86_64")]
    if let Some((lanes, pc)) = pc {
        // SAFETY: a pair table is built only for an instance the CPU runs
        // (`pair_table`), which includes AVX2.
        unsafe {
            gather_lines_avx2(q, gt, nbrs, src, buf);
            match (lanes, stream) {
                (Lanes::Avx512, true) => {
                    frame_pairs_avx512::<THIRD, true, O>(ctx, oc, pc, fluid, buf, to)
                }
                (_, true) => frame_pairs_avx2::<THIRD, true, O>(ctx, oc, pc, fluid, buf, to),
                (Lanes::Avx512, false) => {
                    frame_pairs_avx512::<THIRD, false, O>(ctx, oc, pc, fluid, buf, to)
                }
                (_, false) => frame_pairs_avx2::<THIRD, false, O>(ctx, oc, pc, fluid, buf, to),
            }
        }
        return;
    }
    let _ = (pc, stream);
    gather_lines(q, gt, &gt.pull, nbrs, src, buf);
    tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, buf, to);
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

/// Collide one gathered tile `buf` into `out` with the body the AA step chose:
/// the pair body on its instance when `pc` is set, the scalar body
/// otherwise.
#[inline]
fn tile_body<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: Option<&(Lanes, PairConsts)>,
    fluid: u64,
    buf: &[f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some((lanes, pc)) = pc {
        // SAFETY: a pair table is built only for an instance the CPU runs
        // (`pair_table`).
        unsafe {
            match lanes {
                Lanes::Avx512 => {
                    frame_pairs_avx512::<THIRD, false, O>(ctx, oc, pc, fluid, buf, out)
                }
                _ => frame_pairs_avx2::<THIRD, false, O>(ctx, oc, pc, fluid, buf, out),
            }
        }
        return;
    }
    let _ = pc;
    tile_cells_scalar::<THIRD, O>(ctx, oc, fluid, buf, out);
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
//
// The odd step addresses those slots through the table's odd z-line plan:
// the portable `gather_lines` pulls each destination line from the window
// of two source lines, and `scatter_lines` pushes it back as the transpose.
// Both are lane-exact: they touch only the window's four cells of a line,
// which are the slots of this tile's writers, so the ownership argument
// above holds as stated. The AVX2 `gather_lines_avx2` is not used here. Its
// whole-line loads also read the lanes beside each window, which another
// task's writer may be storing at the same moment: a data race, even though
// the values are discarded. The collide between the two is the step's tile
// body, as in the even step.
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
    let lanes = simd::lanes_for(use_simd);
    with_op!(g, |op| aa_even_with(ctx, tiles, f, op, lanes));
}

/// Odd (in-place, streaming) AA step: gather on the odd z-line plan (the
/// opposite velocity's row), collide, scatter velocity-forward through the
/// same plan. Computes the owned fluid tiles plus the adjacent ghost-writer
/// tiles (distributed builds), whose shallow cells duplicate the neighbour
/// rank's scatter into our boundary slots, as one list in packed order.
/// Chunked across the installed pool; bitwise equal to the plain sweep by
/// the slot-ownership argument in the section docs.
pub fn aa_odd_step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    let lanes = simd::lanes_for(use_simd);
    with_op!(g, |op| aa_odd_with(ctx, tiles, gt, f, op, lanes));
}

fn aa_even_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    op: O,
    lanes: Lanes,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    let oc = OpConsts::new(ctx, &op);
    let pc = pair_table(lanes, &oc, q);
    if ctx.third_order() {
        aa_even_impl::<true, O>(ctx, tiles, f, &oc, pc.as_ref());
    } else {
        aa_even_impl::<false, O>(ctx, tiles, f, &oc, pc.as_ref());
    }
}

fn aa_even_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    oc: &OpConsts,
    pc: Option<&(Lanes, PairConsts)>,
) {
    let q = ctx.lat.q();
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize]| {
        let mut out = [0.0f64; MAX_Q * TILE_CELLS];
        for &t in list {
            debug_assert!((t + 1) * frame <= total);
            let fluid = tiles.tiles[t].fluid;
            // SAFETY: the even step touches only the tile's own frame and
            // the work lists partition distinct tiles across tasks.
            let fr = unsafe { std::slice::from_raw_parts_mut(base.get().add(t * frame), frame) };
            let outf = &mut out[..frame];
            tile_body::<THIRD, O>(ctx, oc, pc, fluid, fr, outf);
            store_swapped(q, &oc.opp, outf, fr);
        }
    };
    drive_tiles(&tiles.aa_even, run);
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
    lanes: Lanes,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    let pc = pair_table(lanes, &oc, q);
    if ctx.third_order() {
        aa_odd_impl::<true, O>(ctx, tiles, gt, f, &oc, pc.as_ref());
    } else {
        aa_odd_impl::<false, O>(ctx, tiles, gt, f, &oc, pc.as_ref());
    }
}

#[allow(clippy::too_many_arguments)]
fn aa_odd_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    oc: &OpConsts,
    pc: Option<&(Lanes, PairConsts)>,
) {
    let q = ctx.lat.q();
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize]| {
        let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
        let mut out = [0.0f64; MAX_Q * TILE_CELLS];
        // Stores aimed at an unallocated neighbour land here, unread.
        let mut sink = [0.0f64; MAX_Q * TILE_CELLS];
        for (idx, &t) in list.iter().enumerate() {
            let nbrs = &tiles.neighbors[t];
            // SAFETY: the portable gather reads exactly slots `(x − c_j,
            // opp(j))` of this tile's writers `x`, and the scatter writes
            // only slots of the same writers (section docs); the lists give
            // each writer to one task, and every tile gathers all its slots
            // before scattering any, so no location is read and written
            // concurrently by different tasks.
            let src = unsafe { std::slice::from_raw_parts(base.get().cast_const(), total) };
            if let Some(&t_next) = list.get(idx + 1) {
                prefetch_tile_sources(src, &gt.odd, tiles, t_next, frame);
            }
            gather_lines(q, gt, &gt.odd, nbrs, src, &mut buf);
            let fluid = tiles.tiles[t].fluid;
            let outf = &mut out[..frame];
            tile_body::<THIRD, O>(ctx, oc, pc, fluid, &buf, outf);
            let to = scatter_frames(base.get(), total, frame, nbrs, sink.as_mut_ptr());
            // SAFETY: every `to` frame is `q·64` doubles of `f` (asserted)
            // or the sink, and the lane-exact scatter writes only slots
            // owned by this tile's fluid writers, as argued above.
            unsafe { scatter_lines(q, gt, &oc.opp, &to, fluid, outf) };
        }
    };
    drive_tiles(&tiles.aa_odd, run);
}

/// The frame each neighbour slot's scatter stores to: the neighbour's
/// `frame`-double frame in the `total`-double field at `base`, or `sink`
/// where the neighbour is unallocated. Each frame index is asserted here,
/// once per tile.
fn scatter_frames(
    base: *mut f64,
    total: usize,
    frame: usize,
    nbrs: &[i32; TILE_NEIGHBORS],
    sink: *mut f64,
) -> [*mut f64; TILE_NEIGHBORS] {
    let mut to = [sink; TILE_NEIGHBORS];
    for (p, &n) in to.iter_mut().zip(nbrs) {
        if n >= 0 {
            assert!(
                (n as usize + 1) * frame <= total,
                "neighbour frame {n} out of range"
            );
            *p = base.wrapping_add(n as usize * frame);
        }
    }
    to
}

/// The odd push `f[(x + c_i, i)] ← out[i·64 + c]` for the fluid writers `x`
/// of a tile: the transpose of [`gather_lines`] on the odd plan. Since
/// `x + c_i = x − c_opp(i)`, output row `i` leaves through the odd plan's
/// lines of velocity `opp(i)`, which address row `i`: lane `l` of a line
/// stores to `lo[off + l + K]` if `l + K < 4` and to `hi[off + l + K − 4]`
/// otherwise, `K` the velocity's shift. Only lanes whose bit is set in the
/// line's fluid nibble store, and only the slots of those writers are
/// written. `to[slot]` is the neighbour's frame, or a sink for an
/// unallocated neighbour (the owning rank computes that slot itself).
///
/// # Safety
/// Every `to` pointer must address `q·64` writable doubles, and the slots
/// of this tile's fluid writers must be written by no other task meanwhile.
#[inline]
unsafe fn scatter_lines(
    q: usize,
    gt: &GatherTable,
    opp: &[usize; MAX_Q],
    to: &[*mut f64; TILE_NEIGHBORS],
    fluid: u64,
    out: &[f64],
) {
    for (i, row) in out[..q * TILE_CELLS].chunks_exact(TILE_CELLS).enumerate() {
        let lines = gt.odd.velocity(opp[i]);
        // SAFETY: `off + 4 ≤ q·64` for every line (`GatherTable::new`) and
        // `l + K − 4 < 4`, so each store is inside one `to` frame; slot
        // ownership per this function's contract.
        unsafe {
            macro_rules! window {
                ($k:literal) => {
                    for (n, (l, o)) in lines.iter().zip(row.chunks_exact(TILE_B)).enumerate() {
                        let nibble = fluid >> (TILE_B * n) & 0xF;
                        if nibble == 0 {
                            continue;
                        }
                        let off = l.off as usize;
                        let (lo, hi) = (to[l.lo as usize].add(off), to[l.hi as usize].add(off));
                        for (j, &v) in o.iter().enumerate() {
                            if nibble == 0xF || nibble >> j & 1 == 1 {
                                if j + $k < TILE_B {
                                    *lo.add(j + $k) = v;
                                } else {
                                    *hi.add(j + $k - TILE_B) = v;
                                }
                            }
                        }
                    }
                };
            }
            match gt.zshift[opp[i]] {
                0 => window!(0),
                1 => window!(1),
                2 => window!(2),
                _ => window!(3),
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
///
/// Per tile, `state` is called once per addressable site of the tile's
/// reach neighbourhood (the tile widened by the lattice reach on each
/// side), and each velocity's slots are written from it one z-run at a
/// time.
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
    let r = ctx.lat.reach();
    let w = TILE_B + 2 * r;
    let mut sites = SiteStates::new(w * w * w);
    // Box site `b` of a tile is its cell `b − r` (each axis); the upwind
    // source of cell `l` along `c` is box site `l + r − c`, and `live`
    // marks the sites whose slot is an equilibrium rather than vacuum.
    let mut live = vec![false; w * w * w];
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        let corner = |tc: usize| (tc * TILE_B) as isize - r as isize;
        for bx in 0..w {
            let sxi = corner(ti.tx) + bx as isize;
            let sx = if tiles.ghost_cols == 0 {
                Some(sxi.rem_euclid(lnx as isize) as usize)
            } else if (0..lnx as isize).contains(&sxi) {
                Some(sxi as usize)
            } else {
                None
            };
            for by in 0..w {
                let sy = (corner(ti.ty) + by as isize).rem_euclid(lny as isize) as usize;
                for bz in 0..w {
                    let sz = (corner(ti.tz) + bz as isize).rem_euclid(lnz as isize) as usize;
                    let k = (bx * w + by) * w + bz;
                    live[k] = sx.is_some_and(|sx| {
                        tiles.tile_of[td.idx(sx / TILE_B, sy / TILE_B, sz / TILE_B)] >= 0
                    });
                    if let (true, Some(sx)) = (live[k], sx) {
                        sites.set(k, state(tiles.global_cell_x(sx, gdims.nx), sy, sz));
                    }
                }
            }
        }
        let frame = f.frame_mut(t);
        for (i, cv) in ctx.lat.velocities().iter().enumerate() {
            let [cx, cy, cz] = cv.map(|c| (r as isize - c as isize) as usize);
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    let k = ((lx + cx) * w + ly + cy) * w + cz;
                    let c = tile_cell(lx, ly, 0);
                    let run = &mut frame[i * TILE_CELLS + c..i * TILE_CELLS + c + TILE_B];
                    sites.feq_row(&ctx.lat, ctx.order, i, k, run);
                    for (v, &on) in run.iter_mut().zip(&live[k..k + TILE_B]) {
                        if !on {
                            *v = 0.0;
                        }
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
/// stored mass exactly conserved from step 0. Per tile, `state` is called
/// once per cell, then each velocity's 64 slots are written as one row.
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
    let mut cells = SiteStates::new(TILE_CELLS);
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        for lx in 0..TILE_B {
            let gx = tiles.global_cell_x(ti.tx * TILE_B + lx, gdims.nx);
            for ly in 0..TILE_B {
                let gy = ti.ty * TILE_B + ly;
                for lz in 0..TILE_B {
                    let gz = ti.tz * TILE_B + lz;
                    cells.set(tile_cell(lx, ly, lz), state(gx, gy, gz));
                }
            }
        }
        for (i, row) in f
            .frame_mut(t)
            .chunks_exact_mut(TILE_CELLS)
            .take(q)
            .enumerate()
        {
            cells.feq_row(&ctx.lat, ctx.order, i, 0, row);
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
    use crate::equilibrium::{feq_i, EqOrder};
    use crate::geometry::Geometry;
    use crate::index::wrap;
    use crate::kernels::op::{GuoForced, PlainBgk};
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

    /// `a` and `b` agree to `rel` relative — the standing AVX2-vs-scalar
    /// tolerance of the vector bodies.
    fn close(a: f64, b: f64, rel: f64) -> bool {
        a == b || (a - b).abs() <= rel * a.abs()
    }

    #[test]
    fn simd_and_par_are_bitwise_equal_to_scalar() {
        // Threading never changes a bit of either body; the AVX2+FMA pair
        // body agrees with the scalar one within re-rounding.
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
            let run = |simd: bool, par: bool| {
                let mut out = SparseField::new(q, n).unwrap();
                if par {
                    test_pool().install(|| step(&ctx, &tiles, &gt, &f, &mut out, g, simd));
                } else {
                    step(&ctx, &tiles, &gt, &f, &mut out, g, simd);
                }
                out
            };
            let (scalar, simd) = (run(false, false), run(true, false));
            let (par, par_simd) = (run(false, true), run(true, true));
            for t in 0..tiles.owned_tiles {
                assert_eq!(
                    scalar.frame(t),
                    par.frame(t),
                    "{kind:?} par tile {t} differs"
                );
                assert_eq!(
                    simd.frame(t),
                    par_simd.frame(t),
                    "{kind:?} par simd tile {t} differs"
                );
                for (a, b) in scalar.frame(t).iter().zip(simd.frame(t)) {
                    assert!(close(*a, *b, 1e-13), "{kind:?} simd differs: {a} vs {b}");
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
        let (tiles, gt, f0, mut tmp) = sparse_setup(&ctx, &geom);
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f0);
        for use_simd in [false, true] {
            let mut f = f0.clone();
            for _ in 0..20 {
                step(&ctx, &tiles, &gt, &f, &mut tmp, [1e-5, 0.0, 0.0], use_simd);
                std::mem::swap(&mut f, &mut tmp);
            }
            let m1 = mass(&f);
            assert!(
                ((m1 - m0) / m0).abs() < 1e-12,
                "use_simd={use_simd}: stored mass drifted: {m0} -> {m1}"
            );
        }
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

    #[test]
    fn odd_plan_reproduces_gather_rows() {
        // Every lane of the odd plan's lines of velocity j addresses what the
        // per-cell entry row(j) names, at row opp(j) of the source frame.
        let mut shifts = [false; TILE_B];
        for kind in LatticeKind::ALL {
            let lat = Lattice::new(kind);
            let gt = GatherTable::new(&lat);
            for j in 0..gt.q {
                let k = gt.zshift[j] as usize;
                shifts[k] = true;
                let row = gt.row(j);
                for (n, l) in gt.odd.velocity(j).iter().enumerate() {
                    for lane in 0..TILE_B {
                        let (slot, at) = if lane + k < TILE_B {
                            (l.lo, l.off as usize + lane + k)
                        } else {
                            (l.hi, l.off as usize + lane + k - TILE_B)
                        };
                        let (want_slot, sc) = row[n * TILE_B + lane];
                        assert_eq!(slot, want_slot, "{kind:?} j={j} line {n} lane {lane}");
                        assert_eq!(
                            at,
                            lat.opposite(j) * TILE_CELLS + sc as usize,
                            "{kind:?} j={j} line {n} lane {lane}"
                        );
                    }
                }
            }
        }
        assert_eq!(shifts, [true; TILE_B], "window shifts exercised");
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
            assert!(
                !tiles.fast_owned.is_empty(),
                "{kind:?} no all-fluid interior tiles"
            );
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
            // Per body: serial and threaded are bitwise one trajectory.
            // Across bodies: re-rounding.
            let run = |simd: bool, par: bool| {
                let mut f = reference.clone();
                run_aa_pairs(&ctx, &tiles, &gt, &mut f, g, 2, simd, par);
                f
            };
            let scalar = run(false, false);
            assert!(scalar.as_slice().iter().all(|v| v.is_finite()));
            let simd = run(true, false);
            for use_simd in [false, true] {
                let head = if use_simd { &simd } else { &scalar };
                let o = run(use_simd, true);
                for (a, b) in head.as_slice().iter().zip(o.as_slice()) {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{kind:?} simd={use_simd} threaded: {a} vs {b}"
                    );
                }
            }
            for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert!(close(*a, *b, 1e-13), "{kind:?} simd vs scalar: {a} vs {b}");
            }
        }
    }

    /// Test oracle of the odd pull: `buf[j·64 + c] ← f[(x − c_j, opp(j))]`
    /// cell by cell through the per-cell entries, vacuum for an unallocated
    /// source.
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

    /// Test oracle of the odd push: `f[(x + c_i, i)] ← out[i·64 + c]` cell
    /// by cell for the fluid writers `x`; a store to an unallocated tile is
    /// dropped.
    fn scatter_cells_aa(
        q: usize,
        opp: &[usize; MAX_Q],
        gt: &GatherTable,
        nbrs: &[i32; TILE_NEIGHBORS],
        fluid: u64,
        out: &[f64],
        f: &mut [f64],
    ) {
        for i in 0..q {
            let row = gt.row(opp[i]);
            for c in (0..TILE_CELLS).filter(|c| fluid >> c & 1 == 1) {
                let (slot, sc) = row[c];
                let t = nbrs[slot as usize];
                if t >= 0 {
                    f[(t as usize * q + i) * TILE_CELLS + sc as usize] = out[i * TILE_CELLS + c];
                }
            }
        }
    }

    /// The odd step the oracle's way: per tile of `aa_odd`, serially, the
    /// per-cell gather, the step's own tile body, the per-cell scatter.
    fn aa_odd_cells<O: CollideOp>(
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        gt: &GatherTable,
        f: &mut SparseField,
        op: O,
        simd: bool,
    ) {
        let q = ctx.lat.q();
        let oc = OpConsts::new(ctx, &op);
        let pc = pair_table(simd::lanes_for(simd), &oc, q);
        let mut buf = vec![0.0f64; q * TILE_CELLS];
        let mut out = vec![0.0f64; q * TILE_CELLS];
        for &t in &tiles.aa_odd {
            let (nbrs, fluid) = (&tiles.neighbors[t], tiles.tiles[t].fluid);
            gather_tile_aa(q, &oc.opp, gt, nbrs, f.as_slice(), &mut buf);
            if ctx.third_order() {
                tile_body::<true, O>(ctx, &oc, pc.as_ref(), fluid, &buf, &mut out);
            } else {
                tile_body::<false, O>(ctx, &oc, pc.as_ref(), fluid, &buf, &mut out);
            }
            scatter_cells_aa(q, &oc.opp, gt, nbrs, fluid, &out, f.as_mut_slice());
        }
    }

    /// Serial and ghosted tile lists of `geom`: the ghosted one owns all
    /// columns but the first, with one ghost column a side, so its odd list
    /// holds ghost-writer tiles.
    fn serial_and_ghosted(geom: &Geometry) -> [SparseTiles; 2] {
        let cols = geom.dims().nx / TILE_B;
        [
            SparseTiles::build_serial(geom).unwrap(),
            SparseTiles::build(geom, 1, cols - 1, 1).unwrap(),
        ]
    }

    /// An even-parity AA field of `tiles` with a distinct value in every
    /// slot: the smooth equilibrium, each slot scaled by its own factor.
    fn distinct_aa_field(ctx: &KernelCtx, tiles: &SparseTiles, geom: &Geometry) -> SparseField {
        let mut f = SparseField::new(ctx.lat.q(), tiles.tile_count()).unwrap();
        init_equilibrium_aa(ctx, tiles, &mut f, geom.dims(), smooth_state(geom.dims()));
        for (k, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v *= 1.0 + 1e-3 * (k % 101) as f64 / 101.0;
        }
        f
    }

    #[test]
    fn aa_odd_zline_step_is_bitwise_the_cell_walk() {
        // The odd step (z-line gather on the odd plan, the tile body, the
        // transposed lane-exact scatter) against the per-cell oracle, every
        // lattice, plain and Guo, both bodies, serial and pooled, on serial
        // and ghosted builds: the whole field, bit for bit.
        for kind in LatticeKind::ALL {
            let ctx = ctx_for(kind);
            let gt = GatherTable::new(&ctx.lat);
            let mut writers = 0;
            for geom in geometries() {
                for tiles in serial_and_ghosted(&geom) {
                    writers += tiles.aa_odd.len() - tiles.aa_even.len();
                    let f0 = distinct_aa_field(&ctx, &tiles, &geom);
                    for g in FORCES {
                        for simd in [false, true] {
                            let mut want = f0.clone();
                            with_op!(g, |op| aa_odd_cells(&ctx, &tiles, &gt, &mut want, op, simd));
                            for par in [false, true] {
                                let mut got = f0.clone();
                                let mut step = || aa_odd_step(&ctx, &tiles, &gt, &mut got, g, simd);
                                if par {
                                    test_pool().install(step);
                                } else {
                                    step();
                                }
                                for (k, (a, b)) in
                                    want.as_slice().iter().zip(got.as_slice()).enumerate()
                                {
                                    assert!(
                                        a.to_bits() == b.to_bits(),
                                        "{kind:?} {:?} ghosts {} g={g:?} simd {simd} par {par} \
                                         slot {k}: cells {a} vs z-lines {b}",
                                        geom.dims(),
                                        tiles.ghost_cols
                                    );
                                }
                            }
                        }
                    }
                }
            }
            assert!(writers > 0, "{kind:?}: no ghost-writer tiles");
        }
    }

    /// Per slot of `tiles`' storage: the fluid writer of an `aa_odd` tile
    /// whose odd scatter stores to it, as `(tile, cell)`, if any.
    fn odd_writers(
        q: usize,
        opp: &[usize; MAX_Q],
        gt: &GatherTable,
        tiles: &SparseTiles,
    ) -> Vec<Option<(usize, usize)>> {
        let mut writer = vec![None; q * TILE_CELLS * tiles.tile_count()];
        for &t in &tiles.aa_odd {
            let fluid = tiles.tiles[t].fluid;
            for i in 0..q {
                let row = gt.row(opp[i]);
                for c in (0..TILE_CELLS).filter(|c| fluid >> c & 1 == 1) {
                    let (slot, sc) = row[c];
                    let n = tiles.neighbors[t][slot as usize];
                    if n >= 0 {
                        let k = (n as usize * q + i) * TILE_CELLS + sc as usize;
                        assert!(writer[k].is_none(), "slot {k} has two writers");
                        writer[k] = Some((t, i * TILE_CELLS + c));
                    }
                }
            }
        }
        writer
    }

    #[test]
    fn aa_odd_step_writes_only_its_fluid_writers_slots() {
        // NaN poison in every slot that no fluid cell of an `aa_odd` tile
        // writes. One odd step, the scalar body and every vector instance
        // this CPU runs, serial and pooled, on serial and ghosted builds,
        // leaves every such slot bitwise as it was and
        // overwrites the others with finite values. Then the scatter alone,
        // tile by tile, from a distinct `out` frame into a poisoned field:
        // exactly the slots of that tile's fluid writers change, each to its
        // writer's lane. (On the whole step a solid writer's bounce output
        // is bitwise what it read, so a store it should not make is
        // invisible there; the scatter-alone half catches it.)
        let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0002);
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            let gt = GatherTable::new(&ctx.lat);
            let oc = OpConsts::new(&ctx, &PlainBgk);
            for geom in geometries() {
                for tiles in serial_and_ghosted(&geom) {
                    let writer = odd_writers(q, &oc.opp, &gt, &tiles);
                    let mut f0 = distinct_aa_field(&ctx, &tiles, &geom);
                    for (v, w) in f0.as_mut_slice().iter_mut().zip(&writer) {
                        if w.is_none() {
                            *v = poison;
                        }
                    }
                    let name = format!("{kind:?} {:?} ghosts {}", geom.dims(), tiles.ghost_cols);
                    for (lanes, par) in all_lanes()
                        .into_iter()
                        .flat_map(|l| [(l, false), (l, true)])
                    {
                        let mut f = f0.clone();
                        let op = GuoForced { g: FORCES[1] };
                        let mut step = || aa_odd_with(&ctx, &tiles, &gt, &mut f, op, lanes);
                        if par {
                            test_pool().install(step);
                        } else {
                            step();
                        }
                        for (k, ((a, b), w)) in f0
                            .as_slice()
                            .iter()
                            .zip(f.as_slice())
                            .zip(&writer)
                            .enumerate()
                        {
                            match w {
                                None => assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{name} {lanes:?} par {par}: slot {k} written"
                                ),
                                Some(_) => assert!(
                                    b.is_finite(),
                                    "{name} {lanes:?} par {par}: slot {k} holds {b}"
                                ),
                            }
                        }
                    }
                    let out: Vec<f64> = (0..q * TILE_CELLS).map(|k| 1.0 + k as f64).collect();
                    let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
                    let mut sink = vec![poison; q * TILE_CELLS];
                    let (total, frame) = (f.as_slice().len(), f.frame_len());
                    for &t in &tiles.aa_odd {
                        f.as_mut_slice().fill(poison);
                        let base = f.as_mut_slice().as_mut_ptr();
                        let nbrs = &tiles.neighbors[t];
                        let to = scatter_frames(base, total, frame, nbrs, sink.as_mut_ptr());
                        // SAFETY: every `to` frame is a whole frame of `f`
                        // or the sink, and nothing else runs meanwhile.
                        unsafe { scatter_lines(q, &gt, &oc.opp, &to, tiles.tiles[t].fluid, &out) };
                        for (k, (v, w)) in f.as_slice().iter().zip(&writer).enumerate() {
                            let want = match w {
                                Some((wt, lane)) if *wt == t => out[*lane],
                                _ => poison,
                            };
                            assert!(
                                v.to_bits() == want.to_bits(),
                                "{name}: tile {t} scatter slot {k}: {v} vs {want}"
                            );
                        }
                    }
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

    /// The three geometries of the equivalence suites.
    fn geometries() -> [Geometry; 3] {
        [
            Geometry::pipe(
                Dim3 {
                    nx: 8,
                    ny: 16,
                    nz: 16,
                },
                5.0,
            )
            .unwrap(),
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
        ]
    }

    #[test]
    fn zline_gather_is_bitwise_the_cell_walk() {
        // Every packed tile (owned and ghost) of serial and ghosted builds,
        // on a field with a distinct value in every slot: the z-line gather
        // and the per-cell walk produce the same bits, vacuum included.
        // The AVX2 gather does too, and the lattices cover every shift K.
        let mut shifts = [false; TILE_B];
        for kind in LatticeKind::ALL {
            let gt = GatherTable::new(&Lattice::new(kind));
            let q = gt.q;
            for &k in &gt.zshift {
                shifts[k as usize] = true;
            }
            let (mut full, mut partial, mut rim, mut vacuum) = (0, 0, 0, 0);
            for geom in geometries() {
                let cols = geom.dims().nx / TILE_B;
                for tiles in [
                    SparseTiles::build_serial(&geom).unwrap(),
                    SparseTiles::build(&geom, 1, cols - 1, 1).unwrap(),
                ] {
                    let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
                    for (k, v) in f.as_mut_slice().iter_mut().enumerate() {
                        *v = 1.0 + (k as f64).sqrt();
                    }
                    let mut walk = [0.0f64; MAX_Q * TILE_CELLS];
                    let mut lines = [f64::NAN; MAX_Q * TILE_CELLS];
                    for t in 0..tiles.tile_count() {
                        let nbrs = &tiles.neighbors[t];
                        gather_tile(q, &gt, nbrs, f.as_slice(), &mut walk);
                        gather_lines(q, &gt, &gt.pull, nbrs, f.as_slice(), &mut lines);
                        for (c, (a, b)) in walk.iter().zip(&lines).take(q * TILE_CELLS).enumerate()
                        {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "{kind:?} tile {t} slot {c}: walk {a} vs lines {b}"
                            );
                        }
                        #[cfg(target_arch = "x86_64")]
                        if simd::simd_available() {
                            let mut vector = GatherFrame([f64::NAN; MAX_Q * TILE_CELLS]);
                            // SAFETY: AVX2 was detected above.
                            unsafe { gather_lines_avx2(q, &gt, nbrs, f.as_slice(), &mut vector.0) };
                            for (c, (a, b)) in
                                walk.iter().zip(&vector.0).take(q * TILE_CELLS).enumerate()
                            {
                                assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{kind:?} tile {t} slot {c}: walk {a} vs AVX2 lines {b}"
                                );
                            }
                        }
                        match tiles.tiles[t].fluid {
                            0 => rim += 1,
                            u64::MAX if !nbrs.contains(&-1) => full += 1,
                            _ => partial += 1,
                        }
                        vacuum += usize::from(nbrs.contains(&-1));
                    }
                }
            }
            assert!(
                full > 0 && partial > 0 && rim > 0 && vacuum > 0,
                "{kind:?}: full {full} partial {partial} rim {rim} vacuum {vacuum}"
            );
        }
        assert_eq!(shifts, [true; TILE_B], "window shifts exercised");
    }

    /// One step into `out` on `lanes`, streaming `dst` where `stream`,
    /// serial or on [`test_pool`].
    #[allow(clippy::too_many_arguments)]
    fn step_on(
        par: bool,
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        gt: &GatherTable,
        f: &SparseField,
        out: &mut SparseField,
        g: [f64; 3],
        lanes: Lanes,
        stream: bool,
    ) {
        let mut run = || with_op!(g, |op| step_with(ctx, tiles, gt, f, out, op, lanes, stream));
        if par {
            test_pool().install(run);
        } else {
            run();
        }
    }

    const FORCES: [[f64; 3]; 2] = [[0.0; 3], [1e-5, -2e-6, 3e-6]];

    /// The scalar body and every vector instance this CPU runs.
    fn all_lanes() -> Vec<Lanes> {
        std::iter::once(Lanes::Scalar)
            .chain(simd::vector_lanes())
            .collect()
    }

    #[test]
    fn lane_instances_agree_on_sparse_steps() {
        // Every vector instance this CPU runs writes the same bits on the
        // two-grid step (streaming into `dst`) and on an AA even and odd
        // pair (in-place frames): every lattice, serial and ghosted builds,
        // plain and Guo, serial and pooled.
        let lanes = simd::vector_lanes();
        for kind in LatticeKind::ALL {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            for geom in geometries() {
                for tiles in serial_and_ghosted(&geom) {
                    let gt = GatherTable::new(&ctx.lat);
                    let f = distinct_aa_field(&ctx, &tiles, &geom);
                    for (g, par) in [(FORCES[0], false), (FORCES[1], true)] {
                        let mut first: Option<(Lanes, [SparseField; 2])> = None;
                        for &l in &lanes {
                            let mut two_grid = SparseField::new(q, tiles.tile_count()).unwrap();
                            let mut aa = f.clone();
                            let mut run = || {
                                with_op!(g, |op| {
                                    step_with(&ctx, &tiles, &gt, &f, &mut two_grid, op, l, true);
                                    aa_even_with(&ctx, &tiles, &mut aa, op, l);
                                    aa_odd_with(&ctx, &tiles, &gt, &mut aa, op, l);
                                })
                            };
                            if par {
                                test_pool().install(run);
                            } else {
                                run();
                            }
                            let name = format!(
                                "{kind:?} {:?} ghosts {} g={g:?} par {par}",
                                geom.dims(),
                                tiles.ghost_cols
                            );
                            let Some((l0, want)) = &first else {
                                first = Some((l, [two_grid, aa]));
                                continue;
                            };
                            for (step, (a, b)) in ["two-grid", "AA"]
                                .iter()
                                .zip(want.iter().zip([&two_grid, &aa]))
                            {
                                for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate()
                                {
                                    assert!(
                                        x.to_bits() == y.to_bits(),
                                        "{name} {step} slot {k}: {l0:?} {x} vs {l:?} {y}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nt_step_is_bitwise_the_gather_then_frame_body() {
        // The composition the step ran before streaming into `dst` — the
        // per-cell walk into an L1 frame, then `frame_pairs_avx2` into a
        // second L1 frame — is the oracle of its vector gather and streamed
        // body, bit for bit. (The plain-store body is the streamed one's
        // twin: `streaming_and_plain_stores_are_bitwise_equal`.)
        if !simd::simd_available() {
            return;
        }
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            for geom in geometries() {
                let (tiles, gt, f, mut out) = sparse_setup(&ctx, &geom);
                let mut buf = vec![0.0f64; q * TILE_CELLS];
                for g in FORCES {
                    for par in [false, true] {
                        out.as_mut_slice().fill(f64::NAN);
                        step_on(par, &ctx, &tiles, &gt, &f, &mut out, g, simd::lanes(), true);
                        for t in 0..tiles.owned_tiles {
                            gather_tile(q, &gt, &tiles.neighbors[t], f.as_slice(), &mut buf);
                            let fluid = tiles.tiles[t].fluid;
                            let (_, want) = with_op!(g, |op| both_bodies(&ctx, op, fluid, &buf));
                            for (k, (a, b)) in want.iter().zip(out.frame(t)).enumerate() {
                                assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{kind:?} {:?} g={g:?} par {par} tile {t} slot {k}: \
                                     frame body {a} vs step {b}",
                                    geom.dims()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn step_streams_only_past_half_the_llc() {
        const MIB: u64 = 1 << 20;
        // Unknown cache: stream, whatever the size.
        assert!(streams(0, None));
        assert!(streams(99 * MIB, None));
        // A 300 MiB L3: up to 150 MiB of fields store plainly.
        let llc = Some(300 * MIB);
        assert!(!streams(0, llc));
        assert!(!streams(99 * MIB, llc));
        assert!(!streams(150 * MIB, llc));
        assert!(streams(150 * MIB + 1, llc));
        assert!(streams(394 * MIB, llc));
        // An odd size halves down.
        assert!(!streams(2, Some(5)));
        assert!(streams(3, Some(5)));
    }

    #[test]
    fn streaming_and_plain_stores_are_bitwise_equal() {
        // The vector body's two stores into `dst` write the same bits. Every
        // test field is far below half the last-level cache, so `step` runs
        // the plain one everywhere else in the suite. Every vector instance
        // this CPU runs, plain and Guo, serial and pooled, on a pipe
        // (partial tiles) and an all-fluid box (full tiles only).
        let [pipe, ..] = geometries();
        let full = Dim3 {
            nx: 8,
            ny: 8,
            nz: 12,
        };
        let full = Geometry::from_fn(full, |_, _, _| true).unwrap();
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            for (geom, partial) in [(&pipe, true), (&full, false)] {
                let (tiles, gt, f, _) = sparse_setup(&ctx, geom);
                let masks = tiles.tiles[..tiles.owned_tiles].iter().map(|t| t.fluid);
                assert_eq!(
                    masks.clone().any(|m| m != 0 && m != u64::MAX),
                    partial,
                    "{kind:?} {:?}: partial tiles",
                    geom.dims()
                );
                for l in simd::vector_lanes() {
                    for g in FORCES {
                        for par in [false, true] {
                            let [streamed, plain] = [true, false].map(|stream| {
                                let mut out = SparseField::new(q, tiles.tile_count()).unwrap();
                                out.as_mut_slice().fill(f64::NAN);
                                step_on(par, &ctx, &tiles, &gt, &f, &mut out, g, l, stream);
                                out
                            });
                            let name =
                                format!("{kind:?} {:?} {l:?} g={g:?} par {par}", geom.dims());
                            for (k, (a, b)) in
                                streamed.as_slice().iter().zip(plain.as_slice()).enumerate()
                            {
                                assert!(!b.is_nan(), "{name} slot {k} unwritten");
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{name} slot {k}: streamed {a} vs plain {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_grid_step_writes_every_owned_frame_and_no_ghost_frame() {
        // A NaN-poisoned `dst` on a ghosted build: the scalar body and every
        // vector instance this CPU runs, with either store, serial and
        // pooled, overwrite every owned slot and leave every ghost tile's
        // frame bitwise as it was.
        let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            let mut ghosts = 0;
            for geom in geometries() {
                let cols = geom.dims().nx / TILE_B;
                let tiles = SparseTiles::build(&geom, 1, cols - 1, 1).unwrap();
                let gt = GatherTable::new(&ctx.lat);
                let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
                for (k, v) in f.as_mut_slice().iter_mut().enumerate() {
                    *v = 0.01 + 1e-6 * (k % 97) as f64;
                }
                ghosts += tiles.tile_count() - tiles.owned_tiles;
                for (lanes, par) in all_lanes()
                    .into_iter()
                    .flat_map(|l| [(l, false), (l, true)])
                {
                    for (g, stream) in FORCES.into_iter().flat_map(|g| [(g, true), (g, false)]) {
                        let mut out = SparseField::new(q, tiles.tile_count()).unwrap();
                        out.as_mut_slice().fill(poison);
                        step_on(par, &ctx, &tiles, &gt, &f, &mut out, g, lanes, stream);
                        let name = format!(
                            "{kind:?} {:?} {lanes:?} stream {stream} par {par} g={g:?}",
                            geom.dims()
                        );
                        for t in 0..tiles.tile_count() {
                            for (k, v) in out.frame(t).iter().enumerate() {
                                if t < tiles.owned_tiles {
                                    assert!(
                                        !v.is_nan(),
                                        "{name}: owned tile {t} slot {k} unwritten"
                                    );
                                } else {
                                    assert_eq!(
                                        v.to_bits(),
                                        poison.to_bits(),
                                        "{name}: ghost tile {t} slot {k} written"
                                    );
                                }
                            }
                        }
                    }
                }
            }
            assert!(ghosts > 0, "{kind:?}: no ghost tiles");
        }
    }

    #[test]
    fn neighbour_prefetch_lists_every_line_read_outside_the_tile() {
        // Each plan's prefetch list is exactly the set of (slot, 64-byte
        // line) the per-cell walk reads outside the own frame: row i for the
        // two-grid pull, row opp(i) for the AA odd pull.
        let own = crate::geometry::neighbor_slot(0, 0, 0) as u8;
        for kind in LatticeKind::ALL {
            let lat = Lattice::new(kind);
            let gt = GatherTable::new(&lat);
            for (plan, row_of) in [
                (&gt.pull, &(|i| i) as &dyn Fn(usize) -> usize),
                (&gt.odd, &|i| lat.opposite(i)),
            ] {
                let mut want = std::collections::BTreeSet::new();
                for i in 0..gt.q {
                    for &(slot, sc) in gt.row(i) {
                        if slot != own {
                            want.insert((
                                slot,
                                ((row_of(i) * TILE_CELLS + sc as usize) & !7) as u16,
                            ));
                        }
                    }
                }
                let got: std::collections::BTreeSet<_> = plan.nbr_lines.iter().copied().collect();
                assert_eq!(got.len(), plan.nbr_lines.len(), "{kind:?} duplicates");
                assert_eq!(got, want, "{kind:?}");
            }
        }
        let d3q19 = GatherTable::new(&Lattice::new(LatticeKind::D3Q19));
        assert_eq!(d3q19.pull.nbr_lines.len(), 156);
        assert_eq!(d3q19.odd.nbr_lines.len(), 156);
    }

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

    /// A near-equilibrium gathered tile: `f_i = w_i (1 + 0.1 r)`,
    /// `r ∈ [−1, 1]`, so `ρ ≈ 1` and absolute tolerances mean what they say.
    fn near_equilibrium_tile(ctx: &KernelCtx, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut buf = vec![0.0f64; ctx.lat.q() * TILE_CELLS];
        for (i, w) in ctx.lat.weights().iter().enumerate() {
            for v in &mut buf[i * TILE_CELLS..(i + 1) * TILE_CELLS] {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = w * (1.0 + 0.1 * ((s % 2001) as f64 / 1000.0 - 1.0));
            }
        }
        buf
    }

    /// All-solid lines (`0x0`), all-fluid lines (`0xF`), and a bitmap whose
    /// 16 lines mix both with partial ones.
    const LINE_MASKS: [u64; 3] = [0, u64::MAX, 0x5A3C_0FF0_F00F_C3A5];

    /// The scalar and the AVX2 pair body on one gathered tile.
    #[cfg(target_arch = "x86_64")]
    fn both_bodies<O: CollideOp>(
        ctx: &KernelCtx,
        op: O,
        fluid: u64,
        buf: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let q = ctx.lat.q();
        let oc = OpConsts::new(ctx, &op);
        let pc = PairConsts::new(&oc, q);
        let (mut scalar, mut pair) = (vec![0.0; q * TILE_CELLS], vec![0.0; q * TILE_CELLS]);
        // SAFETY: callers check AVX2+FMA first.
        unsafe {
            if ctx.third_order() {
                tile_cells_scalar::<true, O>(ctx, &oc, fluid, buf, &mut scalar);
                frame_pairs_avx2::<true, false, O>(ctx, &oc, &pc, fluid, buf, &mut pair);
            } else {
                tile_cells_scalar::<false, O>(ctx, &oc, fluid, buf, &mut scalar);
                frame_pairs_avx2::<false, false, O>(ctx, &oc, &pc, fluid, buf, &mut pair);
            }
        }
        (scalar, pair)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pair_body_matches_scalar_body_on_every_line_mask() {
        if !simd::simd_available() {
            return;
        }
        for kind in LatticeKind::ALL {
            for order in [EqOrder::Second, EqOrder::Third] {
                let ctx = KernelCtx::new(kind, order, Bgk::new(0.8).unwrap());
                let buf = near_equilibrium_tile(&ctx, 17);
                for g in [[0.0; 3], [2e-5, -1e-5, 3e-5]] {
                    for fluid in LINE_MASKS {
                        let (scalar, pair) = with_op!(g, |op| both_bodies(&ctx, op, fluid, &buf));
                        for (k, (a, b)) in scalar.iter().zip(&pair).enumerate() {
                            let ok = if fluid >> (k % TILE_CELLS) & 1 == 1 {
                                close(*a, *b, 1e-13)
                            } else {
                                a.to_bits() == b.to_bits()
                            };
                            assert!(
                                ok,
                                "{kind:?} {order:?} g={g:?} mask {fluid:#x} slot {k}: \
                                 scalar {a} vs pair {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pair_body_keeps_the_per_cell_invariants() {
        // Every fluid cell keeps its mass and gains exactly G of momentum:
        // |Σ out − Σ f| ≤ 1e-14 ρ and |Σ c·out − Σ c·f − G| ≤ 1e-14, in
        // compensated sums.
        if !simd::simd_available() {
            return;
        }
        let g = [2e-5, -1e-5, 3e-5];
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let q = ctx.lat.q();
            let vel = ctx.lat.velocities();
            let buf = near_equilibrium_tile(&ctx, 91);
            for fluid in LINE_MASKS {
                let (_, out) = both_bodies(&ctx, GuoForced { g }, fluid, &buf);
                for c in (0..TILE_CELLS).filter(|c| fluid >> c & 1 == 1) {
                    let f = |i: usize| buf[i * TILE_CELLS + c];
                    let t = |i: usize| out[i * TILE_CELLS + c];
                    let rho = kahan((0..q).map(f));
                    let dm = kahan((0..q).map(t).chain((0..q).map(|i| -f(i))));
                    assert!(dm.abs() <= 1e-14 * rho, "{kind:?} cell {c} mass {dm:e}");
                    for ax in 0..3 {
                        let c_ax = |i: usize| f64::from(vel[i][ax]);
                        let dp = kahan(
                            (0..q)
                                .map(|i| c_ax(i) * t(i))
                                .chain((0..q).map(|i| -c_ax(i) * f(i)))
                                .chain([-g[ax]]),
                        );
                        assert!(dp.abs() <= 1e-14, "{kind:?} cell {c} axis {ax}: {dp:e}");
                    }
                }
            }
        }
    }

    /// The per-(cell, velocity) AA initialiser the neighbourhood states
    /// replaced: the bitwise oracle.
    fn oracle_init_aa(
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        f: &mut SparseField,
        gdims: Dim3,
        state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
    ) {
        let td = tiles.tdims;
        let (lnx, lny, lnz) = (td.nx * TILE_B, td.ny * TILE_B, td.nz * TILE_B);
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
                        for (i, cv) in ctx.lat.velocities().iter().enumerate() {
                            let sxi = x as isize - cv[0] as isize;
                            let sx = if tiles.ghost_cols == 0 {
                                Some(sxi.rem_euclid(lnx as isize) as usize)
                            } else if (0..lnx as isize).contains(&sxi) {
                                Some(sxi as usize)
                            } else {
                                None
                            };
                            let sy =
                                (y as isize - cv[1] as isize).rem_euclid(lny as isize) as usize;
                            let sz =
                                (z as isize - cv[2] as isize).rem_euclid(lnz as isize) as usize;
                            frame[i * TILE_CELLS + c] = match sx {
                                None => 0.0,
                                Some(sx) => {
                                    let tt = tiles.tile_of
                                        [td.idx(sx / TILE_B, sy / TILE_B, sz / TILE_B)];
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

    /// The per-(cell, velocity) two-grid initialiser the 64-cell rows
    /// replaced: the bitwise oracle.
    fn oracle_init(
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        gt: &GatherTable,
        f: &mut SparseField,
        gdims: Dim3,
        state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
    ) {
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
                        for i in 0..ctx.lat.q() {
                            frame[i * TILE_CELLS + c] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                        }
                    }
                }
            }
        }
        zero_escaping_slots(ctx, tiles, gt, f);
    }

    /// Every lattice, every equivalence geometry, serial and ghosted builds.
    fn init_cases() -> Vec<(KernelCtx, Geometry, SparseTiles)> {
        let mut out = Vec::new();
        for kind in LatticeKind::ALL {
            for geom in geometries() {
                let cols = geom.dims().nx / TILE_B;
                for tiles in [
                    SparseTiles::build_serial(&geom).unwrap(),
                    SparseTiles::build(&geom, 1, cols - 1, 1).unwrap(),
                ] {
                    out.push((ctx_for(kind), geom.clone(), tiles));
                }
            }
        }
        out
    }

    fn bits(f: &SparseField) -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn init_equilibrium_is_bitwise_the_per_value_oracle() {
        for (ctx, geom, tiles) in init_cases() {
            let (d, q, n) = (geom.dims(), ctx.lat.q(), tiles.tile_count());
            let gt = GatherTable::new(&ctx.lat);
            let mut got = SparseField::new(q, n).unwrap();
            init_equilibrium(&ctx, &tiles, &gt, &mut got, d, smooth_state(d));
            let mut want = SparseField::new(q, n).unwrap();
            oracle_init(&ctx, &tiles, &gt, &mut want, d, smooth_state(d));
            let what = format!("{} {d:?} ghosts {}", ctx.lat.name(), tiles.ghost_cols);
            assert!(bits(&got) == bits(&want), "{what}");
        }
    }

    #[test]
    fn init_equilibrium_aa_is_bitwise_the_per_value_oracle() {
        for (ctx, geom, tiles) in init_cases() {
            let (d, q, n) = (geom.dims(), ctx.lat.q(), tiles.tile_count());
            let mut got = SparseField::new(q, n).unwrap();
            init_equilibrium_aa(&ctx, &tiles, &mut got, d, smooth_state(d));
            let mut want = SparseField::new(q, n).unwrap();
            oracle_init_aa(&ctx, &tiles, &mut want, d, smooth_state(d));
            let what = format!("{} {d:?} ghosts {}", ctx.lat.name(), tiles.ghost_cols);
            assert!(bits(&got) == bits(&want), "{what}");
        }
    }

    #[test]
    fn sparse_inits_call_state_once_per_site() {
        // The two-grid init: once per stored cell. The AA init: at most once
        // per site of each tile's reach neighbourhood, which is below the
        // per-(cell, velocity) count on every lattice.
        for (ctx, geom, tiles) in init_cases() {
            let (d, q, n) = (geom.dims(), ctx.lat.q(), tiles.tile_count());
            let calls = std::cell::Cell::new(0usize);
            let counted = |x, y, z| {
                calls.set(calls.get() + 1);
                smooth_state(d)(x, y, z)
            };
            let gt = GatherTable::new(&ctx.lat);
            let mut f = SparseField::new(q, n).unwrap();
            init_equilibrium(&ctx, &tiles, &gt, &mut f, d, counted);
            assert_eq!(calls.replace(0), n * TILE_CELLS, "{}", ctx.lat.name());
            init_equilibrium_aa(&ctx, &tiles, &mut f, d, counted);
            let w = TILE_B + 2 * ctx.lat.reach();
            assert!(w * w * w < TILE_CELLS * q);
            let what = format!("{} {d:?} ghosts {}", ctx.lat.name(), tiles.ghost_cols);
            assert!(
                calls.get() <= n * w * w * w,
                "{what}: {} calls",
                calls.get()
            );
        }
    }
}
