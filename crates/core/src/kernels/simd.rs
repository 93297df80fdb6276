//! `SIMD` — explicit short-vector collide (paper §V-G).
//!
//! The paper hand-coded double-hummer intrinsics (BG/P) and QPX quad-word
//! operations (BG/Q) for the collide function, on 16-byte-aligned data. The
//! host analogue is a line of 8 `f64` lanes, two AVX2+FMA vectors or one
//! AVX-512 vector, with fused multiply-adds (the same `fpmadd` idea the
//! paper invokes). This rung owns no vector arithmetic of its own: it runs the
//! lane-generic ±c pair body the fused, sparse and AA steps share
//! ([`crate::kernels::op`]'s `tile_pairs`) in place, on a row view whose
//! velocity `i` row is slab `i`'s row, both read and written. Per line the
//! body sums paired moments, takes one vector reciprocal, and evaluates the
//! equilibrium and the Guo source once per ±c pair.
//!
//! Row dispatch is [`BoundarySpec`]-aware: wall rows are skipped; fluid rows
//! run 64-cell chunks, one fluid word of the mask each, over their whole
//! 8-cell groups, and their last `nz mod 8` cells through an 8-lane stack
//! frame whose pad lanes are solid. A solid lane keeps its own values (the
//! view's `BOUNCE = false`), so masked cells stay as the boundary apply
//! left them. The arithmetic per line is the fused pass's, so the split
//! pipeline stream → apply → collide at this rung is bitwise the `Fused`
//! rung's vector pass, as the scalar split pipeline is the scalar fused one.
//! Against the scalar classes fluid cells agree within re-rounding.
//!
//! Feature detection happens once, at runtime ([`lanes`]): with AVX-512F
//! (and AVX2+FMA) the body runs on `Avx512` intrinsics, with AVX2+FMA on
//! `Portable<8>`, plain-Rust lanes compiled to two `__m256d` per line, the
//! two bitwise equal; without AVX2+FMA the rung falls back to the shared
//! scalar cell-operator body (so the crate stays portable, and the
//! benchmark harness reports which instance ran).
//! Streaming is already a memcpy exercise after LoBr, so this rung reuses
//! the CF/LoBr stream.

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::op::{self, CollideOp, OpConsts, PlainBgk};
#[cfg(target_arch = "x86_64")]
use crate::kernels::op::{tile_pairs, Avx512, Lane, PairConsts, Portable, Rows, GROUP};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::KernelCtx;
#[cfg(target_arch = "x86_64")]
use crate::kernels::MAX_Q;

/// The instance of the ±c pair body a kernel call runs on: the widest one
/// this CPU supports ([`lanes`]). Ordered by width, so `a <= lanes()` says
/// that the CPU runs `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lanes {
    /// No AVX2+FMA: the scalar bodies.
    Scalar,
    /// AVX2+FMA: `Portable<8>`, 8 lanes of `f64` in plain Rust, two
    /// `__m256d` per line.
    Avx2,
    /// AVX-512F besides AVX2+FMA: `Avx512`, 8 lanes of `f64` (`__m512d`).
    Avx512,
}

impl Lanes {
    /// The instance's name in reports: `"scalar"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Lanes::Scalar => "scalar",
            Lanes::Avx2 => "avx2",
            Lanes::Avx512 => "avx512",
        }
    }
}

/// The widest pair-body instance this CPU supports, detected once.
pub fn lanes() -> Lanes {
    #[cfg(target_arch = "x86_64")]
    {
        static LANES: std::sync::OnceLock<Lanes> = std::sync::OnceLock::new();
        *LANES.get_or_init(|| {
            use std::arch::is_x86_feature_detected as has;
            match (has!("avx2") && has!("fma"), has!("avx512f")) {
                (true, true) => Lanes::Avx512,
                (true, false) => Lanes::Avx2,
                (false, _) => Lanes::Scalar,
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Lanes::Scalar
    }
}

/// True when the vectorized path is available on this CPU.
pub fn simd_available() -> bool {
    lanes() != Lanes::Scalar
}

/// The instance a kernel call runs: [`lanes`] where `simd` asks for the
/// vector body, [`Lanes::Scalar`] otherwise.
pub(crate) fn lanes_for(simd: bool) -> Lanes {
    if simd {
        lanes()
    } else {
        Lanes::Scalar
    }
}

/// `lanes`, checked to run on this CPU. The kernels' inner entry points take
/// an instance, so that tests can run each one; this keeps them from running
/// one the CPU lacks.
pub(crate) fn supported(lanes: Lanes) -> Lanes {
    assert!(
        lanes <= self::lanes(),
        "{lanes:?} is not supported on this CPU"
    );
    lanes
}

/// The vector instances this CPU runs, for tests that run each one: a
/// missing instance is skipped with a printed note, as the vector tests
/// skip without AVX2.
#[cfg(test)]
pub(crate) fn vector_lanes() -> Vec<Lanes> {
    [Lanes::Avx2, Lanes::Avx512]
        .into_iter()
        .filter(|&l| {
            let runs = l <= lanes();
            if !runs {
                println!("note: {l:?} is not supported on this CPU; skipped");
            }
            runs
        })
        .collect()
}

/// Copy a finished row of populations to its destination with
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
        let head = usize::from(n > 0 && !(dst.as_ptr() as usize).is_multiple_of(16));
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
            // Aligned even copies: the caller's own bounds let a
            // fixed-length row unroll fully.
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
/// cells untouched), on the widest pair-body instance this CPU runs with
/// scalar fallback, chunked across the installed pool (see
/// [`super::par`]).
pub fn collide_cells<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    collide_cells_on(lanes(), ctx, f, x_lo, x_hi, op, bounds);
}

/// [`collide_cells`] on the pair-body instance `lanes` (checked to run on
/// this CPU), or the scalar body on [`Lanes::Scalar`].
fn collide_cells_on<O: CollideOp>(
    lanes: Lanes,
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    let lanes = supported(lanes);
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
        // planes; offsets are bounded by the layout contract. The CPU runs
        // `lanes` (checked above).
        unsafe {
            collide_cells_raw::<O>(
                lanes,
                base.get(),
                total,
                slab_len,
                ctx,
                &oc,
                bounds,
                d,
                lo,
                hi,
            )
        }
    });
}

/// Raw-pointer dispatch of one chunk: the pair body on `lanes`, the shared
/// scalar body on [`Lanes::Scalar`].
///
/// # Safety
/// The CPU must run `lanes`, and the contract of [`op::collide_cells_raw`]
/// must hold.
#[allow(clippy::too_many_arguments)]
unsafe fn collide_cells_raw<O: CollideOp>(
    lanes: Lanes,
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
    // SAFETY: the CPU runs `lanes`, and the entry points have this
    // function's layout contract, which the caller upholds.
    unsafe {
        let (p, n, s) = (base_ptr, total, slab_len);
        match (lanes, ctx.third_order()) {
            (Lanes::Avx512, true) => {
                return pair_rows_avx512::<true, O>(p, n, s, ctx, oc, bounds, d, x_lo, x_hi)
            }
            (Lanes::Avx512, false) => {
                return pair_rows_avx512::<false, O>(p, n, s, ctx, oc, bounds, d, x_lo, x_hi)
            }
            (Lanes::Avx2, true) => {
                return pair_rows_avx2::<true, O>(p, n, s, ctx, oc, bounds, d, x_lo, x_hi)
            }
            (Lanes::Avx2, false) => {
                return pair_rows_avx2::<false, O>(p, n, s, ctx, oc, bounds, d, x_lo, x_hi)
            }
            (Lanes::Scalar, _) => {}
        }
    }
    // SAFETY: the scalar body has this function's contract, which the caller
    // upholds.
    unsafe { op::collide_cells_raw::<O>(base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi) }
}

/// The split collide's row view for [`tile_pairs`]: velocity `i`'s
/// row starts at `row + i·stride` and is read and written in place — a row
/// of every velocity slab of the field (`stride` the slab length), or a row
/// of the tail frame (`stride` 8). Computed, like the sparse frames' view.
/// Prefetched: slab rows stream from memory. Solid lanes keep their own
/// values.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct SlabRows(*mut f64, usize);

#[cfg(target_arch = "x86_64")]
impl Rows for SlabRows {
    const PREFETCH: bool = true;
    const BOUNCE: bool = false;

    #[inline(always)]
    fn src(self, i: usize) -> *const f64 {
        self.0.wrapping_add(i * self.1)
    }

    #[inline(always)]
    fn dst(self, i: usize) -> *mut f64 {
        self.0.wrapping_add(i * self.1)
    }
}

/// The vector split collide of one chunk, on the lane instance `V`. Each
/// fluid row runs the ±c pair body in place over its whole 8-cell groups,
/// 64 cells and one fluid word per call; its last `nz mod 8` cells go
/// through an 8-lane stack frame whose pad lanes are solid, and only the
/// valid lanes go back. Wall rows are skipped; masked cells clear their
/// fluid bit and keep their values.
///
/// # Safety
/// The layout/exclusivity contract of [`op::collide_cells_raw`] must hold.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_rows<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
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
    /// Cells per call of the pair body: one `u64` fluid word.
    const CHUNK: usize = u64::BITS as usize;
    let q = ctx.lat.q();
    let nz = d.nz;
    let whole = nz - nz % GROUP;
    let pc = PairConsts::new(oc, q);
    let mask = bounds.mask();
    // Fluid bits of cells [z0, z0 + n) of row y; bits from n on are solid.
    let fluid = |y: usize, z0: usize, n: usize| {
        let all = if n == CHUNK { u64::MAX } else { (1 << n) - 1 };
        mask.map_or(all, |m| {
            (0..n)
                .filter(|&j| m.is_solid(y, z0 + j))
                .fold(all, |bits, j| bits & !(1 << j))
        })
    };
    let mut frame = [[1.0f64; GROUP]; MAX_Q];
    let tail = SlabRows(frame.as_mut_ptr().cast(), GROUP);
    for x in x_lo..x_hi {
        for y in bounds.fluid_y(d.ny) {
            let base = d.idx(x, y, 0);
            debug_assert!((q - 1) * slab_len + base + nz <= total);
            let rows = SlabRows(base_ptr.wrapping_add(base), slab_len);
            // SAFETY: row i of `rows` is [i·slab_len + base, + nz), inside
            // `total` and in plane x, which the caller grants exclusively;
            // the calls touch its whole groups only. Row i of `tail` is
            // frame[i], and the copies move the row's last n < 8 cells. `v`
            // proves the instance's features.
            unsafe {
                for z0 in (0..whole).step_by(CHUNK) {
                    let n = (whole - z0).min(CHUNK);
                    let bits = fluid(y, z0, n);
                    tile_pairs::<V, THIRD, false, O, _>(v, ctx, oc, &pc, rows, z0, n / GROUP, bits);
                }
                let n = nz - whole;
                if n > 0 {
                    for i in 0..q {
                        std::ptr::copy_nonoverlapping(rows.src(i).add(whole), tail.dst(i), n);
                    }
                    let bits = fluid(y, whole, n);
                    tile_pairs::<V, THIRD, false, O, _>(v, ctx, oc, &pc, tail, 0, 1, bits);
                    for i in 0..q {
                        std::ptr::copy_nonoverlapping(tail.src(i), rows.dst(i).add(whole), n);
                    }
                }
            }
        }
    }
}

/// [`pair_rows`] on [`Portable<8>`](Portable).
///
/// # Safety
/// AVX2+FMA must be available, and [`pair_rows`]' contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_rows_avx2<const THIRD: bool, O: CollideOp>(
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
    // SAFETY: AVX2+FMA and the layout contract per this function's contract.
    unsafe {
        let v = Portable::<GROUP>::assume();
        pair_rows::<_, THIRD, O>(v, base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi)
    }
}

/// [`pair_rows`] on [`Avx512`].
///
/// # Safety
/// AVX-512F, AVX2 and FMA must be available, and [`pair_rows`]' contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_rows_avx512<const THIRD: bool, O: CollideOp>(
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
    // SAFETY: AVX-512F, AVX2, FMA and the layout contract per this function's
    // contract.
    unsafe {
        let v = Avx512::assume();
        pair_rows::<_, THIRD, O>(v, base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi)
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

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.04 + (state % 769) as f64 / 1300.0;
        }
        f
    }

    /// Row lengths covering every shape of the AVX2 driver: only a tail
    /// (3, 7), only whole groups (8, 64), one short chunk and a tail (9,
    /// 13), and a full 64-cell chunk and a tail (70).
    const ROW_SHAPES: [usize; 7] = [3, 7, 8, 9, 13, 64, 70];

    /// Solid on every row: the last cell, a tail lane when `nz mod 8 ≠ 0`;
    /// on even rows also the last whole 8-cell group (an all-solid pair of
    /// lines).
    fn tail_and_group_mask(ny: usize, nz: usize) -> SectionMask {
        let whole = nz - nz % 8;
        SectionMask::from_fn(ny, nz, move |y, z| {
            z == nz - 1 || (y % 2 == 0 && z < whole && z + 8 >= whole)
        })
    }

    /// Run `step` serially (`threads == 1`) or inside a pool.
    fn on(threads: usize, step: impl FnOnce() + Send) {
        if threads == 1 {
            step();
        } else {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(step);
        }
    }

    /// Every cell `(x, y, z)` of an owned box.
    fn cells(dims: Dim3) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..dims.nx)
            .flat_map(move |x| (0..dims.ny).flat_map(move |y| (0..dims.nz).map(move |z| (x, y, z))))
    }

    #[test]
    fn simd_collide_matches_dh_within_fma_tolerance() {
        // Every row shape, serial and split across a pool: the periodic
        // collide against DH, and the masked one against the scalar
        // cell-operator body (bitwise DH on fluid cells), which leaves the
        // masked cells as they were.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            for nz in ROW_SHAPES {
                let dims = Dim3::new(4, 3, nz);
                let bounds = BoundarySpec::periodic().with_mask(tail_and_group_mask(dims.ny, nz));
                for threads in [1, 4] {
                    let case = format!("{kind:?} nz={nz} threads={threads}");
                    let mut a = random_field(c.lat.q(), dims, 0, 71);
                    let mut b = a.clone();
                    dh::collide(&c, &mut a, 0, dims.nx);
                    on(threads, || collide(&c, &mut b, 0, dims.nx));
                    let diff = a.max_abs_diff_owned(&b);
                    // FMA re-rounding only: differences are a few ulps of O(1) values.
                    assert!(diff < 1e-13, "{case}: {diff}");

                    let mut a = random_field(c.lat.q(), dims, 0, 72);
                    let mut b = a.clone();
                    op::collide_cells(&c, &mut a, 0, dims.nx, PlainBgk, &bounds);
                    on(threads, || {
                        collide_cells(&c, &mut b, 0, dims.nx, PlainBgk, &bounds)
                    });
                    let diff = a.max_abs_diff_owned(&b);
                    assert!(diff < 1e-13, "{case} masked: {diff}");
                    let d = a.alloc_dims();
                    for i in 0..c.lat.q() {
                        for (x, y, z) in
                            cells(dims).filter(|&(_, y, z)| !bounds.is_fluid(dims.ny, y, z))
                        {
                            let lin = d.idx(x, y, z);
                            assert_eq!(
                                a.slab(i)[lin].to_bits(),
                                b.slab(i)[lin].to_bits(),
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_collide_conserves_mass_exactly_enough() {
        let c = ctx(LatticeKind::D3Q39);
        let dims = Dim3::new(3, 3, 16);
        let mut f = random_field(c.lat.q(), dims, 0, 5);
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
            let mut a = random_field(c.lat.q(), dims, 0, 77);
            let mut b = a.clone();
            op::collide_cells(&c, &mut a, 0, dims.nx, op, &bounds);
            collide_cells(&c, &mut b, 0, dims.nx, op, &bounds);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn forced_simd_skips_walls_and_mask() {
        // Every row shape, serial and split across a pool: wall rows and
        // masked cells (a tail lane, a whole group) keep their bits, fluid
        // cells collide.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            for nz in ROW_SHAPES {
                let dims = Dim3::new(3, 2 * k + 4, nz);
                let bounds = BoundarySpec::periodic()
                    .with_walls(ChannelWalls::no_slip(k))
                    .with_mask(tail_and_group_mask(dims.ny, nz));
                for threads in [1, 4] {
                    let case = format!("{kind:?} nz={nz} threads={threads}");
                    let mut f = random_field(c.lat.q(), dims, 0, 13);
                    let before = f.clone();
                    let op = GuoForced {
                        g: [1e-4, 0.0, 0.0],
                    };
                    on(threads, || {
                        collide_cells(&c, &mut f, 0, dims.nx, op, &bounds)
                    });
                    let d = f.alloc_dims();
                    for i in 0..c.lat.q() {
                        for (x, y, z) in cells(dims) {
                            let lin = d.idx(x, y, z);
                            let (now, was) = (f.slab(i)[lin], before.slab(i)[lin]);
                            if !bounds.fluid_y(dims.ny).contains(&y) {
                                assert_eq!(now.to_bits(), was.to_bits(), "{case}: wall row");
                            } else if !bounds.is_fluid(dims.ny, y, z) {
                                assert_eq!(now.to_bits(), was.to_bits(), "{case}: masked");
                            } else {
                                assert_ne!(
                                    now.to_bits(),
                                    was.to_bits(),
                                    "{case}: fluid must collide"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_collide_writes_only_the_fluid_cells_of_its_planes() {
        // The vector driver stores in place through raw row pointers. With
        // the whole field NaN-poisoned except the fluid cells of planes
        // [x_lo, x_hi), a forced collide must leave every other slot (the
        // halo and the other owned planes, slab pads, wall rows, masked
        // cells) with its NaN bits and every fluid cell finite: no pad lane
        // of the tail frame goes back and no write lands past a row end.
        // Every row shape, serial and split across a pool, on every vector
        // instance this CPU runs.
        let poison = f64::from_bits(0x7ff8_dead_beef_0001);
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let (q, k) = (c.lat.q(), c.lat.reach());
            for nz in ROW_SHAPES {
                let dims = Dim3::new(6, 2 * k + 4, nz);
                let bounds = BoundarySpec::periodic()
                    .with_walls(ChannelWalls::no_slip(k))
                    .with_mask(tail_and_group_mask(dims.ny, nz));
                let values = random_field(q, dims, k, 67 + nz as u64);
                let (d, stride) = (values.alloc_dims(), values.slab_stride());
                let (x_lo, x_hi) = (k + 1, k + 5);
                let mut fluid = vec![false; values.as_slice().len()];
                for i in 0..q {
                    for x in x_lo..x_hi {
                        for (y, z) in (0..dims.ny).flat_map(|y| (0..nz).map(move |z| (y, z))) {
                            fluid[i * stride + d.idx(x, y, z)] = bounds.is_fluid(dims.ny, y, z);
                        }
                    }
                }
                for (lanes, threads) in vector_lanes().into_iter().flat_map(|l| [(l, 1), (l, 4)]) {
                    let mut f = values.clone();
                    for (v, &own) in f.as_mut_slice().iter_mut().zip(&fluid) {
                        if !own {
                            *v = poison;
                        }
                    }
                    let op = GuoForced {
                        g: [2e-5, -1e-5, 3e-5],
                    };
                    on(threads, || {
                        collide_cells_on(lanes, &c, &mut f, x_lo, x_hi, op, &bounds)
                    });
                    for (p, (v, &own)) in f.as_slice().iter().zip(&fluid).enumerate() {
                        assert!(
                            if own {
                                v.is_finite()
                            } else {
                                v.to_bits() == poison.to_bits()
                            },
                            "{kind:?} nz={nz} {lanes:?} threads={threads} offset {p} (fluid: {own}): {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_collide_leaves_each_solid_slot_its_own_bits() {
        // Every solid slot (wall rows, masked cells) holds a NaN with a
        // payload of its own, so a write of any other value, a collided
        // NaN among them, shows. A collide on every vector instance this
        // CPU runs must leave each with its bits and every fluid cell
        // finite.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let (q, k) = (c.lat.q(), c.lat.reach());
            for nz in ROW_SHAPES {
                let dims = Dim3::new(2, 2 * k + 4, nz);
                let bounds = BoundarySpec::periodic()
                    .with_walls(ChannelWalls::no_slip(k))
                    .with_mask(SectionMask::from_fn(dims.ny, nz, |y, z| (y + z) % 3 == 0));
                let mut f0 = random_field(q, dims, 0, 89 + nz as u64);
                let (d, stride) = (f0.alloc_dims(), f0.slab_stride());
                let mut solid = vec![false; f0.as_slice().len()];
                for i in 0..q {
                    for (x, y, z) in
                        cells(dims).filter(|&(_, y, z)| !bounds.is_fluid(dims.ny, y, z))
                    {
                        let p = i * stride + d.idx(x, y, z);
                        solid[p] = true;
                        f0.as_mut_slice()[p] = f64::from_bits(0x7ff8_0000_0000_0000 | p as u64);
                    }
                }
                for lanes in vector_lanes() {
                    let mut f = f0.clone();
                    let op = GuoForced {
                        g: [2e-5, -1e-5, 3e-5],
                    };
                    collide_cells_on(lanes, &c, &mut f, 0, dims.nx, op, &bounds);
                    for (p, ((a, b), &s)) in f0
                        .as_slice()
                        .iter()
                        .zip(f.as_slice())
                        .zip(&solid)
                        .enumerate()
                    {
                        assert!(
                            if s {
                                a.to_bits() == b.to_bits()
                            } else {
                                b.is_finite()
                            },
                            "{kind:?} nz={nz} {lanes:?} offset {p} (solid: {s}): {:#x} vs {:#x}",
                            a.to_bits(),
                            b.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_instances_agree_on_slab_rows() {
        // The split collide's in-place view: row i at i·72, solid lanes
        // keep their own values.
        use crate::align::AlignedBuf;
        use crate::kernels::op::lane_tests;
        const STRIDE: usize = 72;
        for c in lane_tests::contexts() {
            let data = lane_tests::arrivals(c.lat.q() * STRIDE, 17);
            let mut buf = AlignedBuf::new(data.len());
            let base = buf.as_mut_ptr();
            let case = format!("{:?} third {} SlabRows", c.lat.kind(), c.third_order());
            // SAFETY: every row's 64 cells lie in `buf`, on cache lines.
            unsafe {
                lane_tests::assert_instances_agree(&c, base, &data, SlabRows(base, STRIDE), &case)
            };
        }
    }

    #[test]
    fn lane_instances_agree_on_the_split_collide() {
        // Every vector instance this CPU runs writes the same bits: every
        // row shape, masked tail lanes and groups, wall rows, plain and
        // Guo, serial and on 4 threads.
        for kind in LatticeKind::ALL {
            let c = ctx(kind);
            let k = c.lat.reach();
            for nz in ROW_SHAPES {
                let dims = Dim3::new(3, 2 * k + 4, nz);
                let bounds = BoundarySpec::periodic()
                    .with_walls(ChannelWalls::no_slip(k))
                    .with_mask(tail_and_group_mask(dims.ny, nz));
                for (g, threads) in [([0.0; 3], 1), ([2e-5, -1e-5, 3e-5], 4)] {
                    let a0 = random_field(c.lat.q(), dims, 0, 41 + nz as u64);
                    let mut first: Option<DistField> = None;
                    for lanes in vector_lanes() {
                        let mut f = a0.clone();
                        on(threads, || {
                            op::with_op!(g, |rule| collide_cells_on(
                                lanes, &c, &mut f, 0, dims.nx, rule, &bounds
                            ))
                        });
                        let case = format!("{kind:?} nz={nz} g={g:?} {lanes:?}");
                        assert!(f.max_abs_diff_owned(&a0) > 0.0, "{case}: no change");
                        match &first {
                            None => first = Some(f),
                            Some(want) => {
                                for (p, (a, b)) in
                                    want.as_slice().iter().zip(f.as_slice()).enumerate()
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

    #[test]
    fn availability_probe_is_stable() {
        assert_eq!(simd_available(), simd_available());
        assert_eq!(lanes(), lanes());
        assert_eq!(simd_available(), lanes() >= Lanes::Avx2);
    }
}
