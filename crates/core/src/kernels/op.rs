//! Composable cell operators: the per-cell collide rule, factored out of the
//! drivers.
//!
//! Every rung of the ladder runs the same *data movement* (in-place sweep,
//! AVX2 lanes, fused single pass, rayon chunks) around one of two per-cell
//! *rules*: plain BGK relaxation, or the Guo-forced variant (half-force
//! velocity shift plus a post-relaxation source). A [`CollideOp`] names the
//! rule; the drivers are generic over it and monomorphize, so the unforced
//! instantiation compiles to exactly the code the dedicated plain kernels
//! used to be — the `O::FORCED` branches fold away at compile time.
//!
//! The module also owns the two pieces every driver used to duplicate by
//! hand:
//!
//! * [`OpConsts`] — the per-invocation stack hoist of the equilibrium
//!   constants (`[cx, cy, cz, w]` per velocity, previously copy-pasted in
//!   `fused.rs`/`fused_simd.rs`) plus the precomputed Guo source
//!   coefficients, so there is exactly one equilibrium-constant path;
//! * [`collide_cells_raw`] — the z-blocked, boundary-aware scalar collide
//!   body shared by the scalar driver (one call per chunk of the installed
//!   pool) and the non-AVX2 fallback of the SIMD rung. Wall rows are
//!   skipped and masked cells excluded via fluid z-runs, so walled/masked
//!   scenarios reuse the identical line-blocked loop the periodic kernels
//!   run.
//!
//! ## The Guo source, hoisted
//!
//! `S_i = (1 − ω/2) w_i [ (c_i−u)/c_s² + (c_i·u) c_i/c_s⁴ ] · G` expands to
//! `S_i = sa_i − sb_i (u·G) + sc_i ξ_i` with `ξ_i = c_i·u` and per-velocity
//! constants `sa_i = p_i (c_i·G)/c_s²`, `sb_i = p_i/c_s²`,
//! `sc_i = p_i (c_i·G)/c_s⁴`, `p_i = (1 − ω/2) w_i`. Only `u·G` and `ξ_i`
//! vary per cell — and `ξ_i` is already computed for the equilibrium — so
//! the forced path costs two extra fmas per (cell, velocity) in both the
//! scalar and AVX2 drivers.
//!
//! Across a ±c pair `(i, o = opp(i))` the constants mirror — `sa`, `sc` and
//! `ξ` negate, `sb` is shared — so `sc ξ`, a product of two odd factors,
//! keeps its sign and the source splits into a part even in `c` and a part
//! odd in it, `S_{i,o} = [sc ξ − sb (u·G)] ± sa`, exactly as the
//! equilibrium splits into `w ρ (E ± D)`. [`PairConsts`] lists the pairs
//! for the drivers that evaluate both once per pair, and the AVX2+FMA pair
//! expression itself lives here once: `group_moments` closes a lane
//! group's paired moment sums, `relax_pair` and `relax_rest` relax a pair
//! and the rest velocity. `tile_pairs_avx2` runs them over a row view, 8
//! cells at a time: the sparse steps pass the rows of a gathered tile
//! frame, the dense fused step the shifted source rows and the `dst` rows
//! themselves, the AA sweep its in-place view with `dst(i) = src(opp(i))`,
//! and the `Simd` rung's split collide its in-place view with
//! `dst(i) = src(i)`, slab `i`'s row. That is every AVX2 collide of the
//! crate: a change to the pair expression is made here once.

use crate::boundary::{BoundarySpec, SectionMask};
use crate::field::DistField;
#[cfg(target_arch = "x86_64")]
use crate::geometry::TILE_CELLS;
use crate::kernels::dh::ZB;
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::{KernelCtx, MAX_Q};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256d;

/// A per-cell collide rule, threaded through every kernel driver.
///
/// Implementations carry only the rule's parameters (e.g. the force
/// density); the drivers do the sweeping. `FORCED` is an associated const
/// so the plain instantiation monomorphizes to branch-free unforced code.
pub trait CollideOp: Copy + Send + Sync {
    /// Whether this rule applies a body force (compile-time: `false`
    /// instantiations compile to the plain BGK update).
    const FORCED: bool;

    /// The force density `G` (zero for plain BGK).
    fn g(&self) -> [f64; 3];
}

/// Plain BGK relaxation — the rule of the periodic ladder kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainBgk;

impl CollideOp for PlainBgk {
    const FORCED: bool = false;

    #[inline(always)]
    fn g(&self) -> [f64; 3] {
        [0.0; 3]
    }
}

/// Guo-forced BGK: half-force velocity shift `u = (Σ f c + G/2)/ρ`, BGK
/// relaxation toward `f^eq(ρ, u)`, and the second-order source `S_i` added
/// post-relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuoForced {
    /// Force density `G` (lattice units).
    pub g: [f64; 3],
}

impl CollideOp for GuoForced {
    const FORCED: bool = true;

    #[inline(always)]
    fn g(&self) -> [f64; 3] {
        self.g
    }
}

/// Per-invocation hoisted constants shared by every collide driver: the
/// equilibrium-constant stack cache plus (when forced) the Guo source
/// coefficients. Built once per kernel call, outside the cell loops.
#[derive(Debug, Clone)]
pub struct OpConsts {
    /// `[cx, cy, cz, w]` per velocity — the dense stack row the hot loops
    /// read instead of chasing the two `EqConsts` heap vectors.
    pub cw: [[f64; 4]; MAX_Q],
    /// Opposite-velocity index per velocity (the bounce-back permutation
    /// the boundary-aware drivers apply to wall rows and masked cells).
    pub opp: [usize; MAX_Q],
    /// The force density `G`.
    pub g: [f64; 3],
    /// `G/2` — the Guo velocity-shift numerator term.
    pub half_g: [f64; 3],
    /// Source coefficient `sa_i = (1 − ω/2) w_i (c_i·G)/c_s²`.
    pub sa: [f64; MAX_Q],
    /// Source coefficient `sb_i = (1 − ω/2) w_i/c_s²` (multiplies `u·G`).
    pub sb: [f64; MAX_Q],
    /// Source coefficient `sc_i = (1 − ω/2) w_i (c_i·G)/c_s⁴` (multiplies
    /// `ξ_i`).
    pub sc: [f64; MAX_Q],
}

impl OpConsts {
    /// Hoist the constants for `op` under `ctx`.
    pub fn new<O: CollideOp>(ctx: &KernelCtx, op: &O) -> Self {
        let k = &ctx.consts;
        let q = ctx.lat.q();
        let mut cw = [[0.0f64; 4]; MAX_Q];
        for (i, slot) in cw.iter_mut().enumerate().take(q) {
            *slot = [k.c[i][0], k.c[i][1], k.c[i][2], k.w[i]];
        }
        let mut opp = [0usize; MAX_Q];
        for (i, o) in opp.iter_mut().enumerate().take(q) {
            *o = ctx.lat.opposite(i);
        }
        let g = op.g();
        let mut sa = [0.0f64; MAX_Q];
        let mut sb = [0.0f64; MAX_Q];
        let mut sc = [0.0f64; MAX_Q];
        if O::FORCED {
            let pref = 1.0 - 0.5 * ctx.omega;
            let inv_cs4 = k.inv_cs2 * k.inv_cs2;
            for i in 0..q {
                let cg = cw[i][0] * g[0] + cw[i][1] * g[1] + cw[i][2] * g[2];
                let p = pref * k.w[i];
                sa[i] = p * cg * k.inv_cs2;
                sb[i] = p * k.inv_cs2;
                sc[i] = p * cg * inv_cs4;
            }
        }
        Self {
            cw,
            opp,
            g,
            half_g: [0.5 * g[0], 0.5 * g[1], 0.5 * g[2]],
            sa,
            sb,
            sc,
        }
    }
}

/// One ±c velocity pair of a [`PairConsts`] table: `i` is the member met
/// first in velocity order and `o = opp(i)`. `c`, `sa` and `sc` are `i`'s
/// and negate for `o`; `w` and `sb` are common to both.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VelPair {
    pub i: usize,
    pub o: usize,
    pub c: [f64; 3],
    pub w: f64,
    pub sa: f64,
    pub sb: f64,
    pub sc: f64,
}

/// The ±c pair view of an [`OpConsts`], for drivers that evaluate the
/// equilibrium and the Guo source once per pair (the AVX2 AA, sparse and
/// fused bodies): every moving velocity appears in exactly one pair, and the
/// rest velocity is a degenerate pair with `i == o` and `c = sa = sc = 0`.
#[derive(Debug, Clone)]
pub(crate) struct PairConsts {
    pairs: [VelPair; MAX_Q / 2],
    n: usize,
    pub rest: VelPair,
}

impl PairConsts {
    /// Pair up the first `q` velocities of `oc`.
    pub fn new(oc: &OpConsts, q: usize) -> Self {
        let at = |i: usize| VelPair {
            i,
            o: oc.opp[i],
            c: [oc.cw[i][0], oc.cw[i][1], oc.cw[i][2]],
            w: oc.cw[i][3],
            sa: oc.sa[i],
            sb: oc.sb[i],
            sc: oc.sc[i],
        };
        let mut pairs = [VelPair::default(); MAX_Q / 2];
        let mut n = 0;
        let mut rest = None;
        for i in 0..q {
            // `opp[i] < i` is the second member of a pair already listed.
            if oc.opp[i] > i {
                pairs[n] = at(i);
                n += 1;
            } else if oc.opp[i] == i {
                rest = Some(at(i));
            }
        }
        assert_eq!(2 * n + 1, q, "a lattice is ±c pairs plus one rest velocity");
        Self {
            pairs,
            n,
            rest: rest.expect("q is odd, so one velocity is its own opposite"),
        }
    }

    /// The moving-velocity pairs, in order of their first member.
    pub fn pairs(&self) -> &[VelPair] {
        &self.pairs[..self.n]
    }
}

/// What every pair of one 4-lane group shares: the velocity, `u·G` (zero
/// unforced), `ωρ`, and the ξ-free parts of the equilibrium's even and odd
/// polynomials, `e0 = 1 − u²/2c_s²` and `d0 = 1/c_s² − u²/2c_s⁴` (`1/c_s²`
/// at second order).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct GroupMoments {
    ux: __m256d,
    uy: __m256d,
    uz: __m256d,
    ug: __m256d,
    orho: __m256d,
    e0: __m256d,
    d0: __m256d,
}

/// Close one lane group's paired moment sums `ρ`, `m = Σ c f` into the
/// shared [`GroupMoments`] (one vector division, as in `simd`).
///
/// # Safety
/// AVX2+FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(unsafe_op_in_unsafe_fn)] // no pointers: all safe fns from Rust 1.86 on, MSRV 1.85
pub(crate) unsafe fn group_moments<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    rho: __m256d,
    mut m: [__m256d; 3],
) -> GroupMoments {
    use std::arch::x86_64::*;
    let k = &ctx.consts;
    let inv = _mm256_div_pd(_mm256_set1_pd(1.0), rho);
    let mut ug = _mm256_setzero_pd();
    for a in 0..3 {
        if O::FORCED {
            m[a] = _mm256_add_pd(m[a], _mm256_set1_pd(oc.half_g[a]));
        }
        m[a] = _mm256_mul_pd(m[a], inv);
        if O::FORCED {
            ug = _mm256_fmadd_pd(m[a], _mm256_set1_pd(oc.g[a]), ug);
        }
    }
    let [ux, uy, uz] = m;
    let u2 = _mm256_fmadd_pd(ux, ux, _mm256_fmadd_pd(uy, uy, _mm256_mul_pd(uz, uz)));
    let inv_cs2 = _mm256_set1_pd(k.inv_cs2);
    GroupMoments {
        ux,
        uy,
        uz,
        ug,
        orho: _mm256_mul_pd(_mm256_set1_pd(ctx.omega), rho),
        e0: _mm256_fnmadd_pd(u2, _mm256_set1_pd(k.inv_2cs2), _mm256_set1_pd(1.0)),
        d0: if THIRD {
            _mm256_fnmadd_pd(u2, _mm256_set1_pd(k.inv_2cs4), inv_cs2)
        } else {
            inv_cs2
        },
    }
}

/// The ±c pair expression on one lane group: from arrivals `(f_i, f_o)` of
/// pair `p` to post-collision `(t_i, t_o)`, equilibrium and Guo source
/// evaluated once. With `ξ = c_i·u`, the even polynomial
/// `E = e0 + ξ²/2c_s⁴` and the source part `sc ξ − sb (u·G)` keep their
/// sign across the pair while `D = ξ (d0 + ξ²/6c_s⁶)` and `sa` flip it, so
/// `t_{i,o} = (1 − ω) f_{i,o} + [w ωρ E + sc ξ − sb (u·G)] ± [w ωρ D + sa]`
/// — 16 vector operations for a forced third-order pair. Zero components
/// of `c` are multiplied, not tested.
///
/// # Safety
/// AVX2+FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(unsafe_op_in_unsafe_fn)] // no pointers: all safe fns from Rust 1.86 on, MSRV 1.85
pub(crate) unsafe fn relax_pair<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    p: &VelPair,
    m: &GroupMoments,
    fi: __m256d,
    fo: __m256d,
) -> (__m256d, __m256d) {
    use std::arch::x86_64::*;
    let k = &ctx.consts;
    let xi = _mm256_fmadd_pd(
        _mm256_set1_pd(p.c[2]),
        m.uz,
        _mm256_fmadd_pd(
            _mm256_set1_pd(p.c[1]),
            m.uy,
            _mm256_mul_pd(_mm256_set1_pd(p.c[0]), m.ux),
        ),
    );
    let xi2 = _mm256_mul_pd(xi, xi);
    let e = _mm256_fmadd_pd(xi2, _mm256_set1_pd(k.inv_2cs4), m.e0);
    let d = _mm256_mul_pd(
        xi,
        if THIRD {
            _mm256_fmadd_pd(xi2, _mm256_set1_pd(k.inv_6cs6), m.d0)
        } else {
            m.d0
        },
    );
    let wr = _mm256_mul_pd(_mm256_set1_pd(p.w), m.orho);
    let (even, odd) = if O::FORCED {
        let src = _mm256_fmsub_pd(
            _mm256_set1_pd(p.sc),
            xi,
            _mm256_mul_pd(_mm256_set1_pd(p.sb), m.ug),
        );
        (
            _mm256_fmadd_pd(wr, e, src),
            _mm256_fmadd_pd(wr, d, _mm256_set1_pd(p.sa)),
        )
    } else {
        (_mm256_mul_pd(wr, e), _mm256_mul_pd(wr, d))
    };
    let omc = _mm256_set1_pd(1.0 - ctx.omega);
    (
        _mm256_fmadd_pd(omc, fi, _mm256_add_pd(even, odd)),
        _mm256_fmadd_pd(omc, fo, _mm256_sub_pd(even, odd)),
    )
}

/// The rest velocity's share of the pair body: `ξ = 0`, so `E = e0` and
/// every odd part vanishes, `t_0 = (1 − ω) f_0 + w ωρ e0 − sb (u·G)`.
///
/// # Safety
/// AVX2+FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(unsafe_op_in_unsafe_fn)] // no pointers: all safe fns from Rust 1.86 on, MSRV 1.85
pub(crate) unsafe fn relax_rest<O: CollideOp>(
    ctx: &KernelCtx,
    rest: &VelPair,
    m: &GroupMoments,
    f0: __m256d,
) -> __m256d {
    use std::arch::x86_64::*;
    let t0 = _mm256_fmadd_pd(
        _mm256_mul_pd(_mm256_set1_pd(rest.w), m.orho),
        m.e0,
        _mm256_mul_pd(_mm256_set1_pd(1.0 - ctx.omega), f0),
    );
    if O::FORCED {
        _mm256_fnmadd_pd(_mm256_set1_pd(rest.sb), m.ug, t0)
    } else {
        t0
    }
}

/// Cells of one iteration of [`tile_pairs_avx2`]: two 4-lane lines, one
/// whole 64-byte cache line of each velocity row.
pub(crate) const GROUP: usize = 8;

/// How far ahead of the group being loaded, in doubles, the row-view AVX2
/// bodies touch each velocity's source stream: 4 cache lines. A D3Q39 cell
/// reads 39 unit-stride streams, more than the hardware stride prefetcher
/// follows, so without the touch each line arrives late. One touch per
/// stream per line, interleaved with the loads, keeps every stream
/// 4 lines ahead ([`pair_lines`] on [`RowPtrs`]).
#[cfg(target_arch = "x86_64")]
pub(crate) const AHEAD: usize = 32;

/// Touch the cache line holding `p` into L1 (`PREFETCHT0`): a hint that
/// never faults, whatever `p` points to, so any `wrapping_add` of a row
/// pointer may be passed.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn prefetch(p: *const f64) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: SSE is part of the x86_64 baseline, and a prefetch reads no
    // memory architecturally: it cannot fault on any address.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
}

/// Where the velocity rows of a [`tile_pairs_avx2`] view live: velocity
/// `i` reads its arrivals at `src(i) + z` and stores its post-collision
/// values at `dst(i) + z`. `PREFETCH` says whether the body should touch
/// each source row [`AHEAD`] doubles ahead: worth it for rows streamed from
/// memory, not for frames already in L1. `BOUNCE` says what a solid lane
/// stores.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Rows: Copy {
    /// Whether [`pair_lines`] touches `src(i) + z + AHEAD` per velocity and
    /// group (compile-time: `false` compiles the touches away).
    const PREFETCH: bool;
    /// What a solid lane stores (compile-time). `true`: the bounce value,
    /// `(t_i, t_o) = (f_o, f_i)` — the fused, sparse and AA steps, whose
    /// solid cells bounce back inside the pass. `false`: its own arrivals,
    /// `(t_i, t_o) = (f_i, f_o)` — the split collide, whose solid cells the
    /// boundary apply has already transformed; an all-solid line then
    /// neither loads nor stores.
    const BOUNCE: bool = true;
    /// Start of velocity `i`'s source row (`i < q`).
    fn src(self, i: usize) -> *const f64;
    /// Start of velocity `i`'s destination row (`i < q`).
    fn dst(self, i: usize) -> *mut f64;
}

/// The velocity rows of a gathered `q·64` frame and of its output frame,
/// row `i` at offset `i·64` of each. Computed, not looked up: the sparse
/// tile body is bound by its instruction count, and a table lookup per
/// access costs it several percent. Not prefetched: the gathered frame is
/// L1-resident. The output frame is an L1 frame of the sparse AA steps, or
/// the two-grid step's `dst` frame, streamed to with `NT`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct FrameRows(*const f64, *mut f64);

#[cfg(target_arch = "x86_64")]
impl FrameRows {
    /// The rows of the gathered frame `buf` and of the output frame `out`.
    /// Taking the pointers is safe; the body's caller vouches for them.
    pub(crate) fn new(buf: &[f64], out: &mut [f64]) -> Self {
        Self(buf.as_ptr(), out.as_mut_ptr())
    }
}

#[cfg(target_arch = "x86_64")]
impl Rows for FrameRows {
    const PREFETCH: bool = false;

    #[inline(always)]
    fn src(self, i: usize) -> *const f64 {
        self.0.wrapping_add(i * TILE_CELLS)
    }

    #[inline(always)]
    fn dst(self, i: usize) -> *mut f64 {
        self.1.wrapping_add(i * TILE_CELLS)
    }
}

/// One source and one destination row pointer per velocity (the dense
/// fused step's shifted source rows, and the AA sweep's in-place view).
/// Prefetched: the source rows stream from memory.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct RowPtrs<'a>(pub &'a [*const f64; MAX_Q], pub &'a [*mut f64; MAX_Q]);

#[cfg(target_arch = "x86_64")]
impl Rows for RowPtrs<'_> {
    const PREFETCH: bool = true;

    #[inline(always)]
    fn src(self, i: usize) -> *const f64 {
        self.0[i]
    }

    #[inline(always)]
    fn dst(self, i: usize) -> *mut f64 {
        self.1[i]
    }
}

/// The ±c pair body over a row view `rows` (see [`Rows`]), for `groups`
/// groups of [`GROUP`] cells from `z0` on. Cell `z0 + j` is fluid iff bit
/// `j` of `fluid` is set, so one call covers at most 64 cells. Per 4-lane
/// line: paired moment sums `ρ += f_i + f_o`, `ρu += c_i (f_i − f_o)`, then
/// [`group_moments`], [`relax_pair`] per pair and [`relax_rest`]. Solid
/// lanes take the bounce-back swap `(t_i, t_o) = (f_o, f_i)` by blend, or
/// keep `(f_i, f_o)` where `R::BOUNCE` is false; all-solid lines only swap,
/// or are left alone, so solid cells are exact copies and fluid
/// cells agree with the per-cell scalar rule within re-rounding. Where
/// `R::PREFETCH`, the moment sums touch each velocity's source row
/// [`AHEAD`] doubles past the group, once per group.
///
/// With `NT` the stores stream past the cache, and a group's two lines run
/// side by side so that each velocity's two stores fill one cache line back
/// to back: write-combining buffers then never wait on half-filled lines.
/// With plain stores the lines run one at a time, which keeps fewer
/// vectors live. The per-line arithmetic is the same either way. The sparse
/// AA steps run it on their frames ([`frame_pairs_avx2`]), the sparse
/// two-grid step from its gathered frame straight into `dst` (`NT`,
/// [`FrameRows`]), the dense fused step on shifted source rows straight
/// into `dst`, the AA sweep in place (its `dst(i)` is `src(opp(i))`, so
/// each solid lane's blend stores every value back into the slot it came
/// from), and the split collide of the `Simd` rung in place on slab rows,
/// `dst(i) = src(i)`, keeping solid lanes.
///
/// # Safety
/// AVX2+FMA must be available. For every velocity `i < q` and group, the
/// 8 doubles at `rows.src(i) + z` must be readable and those at
/// `rows.dst(i) + z` writable (`wrapping_add` is used, so a row start may
/// lie outside its allocation as long as the accessed doubles do not; the
/// prefetched addresses need not be valid at all); with `NT` every
/// `rows.dst(i) + z` must be 32-byte aligned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn tile_pairs_avx2<const THIRD: bool, const NT: bool, O: CollideOp, R: Rows>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    rows: R,
    z0: usize,
    groups: usize,
    fluid: u64,
) {
    const LANES: usize = 4;
    debug_assert!(groups * GROUP <= u64::BITS as usize);
    for g in 0..groups {
        let (z, bits) = (z0 + g * GROUP, fluid >> (g * GROUP));
        let (lo, hi) = ((z, bits & 0xF), (z + LANES, (bits >> LANES) & 0xF));
        // SAFETY: the caller grants AVX2+FMA and the accesses of every group
        // g < groups; both lines lie in group g.
        unsafe {
            if NT {
                pair_lines::<THIRD, true, 2, O, R>(ctx, oc, pc, rows, [lo, hi], true);
            } else {
                for (line, first) in [(lo, true), (hi, false)] {
                    pair_lines::<THIRD, false, 1, O, R>(ctx, oc, pc, rows, [line], first);
                }
            }
        }
    }
}

/// [`tile_pairs_avx2`] on `L` 4-lane lines side by side: line `l` is cells
/// `[z, z + 4)` of every row with fluid bits `bits` (lane `j` is fluid iff
/// bit `j` is set), `lines[l] = (z, bits)`. Each velocity's `L` stores are
/// issued back to back. When `lines[0]` opens its 8-cell group (`first`)
/// and `R::PREFETCH`, the moment loop touches `rows.src(i) + z + AHEAD`
/// for every velocity right after loading it: one touch per stream per
/// group, whether the group runs as one call (`L = 2`) or two.
///
/// # Safety
/// As for [`tile_pairs_avx2`], for the 4 doubles of each line.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn pair_lines<const THIRD: bool, const NT: bool, const L: usize, O: CollideOp, R: Rows>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    rows: R,
    lines: [(usize, u64); L],
    first: bool,
) {
    use std::arch::x86_64::*;

    let rest = &pc.rest;
    let ahead = lines[0].0 + AHEAD;
    let touch = |i: usize| {
        if R::PREFETCH && first {
            prefetch(rows.src(i).wrapping_add(ahead));
        }
    };
    // SAFETY: the caller grants every access below (see # Safety).
    unsafe {
        macro_rules! ld {
            ($i:expr) => {{
                let (row, mut v) = (rows.src($i), [_mm256_setzero_pd(); L]);
                for l in 0..L {
                    v[l] = _mm256_loadu_pd(row.wrapping_add(lines[l].0));
                }
                v
            }};
        }
        macro_rules! st {
            ($i:expr, $v:expr) => {{
                let (row, v) = (rows.dst($i), $v);
                for l in 0..L {
                    let p = row.wrapping_add(lines[l].0);
                    if NT {
                        _mm256_stream_pd(p, v[l])
                    } else {
                        _mm256_storeu_pd(p, v[l])
                    }
                }
            }};
        }
        if lines.iter().all(|&(_, bits)| bits == 0) {
            if R::BOUNCE {
                for p in pc.pairs() {
                    let (fi, fo) = (ld!(p.i), ld!(p.o));
                    st!(p.i, fo);
                    st!(p.o, fi);
                }
                st!(rest.i, ld!(rest.i));
            }
            return;
        }
        let mut rho = ld!(rest.i);
        touch(rest.i);
        let mut m = [[_mm256_setzero_pd(); 3]; L];
        for p in pc.pairs() {
            let (fi, fo) = (ld!(p.i), ld!(p.o));
            touch(p.i);
            touch(p.o);
            for l in 0..L {
                let d = _mm256_sub_pd(fi[l], fo[l]);
                rho[l] = _mm256_add_pd(rho[l], _mm256_add_pd(fi[l], fo[l]));
                for a in 0..3 {
                    m[l][a] = _mm256_fmadd_pd(d, _mm256_set1_pd(p.c[a]), m[l][a]);
                }
            }
        }
        let mut gm = [group_moments::<THIRD, O>(ctx, oc, rho[0], m[0]); L];
        for l in 1..L {
            gm[l] = group_moments::<THIRD, O>(ctx, oc, rho[l], m[l]);
        }
        // Solid lanes keep the value `R::BOUNCE` names; a full line skips
        // the blend.
        let mut fluid_lanes = [_mm256_setzero_pd(); L];
        for l in 0..L {
            let lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
            fluid_lanes[l] = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_and_si256(_mm256_set1_epi64x(lines[l].1 as i64), lane_bits),
                lane_bits,
            ));
        }
        macro_rules! keep_solid {
            ($bounce:expr, $t:expr) => {{
                let (bounce, mut t) = ($bounce, $t);
                for l in 0..L {
                    if lines[l].1 != 0xF {
                        t[l] = _mm256_blendv_pd(bounce[l], t[l], fluid_lanes[l]);
                    }
                }
                t
            }};
        }
        for p in pc.pairs() {
            let (fi, fo) = (ld!(p.i), ld!(p.o));
            let (mut ti, mut to) = ([_mm256_setzero_pd(); L], [_mm256_setzero_pd(); L]);
            for l in 0..L {
                (ti[l], to[l]) = relax_pair::<THIRD, O>(ctx, p, &gm[l], fi[l], fo[l]);
            }
            let (si, so) = if R::BOUNCE { (fo, fi) } else { (fi, fo) };
            st!(p.i, keep_solid!(si, ti));
            st!(p.o, keep_solid!(so, to));
        }
        let f0 = ld!(rest.i);
        let mut t0 = [_mm256_setzero_pd(); L];
        for l in 0..L {
            t0[l] = relax_rest::<O>(ctx, rest, &gm[l], f0[l]);
        }
        st!(rest.i, keep_solid!(f0, t0));
    }
}

/// The pair body on one gathered `q·64` frame, from `buf[i·64 + c]` to
/// `out[i·64 + c]` with plain stores ([`FrameRows`]). Cell `c` is fluid
/// iff bit `c` of `fluid` is set.
///
/// # Safety
/// AVX2+FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn frame_pairs_avx2<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    fluid: u64,
    buf: &[f64],
    out: &mut [f64],
) {
    let q = ctx.lat.q();
    assert!(buf.len() >= q * TILE_CELLS && out.len() >= q * TILE_CELLS);
    let rows = FrameRows(buf.as_ptr(), out.as_mut_ptr());
    // SAFETY: row i spans [i·64, i·64 + 64) of both frames, which the
    // assert above keeps in bounds; AVX2+FMA per this function's contract.
    unsafe {
        tile_pairs_avx2::<THIRD, false, O, _>(ctx, oc, pc, rows, 0, TILE_CELLS / GROUP, fluid)
    }
}

/// Monomorphize a block over the force vector: `g = 0` binds the operator
/// to [`PlainBgk`] (compiling to the branch-free unforced kernels), any
/// other `g` to [`GuoForced`]. The single place the zero-force fast-path
/// rule lives — every public `g`-taking entry point routes through it.
macro_rules! with_op {
    ($g:expr, |$op:ident| $body:expr) => {{
        let g = $g;
        if g == [0.0; 3] {
            let $op = $crate::kernels::op::PlainBgk;
            $body
        } else {
            let $op = $crate::kernels::op::GuoForced { g };
            $body
        }
    }};
}
pub(crate) use with_op;

/// Advance `zs` to the next fluid z-run of row `y` and return its bounds,
/// or `None` when the row is exhausted. With no mask the whole row is one
/// run. Shared by the scalar bodies (split collide, AA), so the run
/// boundaries cannot drift between them; the AVX2 bodies read the mask as
/// fluid words instead.
#[inline]
pub(crate) fn next_fluid_run(
    mask: Option<&SectionMask>,
    y: usize,
    nz: usize,
    zs: &mut usize,
) -> Option<(usize, usize)> {
    if *zs >= nz {
        return None;
    }
    match mask {
        None => {
            // Honour the cursor even without a mask, so a caller starting
            // mid-row gets the remainder of the row, never cells it (or
            // someone else) already swept.
            let lo = *zs;
            *zs = nz;
            Some((lo, nz))
        }
        Some(m) => {
            while *zs < nz && m.is_solid(y, *zs) {
                *zs += 1;
            }
            if *zs == nz {
                return None;
            }
            let lo = *zs;
            while *zs < nz && !m.is_solid(y, *zs) {
                *zs += 1;
            }
            Some((lo, *zs))
        }
    }
}

/// Boundary-aware collide over planes `x ∈ [x_lo, x_hi)`: the rule `op`
/// applied to every fluid cell of `bounds` (wall rows and masked cells
/// untouched), chunked across the installed pool (see [`super::par`]). With
/// periodic `bounds` and [`PlainBgk`] this is exactly the CF/LoBr
/// line-blocked collide.
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

/// The shared z-blocked scalar collide body, against a raw base pointer so
/// the chunks of one sweep can run it on disjoint x-ranges.
///
/// # Safety
/// `base_ptr` must point to `total = q·slab_len` initialised doubles laid
/// out as consecutive velocity slabs of a field with allocated dims `d`; the
/// caller must guarantee exclusive access to the x-planes `[x_lo, x_hi)`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn collide_cells_raw<O: CollideOp>(
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
    // SAFETY: `collide_cells_impl` has this function's contract, which the
    // caller upholds.
    unsafe {
        if ctx.third_order() {
            collide_cells_impl::<true, O>(
                base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi,
            );
        } else {
            collide_cells_impl::<false, O>(
                base_ptr, total, slab_len, ctx, oc, bounds, d, x_lo, x_hi,
            );
        }
    }
}

/// # Safety
/// See [`collide_cells_raw`].
#[allow(clippy::too_many_arguments)]
unsafe fn collide_cells_impl<const THIRD: bool, O: CollideOp>(
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
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let fluid_y = bounds.fluid_y(d.ny);
    let mask = bounds.mask();
    let hg = oc.half_g;
    let g = oc.g;

    let mut rho = [0.0f64; ZB];
    let mut mx = [0.0f64; ZB];
    let mut my = [0.0f64; ZB];
    let mut mz = [0.0f64; ZB];
    let mut ux = [0.0f64; ZB];
    let mut uy = [0.0f64; ZB];
    let mut uz = [0.0f64; ZB];
    let mut u2 = [0.0f64; ZB];
    let mut ug = [0.0f64; ZB];

    for x in x_lo..x_hi {
        for y in fluid_y.clone() {
            let base = d.idx(x, y, 0);
            // Fluid z-runs of this row (one full run when there is no mask),
            // each swept with the CF/LoBr z-blocking.
            let mut zs = 0usize;
            while let Some((run_lo, run_hi)) = next_fluid_run(mask, y, d.nz, &mut zs) {
                let mut z0 = run_lo;
                while z0 < run_hi {
                    let blk = (run_hi - z0).min(ZB);
                    rho[..blk].fill(0.0);
                    mx[..blk].fill(0.0);
                    my[..blk].fill(0.0);
                    mz[..blk].fill(0.0);
                    for i in 0..q {
                        let c = oc.cw[i];
                        let off = i * slab_len + base + z0;
                        debug_assert!(off + blk <= total);
                        // SAFETY: off+blk ≤ total per the layout contract.
                        let p = unsafe { base_ptr.add(off) as *const f64 };
                        for j in 0..blk {
                            // SAFETY: j < blk, so p + j < base_ptr + total.
                            let fv = unsafe { *p.add(j) };
                            rho[j] += fv;
                            mx[j] += fv * c[0];
                            my[j] += fv * c[1];
                            mz[j] += fv * c[2];
                        }
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
                    for i in 0..q {
                        let c = oc.cw[i];
                        let w = c[3];
                        let off = i * slab_len + base + z0;
                        debug_assert!(off + blk <= total);
                        // SAFETY: off+blk ≤ total per the layout contract,
                        // and the writes below stay in this caller's
                        // exclusive x range.
                        let p = unsafe { base_ptr.add(off) };
                        for j in 0..blk {
                            let xi = c[0] * ux[j] + c[1] * uy[j] + c[2] * uz[j];
                            let mut poly =
                                1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2[j] * k.inv_2cs2;
                            if THIRD {
                                poly += xi * (xi * xi - 3.0 * k.cs2 * u2[j]) * k.inv_6cs6;
                            }
                            let feq = w * rho[j] * poly;
                            // SAFETY: j < blk, so p + j < base_ptr + total,
                            // in this caller's exclusive x range.
                            unsafe {
                                let fv = *p.add(j);
                                let mut next = fv + omega * (feq - fv);
                                if O::FORCED {
                                    next += oc.sa[i] - oc.sb[i] * ug[j] + oc.sc[i] * xi;
                                }
                                *p.add(j) = next;
                            }
                        }
                    }
                    z0 += blk;
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
    fn plain_op_is_bitwise_the_cf_collide() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(4, 5, 130); // straddles two z-blocks
            let mut a = random_field(c.lat.q(), dims, 31);
            let mut b = a.clone();
            crate::kernels::dh::collide(&c, &mut a, 0, dims.nx);
            collide_cells(&c, &mut b, 0, dims.nx, PlainBgk, &BoundarySpec::periodic());
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn guo_with_zero_force_is_bitwise_plain() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 9);
        let bounds = BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(1));
        let mut a = random_field(c.lat.q(), dims, 7);
        let mut b = a.clone();
        collide_cells(&c, &mut a, 0, dims.nx, PlainBgk, &bounds);
        collide_cells(&c, &mut b, 0, dims.nx, GuoForced { g: [0.0; 3] }, &bounds);
        assert_eq!(a.max_abs_diff_owned(&b), 0.0);
    }

    #[test]
    fn fluid_runs_respect_mask_and_walls() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 5);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(6, 5, |_y, z| z == 2));
        let mut f = random_field(c.lat.q(), dims, 23);
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
                    let lin = d.idx(x, 3, z);
                    if z == 2 {
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        assert!(f.max_abs_diff_owned(&before) > 0.0, "fluid must collide");
    }

    #[test]
    fn pair_table_mirrors_every_constant_and_covers_q_once() {
        // What the pair-evaluated body relies on: c, sa, sc negate across a
        // pair, w and sb are shared, and pairs + rest list 0..q once.
        // Compared with `==` on purpose: 0.0 == −0.0, their bits differ.
        fn check<O: CollideOp>(c: &KernelCtx, op: O) {
            let q = c.lat.q();
            let oc = OpConsts::new(c, &op);
            let pc = PairConsts::new(&oc, q);
            let mut seen = vec![0usize; q];
            for p in pc.pairs().iter().chain([&pc.rest]) {
                let (i, o) = (p.i, p.o);
                assert_eq!(o, oc.opp[i]);
                seen[i] += 1;
                if o != i {
                    seen[o] += 1;
                }
                for a in 0..3 {
                    assert!(p.c[a] == oc.cw[i][a] && p.c[a] == -oc.cw[o][a]);
                }
                assert!(p.w == oc.cw[i][3] && p.w == oc.cw[o][3]);
                assert!(p.sa == oc.sa[i] && p.sa == -oc.sa[o]);
                assert!(p.sb == oc.sb[i] && p.sb == oc.sb[o]);
                assert!(p.sc == oc.sc[i] && p.sc == -oc.sc[o]);
                assert_eq!(O::FORCED, p.sb != 0.0);
            }
            assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
            let r = pc.rest;
            assert!(r.i == r.o && r.c == [0.0; 3] && r.sa == 0.0 && r.sc == 0.0);
        }
        for kind in LatticeKind::ALL {
            for order in [EqOrder::Second, EqOrder::Third] {
                let c = KernelCtx::new(kind, order, Bgk::new(0.9).unwrap());
                check(&c, PlainBgk);
                check(
                    &c,
                    GuoForced {
                        g: [3e-4, -2e-4, 1e-4],
                    },
                );
            }
        }
    }

    #[test]
    fn source_coefficients_reproduce_guo_source() {
        // sa − sb(u·G) + sc·ξ must equal guo_source_i to rounding.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let g = [3e-4, -2e-4, 1e-4];
            let oc = OpConsts::new(&c, &GuoForced { g });
            let u = [0.05, -0.02, 0.03];
            let ug = u[0] * g[0] + u[1] * g[1] + u[2] * g[2];
            for i in 0..c.lat.q() {
                let cf = oc.cw[i];
                let xi = cf[0] * u[0] + cf[1] * u[1] + cf[2] * u[2];
                let s = oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
                let want = crate::collision::guo_source_i(&c.lat, i, u, g, c.omega);
                assert!(
                    (s - want).abs() < 1e-18 + 1e-12 * want.abs(),
                    "{kind:?} i={i}: {s} vs {want}"
                );
            }
        }
    }
}
