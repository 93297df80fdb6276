//! Composable cell operators: the per-cell collide rule, factored out of the
//! drivers.
//!
//! Every rung of the ladder runs the same *data movement* (in-place sweep,
//! vector lanes, fused single pass, rayon chunks) around one of two per-cell
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
//!   pool) and the scalar fallback of the SIMD rung. Wall rows are
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
//! scalar and vector drivers.
//!
//! Across a ±c pair `(i, o = opp(i))` the constants mirror — `sa`, `sc` and
//! `ξ` negate, `sb` is shared — so `sc ξ`, a product of two odd factors,
//! keeps its sign and the source splits into a part even in `c` and a part
//! odd in it, `S_{i,o} = [sc ξ − sb (u·G)] ± sa`, exactly as the
//! equilibrium splits into `w ρ (E ± D)`. [`PairConsts`] lists the pairs
//! for the drivers that evaluate both once per pair, and the pair
//! expression itself lives here once, written over a lane type
//! (`Lane`): `group_moments` closes a line's paired moment sums,
//! `relax_pair` and `relax_rest` relax a pair and the rest velocity.
//! `tile_pairs` runs them over a row view, 8 cells at a time: the sparse
//! steps pass the rows of a gathered tile frame, the dense fused step the
//! shifted source rows and the `dst` rows themselves, the AA sweep its
//! in-place view with `dst(i) = src(opp(i))`, and the `Simd` rung's split
//! collide its in-place view with `dst(i) = src(i)`, slab `i`'s row. That
//! is every vector collide of the crate: a change to the pair expression
//! is made here once.
//!
//! ## Lane instances
//!
//! The body is generic over `Lane`, a line of 8 doubles with the dozen
//! operations it uses, and has two instances: `Portable<8>` (`[f64; 8]`,
//! plain Rust, two `__m256d` per line under AVX2) and `Avx512` (`__m512d`,
//! intrinsics). Either way a group of 8 cells is one line, and every lane
//! sees the same operation sequence, so the two write the same bits. Each
//! driver's body is generic in turn, with two thin `#[target_feature]`
//! entry points, `avx2,fma` on `Portable<8>` and `avx512f,avx2,fma` on
//! `Avx512`, into which the whole body inlines; the driver picks one per
//! kernel call from [`crate::kernels::simd::lanes`], the widest tier the
//! CPU runs, detected once. A value of a lane type is the proof that the
//! CPU runs it, so the body's arithmetic is safe code.

use crate::boundary::{BoundarySpec, SectionMask};
use crate::field::DistField;
#[cfg(target_arch = "x86_64")]
use crate::geometry::TILE_CELLS;
use crate::kernels::dh::ZB;
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::simd::Lanes;
use crate::kernels::{KernelCtx, MAX_Q};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

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
/// equilibrium and the Guo source once per pair (the vector AA, sparse and
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

/// A vector of `N` `f64` lanes that the ±c pair body is written over, once:
/// [`Portable`] (`[f64; W]`) and [`Avx512`] (`__m512d`). The body issues the
/// same operation per lane on either, so the two produce the same bits. A
/// value of an instance is a token: it says that the CPU runs the
/// instance's instructions, which makes the methods safe to call. They are
/// all `#[inline(always)]`: inside a function that enables the instance's
/// features (the kernels' `#[target_feature]` entry points) each compiles
/// to one instruction per vector register of the line.
///
/// # Safety
/// An implementor's value may exist only where the CPU runs every
/// instruction its methods issue: implementors make one only in
/// [`Lane::assume`], and have no other constructor.
#[cfg(target_arch = "x86_64")]
pub(crate) unsafe trait Lane: Copy {
    /// Lanes per vector. [`tile_pairs`] runs instances of [`GROUP`] lanes,
    /// one line per group.
    const N: usize;
    /// The vector of `N` doubles.
    type V: Copy;
    /// Which lanes of a line are fluid.
    type Mask: Copy;
    /// The token.
    ///
    /// # Safety
    /// The CPU must support the instance: `simd::lanes()` is at least it.
    unsafe fn assume() -> Self;
    /// Every lane `x`.
    fn splat(self, x: f64) -> Self::V;
    /// Load `N` doubles from `p`.
    ///
    /// # Safety
    /// The `N` doubles at `p` must be readable.
    unsafe fn loadu(self, p: *const f64) -> Self::V;
    /// Store `v` to the `N` doubles at `p`.
    ///
    /// # Safety
    /// The `N` doubles at `p` must be writable.
    unsafe fn storeu(self, p: *mut f64, v: Self::V);
    /// Store `v` to the `N` doubles at `p` past the cache (non-temporal).
    ///
    /// # Safety
    /// The `N` doubles at `p` must be writable, and `p` aligned to the whole
    /// vector (`8·N` bytes: the lane's NT alignment).
    unsafe fn stream(self, p: *mut f64, v: Self::V);
    /// `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a − b`.
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a · b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a / b`.
    fn div(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a · b + c`, rounded once.
    fn fmadd(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `c − a · b`, rounded once.
    fn fnmadd(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `a · b − c`, rounded once.
    fn fmsub(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// The mask of a line whose lane `j` is fluid iff bit `j` of `bits` is
    /// set (bits from `N` on are ignored).
    fn fluid(self, bits: u64) -> Self::Mask;
    /// Lane by lane: `fluid` where `m` says fluid, `solid` elsewhere.
    fn select(self, m: Self::Mask, solid: Self::V, fluid: Self::V) -> Self::V;
}

/// The plain-Rust instance of [`Lane`]: `W` lanes of `[f64; W]`, every
/// operation written lane by lane in safe code (`f64::mul_add` for the three
/// FMA forms). Inside an `avx2,fma` entry point the compiler turns each into
/// vector instructions, two `__m256d` per 8-lane line; elsewhere it is
/// correct scalar code (`mul_add` then calls the correctly rounded libm
/// `fma`), so its bits do not depend on the codegen target. Its one
/// intrinsic is [`Lane::stream`], `_mm256_stream_pd` per 4 lanes, so its
/// token proves AVX2+FMA, as the entry points that run it enable.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Portable<const W: usize>(());

// SAFETY: `Portable` is made only by `assume`, whose caller vouches for
// AVX2+FMA; the one intrinsic below, in `stream`, needs AVX only.
#[cfg(target_arch = "x86_64")]
unsafe impl<const W: usize> Lane for Portable<W> {
    const N: usize = W;
    type V = [f64; W];
    type Mask = [bool; W];

    #[inline(always)]
    unsafe fn assume() -> Self {
        Self(())
    }

    #[inline(always)]
    fn splat(self, x: f64) -> [f64; W] {
        [x; W]
    }

    #[inline(always)]
    unsafe fn loadu(self, p: *const f64) -> [f64; W] {
        // SAFETY: the caller grants the read of `W` doubles.
        unsafe { p.cast::<[f64; W]>().read_unaligned() }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64, v: [f64; W]) {
        // SAFETY: the caller grants the write of `W` doubles.
        unsafe { p.cast::<[f64; W]>().write_unaligned(v) }
    }

    #[inline(always)]
    unsafe fn stream(self, p: *mut f64, v: [f64; W]) {
        const { assert!(W.is_multiple_of(4)) };
        for j in (0..W).step_by(4) {
            // SAFETY: `self` proves AVX2+FMA; the caller grants the write of
            // `W` doubles and the `8·W`-byte alignment, so each 4-lane
            // chunk is 32-byte aligned.
            unsafe {
                _mm256_stream_pd(
                    p.add(j),
                    v.as_ptr().add(j).cast::<__m256d>().read_unaligned(),
                )
            }
        }
    }

    #[inline(always)]
    fn add(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j] + b[j])
    }

    #[inline(always)]
    fn sub(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j] - b[j])
    }

    #[inline(always)]
    fn mul(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j] * b[j])
    }

    #[inline(always)]
    fn div(self, a: [f64; W], b: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j] / b[j])
    }

    #[inline(always)]
    fn fmadd(self, a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j].mul_add(b[j], c[j]))
    }

    // Negating an operand is exact, so the other two forms round once too.
    #[inline(always)]
    fn fnmadd(self, a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| (-a[j]).mul_add(b[j], c[j]))
    }

    #[inline(always)]
    fn fmsub(self, a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| a[j].mul_add(b[j], -c[j]))
    }

    #[inline(always)]
    fn fluid(self, bits: u64) -> [bool; W] {
        std::array::from_fn(|j| bits >> j & 1 != 0)
    }

    #[inline(always)]
    fn select(self, m: [bool; W], solid: [f64; W], fluid: [f64; W]) -> [f64; W] {
        std::array::from_fn(|j| if m[j] { fluid[j] } else { solid[j] })
    }
}

/// The AVX-512F instance of [`Lane`]: 8 lanes, `__m512d`, one [`GROUP`]
/// per vector. Its token also proves AVX2+FMA, so the entry points that
/// run it enable `avx512f,avx2,fma`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx512(());

// SAFETY: `Avx512` is made only by `assume`, whose caller vouches for
// AVX-512F; every method below issues AVX-512F instructions only.
#[cfg(target_arch = "x86_64")]
unsafe impl Lane for Avx512 {
    const N: usize = 8;
    type V = __m512d;
    type Mask = __mmask8;

    #[inline(always)]
    unsafe fn assume() -> Self {
        Self(())
    }

    #[inline(always)]
    fn splat(self, x: f64) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_set1_pd(x) }
    }

    #[inline(always)]
    unsafe fn loadu(self, p: *const f64) -> __m512d {
        // SAFETY: `self` proves AVX-512F; the caller grants the read.
        unsafe { _mm512_loadu_pd(p) }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64, v: __m512d) {
        // SAFETY: `self` proves AVX-512F; the caller grants the write.
        unsafe { _mm512_storeu_pd(p, v) }
    }

    #[inline(always)]
    unsafe fn stream(self, p: *mut f64, v: __m512d) {
        // SAFETY: `self` proves AVX-512F; the caller grants the write and
        // the 64-byte alignment.
        unsafe { _mm512_stream_pd(p, v) }
    }

    #[inline(always)]
    fn add(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_add_pd(a, b) }
    }

    #[inline(always)]
    fn sub(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_sub_pd(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_mul_pd(a, b) }
    }

    #[inline(always)]
    fn div(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_div_pd(a, b) }
    }

    #[inline(always)]
    fn fmadd(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_fmadd_pd(a, b, c) }
    }

    #[inline(always)]
    fn fnmadd(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_fnmadd_pd(a, b, c) }
    }

    #[inline(always)]
    fn fmsub(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_fmsub_pd(a, b, c) }
    }

    #[inline(always)]
    fn fluid(self, bits: u64) -> __mmask8 {
        bits as __mmask8
    }

    #[inline(always)]
    fn select(self, m: __mmask8, solid: __m512d, fluid: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F (trait contract).
        unsafe { _mm512_mask_blend_pd(m, solid, fluid) }
    }
}

/// What every pair of one line shares: the velocity, `u·G` (zero unforced),
/// `ωρ`, and the ξ-free parts of the equilibrium's even and odd
/// polynomials, `e0 = 1 − u²/2c_s²` and `d0 = 1/c_s² − u²/2c_s⁴` (`1/c_s²`
/// at second order).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct GroupMoments<V: Lane> {
    ux: V::V,
    uy: V::V,
    uz: V::V,
    ug: V::V,
    orho: V::V,
    e0: V::V,
    d0: V::V,
}

/// Close one line's paired moment sums `ρ`, `m = Σ c f` into the shared
/// [`GroupMoments`] (one vector division, as in `simd`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn group_moments<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
    ctx: &KernelCtx,
    oc: &OpConsts,
    rho: V::V,
    mut m: [V::V; 3],
) -> GroupMoments<V> {
    let k = &ctx.consts;
    let inv = v.div(v.splat(1.0), rho);
    let mut ug = v.splat(0.0);
    for a in 0..3 {
        if O::FORCED {
            m[a] = v.add(m[a], v.splat(oc.half_g[a]));
        }
        m[a] = v.mul(m[a], inv);
        if O::FORCED {
            ug = v.fmadd(m[a], v.splat(oc.g[a]), ug);
        }
    }
    let [ux, uy, uz] = m;
    let u2 = v.fmadd(ux, ux, v.fmadd(uy, uy, v.mul(uz, uz)));
    let inv_cs2 = v.splat(k.inv_cs2);
    GroupMoments {
        ux,
        uy,
        uz,
        ug,
        orho: v.mul(v.splat(ctx.omega), rho),
        e0: v.fnmadd(u2, v.splat(k.inv_2cs2), v.splat(1.0)),
        d0: if THIRD {
            v.fnmadd(u2, v.splat(k.inv_2cs4), inv_cs2)
        } else {
            inv_cs2
        },
    }
}

/// The ±c pair expression on one line: from arrivals `(f_i, f_o)` of pair
/// `p` to post-collision `(t_i, t_o)`, equilibrium and Guo source
/// evaluated once. With `ξ = c_i·u`, the even polynomial
/// `E = e0 + ξ²/2c_s⁴` and the source part `sc ξ − sb (u·G)` keep their
/// sign across the pair while `D = ξ (d0 + ξ²/6c_s⁶)` and `sa` flip it, so
/// `t_{i,o} = (1 − ω) f_{i,o} + [w ωρ E + sc ξ − sb (u·G)] ± [w ωρ D + sa]`
/// — 16 vector operations for a forced third-order pair. Zero components
/// of `c` are multiplied, not tested.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn relax_pair<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
    ctx: &KernelCtx,
    p: &VelPair,
    m: &GroupMoments<V>,
    fi: V::V,
    fo: V::V,
) -> (V::V, V::V) {
    let k = &ctx.consts;
    let xi = v.fmadd(
        v.splat(p.c[2]),
        m.uz,
        v.fmadd(v.splat(p.c[1]), m.uy, v.mul(v.splat(p.c[0]), m.ux)),
    );
    let xi2 = v.mul(xi, xi);
    let e = v.fmadd(xi2, v.splat(k.inv_2cs4), m.e0);
    let d = v.mul(
        xi,
        if THIRD {
            v.fmadd(xi2, v.splat(k.inv_6cs6), m.d0)
        } else {
            m.d0
        },
    );
    let wr = v.mul(v.splat(p.w), m.orho);
    let (even, odd) = if O::FORCED {
        let src = v.fmsub(v.splat(p.sc), xi, v.mul(v.splat(p.sb), m.ug));
        (v.fmadd(wr, e, src), v.fmadd(wr, d, v.splat(p.sa)))
    } else {
        (v.mul(wr, e), v.mul(wr, d))
    };
    let omc = v.splat(1.0 - ctx.omega);
    (
        v.fmadd(omc, fi, v.add(even, odd)),
        v.fmadd(omc, fo, v.sub(even, odd)),
    )
}

/// The rest velocity's share of the pair body: `ξ = 0`, so `E = e0` and
/// every odd part vanishes, `t_0 = (1 − ω) f_0 + w ωρ e0 − sb (u·G)`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn relax_rest<V: Lane, O: CollideOp>(
    v: V,
    ctx: &KernelCtx,
    rest: &VelPair,
    m: &GroupMoments<V>,
    f0: V::V,
) -> V::V {
    let t0 = v.fmadd(
        v.mul(v.splat(rest.w), m.orho),
        m.e0,
        v.mul(v.splat(1.0 - ctx.omega), f0),
    );
    if O::FORCED {
        v.fnmadd(v.splat(rest.sb), m.ug, t0)
    } else {
        t0
    }
}

/// Cells of one iteration of [`tile_pairs`]: one whole 64-byte cache line
/// of each velocity row, one 8-lane line on either instance.
pub(crate) const GROUP: usize = 8;

/// How far ahead of the group being loaded, in doubles, the row-view
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

/// Where the velocity rows of a [`tile_pairs`] view live: velocity `i`
/// reads its arrivals at `src(i) + z` and stores its post-collision values
/// at `dst(i) + z`. `PREFETCH` says whether the body should touch each
/// source row [`AHEAD`] doubles ahead: worth it for rows streamed from
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
/// groups of [`GROUP`] cells from `z0` on, on the lane instance `V`, one
/// line of `V::N = GROUP` cells per group. Cell `z0 + j` is fluid iff bit
/// `j` of `fluid` is set, so one call covers at most 64 cells. Per line:
/// paired moment sums `ρ += f_i + f_o`, `ρu += c_i (f_i − f_o)`, then
/// [`group_moments`], [`relax_pair`] per pair and [`relax_rest`]. Solid
/// lanes take the bounce-back swap `(t_i, t_o) = (f_o, f_i)` by select, or
/// keep `(f_i, f_o)` where `R::BOUNCE` is false; all-solid lines only swap,
/// or are left alone, so solid cells are exact copies and fluid cells agree
/// with the per-cell scalar rule within re-rounding. Where `R::PREFETCH`,
/// the moment sums touch each velocity's source row [`AHEAD`] doubles past
/// the group. Every lane sees the same operations on either instance, so
/// [`Portable`] and [`Avx512`] write the same bits.
///
/// With `NT` the stores stream past the cache; each velocity's store of a
/// line fills its whole cache line. The sparse AA steps run the body on
/// their frames ([`frame_pairs`]), the sparse two-grid step from its
/// gathered frame straight into `dst` (`NT`, [`FrameRows`]), the dense
/// fused step on shifted source rows straight into `dst`, the AA sweep in
/// place (its `dst(i)` is `src(opp(i))`, so each solid lane's select stores
/// every value back into the slot it came from), and the split collide of
/// the `Simd` rung in place on slab rows, `dst(i) = src(i)`, keeping solid
/// lanes.
///
/// # Safety
/// For every velocity `i < q` and group, the 8 doubles at `rows.src(i) + z`
/// must be readable and those at `rows.dst(i) + z` writable (`wrapping_add`
/// is used, so a row start may lie outside its allocation as long as the
/// accessed doubles do not; the prefetched addresses need not be valid at
/// all); with `NT` every `rows.dst(i) + z` must have the lane's NT
/// alignment ([`Lane::stream`]).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_pairs<
    V: Lane,
    const THIRD: bool,
    const NT: bool,
    O: CollideOp,
    R: Rows,
>(
    v: V,
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    rows: R,
    z0: usize,
    groups: usize,
    fluid: u64,
) {
    const { assert!(V::N == GROUP) };
    debug_assert!(groups * GROUP <= u64::BITS as usize);
    let full = u64::MAX >> (u64::BITS as usize - V::N);
    for g in 0..groups {
        let (z, bits) = (z0 + g * GROUP, (fluid >> (g * GROUP)) & full);
        // SAFETY: the caller grants the accesses of every group g < groups.
        unsafe { pair_lines::<V, THIRD, NT, O, R>(v, ctx, oc, pc, rows, z, bits) }
    }
}

/// [`tile_pairs`] on one line: cells `[z, z + V::N)` of every row with
/// fluid bits `bits` (lane `j` is fluid iff bit `j` is set). Where
/// `R::PREFETCH`, the moment loop touches `rows.src(i) + z + AHEAD` for
/// every velocity right after loading it: one touch per stream per group.
///
/// # Safety
/// As for [`tile_pairs`], for the `V::N` doubles of the line.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pair_lines<V: Lane, const THIRD: bool, const NT: bool, O: CollideOp, R: Rows>(
    v: V,
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    rows: R,
    z: usize,
    bits: u64,
) {
    let rest = &pc.rest;
    let ahead = z + AHEAD;
    let full = u64::MAX >> (u64::BITS as usize - V::N);
    let touch = |i: usize| {
        if R::PREFETCH {
            prefetch(rows.src(i).wrapping_add(ahead));
        }
    };
    // SAFETY: the caller grants every access below (see # Safety).
    unsafe {
        macro_rules! ld {
            ($i:expr) => {
                v.loadu(rows.src($i).wrapping_add(z))
            };
        }
        macro_rules! st {
            ($i:expr, $x:expr) => {{
                let (p, x) = (rows.dst($i).wrapping_add(z), $x);
                if NT {
                    v.stream(p, x)
                } else {
                    v.storeu(p, x)
                }
            }};
        }
        if bits == 0 {
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
        let mut m = [v.splat(0.0); 3];
        for p in pc.pairs() {
            let (fi, fo) = (ld!(p.i), ld!(p.o));
            touch(p.i);
            touch(p.o);
            let d = v.sub(fi, fo);
            rho = v.add(rho, v.add(fi, fo));
            for a in 0..3 {
                m[a] = v.fmadd(d, v.splat(p.c[a]), m[a]);
            }
        }
        let gm = group_moments::<V, THIRD, O>(v, ctx, oc, rho, m);
        // Solid lanes keep the value `R::BOUNCE` names; a full line skips
        // the select.
        let fluid_lanes = v.fluid(bits);
        macro_rules! keep_solid {
            ($bounce:expr, $t:expr) => {{
                let (bounce, t) = ($bounce, $t);
                if bits != full {
                    v.select(fluid_lanes, bounce, t)
                } else {
                    t
                }
            }};
        }
        for p in pc.pairs() {
            let (fi, fo) = (ld!(p.i), ld!(p.o));
            let (ti, to) = relax_pair::<V, THIRD, O>(v, ctx, p, &gm, fi, fo);
            let (si, so) = if R::BOUNCE { (fo, fi) } else { (fi, fo) };
            st!(p.i, keep_solid!(si, ti));
            st!(p.o, keep_solid!(so, to));
        }
        let f0 = ld!(rest.i);
        let t0 = relax_rest::<V, O>(v, ctx, rest, &gm, f0);
        st!(rest.i, keep_solid!(f0, t0));
    }
}

/// The pair body on one gathered `q·64` frame, from `buf[i·64 + c]` to
/// `out[i·64 + c]` with plain stores ([`FrameRows`]), on the lane instance
/// `V`. Cell `c` is fluid iff bit `c` of `fluid` is set. The sparse AA
/// steps' body; the tests' oracle of every row view.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn frame_pairs<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
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
    // assert above keeps in bounds; plain stores need no alignment.
    unsafe {
        tile_pairs::<V, THIRD, false, O, _>(v, ctx, oc, pc, rows, 0, TILE_CELLS / GROUP, fluid)
    }
}

/// [`frame_pairs`] on [`Portable<8>`](Portable).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn frame_pairs_avx2<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    fluid: u64,
    buf: &[f64],
    out: &mut [f64],
) {
    // SAFETY: a safe `#[target_feature]` function runs only where its
    // features are present: AVX2+FMA.
    let v = unsafe { Portable::<GROUP>::assume() };
    frame_pairs::<_, THIRD, O>(v, ctx, oc, pc, fluid, buf, out)
}

/// [`frame_pairs`] on [`Avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) fn frame_pairs_avx512<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    fluid: u64,
    buf: &[f64],
    out: &mut [f64],
) {
    // SAFETY: a safe `#[target_feature]` function runs only where its
    // features are present: AVX-512F, AVX2 and FMA.
    let v = unsafe { Avx512::assume() };
    frame_pairs::<_, THIRD, O>(v, ctx, oc, pc, fluid, buf, out)
}

/// The vector instance of a kernel call that runs the pair body, with its
/// ±c pair table: `None` where `lanes` is [`Lanes::Scalar`] and the call
/// runs the scalar bodies.
pub(crate) fn pair_body(lanes: Lanes, oc: &OpConsts, q: usize) -> Option<(Lanes, PairConsts)> {
    (lanes != Lanes::Scalar).then(|| (lanes, PairConsts::new(oc, q)))
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
/// boundaries cannot drift between them; the vector bodies read the mask as
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

/// Test support: the pair body on each lane instance over any row view.
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) mod lane_tests {
    use super::*;
    use crate::kernels::simd::vector_lanes;

    /// Fluid words of one 64-cell call: all fluid, all solid, one solid lane
    /// in the low half of every group (lane 1), one in the high half (lane
    /// 6), and a random word.
    pub(crate) const FLUID_WORDS: [u64; 5] = [
        u64::MAX,
        0,
        !0x0202_0202_0202_0202,
        !0x4040_4040_4040_4040,
        0x5A3C_0FF0_F00F_C3A5,
    ];

    /// Who runs the body: an instance's `#[target_feature]` entry point, or
    /// [`Portable<8>`](Portable) built for the x86_64 baseline, with no
    /// target feature, so that `mul_add` is a libm `fma` call and the rest
    /// of the arithmetic SSE2.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Peer {
        Entry(Lanes),
        Baseline,
    }

    /// The peers this CPU runs: every vector instance, then the baseline
    /// build, whose token (for its `stream`) needs AVX2+FMA as well.
    pub(crate) fn peers() -> Vec<Peer> {
        let lanes = vector_lanes();
        let baseline = lanes.contains(&Lanes::Avx2).then_some(Peer::Baseline);
        lanes.into_iter().map(Peer::Entry).chain(baseline).collect()
    }

    /// [`tile_pairs`] on [`Portable<8>`](Portable) over 64 cells from
    /// `z = 0`.
    ///
    /// # Safety
    /// AVX2+FMA must be available, and `rows` must satisfy [`tile_pairs`]'
    /// contract for the 64 cells.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn body_avx2<const THIRD: bool, const NT: bool, O: CollideOp, R: Rows>(
        ctx: &KernelCtx,
        oc: &OpConsts,
        pc: &PairConsts,
        rows: R,
        fluid: u64,
    ) {
        // SAFETY: per this function's contract.
        unsafe {
            let v = Portable::<GROUP>::assume();
            tile_pairs::<_, THIRD, NT, O, R>(v, ctx, oc, pc, rows, 0, TILE_CELLS / GROUP, fluid)
        }
    }

    /// [`tile_pairs`] on [`Avx512`] over 64 cells from `z = 0`.
    ///
    /// # Safety
    /// AVX-512F, AVX2 and FMA must be available, and `rows` must satisfy [`tile_pairs`]'
    /// contract for the 64 cells.
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn body_avx512<const THIRD: bool, const NT: bool, O: CollideOp, R: Rows>(
        ctx: &KernelCtx,
        oc: &OpConsts,
        pc: &PairConsts,
        rows: R,
        fluid: u64,
    ) {
        // SAFETY: per this function's contract.
        unsafe {
            let v = Avx512::assume();
            tile_pairs::<_, THIRD, NT, O, R>(v, ctx, oc, pc, rows, 0, TILE_CELLS / GROUP, fluid)
        }
    }

    /// One body call by `peer`, with or without streaming stores. The
    /// baseline peer's body inlines here, into a function with no target
    /// feature.
    ///
    /// # Safety
    /// The CPU must run `peer` (it is one of [`peers`]); `rows` as for
    /// [`body_avx2`].
    unsafe fn call<const THIRD: bool, O: CollideOp, R: Rows>(
        peer: Peer,
        nt: bool,
        ctx: &KernelCtx,
        op: O,
        rows: R,
        fluid: u64,
    ) {
        let oc = OpConsts::new(ctx, &op);
        let pc = PairConsts::new(&oc, ctx.lat.q());
        let groups = TILE_CELLS / GROUP;
        // SAFETY: per this function's contract.
        unsafe {
            let portable = Portable::<GROUP>::assume();
            match (peer, nt) {
                (Peer::Entry(Lanes::Avx512), true) => {
                    body_avx512::<THIRD, true, O, R>(ctx, &oc, &pc, rows, fluid)
                }
                (Peer::Entry(Lanes::Avx512), false) => {
                    body_avx512::<THIRD, false, O, R>(ctx, &oc, &pc, rows, fluid)
                }
                (Peer::Entry(_), true) => {
                    body_avx2::<THIRD, true, O, R>(ctx, &oc, &pc, rows, fluid)
                }
                (Peer::Entry(_), false) => {
                    body_avx2::<THIRD, false, O, R>(ctx, &oc, &pc, rows, fluid)
                }
                (Peer::Baseline, true) => tile_pairs::<_, THIRD, true, O, R>(
                    portable, ctx, &oc, &pc, rows, 0, groups, fluid,
                ),
                (Peer::Baseline, false) => tile_pairs::<_, THIRD, false, O, R>(
                    portable, ctx, &oc, &pc, rows, 0, groups, fluid,
                ),
            }
        }
    }

    /// The pair body on every peer this CPU runs ([`peers`]), over the 64
    /// cells from `z = 0` of `rows`, a view into the `data.len()` doubles at
    /// `base`: for each of [`FLUID_WORDS`], plain and Guo, with plain and
    /// streaming stores, the doubles at `base` start as `data` and must end
    /// bitwise equal on every peer, and changed where a lane is fluid.
    ///
    /// # Safety
    /// `base` must address `data.len()` writable doubles that nothing else
    /// accesses meanwhile, and `rows` must lie inside them for the 64 cells
    /// with every destination row 64-byte aligned.
    pub(crate) unsafe fn assert_instances_agree<R: Rows>(
        ctx: &KernelCtx,
        base: *mut f64,
        data: &[f64],
        rows: R,
        case: &str,
    ) {
        let g = GuoForced {
            g: [3e-5, -2e-5, 1e-5],
        };
        for fluid in FLUID_WORDS {
            for (nt, forced) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut first: Option<(Peer, Vec<f64>)> = None;
                for peer in peers() {
                    // SAFETY: `base` holds `data.len()` doubles, `rows`
                    // lies inside them (this function's contract), and
                    // `peers` lists only peers the CPU runs.
                    let after = unsafe {
                        std::ptr::copy_nonoverlapping(data.as_ptr(), base, data.len());
                        match (ctx.third_order(), forced) {
                            (true, true) => call::<true, _, R>(peer, nt, ctx, g, rows, fluid),
                            (true, false) => {
                                call::<true, _, R>(peer, nt, ctx, PlainBgk, rows, fluid)
                            }
                            (false, true) => call::<false, _, R>(peer, nt, ctx, g, rows, fluid),
                            (false, false) => {
                                call::<false, _, R>(peer, nt, ctx, PlainBgk, rows, fluid)
                            }
                        }
                        std::slice::from_raw_parts(base, data.len()).to_vec()
                    };
                    let what = format!("{case} fluid {fluid:#x} nt {nt} forced {forced}");
                    assert!(fluid == 0 || after != data, "{what} {peer:?}: no change");
                    match &first {
                        None => first = Some((peer, after)),
                        Some((p0, want)) => {
                            for (k, (a, b)) in want.iter().zip(&after).enumerate() {
                                assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{what} offset {k}: {p0:?} {a} vs {peer:?} {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Distinct positive arrivals, so that every velocity's row is told
    /// apart and `ρ` stays away from zero.
    pub(crate) fn arrivals(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                0.02 + (s % 613) as f64 / 900.0
            })
            .collect()
    }

    /// Every lattice, at second and third order.
    pub(crate) fn contexts() -> Vec<KernelCtx> {
        use crate::collision::Bgk;
        use crate::equilibrium::EqOrder;
        use crate::lattice::LatticeKind;
        LatticeKind::ALL
            .into_iter()
            .flat_map(|kind| {
                [EqOrder::Second, EqOrder::Third]
                    .map(|order| KernelCtx::new(kind, order, Bgk::new(0.9).unwrap()))
            })
            .collect()
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_instances_agree_on_frame_rows() {
        // A gathered frame and a separate output frame, row i at i·64.
        use crate::align::AlignedBuf;
        for c in lane_tests::contexts() {
            let q = c.lat.q();
            let data = lane_tests::arrivals(2 * q * TILE_CELLS, 5);
            let mut buf = AlignedBuf::new(data.len());
            let base = buf.as_mut_ptr();
            let rows = FrameRows(base, base.wrapping_add(q * TILE_CELLS));
            let case = format!("{:?} third {} FrameRows", c.lat.kind(), c.third_order());
            // SAFETY: both frames lie in `buf`, 64-byte aligned rows.
            unsafe { lane_tests::assert_instances_agree(&c, base, &data, rows, &case) };
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_instances_agree_on_row_pointers() {
        // Source rows at odd offsets (unaligned loads) in reverse order,
        // destination rows on cache lines after them.
        use crate::align::AlignedBuf;
        const STRIDE: usize = 72;
        for c in lane_tests::contexts() {
            let q = c.lat.q();
            let data = lane_tests::arrivals(2 * q * STRIDE, 9);
            let mut buf = AlignedBuf::new(data.len());
            let base = buf.as_mut_ptr();
            let mut src = [base.cast_const(); MAX_Q];
            let mut dst = [base; MAX_Q];
            for i in 0..q {
                src[i] = base.wrapping_add((q - 1 - i) * STRIDE + 3);
                dst[i] = base.wrapping_add((q + i) * STRIDE);
            }
            let case = format!("{:?} third {} RowPtrs", c.lat.kind(), c.third_order());
            // SAFETY: every row's 64 cells lie in `buf`; destination rows
            // start at multiples of 72 doubles, on cache lines.
            unsafe {
                lane_tests::assert_instances_agree(&c, base, &data, RowPtrs(&src, &dst), &case)
            };
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
