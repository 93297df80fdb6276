//! AA-pattern in-place streaming — single-population storage
//! ([`crate::field::StorageMode::InPlaceAa`]).
//!
//! The two-grid ladder moves every population through a `distr`/`distr_adv`
//! double buffer; the AA pattern (Bailey et al.) keeps **one** resident
//! array `A` and alternates two access patterns, each of which touches, per
//! cell, a read set *equal to* its write set — which is what makes the
//! update safe in place and embarrassingly parallel at any granularity:
//!
//! * **even step** (first of each pair) — purely local: read the Q
//!   populations of cell `x` from their natural slots, apply the cell rule
//!   (collide, or the wall transform on solid rows), and write result `t_i`
//!   into the *opposite* slot `A[x][opp(i)]`. No neighbour access at all.
//! * **odd step** (second of the pair) — gather-swapped reads
//!   `a_i = A[x−c_i][opp(i)]`, apply the same cell rule, scatter-swapped
//!   writes `A[x+c_i][i] = t_i`. For each direction `i` the location read
//!   as `a_{opp(i)}` **is** the location written as `t_i` — so each cell
//!   touches exactly its own Q slots (`(x+c_j, j)` for all `j`, a bijection
//!   between cells and slots), reads them all before writing any, and no
//!   two cells ever share a slot. In-place, conflict-free, and bitwise
//!   deterministic under threading.
//!
//! Both parities therefore run **one sweep**: per `(x, y)` row it builds a
//! row view — `rows[i]`, the row holding `a_i`, and `zrot[i]`, its
//! z-rotation — and the row holding `a_i` is the row that receives
//! `t_opp(i)`. The even view is the natural rows with zero rotation, the
//! odd view the double-shifted gather rows; everything after the view
//! (fluid rows, wall rows, prefetch) is shared.
//!
//! ## Representation and two-grid correspondence
//!
//! At even time steps `A[x][i]` holds the *pre-collision arrivals*
//! `f_i(t, x)` — the pull-stream of the two-grid state: `A = S(F)` with
//! `F` the two-grid (post-collision) field and `S` the pull-stream
//! permutation. One even step later the state is the two-grid field with
//! slots reversed (`A[x][j] = F[x][opp(j)]`, no spatial shift). Because the
//! per-cell arithmetic below is shared with the two-grid kernels
//! ([`crate::kernels::op`]'s rules and constants), the scalar AA trajectory
//! is the *bitwise* streamed image of the scalar two-grid trajectory. The
//! vector rows run the lane-generic ±c pair body the fused and sparse steps
//! share ([`op`]'s `tile_pairs`) over the row view: `src(i)` is the row
//! holding `a_i`, `dst(i) = src(opp(i))`, on the widest lane instance the
//! CPU runs (AVX-512 or AVX2, bitwise equal). It sums moments and evaluates
//! equilibrium and Guo source once per ±c velocity pair. That reassociates
//! the arithmetic, so vector rows agree with the scalar drivers within
//! re-rounding, like the `Simd`/`Fused` rungs — and bitwise with each other
//! (serial, rayon, ranks, margin/wrap, either instance), since all of them
//! run that one body.
//!
//! ## Boundaries come for free
//!
//! Full-way bounce-back writes `t_i = a_{opp(i)}` — in both AA phases that
//! is a **no-op** (the value is already in the slot about to be written),
//! so bounce-back wall rows are simply *skipped*, and so are masked solid
//! cells in the scalar body; the vector body's bounce select stores each of
//! their values back into its own slot.
//! Moving and diffuse wall rows run on the same row view as fluid rows,
//! with a wall rule per line instead of the pair body: a moving wall adds
//! the per-velocity momentum correction to each slot in place; a diffuse
//! wall sums the arriving mass in velocity-index order and re-emits it as
//! wall equilibrium. Both rules evaluate, lane by lane, the expressions of
//! [`crate::boundary::BoundarySpec::apply`] with the per-velocity constants
//! hoisted once per sweep ([`WallLine`]), so every wall row is bitwise the
//! two-grid transform on either lane instance and on [`Lanes::Scalar`]
//! alike.
//!
//! ## Traffic
//!
//! Each step reads Q and writes Q doubles per cell in one array: `2·Q·8`
//! bytes/cell of model traffic (vs the paper's two-grid `3·Q·8`), and half
//! the resident population memory — see
//! [`crate::perf::model_bytes_per_cell`].

use crate::boundary::{BoundarySpec, SectionMask, WallKind};
use crate::equilibrium::{feq_poly_i, EqOrder};
use crate::field::DistField;
use crate::index::Dim3;
use crate::kernels::op::{self, CollideOp, OpConsts};
#[cfg(target_arch = "x86_64")]
use crate::kernels::op::{
    tile_pairs, Avx512, Lane, PairConsts, Portable, RowPtrs, Rows, AHEAD, GROUP,
};
use crate::kernels::par::{x_chunks, SendPtr};
use crate::kernels::simd::{self, Lanes};
use crate::kernels::{KernelCtx, StreamTables, MAX_Q};

/// z-block of the scalar body (its per-cell moment and wall-mass lines on
/// the stack). Vector rows run 64-cell chunks instead.
pub(crate) const ZBA: usize = 64;

/// How the odd sweep maps a writer plane `x` to its `±c_x`-shifted
/// gather/scatter planes.
///
/// Decomposed ranks shift straight into the halo margin and communicate;
/// a single rank owns the whole periodic x-axis, so it can wrap the shift
/// instead — no ghost planes read or written, no halo exchange, and no
/// duplicated writer planes. Both modes produce bitwise-identical owned
/// state: the margin path gathers from ghost *copies* of exactly the planes
/// the wrap path reads directly, and the writer↦slot bijection holds on the
/// torus just as it does on the open interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XShift {
    /// Shift into the halo margin (requires `k` planes on each side).
    Margin,
    /// Periodic wrap inside `[lo, hi)` — the single-rank torus.
    Wrap {
        /// First plane of the periodic x-domain.
        lo: usize,
        /// One past the last plane of the periodic x-domain.
        hi: usize,
    },
}

impl XShift {
    /// The gather plane of velocity component `cx` for writer plane `x`.
    #[inline]
    fn src(self, x: usize, cx: i32) -> usize {
        match self {
            XShift::Margin => (x as isize - cx as isize) as usize,
            XShift::Wrap { lo, hi } => {
                let n = (hi - lo) as isize;
                (lo as isize + (x as isize - lo as isize - cx as isize).rem_euclid(n)) as usize
            }
        }
    }
}

/// Which access pattern a sweep runs — it decides only the row view.
#[derive(Clone, Copy)]
enum Parity<'a> {
    /// Natural rows, zero rotation: each cell reads and writes its own slots.
    Even,
    /// Double-shifted gather rows: velocity `i` reads slab `opp(i)` at plane
    /// `xw.src(x, cx_i)`, row `wrap(y − cy_i)`, z rotated by `−cz_i`.
    Odd {
        tables: &'a StreamTables,
        xw: XShift,
    },
}

/// What the rows of one moving or diffuse wall store, as per-velocity
/// constants hoisted once per sweep. The vector lines ([`wall_lines`]) and
/// the scalar blocks ([`store_wall`]) evaluate the same expressions from
/// them, which are [`BoundarySpec::apply`]'s, so both are bitwise the
/// two-grid transform.
enum WallLine {
    /// `t_i = a_opp(i) + corr_i`, `corr_i = 2 w_i ρ_w (c_i·u_w)/c_s²`.
    Moving { corr: [f64; MAX_Q] },
    /// `t_i = (w_i · m) · poly_i`: `m` the arriving mass, summed in
    /// velocity-index order from zero, and `poly_i` the second-order
    /// Hermite polynomial at the wall velocity ([`feq_poly_i`]), so `t_i` is
    /// `feq_i(Second, m, u_w)`. The weights `w_i` are the sweep's
    /// [`OpConsts::cw`].
    Diffuse { poly: [f64; MAX_Q] },
}

impl WallLine {
    /// The constants of `kind`, or `None` for bounce-back (its rows are
    /// skipped).
    fn new(ctx: &KernelCtx, kind: WallKind) -> Option<Self> {
        fn per_velocity(q: usize, f: impl Fn(usize) -> f64) -> [f64; MAX_Q] {
            std::array::from_fn(|i| if i < q { f(i) } else { 0.0 })
        }
        let lat = &ctx.lat;
        let q = lat.q();
        match kind {
            WallKind::BounceBack => None,
            WallKind::Moving { u, rho } => {
                let cs2 = lat.cs2();
                let corr = per_velocity(q, |i| {
                    let c = lat.velocities()[i];
                    let cu = c[0] as f64 * u[0] + c[1] as f64 * u[1] + c[2] as f64 * u[2];
                    // BoundarySpec::apply's per-cell expression; constant per
                    // velocity, so hoisting it keeps every bit.
                    2.0 * lat.weights()[i] * rho * cu / cs2
                });
                Some(Self::Moving { corr })
            }
            WallKind::Diffuse { u } => Some(Self::Diffuse {
                poly: per_velocity(q, |i| feq_poly_i(lat, EqOrder::Second, i, u)),
            }),
        }
    }
}

/// A sweep's wall rows: `layers` rows at each y end, and the line of the
/// low and of the high wall (`None` for bounce-back).
struct WallLines {
    layers: usize,
    low: Option<WallLine>,
    high: Option<WallLine>,
}

/// What a sweep does with one `(x, y)` row.
#[derive(Clone, Copy)]
enum RowRule<'a> {
    /// Collide its fluid cells (masked cells are AA no-ops).
    Fluid,
    /// Nothing: a bounce-back row is the identity in both parities.
    Skip,
    /// The wall transform.
    Wall(&'a WallLine),
}

impl WallLines {
    /// The wall constants of `bounds`, built once per sweep.
    fn new(ctx: &KernelCtx, bounds: &BoundarySpec) -> Self {
        let walls = bounds.walls();
        Self {
            layers: walls.map_or(0, |w| w.layers),
            low: walls.and_then(|w| WallLine::new(ctx, w.low)),
            high: walls.and_then(|w| WallLine::new(ctx, w.high)),
        }
    }

    /// The rule of allocated row `y` of `ny`.
    fn rule(&self, ny: usize, y: usize) -> RowRule<'_> {
        let side = if y < self.layers {
            &self.low
        } else if y >= ny - self.layers {
            &self.high
        } else {
            return RowRule::Fluid;
        };
        side.as_ref().map_or(RowRule::Skip, RowRule::Wall)
    }
}

/// Prefetch the next y-row (`row + nz`) of every row of the view. The even
/// step's 2Q unit-stride streams and the odd step's double-shifted rows
/// both exceed the hardware stride prefetcher's capacity; one software
/// touch per row keeps them flowing. No separate destination prefetch is
/// needed: the row receiving `t_opp(i)` *is* the row holding `a_i`.
#[inline]
fn prefetch_rows_ahead(base_ptr: *const f64, total: usize, rows: &[usize], nz: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally a hint and cannot fault; all
    // offsets are clamped to `total`.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        for &row in rows {
            let mut p = row + nz;
            let end = (row + 2 * nz).min(total);
            while p < end {
                _mm_prefetch::<_MM_HINT_T0>(base_ptr.add(p) as *const i8);
                p += 8;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (base_ptr, total, rows, nz);
    }
}

/// One AA **even** step over planes `x ∈ [x_lo, x_hi)`: in place, per cell,
/// read-local/write-local (see module docs). The rule `op` is applied to
/// fluid cells of `bounds`; bounce-back wall rows and masked cells are
/// exact no-ops; moving/diffuse walls transform in place.
///
/// This is the odd step's sweep on the natural rows with zero shift: one
/// moment pass reading every slab row in place, then one relax pass over
/// velocity pairs `(i, opp(i))` that stores each post-collision line into
/// the other's slot — no gather-tile round trip. `simd` selects the
/// vector pair body (the widest instance the CPU runs, scalar fallback).
pub fn even_cells<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    if x_lo >= x_hi {
        return;
    }
    let nx = f.alloc_dims().nx;
    assert!(x_hi <= nx, "even x-range [{x_lo}, {x_hi}) exceeds nx {nx}");
    sweep(
        ctx,
        f,
        x_lo,
        x_hi,
        Parity::Even,
        op,
        bounds,
        simd::lanes_for(simd),
    );
}

/// One AA **odd** step over *writer* planes `x ∈ [x_lo, x_hi)`:
/// gather-swapped reads, collide/transform, scatter-swapped writes (see
/// module docs). Requires `x_lo ≥ k` and `x_hi + k ≤ nx` (the sweep reads
/// and writes up to `k` planes outside the writer range).
///
/// The double-shifted gather rows are software-prefetched (the scatter rows
/// *are* the gather rows of the opposite velocities, so that covers the
/// destinations too): the scalar blocks one y-row ahead, the vector rows
/// from their load loops (the shared pair body's moment loop, the wall
/// lines' loads), each row `op::AHEAD` doubles ahead once per 8 cells.
pub fn odd_cells<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    if x_lo >= x_hi {
        return;
    }
    check_odd_bounds(ctx, f, x_lo, x_hi);
    let xw = XShift::Margin;
    let odd = Parity::Odd { tables, xw };
    sweep(ctx, f, x_lo, x_hi, odd, op, bounds, simd::lanes_for(simd));
}

/// One AA **odd** step over writer planes `x ∈ [x_lo, x_hi)` with the
/// x-shift wrapped *inside that range* — the single-rank periodic sweep.
///
/// Equivalent to filling `k` ghost planes per side from the periodic images
/// and running [`odd_cells`] over `[x_lo − k, x_hi + k)`, but with no halo
/// copies and no duplicated writer planes: the owned result is bitwise
/// identical (the margin path reads ghost *copies* of exactly the planes
/// this sweep reads in place — see [`XShift`]) while ghost slots are simply
/// never touched.
pub fn odd_cells_periodic<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    if x_lo >= x_hi {
        return;
    }
    let nx = f.alloc_dims().nx;
    assert!(
        x_hi <= nx,
        "odd writer range [{x_lo}, {x_hi}) exceeds nx {nx}"
    );
    let xw = XShift::Wrap { lo: x_lo, hi: x_hi };
    let odd = Parity::Odd { tables, xw };
    sweep(ctx, f, x_lo, x_hi, odd, op, bounds, simd::lanes_for(simd));
}

/// The sweep behind every entry point, chunked by writer plane across the
/// installed pool. Writer ranges partition `[x_lo, x_hi)`; each writer owns
/// its own slots on the even step and, by the writer↦slot bijection (which
/// holds on the torus exactly as on the open interval), the slots
/// `(x + c_j, j)` on the odd step — so the slots of different chunks are
/// disjoint even though the odd step's written *planes* overlap. Fluid and
/// wall rows run the vector lines on `lanes` (checked to run on this CPU),
/// or the scalar blocks on [`Lanes::Scalar`]; the wall constants are built
/// here, once per sweep.
#[allow(clippy::too_many_arguments)]
fn sweep<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    parity: Parity,
    op: O,
    bounds: &BoundarySpec,
    lanes: Lanes,
) {
    let lanes = simd::supported(lanes);
    let d = f.alloc_dims();
    let total = f.as_slice().len();
    let slab_len = f.slab_stride();
    let base = SendPtr(f.as_mut_ptr());
    let oc = OpConsts::new(ctx, &op);
    let walls = WallLines::new(ctx, bounds);
    x_chunks(x_lo, x_hi, |lo, hi| {
        // SAFETY: `&mut f` is held for the whole sweep; the entry point's
        // bounds check (even range, odd margin or wrap range) keeps every
        // row of the view inside the allocation, and distinct chunks touch
        // distinct slots.
        unsafe {
            sweep_raw::<O>(
                base.get(),
                total,
                slab_len,
                ctx,
                &oc,
                bounds.mask(),
                &walls,
                d,
                lo,
                hi,
                parity,
                lanes,
            )
        }
    });
}

/// Hard bounds check of the margin odd step: the raw sweep writes through
/// pointers up to `k` planes outside the writer range, so an out-of-range
/// sweep must fail loudly in release builds too.
fn check_odd_bounds(ctx: &KernelCtx, f: &DistField, x_lo: usize, x_hi: usize) {
    let k = ctx.lat.reach();
    let nx = f.alloc_dims().nx;
    assert!(
        x_lo >= k && x_hi + k <= nx,
        "odd writer range [{x_lo}, {x_hi}) needs k = {k} planes of margin inside nx = {nx}"
    );
}

/// Raw-pointer sweep of either parity: the body one chunk of [`sweep`]
/// runs. Per `(x, y)` row it builds the row view (see [`Parity`]); then
/// bounce-back rows are skipped (the identity in both parities). On a
/// vector instance every other row runs [`vector_row`]: fluid rows the pair
/// body per line ([`fluid_row`]), moving and diffuse wall rows their wall
/// rule ([`wall_row`]). On [`Lanes::Scalar`] wall rows run in z-blocks
/// through [`store_wall`], fluid rows their fluid z-runs through
/// [`odd_block_scalar`].
///
/// # Safety
/// `base_ptr` must point to `total = q·slab_len` initialised doubles laid
/// out as consecutive velocity slabs of a field with allocated dims `d`.
/// Every row of the view must lie inside the allocation: `x_hi ≤ d.nx` on
/// the even step; on the odd step every shifted plane `xw.src(x, ±c_x)`
/// (with [`XShift::Margin`] that means `x_lo ≥ k` and `x_hi + k ≤ d.nx`; a
/// wrap range inside the allocation satisfies it by construction). The
/// caller must guarantee that no other thread concurrently touches a slot
/// owned by a writer cell `x ∈ [x_lo, x_hi)`: its own slots on the even
/// step, the slots `(x + c_j, j)` on the odd step (on the torus under
/// `Wrap`). Both maps are bijections, so partitioning writers into
/// disjoint x-ranges satisfies this. The CPU must run `lanes`.
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_raw<O: CollideOp>(
    base_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    ctx: &KernelCtx,
    oc: &OpConsts,
    mask: Option<&SectionMask>,
    walls: &WallLines,
    d: Dim3,
    x_lo: usize,
    x_hi: usize,
    parity: Parity,
    lanes: Lanes,
) {
    let q = ctx.lat.q();
    let nz = d.nz;
    let pc = op::pair_body(lanes, oc, q);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = &pc;
    let vel = ctx.lat.velocities();
    // Each row's z-rotation at `z0 = 0` (zero on the even view); a block at
    // `z0` adds `z0` and wraps at most once.
    let mut zrot = [0usize; MAX_Q];
    if let Parity::Odd { .. } = parity {
        for (r, c) in zrot.iter_mut().zip(vel) {
            *r = (-c[2] as isize).rem_euclid(nz as isize) as usize;
        }
    }
    let mut rows = [0usize; MAX_Q];
    #[cfg(target_arch = "x86_64")]
    let mut seam = [[0.0f64; 2 * GROUP]; MAX_Q]; // vector seam groups only

    for x in x_lo..x_hi {
        for y in 0..d.ny {
            let rule = walls.rule(d.ny, y);
            if let RowRule::Skip = rule {
                continue; // AA bounce-back is the identity
            }
            // The row holding `a_i` also receives `t_opp(i)`. On the odd
            // step the scatter row of `o = opp(i)` is slab `o`, plane
            // `x+cx_o = x−cx_i`, row `wrap(y+cy_o) = wrap(y−cy_i)`, start
            // `wrap(z0+cz_o) = wrap(z0−cz_i)` — the gather row of `i`. So
            // both parities are one velocity-pair in-place swap over the
            // view, and need no gather-tile round trip.
            for (i, row) in rows.iter_mut().enumerate().take(q) {
                *row = match parity {
                    Parity::Even => i * slab_len + d.idx(x, y, 0),
                    Parity::Odd { tables, xw } => {
                        let c = vel[i];
                        let (xs, ys) = (xw.src(x, c[0]), tables.y_for(c[1]).src(y));
                        oc.opp[i] * slab_len + d.idx(xs, ys, 0)
                    }
                };
                debug_assert!(*row + nz <= total);
            }
            // Vector rows: the pair body and the wall lines prefetch from
            // their own load loops, and the pair body selects masked cells
            // into exact AA no-ops.
            #[cfg(target_arch = "x86_64")]
            if let Some((lanes, pc)) = &pc {
                // SAFETY: every row of the view is inside the allocation per
                // this function's contract, the CPU runs `lanes` (the pair
                // table's instance), and the row touches exactly the slots
                // its writer cells own.
                unsafe {
                    match (rule, lanes, ctx.third_order()) {
                        (RowRule::Wall(line), Lanes::Avx512, _) => {
                            wall_row_avx512(q, oc, line, base_ptr, &rows, &zrot, nz, &mut seam)
                        }
                        (RowRule::Wall(line), _, _) => {
                            wall_row_avx2(q, oc, line, base_ptr, &rows, &zrot, nz, &mut seam)
                        }
                        (_, Lanes::Avx512, true) => fluid_row_avx512::<true, O>(
                            ctx, oc, pc, base_ptr, &rows, &zrot, nz, mask, y, &mut seam,
                        ),
                        (_, Lanes::Avx512, false) => fluid_row_avx512::<false, O>(
                            ctx, oc, pc, base_ptr, &rows, &zrot, nz, mask, y, &mut seam,
                        ),
                        (_, _, true) => fluid_row_avx2::<true, O>(
                            ctx, oc, pc, base_ptr, &rows, &zrot, nz, mask, y, &mut seam,
                        ),
                        (_, _, false) => fluid_row_avx2::<false, O>(
                            ctx, oc, pc, base_ptr, &rows, &zrot, nz, mask, y, &mut seam,
                        ),
                    }
                }
                continue;
            }
            prefetch_rows_ahead(base_ptr, total, &rows[..q], nz);
            // Wall rows transform every cell; fluid rows visit the fluid
            // z-runs (masked solid cells are exact AA no-ops).
            let runs = if matches!(rule, RowRule::Fluid) {
                mask
            } else {
                None
            };
            let mut zs = 0usize;
            while let Some((run_lo, run_hi)) = op::next_fluid_run(runs, y, nz, &mut zs) {
                let mut z0 = run_lo;
                while z0 < run_hi {
                    let blk = (run_hi - z0).min(ZBA);
                    let starts: [usize; MAX_Q] = std::array::from_fn(|i| {
                        let s = z0 + zrot[i];
                        if s >= nz {
                            s - nz
                        } else {
                            s
                        }
                    });
                    // SAFETY: every row of the view is inside the
                    // allocation per this function's contract, the run
                    // `[z0, z0 + blk)` does not wrap in z, and the pair
                    // swap touches exactly the slots this writer owns.
                    unsafe {
                        match rule {
                            RowRule::Wall(line) => {
                                store_wall(q, oc, line, base_ptr, &rows, &starts, nz, blk)
                            }
                            _ if ctx.third_order() => odd_block_scalar::<true, O>(
                                ctx, oc, base_ptr, &rows, &starts, nz, blk,
                            ),
                            _ => odd_block_scalar::<false, O>(
                                ctx, oc, base_ptr, &rows, &starts, nz, blk,
                            ),
                        }
                    }
                    z0 += blk;
                }
            }
        }
    }
}

/// The per-(cell, velocity) relax expression — identical accumulation
/// order and operations to the shared two-grid scalar body
/// ([`op::collide_cells`]), so every driver built on it stays bitwise the
/// streamed image of the two-grid trajectory.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn relax_one<const THIRD: bool, O: CollideOp>(
    k: &crate::equilibrium::EqConsts,
    oc: &OpConsts,
    i: usize,
    omega: f64,
    rho: f64,
    ux: f64,
    uy: f64,
    uz: f64,
    u2: f64,
    ug: f64,
    fv: f64,
) -> f64 {
    let c = oc.cw[i];
    let xi = c[0] * ux + c[1] * uy + c[2] * uz;
    let mut poly = 1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
    if THIRD {
        poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
    }
    let feq = c[3] * rho * poly;
    let mut next = fv + omega * (feq - fv);
    if O::FORCED {
        next += oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
    }
    next
}

/// The two contiguous pieces `(row offset, line offset, len)` of the
/// `blk`-long window of a field row of `nz` doubles that starts at rotation
/// `start < nz` and wraps at the row's end (the second piece may be empty).
fn rotated_pieces(start: usize, blk: usize, nz: usize) -> [(usize, usize, usize); 2] {
    let first = blk.min(nz - start);
    [(start, 0, first), (0, first, blk - first)]
}

/// AA wall transform for one z-block of a moving or diffuse wall row, over
/// the row view of either parity, in place (bounce-back rows never reach
/// here — they are exact no-ops): the [`Lanes::Scalar`] form of
/// [`wall_lines`], with the same expressions. Velocity `i`'s arrivals
/// `a_i` are the `blk` slots of row `rows[i]` from rotation `starts[i]`,
/// and `t_i` goes to the slots that held `a_opp(i)` — the swapped local slot
/// on the even view, `A[x+c_i][i]` on the odd view. A moving wall adds
/// `corr_i` to each slot of row `opp(i)`; a diffuse wall sums the arrivals
/// of every row per cell in one pass, then stores `(w_i · m) · poly_i`.
/// Bitwise [`crate::boundary::BoundarySpec::apply`].
///
/// # Safety
/// As for [`odd_block_scalar`].
#[allow(clippy::too_many_arguments)]
unsafe fn store_wall(
    q: usize,
    oc: &OpConsts,
    line: &WallLine,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    starts: &[usize; MAX_Q],
    nz: usize,
    blk: usize,
) {
    // The slots of velocity `i`'s arrivals, as the one or two pieces of row
    // `rows[i]` they span, each with the block cell `l` its first slot holds.
    let pieces = |i: usize| {
        rotated_pieces(starts[i], blk, nz).map(|(r, l, n)| {
            // SAFETY: `rows[i] + nz` is inside the allocation per the
            // contract, so the piece `[r, r + n)` lies inside row `i`. The
            // two pieces of a row are disjoint (`blk ≤ nz`), and each loop
            // below holds the pieces of one row at a time.
            (
                unsafe { std::slice::from_raw_parts_mut(base_ptr.add(rows[i] + r), n) },
                l,
            )
        })
    };
    match line {
        WallLine::Moving { corr } => {
            for i in 0..q {
                for (slots, _) in pieces(oc.opp[i]) {
                    slots.iter_mut().for_each(|a| *a += corr[i]);
                }
            }
        }
        WallLine::Diffuse { poly } => {
            // Arriving mass in velocity-index order (matches the two-grid
            // boundary apply), re-emitted as wall equilibrium once every
            // arrival of the block has been read.
            let mut mass = [0.0f64; ZBA];
            for i in 0..q {
                for (slots, l) in pieces(i) {
                    for (m, a) in mass[l..].iter_mut().zip(slots) {
                        *m += *a;
                    }
                }
            }
            for i in 0..q {
                for (slots, l) in pieces(oc.opp[i]) {
                    for (t, m) in slots.iter_mut().zip(&mass[l..]) {
                        *t = oc.cw[i][3] * m * poly[i];
                    }
                }
            }
        }
    }
}

/// The scalar z-block over a row view, for either parity: the
/// velocity-pair in-place swap. `rows[i]` is the row holding the arrivals
/// of velocity `i` and `starts[i]` its z-rotation; the same (row, rotation)
/// receives `t_opp(i)`, so the moment pass reads every row in place and the
/// relax pass cross-stores each pair — no gather/scatter tile. Identical
/// accumulation order and expressions as the shared two-grid scalar body
/// ([`op::collide_cells`]), so scalar AA runs stay bitwise the streamed
/// image of scalar two-grid runs.
///
/// # Safety
/// Every `rows[i] + nz` must be ≤ the allocation length; `starts[i] < nz`,
/// `blk ≤ nz` and the writer run does not wrap in z; the caller owns all
/// slots of this writer row exclusively.
#[allow(clippy::too_many_arguments)]
unsafe fn odd_block_scalar<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    starts: &[usize; MAX_Q],
    nz: usize,
    blk: usize,
) {
    let q = ctx.lat.q();
    let k = &ctx.consts;
    let omega = ctx.omega;
    let hg = oc.half_g;
    let g = oc.g;

    let mut rho = [0.0f64; ZBA];
    let mut mx = [0.0f64; ZBA];
    let mut my = [0.0f64; ZBA];
    let mut mz = [0.0f64; ZBA];
    let mut ux = [0.0f64; ZBA];
    let mut uy = [0.0f64; ZBA];
    let mut uz = [0.0f64; ZBA];
    let mut u2 = [0.0f64; ZBA];
    let mut ug = [0.0f64; ZBA];

    for i in 0..q {
        let c = oc.cw[i];
        let s = starts[i];
        // SAFETY: `rows[i] + nz` is inside the allocation per the contract.
        let p = unsafe { base_ptr.add(rows[i]) as *const f64 };
        let l1 = blk.min(nz - s);
        for j in 0..l1 {
            // SAFETY: `s + j < s + l1 ≤ nz`.
            let fv = unsafe { *p.add(s + j) };
            rho[j] += fv;
            mx[j] += fv * c[0];
            my[j] += fv * c[1];
            mz[j] += fv * c[2];
        }
        for j in l1..blk {
            // SAFETY: `j − l1 < blk − l1 ≤ s < nz` (the wrapped segment).
            let fv = unsafe { *p.add(j - l1) };
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
    // Relax in velocity pairs: the row holding a_i receives t_opp(i), so
    // each pair is loaded, collided, and cross-stored in one rotation-aware
    // loop — both loads precede both stores at every lane.
    for i in 0..q {
        let o = oc.opp[i];
        if o < i {
            continue; // pair already done
        }
        // SAFETY: `rows[i] + nz` is inside the allocation per the contract.
        let pi = unsafe { base_ptr.add(rows[i]) };
        let mut zi = starts[i];
        if o == i {
            // Self-opposite (rest velocity): unshifted, in place.
            for j in 0..blk {
                // SAFETY: the running rotation index `zi` stays < nz.
                unsafe {
                    let fv = *pi.add(zi);
                    *pi.add(zi) = relax_one::<THIRD, O>(
                        k, oc, i, omega, rho[j], ux[j], uy[j], uz[j], u2[j], ug[j], fv,
                    );
                }
                zi += 1;
                if zi == nz {
                    zi = 0;
                }
            }
        } else {
            // SAFETY: `rows[o] + nz` is inside the allocation per the
            // contract.
            let po = unsafe { base_ptr.add(rows[o]) };
            let mut zo = starts[o];
            for j in 0..blk {
                // SAFETY: zi, zo < nz; both loads precede both stores, and
                // the two slots belong to this pair alone.
                unsafe {
                    let fi = *pi.add(zi);
                    let fo = *po.add(zo);
                    let ti = relax_one::<THIRD, O>(
                        k, oc, i, omega, rho[j], ux[j], uy[j], uz[j], u2[j], ug[j], fi,
                    );
                    let to = relax_one::<THIRD, O>(
                        k, oc, o, omega, rho[j], ux[j], uy[j], uz[j], u2[j], ug[j], fo,
                    );
                    *po.add(zo) = ti;
                    *pi.add(zi) = to;
                }
                zi += 1;
                if zi == nz {
                    zi = 0;
                }
                zo += 1;
                if zo == nz {
                    zo = 0;
                }
            }
        }
    }
}

/// The vector row of either parity: the row view as [`RowPtrs`] whose
/// `dst(i)` is `src(opp(i))`, the slot that held `a_opp(i)`, handed to the
/// per-line rule `lines(view, z, groups, fluid)` — the ±c pair body the
/// fused and sparse steps share on fluid rows ([`fluid_row`]), the wall
/// rule on wall rows ([`wall_row`]) — one 64-cell chunk and one fluid word
/// (all ones without `mask`) per call at most. Velocity `i` reads cell
/// `z`'s arrival at `(z + zrot[i]) mod nz` of row `rows[i]`; each `t_i` goes
/// to the slot that held `a_opp(i)`. A masked cell clears its fluid bit and
/// takes the pair body's bounce select `(t_i, t_o) = (f_o, f_i)`, which
/// stores every value back into the slot it came from: the AA no-op.
///
/// Velocity `i` of the group at `z` loads in place when its window
/// `t + [0, 8)`, `t = (z + zrot[i]) mod nz`, lies inside the row, as every
/// full group does on the even view; runs of groups where that holds for
/// every velocity go to the rule in one call. Otherwise (a seam group, or
/// any velocity of a short last group) the window goes through a stack row
/// of `seam`, which is both `src(i)` and `dst(opp(i))` for the group:
/// * in a full group of a row of at least 16 cells, the ring of the row's
///   last and first 8 cells, which holds the wrapped window contiguously.
///   Both halves are fixed-size copies in and out; the lanes outside the
///   window go back with the values they were read with.
/// * otherwise the window's valid lanes, gathered through the wrap, with
///   pad lanes 1.0 (a harmless density, never stored); only the valid lanes
///   go back.
///
/// # Safety
/// Every `rows[i] + nz` must be ≤ the allocation length and every
/// `zrot[i] < nz`; the caller owns the slots of the row's writer cells
/// exclusively. `lines` must read and write, per call, at most the 8
/// doubles at `src(i) + z'` and `dst(i) + z'` of each velocity `i < q` and
/// each group `z'` it is given (the accesses [`tile_pairs`] makes).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn vector_row(
    q: usize,
    oc: &OpConsts,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    mask: Option<&SectionMask>,
    y: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
    mut lines: impl FnMut(RowPtrs<'_>, usize, usize, u64),
) {
    /// Cells per call of the line rule: one `u64` fluid word.
    const CHUNK: usize = u64::BITS as usize;
    // Each rotation's representative in (−nz/2, nz/2], the in-place offset
    // of velocity i's window (`−cz_i` on the odd view of a row longer than
    // 6 cells); any representative reads the same slots while in the row.
    let shift: [isize; MAX_Q] =
        std::array::from_fn(|i| zrot[i] as isize - if 2 * zrot[i] > nz { nz as isize } else { 0 });
    // The group at z is in place for every velocity iff the largest shift
    // keeps its window inside the row.
    let reach = shift[..q]
        .iter()
        .map(|s| s.unsigned_abs())
        .max()
        .unwrap_or(0);
    let interior = |z: usize| z >= reach && z + GROUP + reach <= nz;
    // A negative shift on the allocation's first row points before it,
    // which `add`/`offset` forbid even unused: wrap instead.
    let mut src = [base_ptr.cast_const(); MAX_Q];
    let mut dst = [base_ptr; MAX_Q];
    for i in 0..q {
        let row = base_ptr.wrapping_add(rows[i]).wrapping_offset(shift[i]);
        (src[i], dst[oc.opp[i]]) = (row, row);
    }
    // The seam group's view, rebuilt for each seam group.
    let (mut from, mut to) = (src, dst);
    // The slot in its row of rotated index `t < 2·nz`.
    let wrapped = |t: usize| if t >= nz { t - nz } else { t };

    for z0 in (0..nz).step_by(CHUNK) {
        let n = (nz - z0).min(CHUNK);
        let fluid = mask.map_or(u64::MAX, |m| {
            (0..n)
                .filter(|&j| m.is_solid(y, z0 + j))
                .fold(u64::MAX, |bits, j| bits & !(1 << j))
        });
        let mut z = z0;
        while z < z0 + n {
            let lanes = (nz - z).min(GROUP);
            // Velocity i's window starts at slot `start(i)` of its row and
            // goes through the seam buffer unless it is 8 in-row cells.
            let start = |i: usize| wrapped(z + zrot[i]);
            let buffered = |i: usize| lanes < GROUP || start(i) + GROUP > nz;
            // A full group of a row of ≥ 16 cells: every buffered window
            // lies in the ring of the row's last and first 8 cells.
            let ring = lanes == GROUP && nz >= 2 * GROUP;
            let in_place = interior(z);
            let (view, groups) = if in_place {
                let mut end = z + GROUP;
                while end < z0 + n && interior(end) {
                    end += GROUP;
                }
                (RowPtrs(&src, &dst), (end - z) / GROUP)
            } else {
                for i in 0..q {
                    let (row, t0) = (base_ptr.wrapping_add(rows[i]), start(i));
                    let at = if !buffered(i) {
                        row.wrapping_add(t0)
                    } else if ring {
                        let buf = seam[i].as_mut_ptr();
                        // SAFETY: `nz ≥ 16`: both halves lie inside row `i`,
                        // inside the allocation; the ring holds 16 doubles.
                        unsafe {
                            std::ptr::copy_nonoverlapping(row.add(nz - GROUP), buf, GROUP);
                            std::ptr::copy_nonoverlapping(row, buf.add(GROUP), GROUP);
                        }
                        // `t0 > nz − 8`: the window starts in the first half.
                        buf.wrapping_add(t0 + GROUP - nz)
                    } else {
                        for l in 0..GROUP {
                            // SAFETY: `t0 + l < 2·nz` for a valid lane, so its
                            // slot lies inside row `i`, inside the allocation.
                            let x = (l < lanes).then(|| unsafe { *row.add(wrapped(t0 + l)) });
                            seam[i][l] = x.unwrap_or(1.0);
                        }
                        seam[i].as_mut_ptr()
                    }
                    .wrapping_sub(z);
                    (from[i], to[oc.opp[i]]) = (at, at);
                }
                (RowPtrs(&from, &to), 1)
            };
            lines(view, z, groups, fluid >> (z - z0));
            if !in_place {
                for i in (0..q).filter(|&i| buffered(i)) {
                    let (row, t0) = (base_ptr.wrapping_add(rows[i]), start(i));
                    if ring {
                        // SAFETY: the two halves the gather read. Lanes
                        // outside the window store the values they were read
                        // with, into slots of this writer row, which no other
                        // thread owns.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                seam[i].as_ptr(),
                                row.add(nz - GROUP),
                                GROUP,
                            );
                            std::ptr::copy_nonoverlapping(seam[i].as_ptr().add(GROUP), row, GROUP);
                        }
                        continue;
                    }
                    for (l, x) in seam[i].iter().enumerate().take(lanes) {
                        // SAFETY: the slots the gather read: only valid lanes
                        // go back, to the slots they came from.
                        unsafe { *row.add(wrapped(t0 + l)) = *x };
                    }
                }
            }
            z += groups * GROUP;
        }
    }
}

/// A fluid row on the lane instance `V`: [`vector_row`] with the ±c pair
/// body per line ([`tile_pairs`]).
///
/// # Safety
/// As for [`vector_row`], less its condition on `lines`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn fluid_row<V: Lane, const THIRD: bool, O: CollideOp>(
    v: V,
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    mask: Option<&SectionMask>,
    y: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    let q = ctx.lat.q();
    let pairs = |view: RowPtrs<'_>, z, groups, fluid| {
        // SAFETY: `vector_row` passes views whose windows lie inside their
        // rows or stack rows; `v` proves the instance's features.
        unsafe { tile_pairs::<V, THIRD, false, O, _>(v, ctx, oc, pc, view, z, groups, fluid) }
    };
    // SAFETY: this function's contract; the pair body makes the accesses
    // `vector_row` allows.
    unsafe { vector_row(q, oc, base_ptr, rows, zrot, nz, mask, y, seam, pairs) }
}

/// A moving or diffuse wall row on the lane instance `V`: [`vector_row`]
/// with the wall rule per line ([`wall_lines`]). Wall rows have no masked
/// cells.
///
/// # Safety
/// As for [`vector_row`], less its condition on `lines`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn wall_row<V: Lane>(
    v: V,
    q: usize,
    oc: &OpConsts,
    line: &WallLine,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    let walls = |view: RowPtrs<'_>, z, groups, _| {
        // SAFETY: as for the pair body in `fluid_row`.
        unsafe { wall_lines(v, q, oc, line, view, z, groups) }
    };
    // SAFETY: this function's contract; the wall lines make the accesses
    // `vector_row` allows.
    unsafe { vector_row(q, oc, base_ptr, rows, zrot, nz, None, 0, seam, walls) }
}

/// The wall rule on `groups` lines of a row view from cell `z0`, on the
/// lane instance `V`. A moving wall stores `a_opp(i) + corr_i` into
/// `dst(i)`, the slot that held `a_opp(i)`, so each slot is read once and
/// written once. A diffuse wall sums `m = ((0 + a_0) + a_1) + … + a_{q−1}`
/// lane-wise in velocity-index order, then stores `(w_i · m) · poly_i` into
/// every `dst(i)`. Lane by lane these are [`store_wall`]'s expressions, so
/// both write the bits of [`BoundarySpec::apply`]. The loads touch each
/// source row [`AHEAD`] doubles ahead, as the pair body's do.
///
/// # Safety
/// As for [`tile_pairs`] on `rows`, without `NT`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn wall_lines<V: Lane>(
    v: V,
    q: usize,
    oc: &OpConsts,
    line: &WallLine,
    rows: RowPtrs<'_>,
    z0: usize,
    groups: usize,
) {
    let load = |i: usize, z: usize| {
        let p = rows.src(i).wrapping_add(z);
        op::prefetch(p.wrapping_add(AHEAD));
        // SAFETY: the caller grants the 8 doubles of every line's `src(i)`.
        unsafe { v.loadu(p) }
    };
    // SAFETY: the caller grants the 8 doubles of every line's `dst(i)`.
    let store = |i: usize, z: usize, t| unsafe { v.storeu(rows.dst(i).wrapping_add(z), t) };
    for z in (z0..z0 + groups * GROUP).step_by(GROUP) {
        match line {
            WallLine::Moving { corr } => {
                for i in 0..q {
                    store(i, z, v.add(load(oc.opp[i], z), v.splat(corr[i])));
                }
            }
            WallLine::Diffuse { poly } => {
                let w = |i: usize| v.splat(oc.cw[i][3]);
                let mut m = v.splat(0.0);
                for i in 0..q {
                    m = v.add(m, load(i, z));
                }
                for i in 0..q {
                    store(i, z, v.mul(v.mul(w(i), m), v.splat(poly[i])));
                }
            }
        }
    }
}

/// [`fluid_row`] on [`Portable<8>`](Portable).
///
/// # Safety
/// AVX2+FMA must be available, and [`fluid_row`]'s contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fluid_row_avx2<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    mask: Option<&SectionMask>,
    y: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    // SAFETY: AVX2+FMA and the row contract per this function's contract.
    unsafe {
        let v = Portable::<GROUP>::assume();
        fluid_row::<_, THIRD, O>(v, ctx, oc, pc, base_ptr, rows, zrot, nz, mask, y, seam)
    }
}

/// [`fluid_row`] on [`Avx512`].
///
/// # Safety
/// AVX-512F, AVX2 and FMA must be available, and [`fluid_row`]'s contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fluid_row_avx512<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    pc: &PairConsts,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    mask: Option<&SectionMask>,
    y: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    // SAFETY: AVX-512F, AVX2, FMA and the row contract per this function's contract.
    unsafe {
        let v = Avx512::assume();
        fluid_row::<_, THIRD, O>(v, ctx, oc, pc, base_ptr, rows, zrot, nz, mask, y, seam)
    }
}

/// [`wall_row`] on [`Portable<8>`](Portable).
///
/// # Safety
/// AVX2+FMA must be available, and [`wall_row`]'s contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn wall_row_avx2(
    q: usize,
    oc: &OpConsts,
    line: &WallLine,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    // SAFETY: AVX2+FMA and the row contract per this function's contract.
    unsafe {
        let v = Portable::<GROUP>::assume();
        wall_row(v, q, oc, line, base_ptr, rows, zrot, nz, seam)
    }
}

/// [`wall_row`] on [`Avx512`].
///
/// # Safety
/// AVX-512F, AVX2 and FMA must be available, and [`wall_row`]'s contract must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn wall_row_avx512(
    q: usize,
    oc: &OpConsts,
    line: &WallLine,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    zrot: &[usize; MAX_Q],
    nz: usize,
    seam: &mut [[f64; 2 * GROUP]; MAX_Q],
) {
    // SAFETY: AVX-512F, AVX2, FMA and the row contract per this function's contract.
    unsafe {
        let v = Avx512::assume();
        wall_row(v, q, oc, line, base_ptr, rows, zrot, nz, seam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::ChannelWalls;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    #[cfg(target_arch = "x86_64")]
    use crate::kernels::op::{group_moments, relax_pair};
    use crate::kernels::op::{with_op, GuoForced, PlainBgk};
    use crate::kernels::simd::vector_lanes;
    use crate::kernels::{dh, fused, OptLevel};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
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

    /// Swap every cell's slots by the bounce-back permutation:
    /// `out[x][i] = in[x][opp(i)]`.
    fn unswap(ctx: &KernelCtx, f: &DistField) -> DistField {
        let mut out = f.clone();
        for i in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(i);
            out.slab_mut(i).copy_from_slice(f.slab(o));
        }
        out
    }

    /// `k` layers of a diffuse wall with a nonzero velocity below and a
    /// moving wall above.
    fn test_walls(k: usize) -> ChannelWalls {
        ChannelWalls {
            low: WallKind::Diffuse {
                u: [0.02, 0.0, 0.01],
            },
            high: WallKind::Moving {
                u: [0.03, 0.0, 0.01],
                rho: 1.0,
            },
            layers: k,
        }
    }

    #[test]
    fn even_step_is_the_swapped_collide() {
        // even(A)[x][opp(i)] must equal collide(A)[x][i] bitwise (scalar).
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(4, 5, 70); // straddles a z-block boundary
            let a0 = random_field(c.lat.q(), dims, 0, 11);

            let mut collided = a0.clone();
            op::collide_cells(
                &c,
                &mut collided,
                0,
                dims.nx,
                PlainBgk,
                &BoundarySpec::periodic(),
            );

            let mut aa = a0.clone();
            even_cells(
                &c,
                &mut aa,
                0,
                dims.nx,
                PlainBgk,
                &BoundarySpec::periodic(),
                false,
            );

            let expect = unswap(&c, &collided);
            assert_eq!(aa.max_abs_diff_owned(&expect), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn even_step_forced_matches_forced_collide() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 9, 12);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(crate::boundary::SectionMask::from_fn(9, 12, |_y, z| z == 7));
        let g = [2e-5, -1e-5, 3e-5];
        let a0 = random_field(c.lat.q(), dims, 0, 17);

        let mut collided = a0.clone();
        op::collide_cells(&c, &mut collided, 0, dims.nx, GuoForced { g }, &bounds);
        // Fluid cells of `collided` hold the forced collide; wall rows and
        // masked cells are untouched there. In AA-even, wall rows
        // (bounce-back) and masked cells are *no-ops* so they keep A's
        // natural values — the swapped comparison must account for both.
        let mut aa = a0.clone();
        even_cells(&c, &mut aa, 0, dims.nx, GuoForced { g }, &bounds, false);

        let d = aa.alloc_dims();
        for i in 0..c.lat.q() {
            let o = c.lat.opposite(i);
            for x in 0..dims.nx {
                for y in 0..dims.ny {
                    for z in 0..dims.nz {
                        let lin = d.idx(x, y, z);
                        let solid = y == 0 || y == dims.ny - 1 || z == 7;
                        let want = if solid {
                            a0.slab(i)[lin] // no-op at solid cells
                        } else {
                            collided.slab(o)[lin] // swapped collide
                        };
                        assert_eq!(aa.slab(i)[lin], want, "i={i} ({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn odd_step_is_the_streamed_fused_pass() {
        // With B the swapped post-collision state and N = unswap(B),
        // odd(B)[x][i] must equal fused(N)[x − c_i][i] (pull-stream of the
        // fused output) — bitwise in scalar.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(8, 7, 9);
            let b = random_field(c.lat.q(), dims, 2 * k, 23);
            let n = unswap(&c, &b);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let alloc_nx = b.alloc_dims().nx;

            // Two-grid pipeline: fused pass, then a pure pull-stream.
            let mut fused_out = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
            fused::stream_collide(&c, &tables, &n, &mut fused_out, k, alloc_nx - k);
            let mut expect = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
            dh::stream(
                &c,
                &tables,
                &fused_out,
                &mut expect,
                2 * k,
                alloc_nx - 2 * k,
            );

            // AA odd pass in place over the same writer range.
            let mut aa = b.clone();
            odd_cells(
                &c,
                &tables,
                &mut aa,
                k,
                alloc_nx - k,
                PlainBgk,
                &BoundarySpec::periodic(),
                false,
            );

            // Planes [2k, alloc−2k) of `aa` are complete (all writers
            // swept); compare those against the streamed fused output.
            let d = aa.alloc_dims();
            let mut max: f64 = 0.0;
            for i in 0..c.lat.q() {
                for x in 2 * k..alloc_nx - 2 * k {
                    let base = d.idx(x, 0, 0);
                    for p in 0..d.plane() {
                        max = max.max((aa.slab(i)[base + p] - expect.slab(i)[base + p]).abs());
                    }
                }
            }
            assert_eq!(max, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn periodic_odd_matches_margin_odd_with_filled_halo() {
        // The wrap path must reproduce, bitwise, what the decomposed path
        // computes from periodic ghost copies and 2k ghost writer planes —
        // fluid rows, wall transforms, and masked runs alike; at nz = 70 the
        // rotated wall-row gathers cross a z-block seam.
        for (kind, nz) in [LatticeKind::D3Q19, LatticeKind::D3Q39]
            .into_iter()
            .flat_map(|kind| [(kind, 11), (kind, 70)])
        {
            let c = ctx(kind);
            let q = c.lat.q();
            let k = c.lat.reach();
            let h = 2 * k;
            let dims = Dim3::new(8, 9, nz);
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls {
                    low: WallKind::Moving {
                        u: [0.01, 0.0, -0.005],
                        rho: 1.0,
                    },
                    high: WallKind::Diffuse { u: [0.0; 3] },
                    layers: k,
                })
                .with_mask(crate::boundary::SectionMask::from_fn(9, nz, |_y, z| z == 4));
            let tables = StreamTables::new(dims.ny, dims.nz);
            let m0 = random_field(q, dims, h, 37);
            let da = m0.alloc_dims();
            let plane = dims.ny * dims.nz;

            // Periodic sweep on the halo-free image of the same state.
            let mut p = DistField::new(q, dims, 0).unwrap();
            let dp = p.alloc_dims();
            for i in 0..q {
                for x in 0..dims.nx {
                    let s = da.idx(x + h, 0, 0);
                    let t = dp.idx(x, 0, 0);
                    p.slab_mut(i)[t..t + plane].copy_from_slice(&m0.slab(i)[s..s + plane]);
                }
            }
            odd_cells_periodic(&c, &tables, &mut p, 0, dims.nx, PlainBgk, &bounds, false);

            // Margin sweep with periodically filled ghosts, writers extended
            // k planes into them, exactly as the decomposed solver runs it.
            let mut m = m0.clone();
            for i in 0..q {
                for gx in 0..h {
                    for (dst, src) in [(gx, gx + dims.nx), (h + dims.nx + gx, h + gx)] {
                        let s = da.idx(src, 0, 0);
                        let row: Vec<f64> = m.slab(i)[s..s + plane].to_vec();
                        let t = da.idx(dst, 0, 0);
                        m.slab_mut(i)[t..t + plane].copy_from_slice(&row);
                    }
                }
            }
            odd_cells(
                &c,
                &tables,
                &mut m,
                h - k,
                h + dims.nx + k,
                PlainBgk,
                &bounds,
                false,
            );

            for i in 0..q {
                for x in 0..dims.nx {
                    for y in 0..dims.ny {
                        for z in 0..dims.nz {
                            assert_eq!(
                                p.slab(i)[dp.idx(x, y, z)].to_bits(),
                                m.slab(i)[da.idx(x + h, y, z)].to_bits(),
                                "{kind:?} i={i} ({x},{y},{z})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounce_back_rows_and_masked_cells_are_exact_noops() {
        let c = ctx(LatticeKind::D3Q19);
        let k = c.lat.reach();
        let dims = Dim3::new(6, 8, 9);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(k))
            .with_mask(crate::boundary::SectionMask::from_fn(8, 9, |_y, z| z >= 7));
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut f = random_field(c.lat.q(), dims, 2 * k, 31);
        let before = f.clone();
        even_cells(&c, &mut f, 2 * k, 2 * k + dims.nx, PlainBgk, &bounds, false);
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 2 * k..2 * k + dims.nx {
                for z in 0..dims.nz {
                    for y in [0usize, dims.ny - 1] {
                        let lin = d.idx(x, y, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "wall row");
                    }
                    if z >= 7 {
                        let lin = d.idx(x, 3, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        // Odd step: wall/masked slots keep their (post-even) values too.
        let before_odd = f.clone();
        let alloc_nx = f.alloc_dims().nx;
        odd_cells(
            &c,
            &tables,
            &mut f,
            k,
            alloc_nx - k,
            PlainBgk,
            &bounds,
            false,
        );
        // In the odd step, a slot `(y, i)` is written by writer cell
        // `y − c_i`; slots whose writer is itself a bounce-back wall cell
        // must be untouched (slots with fluid writers legitimately receive
        // the fluid populations streaming into the wall).
        for (i, cv) in c.lat.velocities().iter().enumerate() {
            for x in 2 * k + k..2 * k + dims.nx - k {
                for z in 0..dims.nz {
                    for y in [0usize, dims.ny - 1] {
                        let wy =
                            (y as isize - cv[1] as isize).rem_euclid(dims.ny as isize) as usize;
                        let writer_is_wall = wy < k || wy >= dims.ny - k;
                        if !writer_is_wall {
                            continue;
                        }
                        let lin = d.idx(x, y, z);
                        assert_eq!(
                            f.slab(i)[lin],
                            before_odd.slab(i)[lin],
                            "wall-writer slot i={i} ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn moving_and_diffuse_walls_match_the_two_grid_transform() {
        // Every wall cell of a sweep stores, bitwise, BoundarySpec::apply of
        // its arrivals into the slots its view names: on the even view the
        // swapped apply of A; on the odd view (torus) the apply of the
        // gathered arrivals a_i = A[x − c_i][opp(i)], t_i landing in
        // A[x + c_i][i]. On the scalar blocks and the vector lines of every
        // instance this CPU runs, serial and on 4 threads; a moving wall and
        // a diffuse wall with a nonzero velocity (so poly_i ≠ 1), each on
        // either side, and a diffuse wall at rest; rows of only short and
        // seam groups (nz 5, 9) and of whole groups across a z-block seam
        // (70).
        let lanes: Vec<Lanes> = std::iter::once(Lanes::Scalar)
            .chain(vector_lanes())
            .collect();
        for (kind, nz) in [LatticeKind::D3Q19, LatticeKind::D3Q39]
            .into_iter()
            .flat_map(|kind| [(kind, 5), (kind, 9), (kind, 70)])
        {
            let c = ctx(kind);
            let (q, k) = (c.lat.q(), c.lat.reach());
            let dims = Dim3::new(4, 2 * k + 2, nz);
            let d = dims; // halo-free: allocated dims are the box
            let tables = StreamTables::new(dims.ny, nz);
            let vel = c.lat.velocities();
            let wrap = |a: usize, s: i32, n: usize| {
                (a as isize + s as isize).rem_euclid(n as isize) as usize
            };
            // Cell (x, y, z) shifted by `sign · c_i`.
            let at = |i: usize, sign: i32, x: usize, y: usize, z: usize| {
                let cv = vel[i];
                d.idx(
                    wrap(x, sign * cv[0], d.nx),
                    wrap(y, sign * cv[1], d.ny),
                    wrap(z, sign * cv[2], d.nz),
                )
            };
            let wall_cells = || {
                (0..d.nx).flat_map(move |x| {
                    (0..k)
                        .chain(d.ny - k..d.ny)
                        .flat_map(move |y| (0..d.nz).map(move |z| (x, y, z)))
                })
            };
            let w = test_walls(k);
            let at_rest = WallKind::Diffuse { u: [0.0; 3] };
            for (low, high) in [(w.low, w.high), (w.high, w.low), (at_rest, w.high)] {
                let bounds = BoundarySpec::periodic().with_walls(ChannelWalls {
                    low,
                    high,
                    layers: k,
                });
                let a0 = random_field(q, dims, 0, 41 + nz as u64);

                let mut even_want = a0.clone();
                bounds.apply(&c, &mut even_want, 0, dims.nx);
                // The odd view's arrivals, gathered per writer cell, then
                // transformed.
                let mut odd_want = a0.clone();
                for i in 0..q {
                    for (x, y, z) in (0..d.nx).flat_map(|x| {
                        (0..d.ny).flat_map(move |y| (0..d.nz).map(move |z| (x, y, z)))
                    }) {
                        odd_want.slab_mut(i)[d.idx(x, y, z)] =
                            a0.slab(c.lat.opposite(i))[at(i, -1, x, y, z)];
                    }
                }
                bounds.apply(&c, &mut odd_want, 0, dims.nx);

                for (&l, threads) in lanes.iter().flat_map(|l| [(l, 1), (l, 4)]) {
                    for odd in [false, true] {
                        let parity = if odd {
                            let xw = XShift::Wrap { lo: 0, hi: dims.nx };
                            Parity::Odd {
                                tables: &tables,
                                xw,
                            }
                        } else {
                            Parity::Even
                        };
                        let mut f = a0.clone();
                        let step = |f: &mut DistField| {
                            sweep(&c, f, 0, dims.nx, parity, PlainBgk, &bounds, l)
                        };
                        if threads == 1 {
                            step(&mut f);
                        } else {
                            rayon::ThreadPoolBuilder::new()
                                .num_threads(threads)
                                .build()
                                .unwrap()
                                .install(|| step(&mut f));
                        }
                        for (x, y, z) in wall_cells() {
                            for i in 0..q {
                                let o = c.lat.opposite(i);
                                let (got, want) = if odd {
                                    let got = f.slab(i)[at(i, 1, x, y, z)];
                                    (got, odd_want.slab(i)[d.idx(x, y, z)])
                                } else {
                                    let lin = d.idx(x, y, z);
                                    (f.slab(i)[lin], even_want.slab(o)[lin])
                                };
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{kind:?} nz={nz} low={low:?} {l:?} threads={threads} \
                                     odd={odd} i={i} ({x},{y},{z}): {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_tile_matches_scalar_within_fma_tolerance() {
        if !simd::simd_available() {
            return;
        }
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(6, 7, 11); // scalar tail
            let bounds = BoundarySpec::periodic();
            let tables = StreamTables::new(dims.ny, dims.nz);
            let g = [3e-5, 0.0, -1e-5];

            let a0 = random_field(c.lat.q(), dims, 2 * k, 53);
            let mut s = a0.clone();
            let mut v = a0.clone();
            even_cells(
                &c,
                &mut s,
                2 * k,
                2 * k + dims.nx,
                GuoForced { g },
                &bounds,
                false,
            );
            even_cells(
                &c,
                &mut v,
                2 * k,
                2 * k + dims.nx,
                GuoForced { g },
                &bounds,
                true,
            );
            let diff = s.max_abs_diff_owned(&v);
            assert!(diff < 1e-13, "{kind:?} even: {diff}");

            let alloc_nx = s.alloc_dims().nx;
            odd_cells(
                &c,
                &tables,
                &mut s,
                k,
                alloc_nx - k,
                GuoForced { g },
                &bounds,
                false,
            );
            odd_cells(
                &c,
                &tables,
                &mut v,
                k,
                alloc_nx - k,
                GuoForced { g },
                &bounds,
                true,
            );
            let diff = s.max_abs_diff_owned(&v);
            assert!(diff < 1e-12, "{kind:?} odd: {diff}");
        }
    }

    #[test]
    fn pair_conserves_mass_on_fully_wrapped_field() {
        // A halo-free single-plane-decomposition stand-in: run the pair on
        // a field whose halo planes mirror the periodic wrap, then check
        // the owned mass drift.
        let c = ctx(LatticeKind::D3Q27);
        let k = c.lat.reach();
        let dims = Dim3::new(8, 6, 6);
        let mut f = random_field(c.lat.q(), dims, 2 * k, 3);
        let d = f.alloc_dims();
        let (own_lo, own_hi) = (2 * k, 2 * k + dims.nx);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let bounds = BoundarySpec::periodic();

        even_cells(&c, &mut f, own_lo, own_hi, PlainBgk, &bounds, false);
        // Refresh halos from the owned wrap (what the solver's exchange
        // does), then run the odd writers.
        for i in 0..c.lat.q() {
            for p in 0..2 * k {
                let left_halo = d.idx(p, 0, 0);
                let right_src = d.idx(own_hi - 2 * k + p, 0, 0);
                let row: Vec<f64> = f.slab(i)[right_src..right_src + d.plane()].to_vec();
                f.slab_mut(i)[left_halo..left_halo + d.plane()].copy_from_slice(&row);
                let right_halo = d.idx(own_hi + p, 0, 0);
                let left_src = d.idx(own_lo + p, 0, 0);
                let row: Vec<f64> = f.slab(i)[left_src..left_src + d.plane()].to_vec();
                f.slab_mut(i)[right_halo..right_halo + d.plane()].copy_from_slice(&row);
            }
        }
        let mass_mid = f.owned_mass();
        odd_cells(&c, &tables, &mut f, k, d.nx - k, PlainBgk, &bounds, false);
        let mass_after = f.owned_mass();
        // The even step conserves mass cell-locally; the odd step moves
        // mass between cells but the wrapped halo bookkeeping keeps the
        // owned total fixed.
        assert!(
            (mass_mid - mass_after).abs() < 1e-9 * mass_mid,
            "{mass_mid} vs {mass_after}"
        );
    }

    #[test]
    #[should_panic(expected = "planes of margin")]
    fn odd_step_rejects_out_of_range_sweeps() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 7, 8);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut f = random_field(c.lat.q(), dims, 1, 5);
        let nx = f.alloc_dims().nx;
        odd_cells(
            &c,
            &tables,
            &mut f,
            0, // must be ≥ k
            nx,
            PlainBgk,
            &BoundarySpec::periodic(),
            false,
        );
    }

    #[test]
    fn level_dispatch_covers_both_parities() {
        // The mod-level dispatchers run scalar below Simd and the AVX2 tile
        // at Simd/Fused; both must agree within FMA tolerance.
        let c = ctx(LatticeKind::D3Q19);
        let k = c.lat.reach();
        let dims = Dim3::new(6, 7, 9);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let bounds = BoundarySpec::periodic();
        let a0 = random_field(c.lat.q(), dims, 2 * k, 7);
        let mut lo = a0.clone();
        let mut hi = a0.clone();
        crate::kernels::aa_even_scenario(
            OptLevel::LoBr,
            &c,
            &mut lo,
            2 * k,
            2 * k + dims.nx,
            [0.0; 3],
            &bounds,
        );
        crate::kernels::aa_even_scenario(
            OptLevel::Fused,
            &c,
            &mut hi,
            2 * k,
            2 * k + dims.nx,
            [0.0; 3],
            &bounds,
        );
        assert!(lo.max_abs_diff_owned(&hi) < 1e-13);
        let nx = lo.alloc_dims().nx;
        crate::kernels::aa_odd_scenario(
            OptLevel::LoBr,
            &c,
            &tables,
            &mut lo,
            k,
            nx - k,
            [0.0; 3],
            &bounds,
        );
        crate::kernels::aa_odd_scenario(
            OptLevel::Fused,
            &c,
            &tables,
            &mut hi,
            k,
            nx - k,
            [0.0; 3],
            &bounds,
        );
        assert!(lo.max_abs_diff_owned(&hi) < 1e-12);
    }

    /// Compensated (Kahan) sum: the invariants below must see the kernel's
    /// rounding, not the test's.
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

    /// A near-equilibrium field: `f_i = w_i (1 + 0.1 r)`, `r ∈ [−1, 1]`, so
    /// `ρ ≈ 1` and absolute tolerances mean what they say.
    fn near_equilibrium_field(c: &KernelCtx, dims: Dim3, seed: u64) -> DistField {
        let mut f = DistField::new(c.lat.q(), dims, 0).unwrap();
        let mut s = seed | 1;
        for (i, w) in c.lat.weights().iter().enumerate() {
            for v in f.slab_mut(i) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = w * (1.0 + 0.1 * ((s % 2001) as f64 / 1000.0 - 1.0));
            }
        }
        f
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pair_expression_matches_two_relax_one_calls() {
        // The pair expression on random (ρ, u, f_i, f_o) against the scalar
        // per-velocity expression, to 1e-14 relative, on each peer of
        // `lane_tests::peers`: inlined into an entry point with the
        // instance's target features, or `Portable<8>` built for the
        // baseline. (A sign flip of `D` or of the odd source part `sa` fails
        // this by many orders.)
        use crate::kernels::op::lane_tests::{peers, Peer};
        #[inline(always)]
        fn check<V: Lane, const THIRD: bool, O: CollideOp>(v: V, c: &KernelCtx, op: O, seed: u64) {
            let n = V::N;
            let oc = OpConsts::new(c, &op);
            let pc = PairConsts::new(&oc, c.lat.q());
            let mut s = seed | 1;
            let mut rnd = |lo: f64, hi: f64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                lo + (hi - lo) * (s % 10_007) as f64 / 10_007.0
            };
            for p in pc.pairs() {
                let rho: Vec<f64> = (0..n).map(|_| rnd(0.6, 1.6)).collect();
                let m: [Vec<f64>; 3] =
                    std::array::from_fn(|_| (0..n).map(|l| rho[l] * rnd(-0.12, 0.12)).collect());
                let fi: Vec<f64> = (0..n).map(|l| p.w * rho[l] * rnd(0.6, 1.4)).collect();
                let fo: Vec<f64> = (0..n).map(|l| p.w * rho[l] * rnd(0.6, 1.4)).collect();
                let (mut ti, mut to) = (vec![0.0f64; n], vec![0.0f64; n]);
                // SAFETY: every pointer addresses n = V::N doubles.
                unsafe {
                    let ld = |a: &[f64]| v.loadu(a.as_ptr());
                    let gm = group_moments::<V, THIRD, O>(
                        v,
                        c,
                        &oc,
                        ld(&rho),
                        [ld(&m[0]), ld(&m[1]), ld(&m[2])],
                    );
                    let (vi, vo) = relax_pair::<V, THIRD, O>(v, c, p, &gm, ld(&fi), ld(&fo));
                    v.storeu(ti.as_mut_ptr(), vi);
                    v.storeu(to.as_mut_ptr(), vo);
                }
                for l in 0..n {
                    let inv = 1.0 / rho[l];
                    let u: [f64; 3] = std::array::from_fn(|a| (m[a][l] + oc.half_g[a]) * inv);
                    let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
                    let ug = u[0] * oc.g[0] + u[1] * oc.g[1] + u[2] * oc.g[2];
                    for (idx, f, got) in [(p.i, fi[l], ti[l]), (p.o, fo[l], to[l])] {
                        let want = relax_one::<THIRD, O>(
                            &c.consts, &oc, idx, c.omega, rho[l], u[0], u[1], u[2], u2, ug, f,
                        );
                        assert!(
                            (got - want).abs() <= 1e-14 * want.abs().max(f),
                            "{:?} N={n} third={THIRD} forced={} velocity {idx}: {got} vs {want}",
                            c.lat.kind(),
                            O::FORCED
                        );
                    }
                }
            }
        }
        #[inline(always)]
        fn each<V: Lane>(v: V) {
            let g = [3e-4, -2e-4, 1e-4];
            for (n, kind) in LatticeKind::ALL.into_iter().enumerate() {
                for tau in [0.56, 0.8, 1.9] {
                    let bgk = Bgk::new(tau).unwrap();
                    let seed = 77 + n as u64;
                    let second = KernelCtx::new(kind, EqOrder::Second, bgk);
                    check::<V, false, _>(v, &second, PlainBgk, seed);
                    check::<V, false, _>(v, &second, GuoForced { g }, seed);
                    let third = KernelCtx::new(kind, EqOrder::Third, bgk);
                    check::<V, true, _>(v, &third, PlainBgk, seed);
                    check::<V, true, _>(v, &third, GuoForced { g }, seed);
                }
            }
        }
        #[target_feature(enable = "avx2,fma")]
        fn each_avx2() {
            // SAFETY: this function runs only where AVX2+FMA are present.
            each(unsafe { Portable::<GROUP>::assume() })
        }
        #[target_feature(enable = "avx512f,avx2,fma")]
        fn each_avx512() {
            // SAFETY: this function runs only where its features are present.
            each(unsafe { Avx512::assume() })
        }
        for peer in peers() {
            // SAFETY: `peers` lists only peers the CPU runs.
            unsafe {
                match peer {
                    Peer::Entry(Lanes::Avx512) => each_avx512(),
                    Peer::Entry(_) => each_avx2(),
                    Peer::Baseline => each(Portable::<GROUP>::assume()),
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_instances_agree_on_aa_rows() {
        // The in-place AA view: row i at i·72, and t_i stored into the row
        // that held a_opp(i).
        use crate::align::AlignedBuf;
        use crate::kernels::op::lane_tests;
        const STRIDE: usize = 72;
        for c in lane_tests::contexts() {
            let q = c.lat.q();
            let data = lane_tests::arrivals(q * STRIDE, 13);
            let mut buf = AlignedBuf::new(data.len());
            let base = buf.as_mut_ptr();
            let mut src = [base.cast_const(); MAX_Q];
            let mut dst = [base; MAX_Q];
            for i in 0..q {
                let row = base.wrapping_add(i * STRIDE);
                (src[i], dst[c.lat.opposite(i)]) = (row, row);
            }
            let case = format!("{:?} third {} AA view", c.lat.kind(), c.third_order());
            // SAFETY: every row's 64 cells lie in `buf`, on cache lines.
            unsafe {
                crate::kernels::op::lane_tests::assert_instances_agree(
                    &c,
                    base,
                    &data,
                    RowPtrs(&src, &dst),
                    &case,
                )
            };
        }
    }

    /// An even sweep of the owned planes `[k, k + n)`, a torus odd sweep
    /// of them and a margin odd sweep of every plane with margin, on
    /// `lanes`, serial (`threads == 1`) or on a pool.
    #[allow(clippy::too_many_arguments)]
    fn aa_sweeps_on<O: CollideOp>(
        c: &KernelCtx,
        tables: &StreamTables,
        f: &mut DistField,
        n: usize,
        op: O,
        bounds: &BoundarySpec,
        lanes: Lanes,
        threads: usize,
    ) {
        let k = c.lat.reach();
        let nx = f.alloc_dims().nx;
        let step = |f: &mut DistField| {
            sweep(c, f, k, k + n, Parity::Even, op, bounds, lanes);
            let xw = XShift::Wrap { lo: k, hi: k + n };
            sweep(
                c,
                f,
                k,
                k + n,
                Parity::Odd { tables, xw },
                op,
                bounds,
                lanes,
            );
            let xw = XShift::Margin;
            sweep(
                c,
                f,
                k,
                nx - k,
                Parity::Odd { tables, xw },
                op,
                bounds,
                lanes,
            );
        };
        if threads == 1 {
            step(f);
        } else {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| step(f));
        }
    }

    #[test]
    fn lane_instances_agree_on_aa_sweeps() {
        // Every vector instance this CPU runs writes the same bits, on even
        // and odd (torus and margin) sweeps: rows of only seam and short
        // groups (nz 4..13), whole groups (64) and both (67, 70), periodic,
        // with masked cells and between a diffuse and a moving wall, plain
        // and Guo, serial and on 4 threads.
        use crate::boundary::SectionMask;
        let lanes = vector_lanes();
        for kind in LatticeKind::ALL {
            let c = ctx(kind);
            let k = c.lat.reach();
            for nz in (4..=13).chain([64, 67, 70]) {
                for case in ["periodic", "masked", "walled"] {
                    let ny = if case == "walled" { 2 * k + 2 } else { 4 };
                    let dims = Dim3::new(3, ny, nz);
                    let tables = StreamTables::new(ny, nz);
                    let bounds = match case {
                        "periodic" => BoundarySpec::periodic(),
                        "masked" => BoundarySpec::periodic().with_mask(SectionMask::from_fn(
                            ny,
                            nz,
                            |y, z| (y + 2 * z) % 5 == 0,
                        )),
                        _ => BoundarySpec::periodic().with_walls(test_walls(k)),
                    };
                    for (g, threads) in [([0.0; 3], 1), ([2e-5, -1e-5, 3e-5], 4)] {
                        let a0 = random_field(c.lat.q(), dims, k, 31 + nz as u64);
                        let mut first: Option<DistField> = None;
                        for &l in &lanes {
                            let mut f = a0.clone();
                            with_op!(g, |op| aa_sweeps_on(
                                &c, &tables, &mut f, dims.nx, op, &bounds, l, threads
                            ));
                            let case = format!("{kind:?} nz={nz} {case} g={g:?} {l:?}");
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
    }

    #[test]
    fn avx2_sweeps_keep_the_per_cell_invariants() {
        // One AVX2 even sweep and one AVX2 odd sweep (torus) on a forced
        // near-equilibrium field: every cell keeps its mass and gains
        // exactly G of momentum, |Σ out − Σ f| ≤ 1e-14 ρ and
        // |Σ c·out − Σ c·f − G| ≤ 1e-14, in compensated sums.
        let g = [2e-5, -1e-5, 3e-5];
        let tune = true;
        let bounds = BoundarySpec::periodic();
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let q = c.lat.q();
            let vel = c.lat.velocities();
            let dims = Dim3::new(4, 5, 9);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let wrap = |a: usize, da: i32, n: usize| {
                (a as isize + da as isize).rem_euclid(n as isize) as usize
            };
            let before = near_equilibrium_field(&c, dims, 91);
            let d = before.alloc_dims();
            // `odd = false`: cell x reads and writes its own slots, t_i in
            // slot opp(i). `odd = true`: it reads A[x−c_i][opp(i)] and
            // writes t_i to A[x+c_i][i].
            let check = |odd: bool, before: &DistField, after: &DistField| {
                for x in 0..dims.nx {
                    for y in 0..dims.ny {
                        for z in 0..dims.nz {
                            let at = |i: usize, sign: i32| {
                                let c = vel[i];
                                if odd {
                                    d.idx(
                                        wrap(x, sign * c[0], dims.nx),
                                        wrap(y, sign * c[1], dims.ny),
                                        wrap(z, sign * c[2], dims.nz),
                                    )
                                } else {
                                    d.idx(x, y, z)
                                }
                            };
                            let arrive = |i: usize| {
                                let slot = if odd { c.lat.opposite(i) } else { i };
                                before.slab(slot)[at(i, -1)]
                            };
                            let t = |i: usize| {
                                let slot = if odd { i } else { c.lat.opposite(i) };
                                after.slab(slot)[at(i, 1)]
                            };
                            let rho = kahan((0..q).map(arrive));
                            let dm = kahan((0..q).map(t).chain((0..q).map(|i| -arrive(i))));
                            assert!(dm.abs() <= 1e-14 * rho, "{kind:?} odd={odd} mass {dm:e}");
                            for ax in 0..3 {
                                let dp = kahan(
                                    (0..q)
                                        .map(|i| vel[i][ax] as f64 * t(i))
                                        .chain((0..q).map(|i| -(vel[i][ax] as f64) * arrive(i)))
                                        .chain([-g[ax]]),
                                );
                                assert!(dp.abs() <= 1e-14, "{kind:?} odd={odd} axis {ax}: {dp:e}");
                            }
                        }
                    }
                }
            };
            let mut even = before.clone();
            even_cells(&c, &mut even, 0, dims.nx, GuoForced { g }, &bounds, tune);
            check(false, &before, &even);
            let mut odd = even.clone();
            odd_cells_periodic(
                &c,
                &tables,
                &mut odd,
                0,
                dims.nx,
                GuoForced { g },
                &bounds,
                tune,
            );
            check(true, &even, &odd);
        }
    }

    #[test]
    fn avx2_matches_scalar_on_every_row_shape() {
        // Tail-only rows (nz < 4), sub-8-cell rows, a masked run that starts
        // mid-group and ends exactly at the z seam, and two runs per row:
        // nz from 1 on the even step and from 4 on the odd step, under the
        // standing AVX2-vs-scalar tolerances. On every shape, each AVX2
        // sweep is also bitwise its pair-body image.
        use crate::boundary::SectionMask;
        let g = [3e-5, 0.0, -1e-5];
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            for nz in (1..=13).chain([64, 67]) {
                let dims = Dim3::new(3, 4, nz);
                // No mask; one run [2, nz); two runs [0, 5) and [6, nz).
                let solid: [fn(usize) -> bool; 3] = [|_| false, |z| z < 2, |z| z == 5];
                for (n, solid) in solid.into_iter().enumerate() {
                    let mut bounds = BoundarySpec::periodic();
                    if n > 0 {
                        let mask = SectionMask::from_fn(dims.ny, nz, |_y, z| solid(z));
                        bounds = bounds.with_mask(mask);
                    }
                    let a0 = random_field(c.lat.q(), dims, 0, 59 + nz as u64);
                    let (mut s, mut v) = (a0.clone(), a0.clone());
                    even_cells(&c, &mut s, 0, dims.nx, GuoForced { g }, &bounds, false);
                    even_cells(&c, &mut v, 0, dims.nx, GuoForced { g }, &bounds, true);
                    let diff = s.max_abs_diff_owned(&v);
                    assert!(diff < 1e-13, "{kind:?} nz={nz} mask {n} even: {diff}");
                    let case = format!("{kind:?} nz={nz} mask {n}");
                    assert_pair_body_image(&c, &a0, &v, &bounds, GuoForced { g }, false, &case);
                    if nz < 4 {
                        continue; // below the lattice reach: no z-stream
                    }
                    let v_even = v.clone();
                    let tables = StreamTables::new(dims.ny, nz);
                    odd_cells_periodic(
                        &c,
                        &tables,
                        &mut s,
                        0,
                        dims.nx,
                        GuoForced { g },
                        &bounds,
                        false,
                    );
                    odd_cells_periodic(
                        &c,
                        &tables,
                        &mut v,
                        0,
                        dims.nx,
                        GuoForced { g },
                        &bounds,
                        true,
                    );
                    let diff = s.max_abs_diff_owned(&v);
                    assert!(diff < 1e-12, "{kind:?} nz={nz} mask {n} odd: {diff}");
                    assert_pair_body_image(&c, &v_even, &v, &bounds, GuoForced { g }, true, &case);
                }
            }
        }
    }

    /// `after`, one AVX2 sweep of `before` on a halo-free field over all its
    /// planes (the odd step on the torus), must be bitwise the sweep's
    /// pair-body image. Does nothing without AVX2+FMA.
    fn assert_pair_body_image<O: CollideOp>(
        c: &KernelCtx,
        before: &DistField,
        after: &DistField,
        bounds: &BoundarySpec,
        op: O,
        odd: bool,
        case: &str,
    ) {
        #[cfg(target_arch = "x86_64")]
        if simd::simd_available() {
            let want = pair_body_image(c, before, bounds, op, odd);
            let (got, want) = (after.as_slice(), want.as_slice());
            for (p, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{case} odd={odd} at offset {p}: sweep {g} vs pair body {w}"
                );
            }
        }
        let _ = (c, before, after, bounds, op, odd, case);
    }

    /// What an AVX2 sweep of `before` must write, built the slow way: per
    /// fluid `(x, y)` row, the arrivals `a_i` of the row view gathered cell
    /// by cell into a `q·64` frame, 64 cells at a time, run through the pair
    /// body's frame-row instantiation, and each fluid cell's `t_i` stored
    /// into the slot that held `a_opp(i)`. Solid cells and wall rows keep
    /// their values. The view is the even one, or with `odd` the periodic
    /// odd one over the whole (halo-free) field.
    #[cfg(target_arch = "x86_64")]
    fn pair_body_image<O: CollideOp>(
        c: &KernelCtx,
        before: &DistField,
        bounds: &BoundarySpec,
        op: O,
        odd: bool,
    ) -> DistField {
        use crate::geometry::TILE_CELLS;
        use crate::kernels::op::frame_pairs_avx2;

        let q = c.lat.q();
        let d = before.alloc_dims();
        let oc = OpConsts::new(c, &op);
        let pc = PairConsts::new(&oc, q);
        let wrap =
            |v: usize, s: i32, n: usize| (v as isize - s as isize).rem_euclid(n as isize) as usize;
        // The slot (slab, offset) holding a_i of cell (x, y, z): its own
        // slot i on the even view, slot opp(i) of cell x − c_i on the odd.
        let slot = |i: usize, x: usize, y: usize, z: usize| {
            let cv = c.lat.velocities()[i];
            if odd {
                let at = d.idx(
                    wrap(x, cv[0], d.nx),
                    wrap(y, cv[1], d.ny),
                    wrap(z, cv[2], d.nz),
                );
                (oc.opp[i], at)
            } else {
                (i, d.idx(x, y, z))
            }
        };
        let mut image = before.clone();
        let (mut buf, mut out) = (vec![1.0; q * TILE_CELLS], vec![0.0; q * TILE_CELLS]);
        for x in 0..d.nx {
            for y in (0..d.ny).filter(|&y| bounds.wall_row_kind(d.ny, y).is_none()) {
                for z0 in (0..d.nz).step_by(TILE_CELLS) {
                    let n = (d.nz - z0).min(TILE_CELLS);
                    let mut fluid = u64::MAX;
                    for j in 0..n {
                        if !bounds.is_fluid(d.ny, y, z0 + j) {
                            fluid &= !(1 << j);
                        }
                        for i in 0..q {
                            let (s, at) = slot(i, x, y, z0 + j);
                            buf[i * TILE_CELLS + j] = before.slab(s)[at];
                        }
                    }
                    // SAFETY: the caller checked AVX2+FMA.
                    unsafe {
                        if c.third_order() {
                            frame_pairs_avx2::<true, false, O>(c, &oc, &pc, fluid, &buf, &mut out);
                        } else {
                            frame_pairs_avx2::<false, false, O>(c, &oc, &pc, fluid, &buf, &mut out);
                        }
                    }
                    for j in (0..n).filter(|&j| fluid >> j & 1 == 1) {
                        for i in 0..q {
                            let (s, at) = slot(oc.opp[i], x, y, z0 + j);
                            image.slab_mut(s)[at] = out[i * TILE_CELLS + j];
                        }
                    }
                }
            }
        }
        image
    }

    #[test]
    fn avx2_sweeps_write_only_the_writer_slots() {
        // The AVX2 sweeps store through raw row pointers. With the whole
        // field NaN-poisoned except the slots the writers of [x_lo, x_hi)
        // own (their own slots on the even step, (x + c_j, j) on the margin
        // odd step), a sweep must leave every other slot with its NaN bits
        // and every owned slot finite: no pad lane is stored and no write
        // lands past a row end. Rows of nz 7 and 13 are all seam and short
        // groups, 64 all whole groups, 70 both; periodic, with masked cells
        // and between a diffuse and a moving wall (the wall lines), serial
        // and split across a pool, on every vector instance this CPU runs.
        use crate::boundary::SectionMask;
        let poison = f64::from_bits(0x7ff8_dead_beef_0001);
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let (q, k) = (c.lat.q(), c.lat.reach());
            for nz in [7, 13, 64, 70] {
                // k wall layers per side and 3 fluid rows.
                let dims = Dim3::new(6, 2 * k + 3, nz);
                let tables = StreamTables::new(dims.ny, nz);
                let values = random_field(q, dims, k, 67 + nz as u64);
                let (d, stride) = (values.alloc_dims(), values.slab_stride());
                let (x_lo, x_hi) = (k + 1, k + 5);
                for odd in [false, true] {
                    let mut owned = vec![false; values.as_slice().len()];
                    for (j, cv) in c.lat.velocities().iter().enumerate() {
                        let s = if odd { *cv } else { [0; 3] };
                        let wrap = |v: usize, s: i32, n: usize| {
                            (v as isize + s as isize).rem_euclid(n as isize) as usize
                        };
                        for x in x_lo..x_hi {
                            let xs = (x as isize + s[0] as isize) as usize;
                            for y in 0..dims.ny {
                                for z in 0..nz {
                                    let at = d.idx(xs, wrap(y, s[1], dims.ny), wrap(z, s[2], nz));
                                    owned[j * stride + at] = true;
                                }
                            }
                        }
                    }
                    for case in ["periodic", "masked", "walled"] {
                        let bounds =
                            match case {
                                "periodic" => BoundarySpec::periodic(),
                                "masked" => BoundarySpec::periodic().with_mask(
                                    SectionMask::from_fn(dims.ny, nz, |y, z| (y + z) % 3 == 0),
                                ),
                                _ => BoundarySpec::periodic().with_walls(test_walls(k)),
                            };
                        for (lanes, threads) in
                            vector_lanes().into_iter().flat_map(|l| [(l, 1), (l, 4)])
                        {
                            let mut f = values.clone();
                            for (v, &own) in f.as_mut_slice().iter_mut().zip(&owned) {
                                if !own {
                                    *v = poison;
                                }
                            }
                            let step = |f: &mut DistField| {
                                let parity = if odd {
                                    check_odd_bounds(&c, f, x_lo, x_hi);
                                    let xw = XShift::Margin;
                                    Parity::Odd {
                                        tables: &tables,
                                        xw,
                                    }
                                } else {
                                    Parity::Even
                                };
                                sweep(&c, f, x_lo, x_hi, parity, PlainBgk, &bounds, lanes);
                            };
                            if threads == 1 {
                                step(&mut f);
                            } else {
                                rayon::ThreadPoolBuilder::new()
                                    .num_threads(threads)
                                    .build()
                                    .unwrap()
                                    .install(|| step(&mut f));
                            }
                            for (p, (v, &own)) in f.as_slice().iter().zip(&owned).enumerate() {
                                assert!(
                                    if own {
                                        v.is_finite()
                                    } else {
                                        v.to_bits() == poison.to_bits()
                                    },
                                    "{kind:?} nz={nz} odd={odd} {case} {lanes:?} \
                                     threads={threads} offset {p} (owned: {own}): {v}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
