//! The per-rank distributed solver: deep-halo stepping plus the paper's
//! communication schedules.
//!
//! ## Deep-halo cycle (paper §V-A)
//!
//! With ghost depth `d` (halo width `H = d·k`), halos are exchanged once per
//! `d` steps. After an exchange the field is valid on all `L + 2H` allocated
//! planes; each pull-stream+collide consumes `k` planes of validity per side,
//! so sub-step `j` computes on `[(j+1)·k, L + 2H − (j+1)·k)` — the interior
//! plus the still-needed part of the halo (the "extra computation" the paper
//! trades against message count). After `d` sub-steps exactly the owned
//! planes are valid and the next exchange refills the halos.
//!
//! "Refills" means the slots sub-step 0 reads, not every slot: the exchange
//! ships the [`HaloPlan::crossing`] segments — population `i` of halo plane
//! `p` (0 = outermost) only if `p + c_ix ≥ k` carries it into the computed
//! region — still as one aggregated message per neighbour. That is
//! `Σ_{c_ix>0} c_ix` plane-slabs per message at depth 1 (18 instead of 117
//! for D3Q39) and fills up towards full width on the inner planes of deeper
//! halos, so the paper's "same volume, fewer messages" no longer holds: a
//! deep halo now costs extra computation *and* extra bytes per step for its
//! fewer messages. Slots outside the plan hold stale values that nothing
//! reads.
//!
//! ## Schedules (paper §V-E/F, Fig. 7/9)
//!
//! * [`CommStrategy::Blocking`] — exchange at cycle start, receives completed
//!   one link at a time (sum of delays).
//! * [`CommStrategy::NonBlockingEager`] — nonblocking posts, immediate
//!   waitall (max of delays, zero overlap): the no-ghost NB-C of Fig. 9.
//! * [`CommStrategy::NonBlockingGhost`] — sends posted at cycle end, waited
//!   at next cycle start (NB-C & GC).
//! * [`CommStrategy::OverlapGhostCollide`] — on the last sub-step the border
//!   planes are updated first, sends posted, and the rest of the update
//!   overlaps the in-flight messages (GC-C, Fig. 7).
//!
//! The schedule is written once; only the update differs, one per kernel
//! class, chosen per sub-step:
//!
//! * the split rungs (`Orig` … `Simd`) first pull-stream `[lo, hi)` (all
//!   rows, solid included, so walls see the arrivals), run the eager
//!   mid-step exchange when that schedule is active (both sides pack
//!   pre-boundary state, so ghost planes stay consistent), and transform
//!   wall rows and masked cells over the same region with
//!   [`BoundarySpec::apply`] (a no-op on a periodic box). Their update is
//!   the rung's own collide on a periodic unforced box — the kernels of
//!   Fig. 8's ladder — and otherwise the fluid-row collide with Guo forcing
//!   ([`kernels::collide_scenario`]: scalar below `Simd`, the vector pair
//!   body at `Simd`);
//! * the `Fused` rung's update is the boundary-aware single pass
//!   ([`kernels::stream_collide_scenario`]), `tmp ← collide(pull(f))` with
//!   wall rows and masked cells transformed from their arrivals. There is
//!   no post-stream intermediate, so its eager exchange follows the pass
//!   and ships post-collision borders, which the next cycle's exchange
//!   overwrites either way.
//!
//! Under GC-C the last sub-step runs its update border-first: the owned
//! border planes (final the moment they are written), then the sends, then
//! the ghost planes and the interior while the messages fly. Every piece
//! writes its own planes of `tmp` and reads only what the prelude finished,
//! so the re-ordering is exact, serial or threaded. Because the boundary
//! spec is rank-local (the decomposition cuts x only), ghost planes evolve
//! identically to the neighbour's owned planes at any ghost depth, under
//! every class.
//!
//! ## AA-pattern storage (`StorageMode::InPlaceAa`)
//!
//! The AA mode replaces the whole double-buffer cycle machinery above with
//! the in-place pair of `lbm_core::kernels::aa`:
//!
//! * **even steps** are purely cell-local (read-local/write-local) and run
//!   on the owned planes only — **no exchange, ever**;
//! * **odd steps** gather-swapped/scatter-swapped over the writer planes
//!   `[own_lo − k, own_hi + k)`, which needs `2k` halo planes of post-even
//!   state: **one halo exchange per two steps**, shipping the
//!   swapped-direction populations the even step just produced, at any
//!   configured ghost depth.
//!
//! The Fig. 7 border-first overlap carries over: under the GC-C schedule
//! the even step computes the owned *border* planes first, posts the sends,
//! and computes the interior while the messages fly; the odd step waits,
//! unpacks and sweeps. Serial and threaded AA sweeps are bitwise identical
//! (the odd step's writer↦slot bijection makes chunked execution
//! conflict-free), so the bitwise serial≡threaded guarantee holds in AA
//! mode too.
//!
//! The solver holds **one** population field in AA mode (no `tmp`), halving
//! resident population memory; see [`RankSolver::resident_population_bytes`].
//!
//! ## Threads (paper §VI-B, Fig. 11)
//!
//! A rank with `threads_per_rank > 1` at `Dh` or above owns a rayon pool and
//! makes every kernel call through `in_pool`. The kernels chunk across the
//! installed pool themselves, so a threaded rank runs the same kernel as a
//! serial rank and its result is bitwise the same.

use std::time::Instant;

use lbm_comm::comm::RecvRequest;
use lbm_comm::Comm;
use lbm_core::boundary::BoundarySpec;
use lbm_core::domain::{Decomp1d, Subdomain};
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::{DistField, StorageMode};
use lbm_core::kernels::{self, KernelClass, KernelCtx, OptLevel, StreamTables, MAX_Q};
use lbm_core::moments::Moments;
use lbm_core::perf::PerfCounters;
use lbm_core::prelude::Bgk;
use lbm_core::{Error, Result};

use crate::config::{CommStrategy, SimConfig};
use crate::halo::{HaloPlan, Side};
use crate::scenario::{ScenarioHandle, TaylorGreen};

/// One rank's solver state.
pub struct RankSolver {
    /// Kernel context (lattice, equilibrium constants, ω).
    pub ctx: KernelCtx,
    /// This rank's subdomain.
    pub sub: Subdomain,
    level: OptLevel,
    strategy: CommStrategy,
    /// Population storage mode (two-grid double buffer vs in-place AA).
    storage: StorageMode,
    /// Lattice reach k.
    k: usize,
    /// Halo width: H = d·k (two-grid) or 2·k (AA).
    h: usize,
    /// Ghost depth d (two-grid exchange cadence; AA ignores it).
    depth: usize,
    f: DistField,
    /// The second (destination) buffer — `None` in AA mode, which is the
    /// storage mode's whole point.
    tmp: Option<DistField>,
    tables: StreamTables,
    pool: Option<rayon::ThreadPool>,
    /// Performance counters (owned vs ghost updates, compute time).
    pub counters: PerfCounters,
    noise: ComputeNoise,
    cycle: u64,
    /// What a cycle (or AA pair) exchange ships: the crossing populations
    /// in two-grid mode, every velocity in AA mode.
    plan: HaloPlan,
    /// The full-width plan of the eager mid-step emulation.
    full: HaloPlan,
    /// Message buffers, one per side: a packed vector is moved into its
    /// send and the vectors received in its place (equally long) are the
    /// next ones packed into.
    bufs: [Vec<f64>; 2],
    pending: Vec<RecvRequest>,
    /// The pluggable scenario (None = periodic Taylor–Green, unforced).
    scenario: Option<ScenarioHandle>,
    /// The scenario's resolved boundary configuration.
    bounds: BoundarySpec,
    /// Time steps completed (drives time-varying forcing).
    step_no: u64,
    /// The halos hold the initial fill (the periodic wrap of the initial
    /// state), so the first cycle needs no exchange. False on a freshly
    /// allocated or restored rank, whose first cycle derives them.
    halos_from_init: bool,
    /// The owned mass the last fused pass of a [`Self::run_folding_mass`]
    /// folded, tagged with the step whose field it is; cleared by every
    /// run and by anything else that writes the field.
    run_mass: Option<(u64, f64)>,
    /// How many passes have folded [`Self::run_mass`] so far.
    mass_folds: u64,
}

/// Tag-space offset for the no-ghost mid-step (scatter) exchange, keeping it
/// disjoint from the cycle-boundary halo exchange tags.
const MIDSTEP_TAG_BASE: u64 = 1 << 40;

impl RankSolver {
    /// Build the solver for `rank` under `cfg` (assumed validated),
    /// initialised from the scenario's initial state — a
    /// [`TaylorGreen`] of amplitude `cfg.init_u0` when none is plugged in.
    pub fn new(cfg: &SimConfig, rank: usize) -> Result<Self> {
        let mut solver = Self::allocate(cfg, rank)?;
        let s = solver
            .scenario
            .clone()
            .unwrap_or_else(|| ScenarioHandle::new(TaylorGreen::new(cfg.init_u0)));
        solver.init_scenario(&s);
        Ok(solver)
    }

    /// The solver for `rank` with every buffer allocated and no population
    /// written: the start of [`Self::new`], and of a restore, whose
    /// snapshot supplies the owned planes.
    pub(crate) fn allocate(cfg: &SimConfig, rank: usize) -> Result<Self> {
        cfg.validate()?;
        let order: EqOrder = cfg.eq_order();
        let ctx = KernelCtx::new(cfg.lattice, order, Bgk::new(cfg.tau)?);
        let k = ctx.lat.reach();
        let h = cfg.halo_width();
        let dec = Decomp1d::new(cfg.global, cfg.ranks)?;
        let sub = dec.subdomain(rank);
        let owned = sub.owned();
        let f = DistField::new(ctx.lat.q(), owned, h)?;
        let tmp = match cfg.storage {
            StorageMode::TwoGrid => Some(DistField::new(ctx.lat.q(), owned, h)?),
            StorageMode::InPlaceAa => None,
        };
        let tables = StreamTables::new(owned.ny, owned.nz);
        // Threads start at the `Dh` rung: the historical `Orig`/`Gc`
        // kernels run as written, on one thread.
        let pool = (cfg.threads_per_rank > 1 && cfg.level >= OptLevel::Dh).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(cfg.threads_per_rank)
                .build()
                .expect("rayon pool")
        });
        let full = HaloPlan::full(ctx.lat.q(), h);
        let plan = match cfg.storage {
            StorageMode::TwoGrid => HaloPlan::crossing(&ctx.lat, h),
            StorageMode::InPlaceAa => full.clone(),
        };
        let scenario = cfg.scenario.clone();
        let bounds = scenario
            .as_ref()
            .map_or_else(BoundarySpec::periodic, |s| s.boundaries(cfg.global));
        Ok(Self {
            ctx,
            sub,
            level: cfg.level,
            strategy: cfg.comm_strategy(),
            storage: cfg.storage,
            k,
            h,
            depth: cfg.ghost_depth,
            f,
            tmp,
            tables,
            pool,
            counters: PerfCounters::new(),
            noise: ComputeNoise::new(cfg, rank),
            cycle: 0,
            plan,
            full,
            bufs: [Vec::new(), Vec::new()],
            pending: Vec::new(),
            scenario,
            bounds,
            step_no: 0,
            halos_from_init: false,
            run_mass: None,
            mass_folds: 0,
        })
    }

    /// Initialise every allocated cell (halos included) to the equilibrium
    /// of the scenario's macroscopic state at its *global* coordinate. The
    /// periodic wrap makes the halos exactly the neighbour's owned values,
    /// so the first cycle needs no exchange — for any scenario, since x is
    /// always the periodic decomposed direction.
    ///
    /// In AA mode the field stores *arrivals* (the pull-stream of the
    /// two-grid state), so each population is initialised to the
    /// equilibrium of its upwind site — which makes the AA trajectory the
    /// exact streamed image of the two-grid trajectory.
    fn init_scenario(&mut self, s: &ScenarioHandle) {
        let g = self.sub.global;
        let sub = self.sub;
        let h = self.h;
        match self.storage {
            StorageMode::TwoGrid => {
                lbm_core::init::from_macroscopic(&self.ctx, &mut self.f, |x, y, z| {
                    s.init(g, sub.global_x(x, h), y, z)
                });
            }
            StorageMode::InPlaceAa => {
                lbm_core::init::from_macroscopic_streamed(
                    &self.ctx,
                    &mut self.f,
                    g,
                    sub.x_start as isize,
                    |gx, gy, gz| s.init(g, gx, gy, gz),
                );
            }
        }
        self.cycle = 0;
        self.step_no = 0;
        self.pending.clear();
        self.halos_from_init = true;
        self.run_mass = None;
    }

    /// Time steps completed since initialisation.
    pub fn steps_done(&self) -> u64 {
        self.step_no
    }

    /// The configured storage mode.
    pub fn storage(&self) -> StorageMode {
        self.storage
    }

    /// Whether the current field stores slot-swapped populations: true
    /// exactly mid-pair in AA mode (after an even step, before the odd
    /// step), where `f[x][i]` holds the post-collision population of the
    /// *opposite* direction. Mass readings are unaffected; directed
    /// quantities (momentum, velocity profiles) flip sign.
    pub fn parity_swapped(&self) -> bool {
        self.storage == StorageMode::InPlaceAa && self.step_no % 2 == 1
    }

    /// Bytes of resident population storage this rank holds (both buffers
    /// in two-grid mode, the single array in AA mode) — the footprint the
    /// AA refactor halves.
    pub fn resident_population_bytes(&self) -> u64 {
        self.f.resident_bytes() + self.tmp.as_ref().map_or(0, DistField::resident_bytes)
    }

    /// The scenario's resolved boundary configuration.
    pub fn bounds(&self) -> &BoundarySpec {
        &self.bounds
    }

    /// Allocated x extent.
    fn alloc_nx(&self) -> usize {
        self.f.alloc_dims().nx
    }

    /// Owned region in allocation coordinates.
    fn owned(&self) -> (usize, usize) {
        (self.h, self.h + self.sub.nx)
    }

    /// Compute region for sub-step `j`.
    fn region(&self, j: usize) -> (usize, usize) {
        let lo = (j + 1) * self.k;
        let hi = self.alloc_nx() - (j + 1) * self.k;
        (lo, hi)
    }

    /// Message tags for the exchange consumed at the start of `cycle`:
    /// `(to_left, to_right)`.
    fn tags(cycle: u64) -> (u64, u64) {
        (cycle * 2, cycle * 2 + 1)
    }

    /// Run `steps` time steps.
    pub fn run(&mut self, comm: &mut Comm, steps: usize) {
        self.run_steps(comm, steps, false);
    }

    /// [`Self::run`], whose last step also folds the owned mass for
    /// [`Self::global_mass`] where it is one serial fused vector pass over
    /// the owned planes in ascending x. That leaves out a rank with a thread
    /// pool, the GC-C border-first order, and the AA, split and scalar
    /// paths; there `global_mass` reads the field.
    pub fn run_folding_mass(&mut self, comm: &mut Comm, steps: usize) {
        self.run_steps(comm, steps, true);
    }

    fn run_steps(&mut self, comm: &mut Comm, steps: usize, fold: bool) {
        self.run_mass = None;
        match self.storage {
            StorageMode::TwoGrid => self.run_two_grid(comm, steps, fold),
            StorageMode::InPlaceAa => self.run_aa(comm, steps),
        }
    }

    /// The two-grid deep-halo cycle loop (see module docs); with `fold`, the
    /// run's last substep may fold the owned mass.
    fn run_two_grid(&mut self, comm: &mut Comm, steps: usize, fold: bool) {
        let mut done = 0;
        while done < steps {
            let in_cycle = self.depth.min(steps - done);
            let last_cycle = done + in_cycle == steps;
            self.begin_cycle(comm);
            for j in 0..in_cycle {
                self.substep(comm, j, in_cycle, fold && last_cycle && j + 1 == in_cycle);
            }
            self.end_cycle(comm);
            self.cycle += 1;
            done += in_cycle;
        }
    }

    /// The AA-pattern step loop: alternating local even steps and
    /// exchange-then-sweep odd steps, resuming mid-pair when the step
    /// count is odd.
    fn run_aa(&mut self, comm: &mut Comm, steps: usize) {
        for s in 0..steps {
            let t0 = Instant::now();
            let ghost_planes = if self.step_no.is_multiple_of(2) {
                // Post-ahead only pays off when this run still executes the
                // pair's odd step; otherwise leave the exchange to the odd
                // step's just-in-time path (next `run` call, if any) so a
                // run ending mid-pair never strands posted requests.
                self.aa_even_step(comm, s + 1 < steps);
                0
            } else {
                self.aa_odd_step(comm)
            };
            let key = self.step_no;
            self.step_no += 1;
            if self.step_no.is_multiple_of(2) {
                self.cycle += 1; // one completed pair
            }
            let plane = self.f.alloc_dims().plane() as u64;
            let (owned, ghost) = (self.sub.nx as u64 * plane, ghost_planes as u64 * plane);
            self.noise
                .finish_step(&mut self.counters, t0, key, owned, ghost);
        }
    }

    /// AA even step: in-place local collide over the owned planes. Under
    /// the ghost schedules the halo sends for the upcoming odd step are
    /// posted here (when that odd step runs in this `run` call) — border
    /// planes first under GC-C, so the interior compute overlaps the
    /// messages in flight (Fig. 7, re-ordered around the pair).
    fn aa_even_step(&mut self, comm: &mut Comm, post_ahead: bool) {
        let (own_lo, own_hi) = self.owned();
        let g = body_force(self.scenario.as_ref(), self.step_no);
        let multi = self.sub.ranks > 1 && post_ahead;
        match self.strategy {
            CommStrategy::OverlapGhostCollide if multi => {
                let update = |s: &mut Self, lo, hi| s.aa_even(lo, hi, g);
                self.border_first(comm, (own_lo, own_hi), update, Self::aa_post_border_sends);
            }
            CommStrategy::NonBlockingGhost if multi => {
                self.aa_even(own_lo, own_hi, g);
                self.aa_post_border_sends(comm);
            }
            _ => self.aa_even(own_lo, own_hi, g),
        }
    }

    /// AA odd step. Decomposed ranks complete the pair's halo exchange
    /// (post-even swapped borders, `2k` planes per side), then
    /// gather/collide/scatter over the writer planes
    /// `[own_lo − k, own_hi + k)` — the `2k` ghost writer planes are the
    /// (counted) duplicate compute that buys the once-per-pair exchange
    /// cadence. A single rank owns the whole periodic axis, so it wraps the
    /// sweep's x-shift instead: no halo fill, no ghost writer planes, and
    /// bitwise-identical owned state (see [`lbm_core::kernels::aa::XShift`]).
    /// Returns the ghost writer planes computed (the duplicate-work count
    /// fed to the throughput counters).
    fn aa_odd_step(&mut self, comm: &mut Comm) -> usize {
        let (own_lo, own_hi) = self.owned();
        let g = body_force(self.scenario.as_ref(), self.step_no);
        if self.sub.ranks == 1 {
            self.aa_odd(own_lo, own_hi, g);
            return 0;
        }
        // Under the ghost schedules the exchange was normally posted during
        // the even step; when the previous `run` call ended on that even
        // step nothing was posted (no stranded requests) and it happens
        // just in time here.
        self.exchange(comm, Self::tags(self.step_no / 2));
        self.aa_odd(own_lo - self.k, own_hi + self.k, g);
        2 * self.k
    }

    /// Pack the post-even borders of the single AA field, post the
    /// nonblocking sends for this pair's odd step, and post the receives.
    fn aa_post_border_sends(&mut self, comm: &mut Comm) {
        let tags = Self::tags(self.step_no / 2);
        self.pending = post_exchange(&self.plan, &mut self.bufs, &self.f, &self.sub, comm, tags);
    }

    /// In-place AA even sweep over `x ∈ [lo, hi)` at this rank's rung
    /// (threaded like every kernel call, see [`in_pool`]).
    fn aa_even(&mut self, lo: usize, hi: usize, g: [f64; 3]) {
        if lo >= hi {
            return;
        }
        in_pool(self.pool.as_ref(), || {
            kernels::aa_even_scenario(self.level, &self.ctx, &mut self.f, lo, hi, g, &self.bounds)
        });
    }

    /// In-place AA odd sweep over writer planes `x ∈ [lo, hi)`. A single
    /// rank wraps the x-shift inside the range, so no ghost plane is read or
    /// written; decomposed ranks shift into the halo margin.
    fn aa_odd(&mut self, lo: usize, hi: usize, g: [f64; 3]) {
        let sweep = if self.sub.ranks == 1 {
            kernels::aa_odd_scenario_periodic
        } else {
            kernels::aa_odd_scenario
        };
        in_pool(self.pool.as_ref(), || {
            sweep(
                self.level,
                &self.ctx,
                &self.tables,
                &mut self.f,
                lo,
                hi,
                g,
                &self.bounds,
            )
        });
    }

    fn begin_cycle(&mut self, comm: &mut Comm) {
        if self.cycle == 0 && self.halos_from_init {
            return; // halos valid from initialisation
        }
        if self.sub.ranks == 1 {
            self.plan.fill_self(&mut self.f);
            return;
        }
        // Under the ghost schedules the sends were posted at the end of the
        // previous cycle — except on the first cycle after a checkpoint
        // restore (cycle 0 included), where nothing is in flight (restores
        // never strand posted requests) and the exchange happens just in
        // time: `f` has not changed since the previous cycle's sends would
        // have packed it, so the payload is bitwise the one the pre-posted
        // schedule carries.
        self.exchange(comm, Self::tags(self.cycle));
    }

    /// Complete the halo exchange tagged `tags` into `f`: post it now from
    /// the current borders of `f` unless a ghost schedule already did, wait,
    /// unpack. [`CommStrategy::Blocking`] completes the receives one link at
    /// a time (the naive sum-of-delays pattern), every other schedule with
    /// one waitall — for [`CommStrategy::NonBlockingEager`] immediately
    /// after posting: zero overlap. The received vectors become the next
    /// send buffers.
    fn exchange(&mut self, comm: &mut Comm, tags: (u64, u64)) {
        if self.pending.is_empty() {
            self.pending =
                post_exchange(&self.plan, &mut self.bufs, &self.f, &self.sub, comm, tags);
        }
        let reqs = std::mem::take(&mut self.pending);
        debug_assert_eq!(reqs.len(), 2, "an exchange posts one receive per side");
        let msgs = if self.strategy == CommStrategy::Blocking {
            reqs.into_iter()
                .map(|req| comm.wait(req).expect("recv"))
                .collect()
        } else {
            comm.waitall(reqs).expect("waitall")
        };
        unpack_exchange(&self.plan, &mut self.bufs, &mut self.f, msgs);
    }

    fn end_cycle(&mut self, comm: &mut Comm) {
        if self.sub.ranks == 1 {
            return;
        }
        match self.strategy {
            CommStrategy::Blocking | CommStrategy::NonBlockingEager => {}
            CommStrategy::NonBlockingGhost => {
                // Post sends and receives for the next cycle now; the gap to
                // the next cycle's waitall is the (limited) overlap window.
                let tags = Self::tags(self.cycle + 1);
                self.pending =
                    post_exchange(&self.plan, &mut self.bufs, &self.f, &self.sub, comm, tags);
            }
            CommStrategy::OverlapGhostCollide => {
                // Sends already posted inside the last sub-step; receives too.
                debug_assert_eq!(self.pending.len(), 2);
            }
        }
    }

    /// GC-C send posting: pack the freshly-updated borders of `tmp`, post
    /// the nonblocking sends for the next cycle, and post the receives.
    fn post_border_sends(&mut self, comm: &mut Comm) {
        let tags = Self::tags(self.cycle + 1);
        let tmp = self.tmp.as_ref().expect("two-grid destination buffer");
        self.pending = post_exchange(&self.plan, &mut self.bufs, tmp, &self.sub, comm, tags);
    }

    /// The no-ghost-cells mid-step exchange (paper's bare NB-C): in push
    /// form the collide depends on the neighbours' *stream* output of this
    /// very step, so the exchange sits mid-step with zero overlap window.
    /// We exchange the current full-width `tmp` borders and wait
    /// immediately — the unhideable stall that the GC rungs remove.
    fn midstep_exchange(&mut self, comm: &mut Comm, j: usize) {
        let step_tag = MIDSTEP_TAG_BASE + self.cycle * 64 + j as u64;
        let tags = (step_tag, step_tag + 32);
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        let reqs = post_exchange(&self.full, &mut self.bufs, tmp, &self.sub, comm, tags);
        let msgs = comm.waitall(reqs).expect("waitall");
        unpack_exchange(&self.full, &mut self.bufs, tmp, msgs);
    }

    /// The owned-region border split used by the Fig. 7 overlap:
    /// `(left border, right border)` in allocation coordinates.
    fn overlap_borders(&self) -> ((usize, usize), (usize, usize)) {
        let (own_lo, own_hi) = self.owned();
        let b = self.h.min((own_hi - own_lo).div_ceil(2));
        ((own_lo, own_lo + b), ((own_hi - b).max(own_lo + b), own_hi))
    }

    /// The Fig. 7 border-first order of one update over `[lo, hi)` (which
    /// contains the owned planes): the left and right owned border planes,
    /// then `post` the sends they feed, then the ghost planes left of the
    /// owned region, the interior and the ghost planes right of it while
    /// the messages fly. Empty pieces are no-ops of `update`.
    fn border_first(
        &mut self,
        comm: &mut Comm,
        (lo, hi): (usize, usize),
        update: impl Fn(&mut Self, usize, usize),
        post: fn(&mut Self, &mut Comm),
    ) {
        let (own_lo, own_hi) = self.owned();
        let (left, right) = self.overlap_borders();
        update(self, left.0, left.1);
        update(self, right.0, right.1);
        post(self, comm);
        update(self, lo, own_lo);
        update(self, left.1, right.0);
        update(self, own_hi, hi);
    }

    /// One two-grid step over sub-step `j`'s region (see module docs): the
    /// split prelude on the split rungs, then this class's update,
    /// border-first on the last sub-step of a GC-C cycle. With `fold` and a
    /// fused vector pass that one serial call makes (no pool, no GC-C
    /// overlap), the pass also folds the owned mass into [`Self::run_mass`].
    fn substep(&mut self, comm: &mut Comm, j: usize, in_cycle: usize, fold: bool) {
        let t0 = Instant::now();
        let (lo, hi) = self.region(j);
        let multi = self.sub.ranks > 1;
        let overlap_now =
            self.strategy == CommStrategy::OverlapGhostCollide && j + 1 == in_cycle && multi;
        let eager = self.strategy == CommStrategy::NonBlockingEager && multi;
        let fused = self.level.kernel_class() == KernelClass::Fused;
        let g = body_force(self.scenario.as_ref(), self.step_no);
        let update: fn(&mut Self, usize, usize, [f64; 3]) = if fused {
            Self::fused_scenario
        } else if self.bounds.is_periodic() && g == [0.0; 3] {
            |s, lo, hi, _| s.collide(lo, hi)
        } else {
            Self::collide_scenario
        };

        if !fused {
            self.stream(lo, hi);
            if eager {
                self.midstep_exchange(comm, j);
            }
            let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
            self.bounds.apply(&self.ctx, tmp, lo, hi);
        }
        let mut folded = None;
        if overlap_now {
            let update = |s: &mut Self, lo, hi| update(s, lo, hi, g);
            self.border_first(comm, (lo, hi), update, Self::post_border_sends);
        } else if fold && fused && self.pool.is_none() {
            folded = self.fused_folding_mass(lo, hi, g);
        } else {
            update(self, lo, hi, g);
        }
        if fused && eager {
            self.midstep_exchange(comm, j);
        }

        std::mem::swap(
            &mut self.f,
            self.tmp.as_mut().expect("two-grid destination buffer"),
        );
        self.step_no += 1;
        if let Some(mass) = folded {
            self.run_mass = Some((self.step_no, mass));
            self.mass_folds += 1;
        }

        let plane = self.f.alloc_dims().plane() as u64;
        let owned = self.sub.nx as u64 * plane;
        let ghost = (hi - lo - self.sub.nx) as u64 * plane;
        let key = self.cycle * 64 + j as u64;
        self.noise
            .finish_step(&mut self.counters, t0, key, owned, ghost);
    }

    fn stream(&mut self, lo: usize, hi: usize) {
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        in_pool(self.pool.as_ref(), || {
            kernels::stream(self.level, &self.ctx, &self.tables, &self.f, tmp, lo, hi)
        });
    }

    fn collide(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        in_pool(self.pool.as_ref(), || {
            kernels::collide(self.level, &self.ctx, tmp, lo, hi)
        });
    }

    /// Scenario collide: BGK + Guo forcing over the fluid cells of
    /// `x ∈ [lo, hi)` (wall rows and masked cells skipped), running the
    /// rung's kernel class (scalar below `Simd`, AVX2+FMA at `Simd` and
    /// above).
    fn collide_scenario(&mut self, lo: usize, hi: usize, g: [f64; 3]) {
        if lo >= hi {
            return;
        }
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        in_pool(self.pool.as_ref(), || {
            kernels::collide_scenario(self.level, &self.ctx, tmp, lo, hi, g, &self.bounds)
        });
    }

    /// One boundary-aware fused pass `tmp ← boundary+collide(pull(f))` over
    /// `x ∈ [lo, hi)`.
    fn fused_scenario(&mut self, lo: usize, hi: usize, g: [f64; 3]) {
        if lo >= hi {
            return;
        }
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        in_pool(self.pool.as_ref(), || {
            kernels::stream_collide_scenario(
                &self.ctx,
                &self.tables,
                &self.f,
                tmp,
                lo,
                hi,
                g,
                &self.bounds,
            )
        });
    }

    /// One serial boundary-aware fused pass over `x ∈ [lo, hi)` (see
    /// [`Self::fused_scenario`]) that also returns the owned mass of the
    /// field it writes, or `None` where the kernel could not fold it.
    fn fused_folding_mass(&mut self, lo: usize, hi: usize, g: [f64; 3]) -> Option<f64> {
        let tmp = self.tmp.as_mut().expect("two-grid destination buffer");
        kernels::stream_collide_scenario_mass(
            &self.ctx,
            &self.tables,
            &self.f,
            tmp,
            lo,
            hi,
            g,
            &self.bounds,
        )
    }

    /// Owned-region mass summed across ranks with a one-value allreduce.
    /// This rank's share is the mass the last pass of a
    /// [`Self::run_folding_mass`] folded, while it belongs to the current
    /// step; otherwise one streaming pass over the owned planes
    /// ([`DistField::owned_mass`]), whose bits the fold has. Bitwise
    /// `global_invariants(comm).0`, without the per-cell moments.
    pub fn global_mass(&self, comm: &mut Comm) -> f64 {
        let local = match self.run_mass {
            Some((step, mass)) if step == self.step_no => mass,
            _ => self.f.owned_mass(),
        };
        comm.allreduce_sum(&[local])[0]
    }

    /// How many fused passes have folded the owned mass for
    /// [`Self::global_mass`] (test aid: shows the fold ran).
    pub(crate) fn mass_folds(&self) -> u64 {
        self.mass_folds
    }

    /// Owned-region mass and momentum, summed across ranks.
    pub fn global_invariants(&self, comm: &mut Comm) -> (f64, [f64; 3]) {
        let (mass, mom) = self.local_invariants();
        let v = comm.allreduce_sum(&[mass, mom[0], mom[1], mom[2]]);
        (v[0], [v[1], v[2], v[3]])
    }

    /// Owned-region mass and momentum on this rank. Mid-pair AA states
    /// store slot-swapped populations (see [`Self::parity_swapped`]); the
    /// momentum sign is corrected here so the reading is always the
    /// physical one.
    pub fn local_invariants(&self) -> (f64, [f64; 3]) {
        let d = self.f.alloc_dims();
        let q = self.ctx.lat.q();
        let (lo, hi) = self.owned();
        let mut cell = [0.0f64; MAX_Q];
        let mut mass = 0.0;
        let mut mom = [0.0f64; 3];
        for x in lo..hi {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    let lin = d.idx(x, y, z);
                    self.f.gather_cell(lin, &mut cell[..q]);
                    let m = Moments::of_cell(&self.ctx.lat, &cell[..q]);
                    mass += m.rho;
                    for a in 0..3 {
                        mom[a] += m.rho * m.u[a];
                    }
                }
            }
        }
        if self.parity_swapped() {
            // Slot-swapped storage: Σ c_i f_{opp(i)} = −Σ c_i f_i.
            for a in &mut mom {
                *a = -*a;
            }
        }
        (mass, mom)
    }

    /// Copy of the owned planes (halo-free), for cross-run comparisons.
    pub fn owned_snapshot(&self) -> DistField {
        let mut out =
            DistField::new(self.ctx.lat.q(), self.sub.owned(), 0).expect("snapshot alloc");
        let own = self.owned_range();
        for i in 0..self.ctx.lat.q() {
            out.slab_mut(i)
                .copy_from_slice(&self.f.slab(i)[own.clone()]);
        }
        out
    }

    /// The owned planes' span inside a slab of `f`: x-major storage makes
    /// them one contiguous run.
    fn owned_range(&self) -> std::ops::Range<usize> {
        let d = self.f.alloc_dims();
        let (lo, hi) = self.owned();
        d.idx(lo, 0, 0)..d.idx(hi, 0, 0)
    }

    /// Restore this rank from a checkpointed owned snapshot: overwrite the
    /// owned planes with `snap` (halo-free, bitwise) and fast-forward the
    /// step/cycle counters. Pending receives are cleared — the first cycle
    /// (or odd AA step) after a restore derives the halos just in time (a
    /// self-fill on one rank, an exchange on several), which the deep-halo
    /// invariant makes bitwise-equivalent to the uninterrupted schedule.
    pub fn restore_owned(&mut self, snap: &DistField, step_no: u64, cycle: u64) -> Result<()> {
        let owned = self.sub.owned();
        if snap.q() != self.ctx.lat.q() || snap.owned_dims() != owned || snap.halo() != 0 {
            return Err(Error::Mismatch(format!(
                "snapshot shape {}×{:?} (halo {}) does not fit rank {}: want {}×{:?} halo 0",
                snap.q(),
                snap.owned_dims(),
                snap.halo(),
                self.sub.rank,
                self.ctx.lat.q(),
                owned,
            )));
        }
        let own = self.owned_range();
        for i in 0..self.ctx.lat.q() {
            self.f.slab_mut(i)[own.clone()].copy_from_slice(snap.slab(i));
        }
        self.step_no = step_no;
        self.cycle = cycle;
        self.pending.clear();
        self.halos_from_init = false;
        self.run_mass = None;
        self.reset_counters();
        Ok(())
    }

    /// Completed exchange cycles (checkpointed alongside
    /// [`Self::steps_done`] so a restore resumes the tag sequence).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Reset the performance counters (after warmup).
    pub fn reset_counters(&mut self) {
        self.counters = PerfCounters::new();
    }

    /// The current field (owned + halos) — test/diagnostic access.
    pub fn field(&self) -> &DistField {
        &self.f
    }

    /// Mutable field access for the fault-injection harness.
    pub(crate) fn field_mut(&mut self) -> &mut DistField {
        self.run_mass = None;
        &mut self.f
    }
}

/// Post one halo exchange: pack both borders of `src` by `plan`, hand each
/// packed vector to its nonblocking send by move, and post the two receives
/// `[from left, from right]`. `tags` are `(to_left, to_right)`: my left halo
/// comes from my left neighbour's `to_right` send.
fn post_exchange(
    plan: &HaloPlan,
    bufs: &mut [Vec<f64>; 2],
    src: &DistField,
    sub: &Subdomain,
    comm: &mut Comm,
    (to_left, to_right): (u64, u64),
) -> Vec<RecvRequest> {
    let (left, right) = (sub.left(), sub.right());
    for ((side, dst, tag), buf) in [(Side::Left, left, to_left), (Side::Right, right, to_right)]
        .into_iter()
        .zip(bufs)
    {
        plan.pack(src, side, buf);
        let _ = comm.isend(dst, tag, std::mem::take(buf)).expect("isend");
    }
    vec![
        comm.irecv(left, to_right).expect("irecv"),
        comm.irecv(right, to_left).expect("irecv"),
    ]
}

/// Unpack the messages `[from left, from right]` of a completed exchange
/// into the halos of `dst`; the vectors become the next send buffers (the
/// two directions of a plan are equally long).
fn unpack_exchange(
    plan: &HaloPlan,
    bufs: &mut [Vec<f64>; 2],
    dst: &mut DistField,
    msgs: Vec<Vec<f64>>,
) {
    for ((side, msg), buf) in [Side::Left, Side::Right].into_iter().zip(msgs).zip(bufs) {
        plan.unpack(dst, side, &msg);
        *buf = msg;
    }
}

/// Run `work` — one serial kernel call — across `pool` when the rank has
/// one. Every kernel entry point chunks across the installed pool and is one
/// plain call outside one (bit-identical either way), so this is the only
/// place a rank's threading is decided; the rank decides whether to build a
/// pool at all.
pub(crate) fn in_pool<R>(pool: Option<&rayon::ThreadPool>, work: impl FnOnce() -> R) -> R {
    match pool {
        Some(p) => p.install(work),
        None => work(),
    }
}

/// The body force of `scenario` at step `step_no` (zero without a scenario
/// or forcing).
pub(crate) fn body_force(scenario: Option<&ScenarioHandle>, step_no: u64) -> [f64; 3] {
    scenario
        .and_then(|s| s.forcing(step_no))
        .map_or([0.0; 3], |b| b.g)
}

/// One rank's emulated compute noise: each step's time is stretched by a
/// deterministic jitter share and a skew that grows linearly with the rank.
#[derive(Clone, Copy)]
pub(crate) struct ComputeNoise {
    rank: u64,
    jitter: f64,
    skew: f64,
}

impl ComputeNoise {
    pub(crate) fn new(cfg: &SimConfig, rank: usize) -> Self {
        let skew = if cfg.ranks > 1 {
            cfg.compute_skew * rank as f64 / (cfg.ranks - 1) as f64
        } else {
            0.0
        };
        Self {
            rank: rank as u64,
            jitter: cfg.compute_jitter,
            skew,
        }
    }

    /// End the step begun at `t0`: spin for its noise share (jitter keyed
    /// by `key`) and record `owned` and `ghost` updates over the stretched
    /// time.
    pub(crate) fn finish_step(
        self,
        counters: &mut PerfCounters,
        t0: Instant,
        key: u64,
        owned: u64,
        ghost: u64,
    ) {
        let mut dt = t0.elapsed();
        if self.jitter > 0.0 || self.skew > 0.0 {
            let extra = dt.mul_f64(self.jitter * jitter_u01(self.rank, key) + self.skew);
            let deadline = Instant::now() + extra;
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            dt += extra;
        }
        counters.record(owned, ghost, dt);
    }
}

/// Deterministic `[0,1)` hash noise for compute jitter.
fn jitter_u01(rank: u64, step: u64) -> f64 {
    let mut x = rank
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(step)
        .wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_comm::{CostModel, Universe};
    use lbm_core::index::Dim3;
    use lbm_core::lattice::LatticeKind;

    use crate::simulation::Simulation;

    /// Reference: run the same problem on one rank with the reference
    /// kernels (global periodic push-stream).
    fn reference_run(cfg: &SimConfig, steps: usize) -> DistField {
        let ctx = KernelCtx::new(cfg.lattice, cfg.eq_order(), Bgk::new(cfg.tau).unwrap());
        let mut f = DistField::new(ctx.lat.q(), cfg.global, 0).unwrap();
        lbm_core::init::taylor_green(
            &ctx,
            &mut f,
            1.0,
            cfg.init_u0,
            cfg.global.nx,
            cfg.global.ny,
            0,
            0,
        );
        let mut tmp = f.clone();
        for _ in 0..steps {
            lbm_core::kernels::reference::step_periodic(&ctx, &mut f, &mut tmp);
        }
        f
    }

    fn distributed_owned(cfg: &SimConfig, steps: usize) -> Vec<DistField> {
        Universe::run(cfg.ranks, cfg.cost.clone(), |comm| {
            let mut s = RankSolver::new(cfg, comm.rank()).unwrap();
            s.run(comm, steps);
            s.owned_snapshot()
        })
    }

    fn compare_to_reference(cfg: &SimConfig, steps: usize, tol: f64) {
        let reference = reference_run(cfg, steps);
        let snaps = distributed_owned(cfg, steps);
        let dref = reference.alloc_dims();
        let mut x0 = 0usize;
        let mut max_diff: f64 = 0.0;
        for snap in snaps {
            let ds = snap.alloc_dims();
            for i in 0..snap.q() {
                for x in 0..ds.nx {
                    let a = dref.idx(x0 + x, 0, 0);
                    let b = ds.idx(x, 0, 0);
                    for p in 0..dref.plane() {
                        max_diff =
                            max_diff.max((reference.slab(i)[a + p] - snap.slab(i)[b + p]).abs());
                    }
                }
            }
            x0 += ds.nx;
        }
        assert!(
            max_diff <= tol,
            "distributed differs from reference by {max_diff} (cfg: {:?} ranks={} depth={} level={:?} strat={:?})",
            cfg.lattice, cfg.ranks, cfg.ghost_depth, cfg.level, cfg.comm_strategy()
        );
    }

    #[test]
    fn single_rank_matches_reference_q19() {
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .level(OptLevel::Gc)
            .build_config()
            .unwrap();
        compare_to_reference(&cfg, 5, 1e-13);
    }

    #[test]
    fn multi_rank_matches_reference_q19_all_strategies() {
        for strategy in [
            CommStrategy::Blocking,
            CommStrategy::NonBlockingEager,
            CommStrategy::NonBlockingGhost,
            CommStrategy::OverlapGhostCollide,
        ] {
            let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
                .ranks(3)
                .level(OptLevel::LoBr)
                .strategy(strategy)
                .build_config()
                .unwrap();
            compare_to_reference(&cfg, 6, 1e-12);
        }
    }

    #[test]
    fn deep_halo_matches_reference_q19() {
        for depth in [1usize, 2, 3] {
            let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
                .ranks(2)
                .ghost_depth(depth)
                .level(OptLevel::Cf)
                .strategy(CommStrategy::NonBlockingGhost)
                .build_config()
                .unwrap();
            compare_to_reference(&cfg, 7, 1e-12);
        }
    }

    #[test]
    fn deep_halo_matches_reference_q39() {
        // k = 3: depth 2 means 6-plane halos.
        for depth in [1usize, 2] {
            let cfg = Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 8, 8))
                .ranks(2)
                .ghost_depth(depth)
                .level(OptLevel::Simd)
                .strategy(CommStrategy::OverlapGhostCollide)
                .build_config()
                .unwrap();
            compare_to_reference(&cfg, 5, 1e-11);
        }
    }

    #[test]
    fn orig_level_matches_reference_multirank() {
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .ranks(4)
            .level(OptLevel::Orig)
            .build_config()
            .unwrap();
        compare_to_reference(&cfg, 4, 1e-12);
    }

    #[test]
    fn fused_rung_matches_reference_q19_all_strategies() {
        for strategy in [
            CommStrategy::Blocking,
            CommStrategy::NonBlockingEager,
            CommStrategy::NonBlockingGhost,
            CommStrategy::OverlapGhostCollide,
        ] {
            let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
                .ranks(3)
                .level(OptLevel::Fused)
                .strategy(strategy)
                .build_config()
                .unwrap();
            compare_to_reference(&cfg, 6, 1e-12);
        }
    }

    #[test]
    fn fused_deep_halo_matches_reference_q39() {
        // k = 3: the fused kernel must honour the shrinking deep-halo
        // regions and the Fig. 7 overlap split.
        for depth in [1usize, 2] {
            let cfg = Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 8, 8))
                .ranks(2)
                .ghost_depth(depth)
                .level(OptLevel::Fused)
                .build_config()
                .unwrap();
            compare_to_reference(&cfg, 5, 1e-11);
        }
    }

    #[test]
    fn fused_hybrid_threads_match_reference() {
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .ranks(2)
            .threads(3)
            .level(OptLevel::Fused)
            .build_config()
            .unwrap();
        compare_to_reference(&cfg, 5, 1e-11);
    }

    #[test]
    fn fused_threads_are_bitwise_identical_to_serial_fused() {
        // A threaded rank runs the same kernel as a serial rank, chunked, so
        // rank-local threading must not change a single bit — on the fused
        // rung and on every split rung that threads.
        for level in [
            OptLevel::Dh,
            OptLevel::LoBr,
            OptLevel::Simd,
            OptLevel::Fused,
        ] {
            let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
                .ranks(2)
                .level(level);
            let serial = distributed_owned(&base.clone().threads(1).build_config().unwrap(), 6);
            let threaded = distributed_owned(&base.threads(4).build_config().unwrap(), 6);
            for (a, b) in serial.iter().zip(&threaded) {
                assert_eq!(a.max_abs_diff_owned(b), 0.0, "{}", level.name());
            }
        }
        // D3Q39 (third order by default) through the streamed copy-out: with
        // odd nz the rows are unaligned, and a 7·13-cell plane is not a whole
        // number of cache lines, so chunk edges split lines between threads.
        let base = Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 7, 13))
            .ranks(2)
            .level(OptLevel::Fused);
        let serial = distributed_owned(&base.clone().threads(1).build_config().unwrap(), 4);
        let threaded = distributed_owned(&base.threads(4).build_config().unwrap(), 4);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.max_abs_diff_owned(b), 0.0, "D3Q39 Fused");
        }
    }

    #[test]
    fn hybrid_threads_match_reference() {
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .ranks(2)
            .threads(3)
            .level(OptLevel::Simd)
            .strategy(CommStrategy::OverlapGhostCollide)
            .build_config()
            .unwrap();
        compare_to_reference(&cfg, 5, 1e-11);
    }

    #[test]
    fn rank_count_invariance_is_bitwise_per_level() {
        // The same kernel class must produce identical owned fields
        // regardless of decomposition (1 vs 4 ranks).
        let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .level(OptLevel::LoBr)
            .strategy(CommStrategy::NonBlockingGhost);
        let single = distributed_owned(&base.clone().ranks(1).build_config().unwrap(), 6);
        let multi = distributed_owned(&base.ranks(4).build_config().unwrap(), 6);
        let whole = &single[0];
        let dw = whole.alloc_dims();
        let mut x0 = 0;
        for part in multi {
            let dp = part.alloc_dims();
            for i in 0..part.q() {
                for x in 0..dp.nx {
                    let a = dw.idx(x0 + x, 0, 0);
                    let b = dp.idx(x, 0, 0);
                    assert_eq!(
                        &whole.slab(i)[a..a + dw.plane()],
                        &part.slab(i)[b..b + dp.plane()],
                        "slab {i} plane {x}"
                    );
                }
            }
            x0 += dp.nx;
        }
    }

    /// NaN every `(velocity, plane)` halo slot of the current field that
    /// the solver's exchange plan does not ship.
    fn poison_outside_plan(s: &mut RankSolver) {
        let (h, plan) = (s.h, s.plan.clone());
        let f = s.field_mut();
        let d = f.alloc_dims();
        for (side, x0) in [(Side::Left, 0), (Side::Right, d.nx - h)] {
            for i in 0..f.q() {
                for p in (0..h).filter(|&p| !plan.ships(side, i, p)) {
                    let b = d.idx(x0 + p, 0, 0);
                    f.slab_mut(i)[b..b + d.plane()].fill(f64::NAN);
                }
            }
        }
    }

    #[test]
    fn nothing_outside_the_halo_plan_is_read() {
        // Re-poisoning every non-plan halo slot before each cycle must not
        // change a bit: 1 rank (plan-driven self fill) and 2 ranks (every
        // schedule) against the undisturbed 1-rank run. One exception: the
        // eager mid-step exchange at depth > 1 replaces cycle 0's
        // trig-initialised wrap-around ghost planes by the neighbour's owned
        // values, an ulp apart, so there the reference is the undisturbed
        // run of the same configuration.
        for kind in [
            LatticeKind::D3Q15,
            LatticeKind::D3Q19,
            LatticeKind::D3Q27,
            LatticeKind::D3Q39,
        ] {
            let global = Dim3::new(24, 8, 8);
            let cycles = 3;
            for depth in [1usize, 2] {
                let base = Simulation::builder(kind, global)
                    .level(OptLevel::LoBr)
                    .ghost_depth(depth);
                let steps = cycles * depth;
                let clean = distributed_owned(&base.clone().build_config().unwrap(), steps);
                for (ranks, strategy) in [
                    (1, CommStrategy::Blocking),
                    (2, CommStrategy::Blocking),
                    (2, CommStrategy::NonBlockingEager),
                    (2, CommStrategy::NonBlockingGhost),
                    (2, CommStrategy::OverlapGhostCollide),
                ] {
                    let cfg = base
                        .clone()
                        .ranks(ranks)
                        .strategy(strategy)
                        .build_config()
                        .unwrap();
                    let poisoned = Universe::run(cfg.ranks, cfg.cost.clone(), |comm| {
                        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
                        for _ in 0..cycles {
                            poison_outside_plan(&mut s);
                            s.run(comm, depth);
                        }
                        s.owned_snapshot()
                    });
                    let poisoned = assemble_global(&poisoned, global);
                    let reference = if strategy == CommStrategy::NonBlockingEager && depth > 1 {
                        assemble_global(&distributed_owned(&cfg, steps), global)
                    } else {
                        clean[0].clone()
                    };
                    // Bit patterns, not `max_abs_diff_owned`: `f64::max`
                    // drops a NaN.
                    let bits = |f: &DistField| -> Vec<u64> {
                        f.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert!(
                        bits(&poisoned) == bits(&reference),
                        "{kind:?} depth {depth} ranks {ranks} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn global_mass_is_bitwise_the_moments_sweep() {
        use crate::scenario::{KnudsenMicrochannel, LidDrivenCavity};
        use lbm_core::field::StorageMode::{InPlaceAa, TwoGrid};
        // Owned boxes of 210 cells (under one 512-cell block) up to several
        // blocks with a partial last one; halos of 1–6 planes outside the
        // summed range; mid-pair AA states after 1 and 7 steps.
        let cases = [
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(6, 5, 7)),
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 9, 70))
                .ranks(3)
                .ghost_depth(2),
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 9, 70))
                .ranks(2)
                .storage(InPlaceAa),
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 16, 16))
                .ranks(2)
                .scenario(LidDrivenCavity::new(100.0))
                .storage(InPlaceAa),
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 16, 16))
                .scenario(LidDrivenCavity::new(100.0))
                .storage(TwoGrid),
            Simulation::builder(LatticeKind::D3Q39, Dim3::new(18, 8, 10))
                .ranks(3)
                .scenario(KnudsenMicrochannel::new(0.1))
                .storage(InPlaceAa)
                .level(OptLevel::Simd),
            Simulation::builder(LatticeKind::D3Q39, Dim3::new(24, 7, 11))
                .ranks(2)
                .ghost_depth(2)
                .level(OptLevel::Simd),
        ];
        for b in cases {
            let cfg = b.build_config().unwrap();
            Universe::run(cfg.ranks, CostModel::free(), |comm| {
                let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
                for n in [1, 1, 5] {
                    s.run(comm, n);
                    let what = format!("{cfg:?} after {} steps", s.steps_done());
                    let (local, _) = s.local_invariants();
                    assert_eq!(s.f.owned_mass().to_bits(), local.to_bits(), "{what}");
                    let (global, _) = s.global_invariants(comm);
                    assert_eq!(s.global_mass(comm).to_bits(), global.to_bits(), "{what}");
                }
            });
        }
    }

    #[test]
    fn invariants_conserved_across_run() {
        let cfg = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8))
            .ranks(2)
            .ghost_depth(1)
            .level(OptLevel::Simd)
            .build_config()
            .unwrap();
        let out = Universe::run(cfg.ranks, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            let before = s.global_invariants(comm);
            s.run(comm, 8);
            let after = s.global_invariants(comm);
            (before, after)
        });
        for (before, after) in out {
            assert!((before.0 - after.0).abs() < 1e-9 * before.0, "mass");
            for a in 0..3 {
                assert!((before.1[a] - after.1[a]).abs() < 1e-9, "momentum {a}");
            }
        }
    }

    /// A config without a scenario starts and steps bitwise as the
    /// [`TaylorGreen`] scenario of the same amplitude: every allocated
    /// value (halos included) at step 0 and the owned planes after 5 steps,
    /// on both storage modes, one and two ranks, deep halos and D3Q39.
    #[test]
    fn no_scenario_run_is_the_taylor_green_scenario() {
        let bits = |f: &DistField| -> Vec<u64> {
            (0..f.q())
                .flat_map(|i| f.slab(i).iter().map(|v| v.to_bits()))
                .collect()
        };
        let cases = [
            (LatticeKind::D3Q19, 1, 1, OptLevel::LoBr),
            (LatticeKind::D3Q19, 2, 2, OptLevel::Fused),
            (LatticeKind::D3Q39, 2, 1, OptLevel::Simd),
        ];
        for storage in [StorageMode::TwoGrid, StorageMode::InPlaceAa] {
            for (kind, ranks, depth, level) in cases {
                let base = Simulation::builder(kind, Dim3::new(16, 8, 8))
                    .ranks(ranks)
                    .ghost_depth(depth)
                    .level(level)
                    .storage(storage);
                let run = |cfg: SimConfig| {
                    Universe::run(cfg.ranks, CostModel::free(), |comm| {
                        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
                        let start = bits(s.field());
                        s.run(comm, 5);
                        (start, bits(&s.owned_snapshot()))
                    })
                };
                let plain = run(base.clone().init_amplitude(0.03).build_config().unwrap());
                let tg = run(base
                    .scenario(TaylorGreen::new(0.03))
                    .build_config()
                    .unwrap());
                let what = format!("{kind:?} {storage:?} ranks={ranks} depth={depth} {level:?}");
                for (rank, (a, b)) in plain.iter().zip(&tg).enumerate() {
                    assert!(a.0 == b.0, "{what} rank {rank}: start differs");
                    assert!(a.1 == b.1, "{what} rank {rank}: step 5 differs");
                }
            }
        }
    }

    /// Concatenate owned snapshots along x into one global, halo-free field.
    fn assemble_global(snaps: &[DistField], global: Dim3) -> DistField {
        let mut out = DistField::new(snaps[0].q(), global, 0).unwrap();
        let dg = out.alloc_dims();
        let mut x0 = 0usize;
        for snap in snaps {
            let ds = snap.alloc_dims();
            for i in 0..snap.q() {
                for x in 0..ds.nx {
                    let s = ds.idx(x, 0, 0);
                    let t = dg.idx(x0 + x, 0, 0);
                    let row = snap.slab(i)[s..s + ds.plane()].to_vec();
                    out.slab_mut(i)[t..t + dg.plane()].copy_from_slice(&row);
                }
            }
            x0 += ds.nx;
        }
        out
    }

    /// After an even number of steps the AA state is the pull-stream of
    /// the two-grid state: `aa[x][i] = tg[wrap(x − c_i)][i]`. Returns the
    /// max abs deviation from that correspondence.
    fn aa_vs_streamed_two_grid(ctx: &KernelCtx, aa: &DistField, tg: &DistField) -> f64 {
        let d = aa.alloc_dims();
        let mut max: f64 = 0.0;
        for (i, c) in ctx.lat.velocities().iter().enumerate() {
            for x in 0..d.nx {
                let ux = (x as isize - c[0] as isize).rem_euclid(d.nx as isize) as usize;
                for y in 0..d.ny {
                    let uy = (y as isize - c[1] as isize).rem_euclid(d.ny as isize) as usize;
                    for z in 0..d.nz {
                        let uz = (z as isize - c[2] as isize).rem_euclid(d.nz as isize) as usize;
                        let a = aa.slab(i)[d.idx(x, y, z)];
                        let b = tg.slab(i)[d.idx(ux, uy, uz)];
                        max = max.max((a - b).abs());
                    }
                }
            }
        }
        max
    }

    #[test]
    fn aa_matches_two_grid_across_levels_ranks_and_threads() {
        use lbm_core::field::StorageMode;
        let global = Dim3::new(16, 8, 8);
        for (kind, level, ranks, threads) in [
            (LatticeKind::D3Q19, OptLevel::LoBr, 2usize, 1usize),
            (LatticeKind::D3Q19, OptLevel::Fused, 3, 1),
            (LatticeKind::D3Q39, OptLevel::Simd, 2, 2),
        ] {
            let base = Simulation::builder(kind, global)
                .level(level)
                .ranks(ranks)
                .threads(threads);
            let steps = 6;
            let ctx = KernelCtx::new(
                kind,
                base.clone().build_config().unwrap().eq_order(),
                Bgk::new(0.8).unwrap(),
            );
            let tg_cfg = base.clone().build_config().unwrap();
            let aa_cfg = base
                .clone()
                .storage(StorageMode::InPlaceAa)
                .build_config()
                .unwrap();
            let tg = assemble_global(&distributed_owned(&tg_cfg, steps), global);
            let aa = assemble_global(&distributed_owned(&aa_cfg, steps), global);
            let diff = aa_vs_streamed_two_grid(&ctx, &aa, &tg);
            assert!(
                diff <= 1e-11,
                "{kind:?} {} ranks={ranks} threads={threads}: {diff}",
                level.name()
            );
        }
    }

    #[test]
    fn aa_threads_are_bitwise_identical_to_serial_aa() {
        use lbm_core::field::StorageMode;
        let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .ranks(2)
            .level(OptLevel::Fused)
            .storage(StorageMode::InPlaceAa);
        let serial = distributed_owned(&base.clone().threads(1).build_config().unwrap(), 7);
        let threaded = distributed_owned(&base.threads(4).build_config().unwrap(), 7);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.max_abs_diff_owned(b), 0.0);
        }
    }

    #[test]
    fn aa_exchanges_once_per_pair_and_conserves_invariants() {
        use lbm_core::field::StorageMode;
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
            .ranks(2)
            .level(OptLevel::Simd)
            .storage(StorageMode::InPlaceAa)
            .build_config()
            .unwrap();
        let out = Universe::run(cfg.ranks, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            let before = s.global_invariants(comm);
            s.run(comm, 8);
            let after = s.global_invariants(comm);
            let timers = comm.take_timers();
            (before, after, timers.messages_sent)
        });
        for (before, after, messages) in out {
            assert!((before.0 - after.0).abs() < 1e-9 * before.0, "mass");
            for a in 0..3 {
                assert!((before.1[a] - after.1[a]).abs() < 1e-9, "momentum {a}");
            }
            // 8 steps = 4 pairs × 2 sides = 8 messages (two-grid at depth 1
            // would send 2 per step); allreduce traffic is not counted in
            // messages_sent point-to-point... if it is, stay ≤ a pair's
            // worth of slack.
            assert!(
                (8..=12).contains(&(messages as usize)),
                "one exchange per two steps expected, got {messages} messages"
            );
        }
    }

    #[test]
    fn aa_resumes_mid_pair_across_run_calls_bitwise() {
        // A run ending on an even step posts no exchange; the next run's
        // odd step must fall back to the just-in-time exchange and produce
        // exactly the same flow as one continuous run — under both ghost
        // schedules and the blocking one.
        use lbm_core::field::StorageMode;
        for strategy in [
            CommStrategy::Blocking,
            CommStrategy::NonBlockingGhost,
            CommStrategy::OverlapGhostCollide,
        ] {
            let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
                .ranks(2)
                .level(OptLevel::Fused)
                .storage(StorageMode::InPlaceAa)
                .strategy(strategy)
                .build_config()
                .unwrap();
            let whole = Universe::run(cfg.ranks, CostModel::free(), |comm| {
                let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
                s.run(comm, 6);
                s.owned_snapshot()
            });
            let chunked = Universe::run(cfg.ranks, CostModel::free(), |comm| {
                let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
                for n in [1usize, 2, 1, 2] {
                    s.run(comm, n);
                }
                s.owned_snapshot()
            });
            for (a, b) in whole.iter().zip(&chunked) {
                assert_eq!(a.max_abs_diff_owned(b), 0.0, "{strategy:?}");
            }
        }
    }

    #[test]
    fn aa_parity_flips_momentum_sign_mid_pair() {
        use lbm_core::field::StorageMode;
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .storage(StorageMode::InPlaceAa)
            .build_config()
            .unwrap();
        let ok = Universe::run(1, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            s.run(comm, 3); // mid-pair: swapped parity
            assert!(s.parity_swapped());
            let (_, mom_odd) = s.local_invariants();
            s.run(comm, 1); // complete the pair
            assert!(!s.parity_swapped());
            let (_, mom_even) = s.local_invariants();
            // Taylor–Green has ~zero net momentum; the parity fix must keep
            // both readings physical (tiny), not sign-flipped garbage.
            mom_odd
                .iter()
                .chain(mom_even.iter())
                .all(|m| m.abs() < 1e-9)
        });
        assert!(ok[0]);
    }

    #[test]
    fn aa_halves_resident_population_memory() {
        use lbm_core::field::StorageMode;
        let base = Simulation::builder(LatticeKind::D3Q39, Dim3::new(32, 10, 10)).ranks(2);
        let bytes = |storage: StorageMode| {
            let cfg = base.clone().storage(storage).build_config().unwrap();
            Universe::run(cfg.ranks, CostModel::free(), |comm| {
                RankSolver::new(&cfg, comm.rank())
                    .unwrap()
                    .resident_population_bytes()
            })
            .into_iter()
            .sum::<u64>()
        };
        let tg = bytes(StorageMode::TwoGrid);
        let aa = bytes(StorageMode::InPlaceAa);
        // Two-grid: 2 × (16 + 2·3) planes per rank; AA: 1 × (16 + 4·3).
        // 28/44 ≈ 0.64 on this box; the asymptotic ratio is ½.
        assert!(
            (aa as f64) < 0.66 * tg as f64,
            "AA resident {aa} vs two-grid {tg}"
        );
    }

    #[test]
    fn counters_track_ghost_overhead() {
        let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
            .ranks(2)
            .ghost_depth(2)
            .level(OptLevel::Cf)
            .strategy(CommStrategy::NonBlockingGhost)
            .build_config()
            .unwrap();
        let counters = Universe::run(cfg.ranks, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            s.run(comm, 4);
            (s.counters.updates, s.counters.ghost_updates)
        });
        for (owned, ghost) in counters {
            // 4 steps × 8 owned planes × 64 cells.
            assert_eq!(owned, 4 * 8 * 64);
            // Depth 2 (k=1): per cycle extra = k·d(d−1) = 2 planes; 2 cycles.
            assert_eq!(ghost, 2 * 2 * 64);
        }
    }
}
