//! The sparse tiled-geometry rank solver and the dense/sparse dispatch.
//!
//! When a [`SimConfig`] carries a voxel
//! [`Geometry`](lbm_core::geometry::Geometry), each rank owns a contiguous
//! range of tile *columns* chosen by
//! [`geometry::partition_columns`](lbm_core::geometry::partition_columns) to
//! balance **fluid-cell count** rather than slab extent — a porous bed with
//! a dense pocket gives the pocket's rank fewer columns. Storage is two
//! packed [`SparseField`]s (tile-major frames) cycled as a classic two-grid
//! double buffer; only allocated tiles exist, so resident bytes scale with
//! the fluid fraction, not the box.
//!
//! [`StorageMode::InPlaceAa`] drops the second buffer: one frame per tile,
//! stepped as even/odd pairs by the AA kernels in
//! [`lbm_core::kernels::sparse`] — the even step is purely local, so the
//! halo exchange runs only before odd steps, shipping
//! `SimConfig::sparse_ghost_cols` boundary columns each way (one for reach
//! ≤ 2, two for D3Q39).
//!
//! The distributed schedule is deliberately simple: one eager
//! frame-exchange per step (two-grid) or per pair (AA) — sends and receives
//! posted, then one waitall — shipping only the *allocated boundary tiles*
//! of the first/last owned columns. Both sides enumerate boundary tiles
//! from the global geometry in the same (ty, tz) order, so the payloads
//! need no framing metadata. The configured `ghost_depth` and
//! [`CommStrategy`] are ignored on this path; a run reports
//! [`SCHEDULE`], the one that runs.
//!
//! `AnySolver` is the engine-facing dispatch: the persistent engine holds
//! one per rank and every caller (timed runs, probes, checkpointing, fault
//! injection) goes through its delegating methods, so the dense solver code
//! is untouched by the sparse subsystem.

use std::sync::Arc;
use std::time::Instant;

use lbm_comm::Comm;
use lbm_core::collision::Bgk;
use lbm_core::field::{DistField, StorageMode};
use lbm_core::geometry::{self, tile_cell, Geometry, SparseTiles, TILE_B, TILE_CELLS};
use lbm_core::index::Dim3;
use lbm_core::kernels::sparse::{self, GatherTable, SparseField};
use lbm_core::kernels::{KernelCtx, OptLevel, MAX_Q};
use lbm_core::moments::Moments;
use lbm_core::perf::PerfCounters;
use lbm_core::{Error, Result};

use crate::config::{CommStrategy, SimConfig};
use crate::distributed::{body_force, in_pool, ComputeNoise, RankSolver};
use crate::json::Json;
use crate::scenario::ScenarioHandle;

/// The communication schedule and ghost depth every sparse run uses,
/// whatever the configuration asks: [`SparseRankSolver`]'s exchange is the
/// eager pattern, run every step (every pair under AA) like a depth-1 halo.
pub(crate) const SCHEDULE: (CommStrategy, usize) = (CommStrategy::NonBlockingEager, 1);

/// Plain-data description of an analytic geometry, the sparse counterpart
/// of [`ScenarioSpec`](crate::scenario::ScenarioSpec): travels as JSON in
/// job specs and is built into a voxel [`Geometry`] against the job's
/// global box. Arbitrary voxel geometries travel by reference: the
/// [`GeometrySpec::File`] variant names an `.lbmgeo` file (the checkpoint
/// container's RLE geometry frame, standalone — see
/// [`Geometry::from_file`]) whose dimensions must match the job's box.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometrySpec {
    /// [`Geometry::pipe`]: an x-invariant circular pipe.
    Pipe {
        /// Pipe radius in cells.
        radius: f64,
    },
    /// [`Geometry::bifurcation`]: a trunk splitting into two branches.
    Bifurcation {
        /// Trunk radius in cells.
        trunk_r: f64,
        /// Branch radius in cells.
        branch_r: f64,
    },
    /// [`Geometry::porous`]: a deterministic random blob bed.
    Porous {
        /// Blob radius in cells.
        blob_r: f64,
        /// Target fluid fraction in (0, 1].
        target_fluid: f64,
        /// LCG seed for the blob centres.
        seed: u64,
    },
    /// [`Geometry::from_file`]: a voxel map loaded from an `.lbmgeo` file
    /// (e.g. a segmented CT volume). The file's dimensions must equal the
    /// job's global box.
    File {
        /// Path to the `.lbmgeo` file, resolved at build time.
        path: String,
    },
}

impl GeometrySpec {
    /// The spec's `kind` label.
    pub fn kind(&self) -> &'static str {
        match self {
            GeometrySpec::Pipe { .. } => "pipe",
            GeometrySpec::Bifurcation { .. } => "bifurcation",
            GeometrySpec::Porous { .. } => "porous",
            GeometrySpec::File { .. } => "file",
        }
    }

    /// Materialise the voxel geometry for a global box.
    pub fn build(&self, global: Dim3) -> Result<Geometry> {
        match *self {
            GeometrySpec::Pipe { radius } => Geometry::pipe(global, radius),
            GeometrySpec::Bifurcation { trunk_r, branch_r } => {
                Geometry::bifurcation(global, trunk_r, branch_r)
            }
            GeometrySpec::Porous {
                blob_r,
                target_fluid,
                seed,
            } => Geometry::porous(global, blob_r, target_fluid, seed),
            GeometrySpec::File { ref path } => {
                let g = Geometry::from_file(path)?;
                if g.dims() != global {
                    return Err(Error::BadDimensions(format!(
                        "geometry file {path} is {}x{}x{} but the job box is {}x{}x{}",
                        g.dims().nx,
                        g.dims().ny,
                        g.dims().nz,
                        global.nx,
                        global.ny,
                        global.nz
                    )));
                }
                Ok(g)
            }
        }
    }

    /// JSON form (`{"kind": "pipe", "radius": 45.0}`, …).
    pub fn to_json(&self) -> Json {
        let mut members = vec![("kind".into(), Json::Str(self.kind().into()))];
        match *self {
            GeometrySpec::Pipe { radius } => {
                members.push(("radius".into(), Json::Num(radius)));
            }
            GeometrySpec::Bifurcation { trunk_r, branch_r } => {
                members.push(("trunk_r".into(), Json::Num(trunk_r)));
                members.push(("branch_r".into(), Json::Num(branch_r)));
            }
            GeometrySpec::Porous {
                blob_r,
                target_fluid,
                seed,
            } => {
                members.push(("blob_r".into(), Json::Num(blob_r)));
                members.push(("target_fluid".into(), Json::Num(target_fluid)));
                members.push(("seed".into(), Json::Int(seed as i64)));
            }
            GeometrySpec::File { ref path } => {
                members.push(("path".into(), Json::Str(path.clone())));
            }
        }
        Json::Obj(members)
    }

    /// Inverse of [`Self::to_json`].
    pub fn from_json(v: &Json) -> std::result::Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("geometry spec missing `kind`")?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("geometry spec missing `{key}`"))
        };
        match kind {
            "pipe" => Ok(GeometrySpec::Pipe {
                radius: num("radius")?,
            }),
            "bifurcation" => Ok(GeometrySpec::Bifurcation {
                trunk_r: num("trunk_r")?,
                branch_r: num("branch_r")?,
            }),
            "porous" => Ok(GeometrySpec::Porous {
                blob_r: num("blob_r")?,
                target_fluid: num("target_fluid")?,
                seed: v
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("geometry spec missing `seed`")?,
            }),
            "file" => Ok(GeometrySpec::File {
                path: v
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("geometry spec missing `path`")?
                    .to_string(),
            }),
            other => Err(format!("unknown geometry kind `{other}`")),
        }
    }
}

/// One rank of a sparse tiled-geometry run.
pub(crate) struct SparseRankSolver {
    /// Lattice + equilibrium + collision context.
    pub(crate) ctx: KernelCtx,
    /// Per-rank counters in the paper's update metric (fluid cells only).
    pub(crate) counters: PerfCounters,
    tiles: SparseTiles,
    gt: GatherTable,
    f: SparseField,
    /// Two-grid destination buffer; `None` under AA storage — that absence
    /// *is* the resident-bytes halving.
    tmp: Option<SparseField>,
    storage: StorageMode,
    global: Dim3,
    rank: usize,
    ranks: usize,
    use_simd: bool,
    pool: Option<rayon::ThreadPool>,
    scenario: Option<ScenarioHandle>,
    noise: ComputeNoise,
    step_no: u64,
}

impl SparseRankSolver {
    /// Build rank `rank`'s tile list from the configured geometry and set
    /// every allocated cell to the scenario's initial equilibrium (rest
    /// fluid without a scenario — the voxel walls make the flow, not the
    /// initial mode).
    pub(crate) fn new(cfg: &SimConfig, rank: usize) -> Result<Self> {
        let mut s = Self::allocate(cfg, rank)?;
        let global = cfg.global;
        let state = |x: usize, y: usize, z: usize| match &cfg.scenario {
            Some(sc) => sc.init(global, x, y, z),
            None => (1.0, [0.0; 3]),
        };
        match cfg.storage {
            StorageMode::TwoGrid => {
                sparse::init_equilibrium(&s.ctx, &s.tiles, &s.gt, &mut s.f, global, state);
            }
            // AA frames hold the *streamed* image at even parity, so the
            // initial slots carry the pull-streamed equilibrium — a two-grid
            // twin started from the same state stays comparable pair for
            // pair.
            StorageMode::InPlaceAa => {
                sparse::init_equilibrium_aa(&s.ctx, &s.tiles, &mut s.f, global, state);
            }
        }
        Ok(s)
    }

    /// Rank `rank`'s tile list and buffers with no population written: the
    /// start of [`Self::new`], and of a restore, whose snapshot supplies the
    /// owned tiles.
    fn allocate(cfg: &SimConfig, rank: usize) -> Result<Self> {
        let geom: &Arc<Geometry> = cfg
            .geometry
            .as_ref()
            .ok_or_else(|| Error::BadParameter("sparse solver needs a geometry".into()))?;
        let ctx = KernelCtx::new(cfg.lattice, cfg.eq_order(), Bgk::new(cfg.tau)?);
        let counts = geometry::column_fluid_counts(geom);
        let parts = geometry::partition_columns(&counts, cfg.ranks)?;
        let (lo, hi) = parts[rank];
        let tiles = SparseTiles::build(geom, lo, hi - lo, cfg.sparse_ghost_cols())?;
        let gt = GatherTable::new(&ctx.lat);
        let f = SparseField::new(ctx.lat.q(), tiles.tile_count())?;
        let storage = cfg.storage;
        let tmp = (storage == StorageMode::TwoGrid)
            .then(|| SparseField::new(ctx.lat.q(), tiles.tile_count()))
            .transpose()?;
        let pool = (cfg.threads_per_rank > 1)
            .then(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(cfg.threads_per_rank)
                    .build()
                    .map_err(|e| Error::BadParameter(format!("rayon pool: {e}")))
            })
            .transpose()?;
        Ok(Self {
            ctx,
            counters: PerfCounters::default(),
            tiles,
            gt,
            f,
            tmp,
            storage,
            global: cfg.global,
            rank,
            ranks: cfg.ranks,
            use_simd: cfg.level >= OptLevel::Simd,
            pool,
            scenario: cfg.scenario.clone(),
            noise: ComputeNoise::new(cfg, rank),
            step_no: 0,
        })
    }

    /// Advance `steps` steps. Two-grid: exchange boundary-tile frames, one
    /// fused gather/bounce/collide sweep over the owned tiles, swap buffers.
    /// AA: even steps are purely local collide-and-swap (no exchange, no
    /// second buffer); odd steps exchange first, then gather/collide/scatter
    /// in place through the neighbour table.
    pub(crate) fn run(&mut self, comm: &mut Comm, steps: usize) {
        for _ in 0..steps {
            let t0 = Instant::now();
            let aa_odd = self.storage == StorageMode::InPlaceAa && self.step_no % 2 == 1;
            if self.storage == StorageMode::TwoGrid || aa_odd {
                self.exchange(comm);
            }
            let g = body_force(self.scenario.as_ref(), self.step_no);
            let use_simd = self.use_simd;
            let storage = self.storage;
            let Self {
                ctx,
                tiles,
                gt,
                f,
                tmp,
                pool,
                ..
            } = &mut *self;
            in_pool(pool.as_ref(), || match storage {
                StorageMode::TwoGrid => {
                    let tmp = tmp.as_mut().expect("two-grid keeps a destination buffer");
                    sparse::step(ctx, tiles, gt, f, tmp, g, use_simd);
                    std::mem::swap(f, tmp);
                }
                StorageMode::InPlaceAa if aa_odd => {
                    sparse::aa_odd_step(ctx, tiles, gt, f, g, use_simd)
                }
                StorageMode::InPlaceAa => sparse::aa_even_step(ctx, tiles, f, g, use_simd),
            });
            let key = self.step_no;
            self.step_no += 1;
            // Ghost tiles are shipped, never computed: all updates are
            // owned fluid-cell updates (solid rim cells only bounce).
            let owned = self.tiles.owned_fluid_cells;
            self.noise
                .finish_step(&mut self.counters, t0, key, owned, 0);
        }
    }

    /// Blocking exchange of the allocated boundary-tile frames. Runs every
    /// step under two-grid storage and before every odd step under AA (the
    /// even half-step is purely local, so ghost frames are only read by the
    /// odd gather/scatter). Ghost frames are never escape-zeroed locally —
    /// their owner's copy is authoritative. Serial runs have a periodic
    /// neighbour table instead of ghosts and skip this entirely.
    fn exchange(&mut self, comm: &mut Comm) {
        if self.ranks == 1 {
            return;
        }
        let fl = self.f.frame_len();
        let left = (self.rank + self.ranks - 1) % self.ranks;
        let right = (self.rank + 1) % self.ranks;
        // Tag by direction of travel so the two payloads of a 2-rank ring
        // (left == right) cannot cross.
        let to_left = self.step_no * 2;
        let to_right = self.step_no * 2 + 1;
        let pack = |idx: &[usize], f: &SparseField| {
            let mut buf = Vec::with_capacity(idx.len() * fl);
            for &t in idx {
                buf.extend_from_slice(f.frame(t));
            }
            buf
        };
        let _ = comm
            .isend(left, to_left, pack(&self.tiles.send_left, &self.f))
            .expect("isend");
        let _ = comm
            .isend(right, to_right, pack(&self.tiles.send_right, &self.f))
            .expect("isend");
        let rl = comm.irecv(left, to_right).expect("irecv");
        let rr = comm.irecv(right, to_left).expect("irecv");
        let msgs = comm.waitall(vec![rl, rr]).expect("waitall");
        for (idx, data) in [
            (&self.tiles.recv_left, &msgs[0]),
            (&self.tiles.recv_right, &msgs[1]),
        ] {
            debug_assert_eq!(data.len(), idx.len() * fl, "boundary frame mismatch");
            for (j, &t) in idx.iter().enumerate() {
                self.f
                    .frame_mut(t)
                    .copy_from_slice(&data[j * fl..(j + 1) * fl]);
            }
        }
    }

    pub(crate) fn steps_done(&self) -> u64 {
        self.step_no
    }

    pub(crate) fn reset_counters(&mut self) {
        self.counters = PerfCounters::default();
    }

    /// Owned fluid cells — the denominator of the paper's MFlup/s metric
    /// on this path (solid and ghost cells do no collide work).
    pub(crate) fn owned_cells(&self) -> u64 {
        self.tiles.owned_fluid_cells
    }

    /// Bytes held in the packed population buffers — two under two-grid,
    /// one under AA.
    pub(crate) fn resident_population_bytes(&self) -> u64 {
        self.f.resident_bytes() + self.tmp.as_ref().map_or(0, SparseField::resident_bytes)
    }

    /// Stored mass and momentum over the owned tiles (every allocated cell:
    /// rim bounce-back cells carry in-flight population between steps, so
    /// they are part of the conserved totals exactly as dense wall cells
    /// are). Mid-pair AA storage is slot-swapped — slot `i` holds the
    /// opposite velocity's population — so the raw directed sum flips sign
    /// and is negated back, mirroring the dense `parity_swapped` handling.
    pub(crate) fn local_invariants(&self) -> (f64, [f64; 3]) {
        let q = self.ctx.lat.q();
        let cc = self.ctx.lat.velocities();
        let mut mass = 0.0;
        let mut mom = [0.0f64; 3];
        for t in 0..self.tiles.owned_tiles {
            let frame = self.f.frame(t);
            for (i, c) in cc.iter().enumerate().take(q) {
                let s: f64 = frame[i * TILE_CELLS..(i + 1) * TILE_CELLS].iter().sum();
                mass += s;
                for a in 0..3 {
                    mom[a] += s * f64::from(c[a]);
                }
            }
        }
        if self.parity_swapped() {
            for m in &mut mom {
                *m = -*m;
            }
        }
        (mass, mom)
    }

    /// True when AA storage sits mid-pair (after the even half-step), where
    /// every slot holds the opposite velocity's population.
    pub(crate) fn parity_swapped(&self) -> bool {
        self.storage == StorageMode::InPlaceAa && self.step_no % 2 == 1
    }

    pub(crate) fn global_invariants(&self, comm: &mut Comm) -> (f64, [f64; 3]) {
        let (mass, mom) = self.local_invariants();
        let v = comm.allreduce_sum(&[mass, mom[0], mom[1], mom[2]]);
        (v[0], [v[1], v[2], v[3]])
    }

    /// Peak |u| over the owned fluid cells (solid cells hold bounce state,
    /// not flow).
    pub(crate) fn max_speed(&self) -> f64 {
        let q = self.ctx.lat.q();
        let mut cell = [0.0f64; MAX_Q];
        let mut peak: f64 = 0.0;
        for t in 0..self.tiles.owned_tiles {
            let fluid = self.tiles.tiles[t].fluid;
            if fluid == 0 {
                continue;
            }
            for c in 0..TILE_CELLS {
                if fluid >> c & 1 == 0 {
                    continue;
                }
                self.f.gather_cell(t, c, &mut cell[..q]);
                let m = Moments::of_cell(&self.ctx.lat, &cell[..q]);
                let s = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).sqrt();
                peak = peak.max(s);
            }
        }
        peak
    }

    /// Owned x-extent in cells and the owned tile-column count.
    fn owned_extent(&self) -> (usize, usize) {
        let cols = self.tiles.tdims.nx - 2 * self.tiles.ghost_cols;
        (cols * TILE_B, cols)
    }

    /// Scatter the owned tiles into a dense halo-free [`DistField`] slab —
    /// the same shape the dense solver snapshots, so the checkpoint
    /// container's field codec is storage-agnostic. Cells in unallocated
    /// tiles read 0 (they hold no state by construction).
    pub(crate) fn owned_snapshot(&self) -> DistField {
        let q = self.ctx.lat.q();
        let (nx, _) = self.owned_extent();
        let d = Dim3::new(nx, self.global.ny, self.global.nz);
        let mut out = DistField::new(q, d, 0).expect("owned snapshot shape");
        let g = self.tiles.ghost_cols;
        for t in 0..self.tiles.owned_tiles {
            let ti = self.tiles.tiles[t];
            let frame = self.f.frame(t);
            for i in 0..q {
                let slab = out.slab_mut(i);
                for lx in 0..TILE_B {
                    let x = (ti.tx - g) * TILE_B + lx;
                    for ly in 0..TILE_B {
                        let y = ti.ty * TILE_B + ly;
                        for lz in 0..TILE_B {
                            let z = ti.tz * TILE_B + lz;
                            slab[d.idx(x, y, z)] = frame[i * TILE_CELLS + tile_cell(lx, ly, lz)];
                        }
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`Self::owned_snapshot`]: load the owned tiles from a
    /// dense slab and set the step counter. Ghost frames are left as they
    /// are (zero on a freshly allocated rank): the exchange ahead of the
    /// next step that reads them refreshes them first.
    pub(crate) fn restore_owned(&mut self, snap: &DistField, step_no: u64) -> Result<()> {
        let q = self.ctx.lat.q();
        let (nx, _) = self.owned_extent();
        let d = Dim3::new(nx, self.global.ny, self.global.nz);
        if snap.alloc_dims() != d || snap.halo() != 0 {
            return Err(Error::Mismatch(format!(
                "snapshot shape {:?} (halo {}) does not match owned tiles {:?}",
                snap.alloc_dims(),
                snap.halo(),
                d
            )));
        }
        let g = self.tiles.ghost_cols;
        for t in 0..self.tiles.owned_tiles {
            let ti = self.tiles.tiles[t];
            let frame = self.f.frame_mut(t);
            for i in 0..q {
                let slab = snap.slab(i);
                for lx in 0..TILE_B {
                    let x = (ti.tx - g) * TILE_B + lx;
                    for ly in 0..TILE_B {
                        let y = ti.ty * TILE_B + ly;
                        for lz in 0..TILE_B {
                            let z = ti.tz * TILE_B + lz;
                            frame[i * TILE_CELLS + tile_cell(lx, ly, lz)] = slab[d.idx(x, y, z)];
                        }
                    }
                }
            }
        }
        self.step_no = step_no;
        Ok(())
    }

    /// Raw population storage (both buffers' front) for finiteness scans.
    pub(crate) fn raw(&self) -> &[f64] {
        self.f.as_slice()
    }

    /// Poison one stored value in the middle of the packed storage — lands
    /// in an allocated tile by construction.
    pub(crate) fn inject_nan(&mut self) {
        let mid = self.f.as_slice().len() / 2;
        self.f.as_mut_slice()[mid] = f64::NAN;
    }
}

/// The engine-facing solver dispatch: dense box paths (every `OptLevel` ×
/// `StorageMode` × `CommStrategy`) or the sparse tiled-geometry path.
pub(crate) enum AnySolver {
    /// Dense [`RankSolver`] (two-grid or AA storage).
    Dense(RankSolver),
    /// Sparse fluid-tile list with indirect addressing.
    Sparse(SparseRankSolver),
}

impl AnySolver {
    /// Construct the right solver for the configuration: a geometry selects
    /// the sparse path.
    pub(crate) fn new(cfg: &SimConfig, rank: usize) -> Result<Self> {
        if cfg.geometry.is_some() {
            Ok(AnySolver::Sparse(SparseRankSolver::new(cfg, rank)?))
        } else {
            Ok(AnySolver::Dense(RankSolver::new(cfg, rank)?))
        }
    }

    /// The solver [`Self::new`] builds, restored from a checkpointed owned
    /// snapshot at `step_no`/`cycle` instead of filled with the initial
    /// state.
    pub(crate) fn restored(
        cfg: &SimConfig,
        rank: usize,
        snap: &DistField,
        step_no: u64,
        cycle: u64,
    ) -> Result<Self> {
        if cfg.geometry.is_some() {
            let mut s = SparseRankSolver::allocate(cfg, rank)?;
            s.restore_owned(snap, step_no)?;
            Ok(AnySolver::Sparse(s))
        } else {
            let mut s = RankSolver::allocate(cfg, rank)?;
            s.restore_owned(snap, step_no, cycle)?;
            Ok(AnySolver::Dense(s))
        }
    }

    pub(crate) fn run(&mut self, comm: &mut Comm, steps: usize) {
        match self {
            AnySolver::Dense(s) => s.run(comm, steps),
            AnySolver::Sparse(s) => s.run(comm, steps),
        }
    }

    /// [`Self::run`], whose last step may also fold the owned mass for
    /// [`Self::global_mass`] (dense two-grid fused path only; see
    /// [`RankSolver::run_folding_mass`]).
    pub(crate) fn run_folding_mass(&mut self, comm: &mut Comm, steps: usize) {
        match self {
            AnySolver::Dense(s) => s.run_folding_mass(comm, steps),
            AnySolver::Sparse(s) => s.run(comm, steps),
        }
    }

    /// Passes that folded the owned mass (0 on the sparse path).
    pub(crate) fn mass_folds(&self) -> u64 {
        match self {
            AnySolver::Dense(s) => s.mass_folds(),
            AnySolver::Sparse(_) => 0,
        }
    }

    pub(crate) fn steps_done(&self) -> u64 {
        match self {
            AnySolver::Dense(s) => s.steps_done(),
            AnySolver::Sparse(s) => s.steps_done(),
        }
    }

    /// Exchange-cycle counter: the sparse path exchanges every step, so its
    /// cycle count *is* its step count.
    pub(crate) fn cycle(&self) -> u64 {
        match self {
            AnySolver::Dense(s) => s.cycle(),
            AnySolver::Sparse(s) => s.steps_done(),
        }
    }

    pub(crate) fn reset_counters(&mut self) {
        match self {
            AnySolver::Dense(s) => s.reset_counters(),
            AnySolver::Sparse(s) => s.reset_counters(),
        }
    }

    pub(crate) fn counters(&self) -> &PerfCounters {
        match self {
            AnySolver::Dense(s) => &s.counters,
            AnySolver::Sparse(s) => &s.counters,
        }
    }

    /// Cells this rank updates per step — dense: every owned cell; sparse:
    /// owned *fluid* cells (the MFlup/s denominators match the work done).
    pub(crate) fn owned_cells(&self) -> u64 {
        match self {
            AnySolver::Dense(s) => s.sub.owned().len() as u64,
            AnySolver::Sparse(s) => s.owned_cells(),
        }
    }

    pub(crate) fn resident_population_bytes(&self) -> u64 {
        match self {
            AnySolver::Dense(s) => s.resident_population_bytes(),
            AnySolver::Sparse(s) => s.resident_population_bytes(),
        }
    }

    pub(crate) fn local_invariants(&self) -> (f64, [f64; 3]) {
        match self {
            AnySolver::Dense(s) => s.local_invariants(),
            AnySolver::Sparse(s) => s.local_invariants(),
        }
    }

    /// Owned-region mass summed across ranks (the run report's reading).
    pub(crate) fn global_mass(&self, comm: &mut Comm) -> f64 {
        match self {
            AnySolver::Dense(s) => s.global_mass(comm),
            AnySolver::Sparse(s) => s.global_invariants(comm).0,
        }
    }

    /// Peak |u| over owned fluid cells.
    pub(crate) fn max_speed(&self) -> f64 {
        match self {
            AnySolver::Dense(s) => {
                crate::observables::max_speed_fluid(&s.ctx, s.field(), s.bounds())
            }
            AnySolver::Sparse(s) => s.max_speed(),
        }
    }

    /// The scenario's y-profile observable with this rank's averaging
    /// weight, or `None` when the path has no row structure to profile
    /// (sparse runs observe mass/speed only).
    pub(crate) fn profile(&self, axis: usize, z_slice: Option<usize>) -> Option<(usize, Vec<f64>)> {
        match self {
            AnySolver::Dense(s) => {
                let mut p = crate::observables::u_profile_fluid(
                    &s.ctx,
                    s.field(),
                    s.bounds(),
                    axis,
                    z_slice,
                );
                if s.parity_swapped() {
                    // Mid-pair AA storage is slot-swapped: directed
                    // observables flip sign (speeds are unaffected).
                    for v in &mut p {
                        *v = -*v;
                    }
                }
                Some((s.sub.owned().nx, p))
            }
            AnySolver::Sparse(_) => None,
        }
    }

    pub(crate) fn owned_snapshot(&self) -> DistField {
        match self {
            AnySolver::Dense(s) => s.owned_snapshot(),
            AnySolver::Sparse(s) => s.owned_snapshot(),
        }
    }

    /// Every resident population value: the dense field with its halos,
    /// or every sparse tile frame, owned and ghost.
    pub(crate) fn raw(&self) -> &[f64] {
        match self {
            AnySolver::Dense(s) => s.field().as_slice(),
            AnySolver::Sparse(s) => s.raw(),
        }
    }

    /// Every resident population value is finite (owned, halo and ghost
    /// storage alike).
    pub(crate) fn all_finite(&self) -> bool {
        self.raw().iter().all(|v| v.is_finite())
    }

    /// Deterministic NaN injection for the fault harness.
    pub(crate) fn inject_nan(&mut self) {
        match self {
            AnySolver::Dense(s) => {
                let field = s.field_mut();
                let mid = field.as_slice().len() / 2;
                field.as_mut_slice()[mid] = f64::NAN;
            }
            AnySolver::Sparse(s) => s.inject_nan(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ForcedFlow, Scenario};
    use crate::simulation::Simulation;
    use lbm_core::boundary::{BoundarySpec, SectionMask};
    use lbm_core::collision::BodyForce;
    use lbm_core::lattice::LatticeKind;

    const G: f64 = 4e-6;
    const STEPS: usize = 8;

    /// The dense twin of a sparse pipe run: a fully periodic box whose
    /// solid voxels come from the same pipe cross-section as a
    /// [`SectionMask`], under the same constant body force. The real dense
    /// masked path (stream → mask bounce → scenario collide) is the
    /// reference the scalar sparse tiles must reproduce bitwise on fluid
    /// cells.
    struct MaskedForced(SectionMask);

    impl Scenario for MaskedForced {
        fn name(&self) -> &'static str {
            "masked_forced"
        }

        fn boundaries(&self, _global: Dim3) -> BoundarySpec {
            BoundarySpec::periodic().with_mask(self.0.clone())
        }

        fn forcing(&self, _step: u64) -> Option<BodyForce> {
            Some(BodyForce::along_x(G))
        }
    }

    /// Stack every rank's owned snapshot along x (both decompositions
    /// assign ascending x ranges in rank order) into `val[(i·nx+x)·ny·nz…]`.
    fn assemble_global(sim: &mut Simulation, global: Dim3, q: usize) -> Vec<f64> {
        let engine = sim.engine_mut().unwrap();
        let mut out = vec![f64::NAN; q * global.nx * global.ny * global.nz];
        let mut x0 = 0;
        for rs in &engine.ranks {
            let snap = rs.solver.owned_snapshot();
            assert_eq!(snap.q(), q);
            let d = snap.alloc_dims();
            assert_eq!((d.ny, d.nz), (global.ny, global.nz));
            for i in 0..q {
                let slab = snap.slab(i);
                for x in 0..d.nx {
                    for y in 0..d.ny {
                        for z in 0..d.nz {
                            let gi = ((i * global.nx + x0 + x) * global.ny + y) * global.nz + z;
                            out[gi] = slab[d.idx(x, y, z)];
                        }
                    }
                }
            }
            x0 += d.nx;
        }
        assert_eq!(x0, global.nx, "rank snapshots must tile the global box");
        out
    }

    /// Run the same pipe flow on the sparse tiled path and on the real
    /// dense masked path and compare every fluid cell: bitwise on the scalar
    /// rungs, within 1e-12 relative on the vector ones. (Solid cells
    /// legitimately diverge: dense keeps re-bouncing streamed values deep
    /// inside the solid, sparse stores vacuum there — the one-bounce depth
    /// of full-way bounce-back keeps that divergence from ever reaching a
    /// fluid cell.)
    fn assert_sparse_matches_masked_dense(
        kind: LatticeKind,
        level: OptLevel,
        ranks: usize,
        threads: usize,
    ) {
        let global = Dim3::new(16, 16, 16);
        let geom = Geometry::pipe(global, 5.0).unwrap();
        let mask = geom.to_section_mask().expect("pipe is x-invariant");
        let mut sparse = Simulation::builder(kind, global)
            .scenario(ForcedFlow::new(G))
            .geometry(geom.clone())
            .level(level)
            .ranks(ranks)
            .threads(threads)
            .build()
            .unwrap();
        // The dense reference stays on a scalar-class rung, whose collide is
        // the arithmetic of the scalar sparse tile body. At `Simd` the
        // sparse path runs the AVX2+FMA pair body, which reassociates it, so
        // that comparison allows re-rounding.
        let mut dense = Simulation::builder(kind, global)
            .scenario(MaskedForced(mask))
            .level(OptLevel::LoBr)
            .ranks(ranks)
            .threads(threads)
            .build()
            .unwrap();
        sparse.run_local(STEPS).unwrap();
        dense.run_local(STEPS).unwrap();
        let q = lbm_core::lattice::Lattice::new(kind).q();
        let gs = assemble_global(&mut sparse, global, q);
        let gd = assemble_global(&mut dense, global, q);
        let mut checked = 0usize;
        for x in 0..global.nx {
            for y in 0..global.ny {
                for z in 0..global.nz {
                    if !geom.is_fluid(x, y, z) {
                        continue;
                    }
                    for i in 0..q {
                        let gi = ((i * global.nx + x) * global.ny + y) * global.nz + z;
                        let (a, b) = (gs[gi], gd[gi]);
                        let agree = if level >= OptLevel::Simd {
                            (a - b).abs() <= 1e-12 * b.abs()
                        } else {
                            a.to_bits() == b.to_bits()
                        };
                        assert!(
                            agree,
                            "{kind:?} ranks={ranks} threads={threads} {level:?}: \
                             f_{i}({x},{y},{z}) sparse {a} vs dense {b}"
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(
            checked as u64,
            geom.fluid_count(),
            "compared every fluid cell"
        );
    }

    #[test]
    fn sparse_matches_masked_dense_d3q19_serial() {
        assert_sparse_matches_masked_dense(LatticeKind::D3Q19, OptLevel::LoBr, 1, 1);
    }

    #[test]
    fn sparse_matches_masked_dense_d3q19_two_ranks() {
        assert_sparse_matches_masked_dense(LatticeKind::D3Q19, OptLevel::LoBr, 2, 1);
    }

    #[test]
    fn sparse_matches_masked_dense_d3q19_simd_threaded() {
        assert_sparse_matches_masked_dense(LatticeKind::D3Q19, OptLevel::Simd, 1, 2);
    }

    #[test]
    fn sparse_matches_masked_dense_d3q39_serial() {
        assert_sparse_matches_masked_dense(LatticeKind::D3Q39, OptLevel::LoBr, 1, 1);
    }

    #[test]
    fn sparse_matches_masked_dense_d3q39_two_ranks_simd_threaded() {
        assert_sparse_matches_masked_dense(LatticeKind::D3Q39, OptLevel::Simd, 2, 2);
    }

    #[test]
    fn sparse_report_carries_geometry_metrics() {
        // Big enough that the pipe's tile set (plus rim and ghost columns)
        // is a small minority of the box — at 16³ every tile would be
        // allocated and sparse could not beat dense.
        let global = Dim3::new(32, 32, 32);
        let geom = Geometry::pipe(global, 6.0).unwrap();
        let fluid = geom.fluid_count();
        let frac = geom.fluid_fraction();
        let base = Simulation::builder(LatticeKind::D3Q19, global)
            .scenario(ForcedFlow::new(G))
            .geometry(geom)
            .ranks(2);
        let rep = base.clone().build().unwrap().run(4).unwrap();
        assert_eq!(rep.storage, "sparse_tiles");
        // The report names the schedule that ran — the eager exchange every
        // step — not the configured one, which the sparse path ignores.
        let asked = base
            .strategy(CommStrategy::OverlapGhostCollide)
            .ghost_depth(2)
            .build()
            .unwrap()
            .run(4)
            .unwrap();
        for r in [&rep, &asked] {
            assert_eq!((r.strategy.as_str(), r.ghost_depth), ("NB-C", 1));
        }
        assert!((rep.fluid_fraction - frac).abs() < 1e-12);
        let updates: u64 = rep.per_rank.iter().map(|r| r.updates).sum();
        assert_eq!(updates, 4 * fluid, "only fluid cells are collided");
        assert!(rep.mflups > 0.0);
        // Same box, dense: two full grids (plus halos) resident.
        let dense = Simulation::builder(LatticeKind::D3Q19, global)
            .ranks(2)
            .build()
            .unwrap()
            .run(4)
            .unwrap();
        assert_eq!(dense.fluid_fraction, 1.0);
        assert!(
            rep.resident_population_bytes() < dense.resident_population_bytes(),
            "an 11%-fluid pipe must sit below the dense footprint"
        );
    }

    /// A pipe wide enough that its core holds tiles that are all fluid with
    /// all 27 neighbours allocated, beside its partial and rim tiles.
    fn fast_pipe_sim(
        kind: LatticeKind,
        storage: StorageMode,
        level: OptLevel,
        ranks: usize,
        threads: usize,
    ) -> Simulation {
        let global = Dim3::new(16, 24, 24);
        Simulation::builder(kind, global)
            .scenario(ForcedFlow::new(G))
            .geometry(Geometry::pipe(global, 10.0).unwrap())
            .storage(storage)
            .level(level)
            .ranks(ranks)
            .threads(threads)
            .build()
            .unwrap()
    }

    /// Property: after N even/odd pairs the AA frames hold exactly the
    /// streamed image of the two-grid state — the storage modes differ by a
    /// half-step phase, nothing else (≤1e-11 relative: the even/odd split
    /// reassociates the collide arithmetic).
    fn assert_aa_matches_two_grid_streamed(kind: LatticeKind, level: OptLevel, threads: usize) {
        let mut aa = fast_pipe_sim(kind, StorageMode::InPlaceAa, level, 1, threads);
        let mut tg = fast_pipe_sim(kind, StorageMode::TwoGrid, level, 1, threads);
        aa.run_local(STEPS).unwrap();
        tg.run_local(STEPS).unwrap();
        let q = lbm_core::lattice::Lattice::new(kind).q();
        let tg_engine = tg.engine_mut().unwrap();
        let AnySolver::Sparse(ts) = &tg_engine.ranks[0].solver else {
            panic!("sparse path expected")
        };
        let aa_engine = aa.engine_mut().unwrap();
        let AnySolver::Sparse(sa) = &aa_engine.ranks[0].solver else {
            panic!("sparse path expected")
        };
        assert_eq!(ts.tiles.tile_count(), sa.tiles.tile_count());
        let mut want = vec![0.0f64; q * TILE_CELLS];
        let mut checked = 0u64;
        for t in 0..ts.tiles.owned_tiles {
            sparse::streamed_tile(q, &ts.gt, &ts.tiles, &ts.f, t, &mut want);
            let got = sa.f.frame(t);
            let fluid = ts.tiles.tiles[t].fluid;
            for c in 0..TILE_CELLS {
                if fluid >> c & 1 == 0 {
                    continue;
                }
                for i in 0..q {
                    let w = want[i * TILE_CELLS + c];
                    let g = got[i * TILE_CELLS + c];
                    assert!(
                        (w - g).abs() <= 1e-11 * w.abs().max(1.0),
                        "{kind:?} tile {t} cell {c} vel {i}: streamed two-grid {w} vs AA {g}"
                    );
                }
                checked += 1;
            }
        }
        assert_eq!(
            checked, ts.tiles.owned_fluid_cells,
            "compared every fluid cell"
        );
    }

    #[test]
    fn sparse_aa_matches_two_grid_streamed_d3q15() {
        assert_aa_matches_two_grid_streamed(LatticeKind::D3Q15, OptLevel::Simd, 1);
    }

    #[test]
    fn sparse_aa_matches_two_grid_streamed_d3q19_threaded() {
        assert_aa_matches_two_grid_streamed(LatticeKind::D3Q19, OptLevel::Simd, 2);
    }

    #[test]
    fn sparse_aa_matches_two_grid_streamed_d3q27() {
        assert_aa_matches_two_grid_streamed(LatticeKind::D3Q27, OptLevel::LoBr, 1);
    }

    #[test]
    fn sparse_aa_matches_two_grid_streamed_d3q39() {
        assert_aa_matches_two_grid_streamed(LatticeKind::D3Q39, OptLevel::Simd, 1);
    }

    /// The distributed AA schedule (ghost columns + exchange before odd
    /// steps) reproduces the serial periodic run bitwise — ghost writers
    /// duplicate the owner's scatter exactly.
    fn assert_aa_multirank_matches_serial(kind: LatticeKind, threads: usize) {
        let global = Dim3::new(16, 24, 24);
        let mut serial = fast_pipe_sim(kind, StorageMode::InPlaceAa, OptLevel::Simd, 1, 1);
        let mut multi = fast_pipe_sim(kind, StorageMode::InPlaceAa, OptLevel::Simd, 2, threads);
        serial.run_local(STEPS).unwrap();
        multi.run_local(STEPS).unwrap();
        let q = lbm_core::lattice::Lattice::new(kind).q();
        let a = assemble_global(&mut serial, global, q);
        let b = assemble_global(&mut multi, global, q);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{kind:?} threads={threads}: flat {i}: serial {x} vs 2-rank {y}"
            );
        }
    }

    #[test]
    fn sparse_aa_two_ranks_match_serial_d3q19() {
        assert_aa_multirank_matches_serial(LatticeKind::D3Q19, 2);
    }

    #[test]
    fn sparse_aa_two_ranks_match_serial_d3q39_deep_halo() {
        // D3Q39 reach 3 needs two ghost tile-columns per side.
        assert_aa_multirank_matches_serial(LatticeKind::D3Q39, 1);
    }

    #[test]
    fn sparse_aa_report_label_and_resident_bytes() {
        let global = Dim3::new(32, 32, 32);
        let geom = Geometry::pipe(global, 6.0).unwrap();
        let mk = |storage: StorageMode| {
            Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(ForcedFlow::new(G))
                .geometry(geom.clone())
                .storage(storage)
                .ranks(2)
                .build()
                .unwrap()
                .run(4)
                .unwrap()
        };
        let tg = mk(StorageMode::TwoGrid);
        let aa = mk(StorageMode::InPlaceAa);
        assert_eq!(tg.storage, "sparse_tiles");
        assert_eq!(aa.storage, "sparse_tiles_aa");
        assert!(aa.mflups > 0.0);
        let (t, a) = (
            tg.resident_population_bytes(),
            aa.resident_population_bytes(),
        );
        // One frame set instead of two; same D3Q19 ghost-column count, so
        // the ratio is exactly ½ here and ≤0.55 with any halo slack.
        assert!(
            a * 100 <= t * 55,
            "sparse AA resident {a} vs sparse two-grid {t}"
        );
    }

    #[test]
    fn sparse_aa_momentum_sign_is_corrected_mid_pair() {
        // +x body force: the *reported* x-momentum must be positive and
        // growing at both parities. Mid-pair the raw slot sum is negated
        // (slot i holds the opposite velocity), so a missing parity fix
        // would surface as a sign flip at odd steps.
        let mut sim = fast_pipe_sim(
            LatticeKind::D3Q19,
            StorageMode::InPlaceAa,
            OptLevel::Simd,
            2,
            1,
        );
        sim.run_local(3).unwrap();
        let p1 = sim.probe().unwrap();
        sim.run_local(1).unwrap();
        let p2 = sim.probe().unwrap();
        assert!(
            p1.momentum[0] > 0.0,
            "mid-pair x-momentum {}",
            p1.momentum[0]
        );
        assert!(
            p2.momentum[0] > p1.momentum[0],
            "forced momentum must grow: {} -> {}",
            p1.momentum[0],
            p2.momentum[0]
        );
    }

    #[test]
    fn geometry_file_spec_runs_the_committed_vessel_sample() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/vessel_24x20x20.lbmgeo"
        );
        let spec = GeometrySpec::File { path: path.into() };
        assert_eq!(spec.kind(), "file");
        let global = Dim3::new(24, 20, 20);
        let geom = spec.build(global).unwrap();
        // The sample is the deterministic bifurcation the regen example
        // writes (see examples/make_vessel_geometry.rs).
        assert_eq!(geom, Geometry::bifurcation(global, 5.0, 3.0).unwrap());
        // Box mismatch is a typed config error, not a silent reshape.
        assert!(spec.build(Dim3::new(16, 16, 16)).is_err());

        let mut sim = Simulation::builder(LatticeKind::D3Q19, global)
            .scenario(ForcedFlow::new(G))
            .geometry(geom)
            .storage(StorageMode::InPlaceAa)
            .ranks(2)
            .build()
            .unwrap();
        sim.run_local(4).unwrap();
        assert!(sim.all_finite().unwrap());
    }

    #[test]
    fn sparse_mass_is_conserved_and_finite_across_ranks() {
        let global = Dim3::new(16, 16, 16);
        let geom = Geometry::porous(global, 3.0, 0.3, 7).unwrap();
        for storage in StorageMode::ALL {
            let mut sim = Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(ForcedFlow::new(G))
                .geometry(geom.clone())
                .storage(storage)
                .ranks(2)
                .build()
                .unwrap();
            let p0 = sim.probe().unwrap();
            sim.run_local(6).unwrap();
            let p1 = sim.probe().unwrap();
            assert!(sim.all_finite().unwrap());
            assert!(
                (p1.mass - p0.mass).abs() < 1e-9 * p0.mass,
                "{storage:?}: stored mass drifted: {} -> {}",
                p0.mass,
                p1.mass
            );
        }
    }
}
