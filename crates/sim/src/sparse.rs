//! The sparse tiled-geometry layout of a rank.
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
//! [`Tiles`] is only the layout: the tile list, its frames and what reads or
//! writes them (pack, unpack, snapshot, invariants). The one
//! [`RankSolver`](crate::distributed::RankSolver) steps it, with the same
//! step loops, exchange routine, thread pool and counters as a dense slab.

use lbm_core::domain::Subdomain;
use lbm_core::field::{DistField, StorageMode};
use lbm_core::geometry::{self, Geometry, SparseTiles, TILE_B, TILE_CELLS};
use lbm_core::index::Dim3;
use lbm_core::kernels::sparse::{self, GatherTable, SparseField};
use lbm_core::kernels::{KernelCtx, MAX_Q};
use lbm_core::moments::Moments;
use lbm_core::{Error, Result};

use crate::config::{CommStrategy, SimConfig};
use crate::halo::Side;
use crate::json::Json;

/// The communication schedule and ghost depth every sparse run uses,
/// whatever the configuration asks: the tile exchange is the eager
/// pattern, run every step (every pair under AA) like a depth-1 halo.
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
                // `to_json` writes the seed's bits as an i64.
                seed: v
                    .get("seed")
                    .and_then(Json::as_i64)
                    .map(|i| i as u64)
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

/// The tile layout of one rank: its allocated tiles (owned columns first,
/// then the ghost columns) and their packed population frames.
pub(crate) struct Tiles {
    pub(crate) tiles: SparseTiles,
    pub(crate) gt: GatherTable,
    pub(crate) f: SparseField,
    /// Two-grid destination buffer; `None` under AA storage — that absence
    /// *is* the resident-bytes halving.
    pub(crate) tmp: Option<SparseField>,
}

impl Tiles {
    /// Rank `rank`'s tiles of `geom` with no population written, and the
    /// x-slab its tile columns own.
    pub(crate) fn allocate(
        cfg: &SimConfig,
        geom: &Geometry,
        ctx: &KernelCtx,
        rank: usize,
    ) -> Result<(Self, Subdomain)> {
        let counts = geometry::column_fluid_counts(geom);
        let (lo, hi) = geometry::partition_columns(&counts, cfg.ranks)?[rank];
        let tiles = SparseTiles::build(geom, lo, hi - lo, cfg.sparse_ghost_cols())?;
        let gt = GatherTable::new(&ctx.lat);
        let f = SparseField::new(ctx.lat.q(), tiles.tile_count())?;
        let tmp = (cfg.storage == StorageMode::TwoGrid)
            .then(|| SparseField::new(ctx.lat.q(), tiles.tile_count()))
            .transpose()?;
        let sub = Subdomain {
            global: cfg.global,
            rank,
            ranks: cfg.ranks,
            x_start: lo * TILE_B,
            nx: (hi - lo) * TILE_B,
        };
        Ok((Self { tiles, gt, f, tmp }, sub))
    }

    /// Set every allocated cell to the equilibrium of `state` at its global
    /// site. AA frames hold the *streamed* image at even parity, so there
    /// the slots carry the pull-streamed equilibrium — a two-grid twin
    /// started from the same state stays comparable pair for pair.
    pub(crate) fn init(
        &mut self,
        ctx: &KernelCtx,
        storage: StorageMode,
        global: Dim3,
        state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
    ) {
        match storage {
            StorageMode::TwoGrid => {
                sparse::init_equilibrium(ctx, &self.tiles, &self.gt, &mut self.f, global, state)
            }
            StorageMode::InPlaceAa => {
                sparse::init_equilibrium_aa(ctx, &self.tiles, &mut self.f, global, state)
            }
        }
    }

    /// Pack the frames of the owned boundary tiles that the neighbour on
    /// `side` keeps as ghosts into `buf`.
    pub(crate) fn pack(&self, side: Side, buf: &mut Vec<f64>) {
        let idx = match side {
            Side::Left => &self.tiles.send_left,
            Side::Right => &self.tiles.send_right,
        };
        buf.clear();
        for &t in idx {
            buf.extend_from_slice(self.f.frame(t));
        }
    }

    /// Unpack the neighbour's [`Self::pack`] into the ghost tiles on `side`.
    /// Ghost frames are never escape-zeroed locally — their owner's copy is
    /// authoritative.
    pub(crate) fn unpack(&mut self, side: Side, msg: &[f64]) {
        let idx = match side {
            Side::Left => &self.tiles.recv_left,
            Side::Right => &self.tiles.recv_right,
        };
        let fl = self.f.frame_len();
        debug_assert_eq!(msg.len(), idx.len() * fl, "boundary frame mismatch");
        for (&t, frame) in idx.iter().zip(msg.chunks_exact(fl)) {
            self.f.frame_mut(t).copy_from_slice(frame);
        }
    }

    /// Bytes held in the packed population buffers — two under two-grid,
    /// one under AA.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.f.resident_bytes() + self.tmp.as_ref().map_or(0, SparseField::resident_bytes)
    }

    /// Stored mass and raw slot momentum over the owned tiles (every
    /// allocated cell: rim bounce-back cells carry in-flight population
    /// between steps, so they are part of the conserved totals exactly as
    /// dense wall cells are).
    pub(crate) fn invariants(&self, ctx: &KernelCtx) -> (f64, [f64; 3]) {
        let cc = ctx.lat.velocities();
        let mut mass = 0.0;
        let mut mom = [0.0f64; 3];
        for t in 0..self.tiles.owned_tiles {
            let frame = self.f.frame(t);
            for (i, c) in cc.iter().enumerate().take(ctx.lat.q()) {
                let s: f64 = frame[i * TILE_CELLS..(i + 1) * TILE_CELLS].iter().sum();
                mass += s;
                for a in 0..3 {
                    mom[a] += s * f64::from(c[a]);
                }
            }
        }
        (mass, mom)
    }

    /// Peak |u| over the owned fluid cells (solid cells hold bounce state,
    /// not flow).
    pub(crate) fn max_speed(&self, ctx: &KernelCtx) -> f64 {
        let q = ctx.lat.q();
        let mut cell = [0.0f64; MAX_Q];
        let mut peak: f64 = 0.0;
        for t in 0..self.tiles.owned_tiles {
            let fluid = self.tiles.tiles[t].fluid;
            for c in (0..TILE_CELLS).filter(|c| fluid >> c & 1 == 1) {
                self.f.gather_cell(t, c, &mut cell[..q]);
                let m = Moments::of_cell(&ctx.lat, &cell[..q]);
                let s = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).sqrt();
                peak = peak.max(s);
            }
        }
        peak
    }

    /// Scatter the owned tiles into a dense halo-free [`DistField`] of `d`
    /// (the rank's owned box) — the same shape the dense layout snapshots,
    /// so the checkpoint container's field codec is layout-agnostic. Cells
    /// in unallocated tiles read 0 (they hold no state by construction).
    pub(crate) fn snapshot(&self, d: Dim3) -> DistField {
        let mut out = DistField::new(self.f.q(), d, 0).expect("owned snapshot shape");
        for (t, c, cell) in owned_cells(&self.tiles, d) {
            for i in 0..self.f.q() {
                out.slab_mut(i)[cell] = self.f.frame(t)[i * TILE_CELLS + c];
            }
        }
        out
    }

    /// Inverse of [`Self::snapshot`]. Ghost frames are left as they are
    /// (zero on a freshly allocated rank): the exchange ahead of the next
    /// step that reads them refreshes them first.
    pub(crate) fn restore(&mut self, snap: &DistField) {
        let q = self.f.q();
        for (t, c, cell) in owned_cells(&self.tiles, snap.alloc_dims()) {
            let frame = self.f.frame_mut(t);
            for i in 0..q {
                frame[i * TILE_CELLS + c] = snap.slab(i)[cell];
            }
        }
    }
}

/// Every cell of the owned tiles as `(tile, cell in the tile, index in a
/// dense halo-free slab of d)`, `d` being the rank's owned box.
fn owned_cells(tiles: &SparseTiles, d: Dim3) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let g = tiles.ghost_cols;
    (0..tiles.owned_tiles).flat_map(move |t| {
        let ti = tiles.tiles[t];
        (0..TILE_CELLS).map(move |c| {
            // `c` is `tile_cell(lx, ly, lz)`: x-major inside the tile.
            let (lx, ly, lz) = (c / (TILE_B * TILE_B), c / TILE_B % TILE_B, c % TILE_B);
            let x = (ti.tx - g) * TILE_B + lx;
            (t, c, d.idx(x, ti.ty * TILE_B + ly, ti.tz * TILE_B + lz))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ForcedFlow, Scenario};
    use crate::simulation::Simulation;
    use lbm_core::boundary::{BoundarySpec, SectionMask};
    use lbm_core::collision::BodyForce;
    use lbm_core::kernels::OptLevel;
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
        let ts = tg.engine_mut().unwrap().ranks[0].solver.tiles();
        let sa = aa.engine_mut().unwrap().ranks[0].solver.tiles();
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
