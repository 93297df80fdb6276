//! Voxel geometry and sparse fluid-tile bookkeeping.
//!
//! Everything the dense stack runs is a box: [`crate::boundary::SectionMask`]
//! marks solid cells but still pays full storage and bandwidth for them. This
//! module is the geometry half of the sparse tiled backend: a voxel
//! [`Geometry`] (built from analytic shapes — pipe, bifurcation, porous bed —
//! or any predicate) is chunked into fixed 4×4×4 **tiles**, and only tiles
//! that contain fluid *or touch a fluid tile* are allocated into a packed
//! tile list ([`SparseTiles`]). Streaming across tile boundaries is resolved
//! through a per-tile 27-entry neighbour table (indirect addressing); a
//! missing neighbour (`-1`) reads as vacuum (`0.0`), which is exact because
//! the rim-allocation rule guarantees fluid cells never reference an
//! unallocated tile (lattice reach ≤ 3 < 4 = tile edge).
//!
//! The compute side (tile-major population storage + gather/bounce/collide
//! drivers) lives in [`crate::kernels::sparse`].

use crate::boundary::SectionMask;
use crate::error::{Error, Result};
use crate::index::{wrap, Dim3};
use crate::lattice::Lattice;
use crate::snapshot::fnv1a;

/// Tile edge length in cells. Fixed: the neighbour table covers offsets
/// −1..=1 per axis, which is sufficient exactly because every lattice
/// velocity component is ≤ 3 < `TILE_B`.
pub const TILE_B: usize = 4;
/// Cells per tile (`TILE_B`³).
pub const TILE_CELLS: usize = TILE_B * TILE_B * TILE_B;
/// Neighbour-table entries per tile (3³ including self at the centre slot).
pub const TILE_NEIGHBORS: usize = 27;

/// Magic prefix of an encoded geometry frame (see [`Geometry::encode_frame`]).
pub const GEOMETRY_FRAME_MAGIC: &[u8; 8] = b"LBMGEOM1";

/// [`wrap`] with the `isize` offsets tile arithmetic naturally produces.
#[inline(always)]
fn wrapc(i: usize, off: isize, n: usize) -> usize {
    wrap(i, off as i32, n)
}

/// Linear cell index inside a tile: x-major, z fastest — matching the dense
/// [`Dim3`] convention at tile scale.
#[inline(always)]
pub fn tile_cell(lx: usize, ly: usize, lz: usize) -> usize {
    (lx * TILE_B + ly) * TILE_B + lz
}

/// Neighbour-table slot for a tile offset with each component in −1..=1.
#[inline(always)]
pub fn neighbor_slot(dx: isize, dy: isize, dz: isize) -> usize {
    (((dx + 1) * 3 + (dy + 1)) * 3 + (dz + 1)) as usize
}

/// A voxelized fluid/solid map over a global box, periodic on every axis.
///
/// `true` = fluid (collides), `false` = solid (full-way bounce-back, exactly
/// the dense `SectionMask` treatment). Storage is x-major/z-fastest in
/// [`Dim3`] index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Geometry {
    dims: Dim3,
    fluid: Vec<bool>,
}

impl Geometry {
    /// Build from a predicate evaluated at every voxel.
    pub fn from_fn(dims: Dim3, f: impl Fn(usize, usize, usize) -> bool) -> Result<Self> {
        if dims.nx == 0 || dims.ny == 0 || dims.nz == 0 {
            return Err(Error::BadDimensions(format!(
                "geometry dims must be nonzero, got {}x{}x{}",
                dims.nx, dims.ny, dims.nz
            )));
        }
        let mut fluid = vec![false; dims.nx * dims.ny * dims.nz];
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    fluid[dims.idx(x, y, z)] = f(x, y, z);
                }
            }
        }
        Ok(Self { dims, fluid })
    }

    /// An x-invariant circular pipe centred in the (y, z) cross-section.
    pub fn pipe(dims: Dim3, radius: f64) -> Result<Self> {
        let cy = (dims.ny as f64 - 1.0) / 2.0;
        let cz = (dims.nz as f64 - 1.0) / 2.0;
        Self::pipe_at(dims, cy, cz, radius)
    }

    /// An x-invariant circular pipe centred at `(cy, cz)`.
    pub fn pipe_at(dims: Dim3, cy: f64, cz: f64, radius: f64) -> Result<Self> {
        if radius <= 0.0 {
            return Err(Error::BadParameter(format!("pipe radius {radius} <= 0")));
        }
        let r2 = radius * radius;
        Self::from_fn(dims, |_, y, z| {
            let dy = y as f64 - cy;
            let dz = z as f64 - cz;
            dy * dy + dz * dz <= r2
        })
    }

    /// A trunk pipe that splits into two diverging branches at `x = nx/2`
    /// — a cartoon of the vascular bifurcations the paper's target
    /// geometries are made of. Fully 3-D (not expressible as a
    /// `SectionMask`).
    pub fn bifurcation(dims: Dim3, trunk_r: f64, branch_r: f64) -> Result<Self> {
        if trunk_r <= 0.0 || branch_r <= 0.0 {
            return Err(Error::BadParameter(format!(
                "bifurcation radii must be positive, got trunk {trunk_r} branch {branch_r}"
            )));
        }
        let cy = (dims.ny as f64 - 1.0) / 2.0;
        let cz = (dims.nz as f64 - 1.0) / 2.0;
        let xs = dims.nx / 2;
        let sep_max = (cy - branch_r - 1.0).max(0.0);
        let span = (dims.nx - xs).max(1) as f64;
        let tr2 = trunk_r * trunk_r;
        let br2 = branch_r * branch_r;
        Self::from_fn(dims, |x, y, z| {
            let dz = z as f64 - cz;
            if x < xs {
                let dy = y as f64 - cy;
                dy * dy + dz * dz <= tr2
            } else {
                let sep = sep_max * (x - xs + 1) as f64 / span;
                let da = y as f64 - (cy - sep);
                let db = y as f64 - (cy + sep);
                da * da + dz * dz <= br2 || db * db + dz * dz <= br2
            }
        })
    }

    /// A random-but-deterministic porous bed: fluid blobs of radius
    /// `blob_r` are deposited (periodically wrapped) at LCG-driven centres
    /// until the fluid fraction reaches `target_fluid`. Clumped fluid keeps
    /// the tile set sparse at low fractions, unlike per-voxel noise.
    pub fn porous(dims: Dim3, blob_r: f64, target_fluid: f64, seed: u64) -> Result<Self> {
        if blob_r <= 0.0 {
            return Err(Error::BadParameter(format!("porous blob_r {blob_r} <= 0")));
        }
        if !(0.0..=1.0).contains(&target_fluid) || target_fluid == 0.0 {
            return Err(Error::BadParameter(format!(
                "porous target_fluid {target_fluid} outside (0, 1]"
            )));
        }
        let mut g = Self::from_fn(dims, |_, _, _| false)?;
        let total = g.fluid.len();
        let mut fluid_count = 0usize;
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut draw = |n: usize| -> usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let rb = blob_r.ceil() as isize;
        let r2 = blob_r * blob_r;
        // Each blob deposits ≥ 1 voxel, so this terminates.
        while (fluid_count as f64) < target_fluid * total as f64 {
            let (cx, cy, cz) = (draw(dims.nx), draw(dims.ny), draw(dims.nz));
            for dx in -rb..=rb {
                for dy in -rb..=rb {
                    for dz in -rb..=rb {
                        let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                        if d2 > r2 {
                            continue;
                        }
                        let x = wrapc(cx, dx, dims.nx);
                        let y = wrapc(cy, dy, dims.ny);
                        let z = wrapc(cz, dz, dims.nz);
                        let i = g.dims.idx(x, y, z);
                        if !g.fluid[i] {
                            g.fluid[i] = true;
                            fluid_count += 1;
                        }
                    }
                }
            }
        }
        Ok(g)
    }

    /// Extrude a dense cross-section mask along x: fluid wherever the mask
    /// is *not* solid.
    pub fn from_mask(nx: usize, mask: &SectionMask) -> Result<Self> {
        let (ny, nz) = mask.dims();
        Self::from_fn(Dim3 { nx, ny, nz }, |_, y, z| !mask.is_solid(y, z))
    }

    /// The equivalent `SectionMask` if this geometry is x-invariant
    /// (`None` otherwise) — the bridge to the dense masked path used by the
    /// equivalence tests.
    pub fn to_section_mask(&self) -> Option<SectionMask> {
        for x in 1..self.dims.nx {
            for y in 0..self.dims.ny {
                for z in 0..self.dims.nz {
                    if self.fluid[self.dims.idx(x, y, z)] != self.fluid[self.dims.idx(0, y, z)] {
                        return None;
                    }
                }
            }
        }
        let d = self.dims;
        Some(SectionMask::from_fn(d.ny, d.nz, |y, z| {
            !self.fluid[d.idx(0, y, z)]
        }))
    }

    /// Global box dimensions.
    pub fn dims(&self) -> Dim3 {
        self.dims
    }

    /// Whether voxel `(x, y, z)` is fluid.
    #[inline(always)]
    pub fn is_fluid(&self, x: usize, y: usize, z: usize) -> bool {
        self.fluid[self.dims.idx(x, y, z)]
    }

    /// Number of fluid voxels.
    pub fn fluid_count(&self) -> u64 {
        self.fluid.iter().filter(|&&f| f).count() as u64
    }

    /// Fluid voxels over total voxels.
    pub fn fluid_fraction(&self) -> f64 {
        self.fluid_count() as f64 / self.fluid.len() as f64
    }

    /// Check the constraints the tiled backend needs: every dimension a
    /// multiple of [`TILE_B`] and at least one fluid voxel.
    pub fn validate_tiles(&self) -> Result<()> {
        let d = self.dims;
        if !d.nx.is_multiple_of(TILE_B)
            || !d.ny.is_multiple_of(TILE_B)
            || !d.nz.is_multiple_of(TILE_B)
        {
            return Err(Error::BadDimensions(format!(
                "sparse tiles need dims divisible by {TILE_B}, got {}x{}x{}",
                d.nx, d.ny, d.nz
            )));
        }
        if !self.fluid.iter().any(|&f| f) {
            return Err(Error::BadParameter("geometry has no fluid voxels".into()));
        }
        Ok(())
    }

    /// Reject geometries where a multi-cell hop (gcd > 1 velocity, D3Q39
    /// shells (2,0,0)/(2,2,0)/(3,0,0)) connects two fluid voxels across a
    /// solid intermediate — the 3-D analogue of the dense
    /// `SectionMask` tunnelling check: bounce-back is applied at the
    /// streaming *endpoints*, so such a hop would leak through the wall.
    pub fn check_tunneling(&self, lat: &Lattice) -> Result<()> {
        let mut hops: Vec<([isize; 3], [isize; 3], isize)> = Vec::new();
        for c in lat.velocities() {
            let g = gcd3(
                c[0].unsigned_abs(),
                c[1].unsigned_abs(),
                c[2].unsigned_abs(),
            );
            if g > 1 {
                let gi = g as isize;
                let c = [c[0] as isize, c[1] as isize, c[2] as isize];
                hops.push((c, [c[0] / gi, c[1] / gi, c[2] / gi], gi));
            }
        }
        if hops.is_empty() {
            return Ok(());
        }
        let d = self.dims;
        for x in 0..d.nx {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    if !self.fluid[d.idx(x, y, z)] {
                        continue;
                    }
                    for (c, e, g) in &hops {
                        let qx = wrapc(x, c[0], d.nx);
                        let qy = wrapc(y, c[1], d.ny);
                        let qz = wrapc(z, c[2], d.nz);
                        if !self.fluid[d.idx(qx, qy, qz)] {
                            continue;
                        }
                        for s in 1..*g {
                            let ix = wrapc(x, e[0] * s, d.nx);
                            let iy = wrapc(y, e[1] * s, d.ny);
                            let iz = wrapc(z, e[2] * s, d.nz);
                            if !self.fluid[d.idx(ix, iy, iz)] {
                                return Err(Error::BadParameter(format!(
                                    "lattice {} hop ({},{},{}) from fluid ({x},{y},{z}) \
                                     tunnels through solid ({ix},{iy},{iz})",
                                    lat.name(),
                                    c[0],
                                    c[1],
                                    c[2]
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Append the self-describing RLE frame used by the checkpoint
    /// container: magic, dims, run-length-encoded voxels, FNV-1a checksum.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(GEOMETRY_FRAME_MAGIC);
        for n in [self.dims.nx, self.dims.ny, self.dims.nz] {
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
        out.push(u8::from(self.fluid[0]));
        let mut runs: Vec<u64> = Vec::new();
        let mut cur = self.fluid[0];
        let mut len = 0u64;
        for &v in &self.fluid {
            if v == cur {
                len += 1;
            } else {
                runs.push(len);
                cur = v;
                len = 1;
            }
        }
        runs.push(len);
        out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
        for r in &runs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        let sum = fnv1a(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Decode a frame written by [`Self::encode_frame`], advancing `pos`.
    pub fn decode_frame(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let (dims, first, runs, end) = Self::parse_frame(buf, *pos)?;
        let total = dims.nx * dims.ny * dims.nz;
        let mut fluid = Vec::with_capacity(total);
        let mut v = first;
        for r in runs {
            for _ in 0..r {
                fluid.push(v);
            }
            v = !v;
        }
        *pos = end;
        Ok(Self { dims, fluid })
    }

    /// Write this geometry as a standalone `.lbmgeo` voxel file: exactly one
    /// [`Self::encode_frame`] — magic, dims, RLE runs, FNV-1a checksum —
    /// and nothing else, so the on-disk format *is* the checkpoint
    /// container's geometry frame (same codec, same validator).
    pub fn to_file(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let mut buf = Vec::new();
        self.encode_frame(&mut buf);
        std::fs::write(path.as_ref(), &buf)
            .map_err(|e| Error::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Load a `.lbmgeo` file written by [`Self::to_file`]. Trailing bytes
    /// after the frame are rejected, so a concatenation or a partially
    /// overwritten file cannot be silently mistaken for a valid geometry.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let buf = std::fs::read(path.as_ref())
            .map_err(|e| Error::Io(format!("read {}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&buf)
    }

    /// The geometry of a whole `.lbmgeo` file's bytes: one frame and no
    /// trailing byte (the rule of [`Self::from_file`]).
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let g = Self::decode_frame(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(Error::Corrupt(format!(
                "geometry file: {} trailing bytes after frame",
                buf.len() - pos
            )));
        }
        Ok(g)
    }

    /// Walk and checksum a frame without materialising the voxels.
    pub fn validate_frame(buf: &[u8], pos: &mut usize) -> Result<()> {
        let (_, _, _, end) = Self::parse_frame(buf, *pos)?;
        *pos = end;
        Ok(())
    }

    /// Shared frame parser: returns (dims, first value, run lengths, end
    /// offset) after verifying magic, bounds, run sum and checksum.
    #[allow(clippy::type_complexity)]
    fn parse_frame(buf: &[u8], start: usize) -> Result<(Dim3, bool, Vec<u64>, usize)> {
        let corrupt = |m: &str| Error::Corrupt(format!("geometry frame: {m}"));
        let mut pos = start;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf
                .get(*pos..*pos + n)
                .ok_or_else(|| corrupt("truncated"))?;
            *pos += n;
            Ok(s)
        };
        let u64_at = |pos: &mut usize| -> Result<u64> {
            let b = take(pos, 8)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        if take(&mut pos, 8)? != GEOMETRY_FRAME_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let nx = u64_at(&mut pos)?;
        let ny = u64_at(&mut pos)?;
        let nz = u64_at(&mut pos)?;
        let total = nx
            .checked_mul(ny)
            .and_then(|p| p.checked_mul(nz))
            .filter(|&t| t > 0 && t <= 1 << 32)
            .ok_or_else(|| corrupt("absurd dimensions"))?;
        let first = match take(&mut pos, 1)?[0] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bad first-run value")),
        };
        let nruns = u64_at(&mut pos)?;
        if nruns == 0 || nruns as usize > buf.len().saturating_sub(pos) / 8 {
            return Err(corrupt("bad run count"));
        }
        let mut runs = Vec::with_capacity(nruns as usize);
        let mut sum = 0u64;
        for _ in 0..nruns {
            let r = u64_at(&mut pos)?;
            if r == 0 {
                return Err(corrupt("zero-length run"));
            }
            sum = sum.checked_add(r).ok_or_else(|| corrupt("run overflow"))?;
            runs.push(r);
        }
        if sum != total {
            return Err(corrupt("runs do not cover the box"));
        }
        let body_sum = fnv1a(&buf[start..pos]);
        let stored = u64_at(&mut pos)?;
        if stored != body_sum {
            return Err(corrupt("checksum mismatch"));
        }
        let dims = Dim3 {
            nx: nx as usize,
            ny: ny as usize,
            nz: nz as usize,
        };
        Ok((dims, first, runs, pos))
    }
}

/// gcd of three non-negative components.
fn gcd3(a: u32, b: u32, c: u32) -> u32 {
    fn gcd(mut a: u32, mut b: u32) -> u32 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    gcd(gcd(a, b), c)
}

/// One allocated tile of the packed list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileInfo {
    /// Tile coordinate (local to the owning [`SparseTiles`] grid).
    pub tx: usize,
    /// Tile y coordinate.
    pub ty: usize,
    /// Tile z coordinate.
    pub tz: usize,
    /// Fluid bitmap: bit [`tile_cell`]`(lx, ly, lz)` set ⇔ that cell is
    /// fluid. All-zero for rim tiles allocated only to back bounce-back.
    pub fluid: u64,
}

/// The packed fluid-tile list for one rank (or the whole box): which tiles
/// are allocated, their fluid bitmaps, and the 27-entry neighbour table that
/// resolves cross-tile streaming by indirect addressing.
///
/// Allocation rule: a tile is allocated iff it **or any of its 26 periodic
/// neighbours** contains fluid. The rim tiles hold the solid cells whose
/// bounce-back state feeds adjacent fluid; everything further from the fluid
/// is never touched and reads as vacuum through `-1` neighbour entries.
///
/// Packed order: owned tiles first (local coordinate order), then ghost
/// tiles — so owned tiles are the contiguous prefix `0..owned_tiles`.
#[derive(Clone, Debug)]
pub struct SparseTiles {
    /// Local tile-grid dimensions (owned columns plus ghost columns).
    pub tdims: Dim3,
    /// Packed allocated tiles.
    pub tiles: Vec<TileInfo>,
    /// Per-packed-tile neighbour table indexed by [`neighbor_slot`]:
    /// packed index of the neighbouring tile or `-1` if unallocated.
    pub neighbors: Vec<[i32; TILE_NEIGHBORS]>,
    /// Dense local tile grid → packed index or `-1`.
    pub tile_of: Vec<i32>,
    /// Count of owned (computed) tiles — the prefix of `tiles`.
    pub owned_tiles: usize,
    /// Fluid cells inside owned tiles.
    pub owned_fluid_cells: u64,
    /// Global tile column of the first *owned* local column.
    pub col_lo: usize,
    /// Ghost columns per side (0 serial; ≥ 1 distributed — two-grid needs
    /// 1, in-place AA needs `ceil(2·reach / TILE_B)`).
    pub ghost_cols: usize,
    /// Packed indices of owned boundary tiles shipped left: the outermost
    /// `ghost_cols` owned columns, ascending column then (ty, tz).
    pub send_left: Vec<usize>,
    /// Packed indices of owned boundary tiles shipped right.
    pub send_right: Vec<usize>,
    /// Packed indices of the left ghost tiles, in the matching order
    /// (ascending global column then (ty, tz)).
    pub recv_left: Vec<usize>,
    /// Packed indices of the right ghost tiles.
    pub recv_right: Vec<usize>,
    /// Owned tiles that are all fluid with all 27 neighbours allocated,
    /// packed order. A statistic only: no step reads it, every step runs
    /// one tile list.
    pub fast_owned: Vec<usize>,
    /// AA even-pass work list: the owned tiles containing fluid (rim tiles
    /// are strict no-ops in the in-place pattern), packed order.
    pub aa_even: Vec<usize>,
    /// AA odd-pass work list: [`Self::aa_even`] followed by the "ghost
    /// writer" tiles in the ghost columns adjacent to the owned span (local
    /// `tx == ghost_cols − 1` or `tx == ghost_cols + n_cols`), whose shallow
    /// cells deterministically duplicate the neighbour rank's scatter into
    /// our boundary slots.
    pub aa_odd: Vec<usize>,
}

impl SparseTiles {
    /// Build the whole-box (serial) tile list: every column owned, no
    /// ghosts, neighbour table periodic on all axes.
    pub fn build_serial(geom: &Geometry) -> Result<Self> {
        let gcols = geom.dims().nx / TILE_B;
        Self::build(geom, 0, gcols, 0)
    }

    /// Build the tile list for one rank owning global tile columns
    /// `[col_lo, col_lo + n_cols)`. With `ghost_cols > 0`, that many ghost
    /// columns are appended on each side (periodically wrapped) and the
    /// exchange index lists are populated; tile allocation is always
    /// decided from the *global* geometry so every rank agrees on which
    /// boundary tiles exist.
    pub fn build(geom: &Geometry, col_lo: usize, n_cols: usize, ghost_cols: usize) -> Result<Self> {
        geom.validate_tiles()?;
        let d = geom.dims();
        let gt = Dim3 {
            nx: d.nx / TILE_B,
            ny: d.ny / TILE_B,
            nz: d.nz / TILE_B,
        };
        if n_cols == 0 || col_lo + n_cols > gt.nx {
            return Err(Error::BadDecomposition(format!(
                "tile columns [{col_lo}, {}) outside 0..{}",
                col_lo + n_cols,
                gt.nx
            )));
        }
        if ghost_cols > 0 && n_cols < ghost_cols {
            return Err(Error::BadDecomposition(format!(
                "rank owns {n_cols} tile column(s) but the halo protocol \
                 ships {ghost_cols} — widen the rank's span"
            )));
        }
        // Per-global-tile fluid bitmaps, then the rim-allocation decision.
        let mut masks = vec![0u64; gt.nx * gt.ny * gt.nz];
        for (i, m) in masks.iter_mut().enumerate() {
            let (tx, ty, tz) = gt.coords(i);
            *m = tile_mask(geom, tx, ty, tz);
        }
        let allocated = |tx: usize, ty: usize, tz: usize| -> bool {
            for dx in -1isize..=1 {
                for dy in -1isize..=1 {
                    for dz in -1isize..=1 {
                        let nx = wrapc(tx, dx, gt.nx);
                        let ny = wrapc(ty, dy, gt.ny);
                        let nz = wrapc(tz, dz, gt.nz);
                        if masks[gt.idx(nx, ny, nz)] != 0 {
                            return true;
                        }
                    }
                }
            }
            false
        };
        let g = ghost_cols;
        let tdims = Dim3 {
            nx: n_cols + 2 * g,
            ny: gt.ny,
            nz: gt.nz,
        };
        // Local tile-x → global tile column (ghosts wrap periodically).
        let global_tx = |ltx: usize| -> usize { wrapc(col_lo, ltx as isize - g as isize, gt.nx) };
        let mut tile_of = vec![-1i32; tdims.nx * tdims.ny * tdims.nz];
        let mut tiles: Vec<TileInfo> = Vec::new();
        let mut owned_fluid_cells = 0u64;
        // Owned pass, then ghost pass, each in local coordinate order.
        for pass in 0..2 {
            for ltx in 0..tdims.nx {
                let owned = ltx >= g && ltx < g + n_cols;
                if (pass == 0) != owned {
                    continue;
                }
                let gtx = global_tx(ltx);
                for ty in 0..tdims.ny {
                    for tz in 0..tdims.nz {
                        if !allocated(gtx, ty, tz) {
                            continue;
                        }
                        let mask = masks[gt.idx(gtx, ty, tz)];
                        tile_of[tdims.idx(ltx, ty, tz)] = tiles.len() as i32;
                        if owned {
                            owned_fluid_cells += u64::from(mask.count_ones());
                        }
                        tiles.push(TileInfo {
                            tx: ltx,
                            ty,
                            tz,
                            fluid: mask,
                        });
                    }
                }
            }
            if pass == 0 && tiles.is_empty() {
                return Err(Error::BadDecomposition(format!(
                    "tile columns [{col_lo}, {}) allocate no tiles",
                    col_lo + n_cols
                )));
            }
        }
        let owned_tiles = tiles
            .iter()
            .position(|t| t.tx < g || t.tx >= g + n_cols)
            .unwrap_or(tiles.len());
        // Neighbour tables. Owned tiles are the only computed ones, but the
        // table is filled for every packed tile; x never wraps locally when
        // ghost columns are present (owned tiles always have both sides in
        // range), and out-of-grid entries stay -1.
        let mut neighbors = vec![[-1i32; TILE_NEIGHBORS]; tiles.len()];
        for (p, t) in tiles.iter().enumerate() {
            for dx in -1isize..=1 {
                let ltx = t.tx as isize + dx;
                let ltx = if g > 0 {
                    if ltx < 0 || ltx >= tdims.nx as isize {
                        continue;
                    }
                    ltx as usize
                } else {
                    wrapc(t.tx, dx, tdims.nx)
                };
                for dy in -1isize..=1 {
                    let ty = wrapc(t.ty, dy, tdims.ny);
                    for dz in -1isize..=1 {
                        let tz = wrapc(t.tz, dz, tdims.nz);
                        neighbors[p][neighbor_slot(dx, dy, dz)] = tile_of[tdims.idx(ltx, ty, tz)];
                    }
                }
            }
        }
        let column = |ltx: usize| -> Vec<usize> {
            let mut v: Vec<usize> = (0..tiles.len()).filter(|&p| tiles[p].tx == ltx).collect();
            v.sort_unstable_by_key(|&p| (tiles[p].ty, tiles[p].tz));
            v
        };
        // Multi-column exchange sets concatenate ascending columns so that
        // this rank's send_left enumerates the same global (column, ty, tz)
        // sequence as the left neighbour's recv_right, tile for tile.
        let columns =
            |lo: usize, n: usize| -> Vec<usize> { (lo..lo + n).flat_map(column).collect() };
        let (send_left, send_right, recv_left, recv_right) = if g > 0 {
            (
                columns(g, g),
                columns(n_cols, g),
                columns(0, g),
                columns(g + n_cols, g),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        let fast_owned: Vec<usize> = (0..owned_tiles)
            .filter(|&p| tiles[p].fluid == u64::MAX && neighbors[p].iter().all(|&n| n >= 0))
            .collect();
        let aa_even: Vec<usize> = (0..owned_tiles).filter(|&p| tiles[p].fluid != 0).collect();
        // Ghost writers: the ghost columns touching the owned span. Lattice
        // reach ≤ 3 < TILE_B, so only these columns hold cells whose odd
        // scatter reaches owned slots.
        let aa_odd: Vec<usize> = aa_even
            .iter()
            .copied()
            .chain((owned_tiles..tiles.len()).filter(|&p| {
                let tx = tiles[p].tx;
                tiles[p].fluid != 0 && (tx + 1 == g || tx == g + n_cols)
            }))
            .collect();
        Ok(Self {
            tdims,
            tiles,
            neighbors,
            tile_of,
            owned_tiles,
            owned_fluid_cells,
            col_lo,
            ghost_cols: g,
            send_left,
            send_right,
            recv_left,
            recv_right,
            fast_owned,
            aa_even,
            aa_odd,
        })
    }

    /// Packed tile count (owned + ghost).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Global cell x of local cell x (owned region starts after the ghost
    /// columns), on a global box of `gnx` cells.
    pub fn global_cell_x(&self, local_x: usize, gnx: usize) -> usize {
        let base = self.col_lo * TILE_B;
        wrapc(
            base,
            local_x as isize - (self.ghost_cols * TILE_B) as isize,
            gnx,
        )
    }
}

/// Fluid bitmap of global tile `(tx, ty, tz)`.
fn tile_mask(geom: &Geometry, tx: usize, ty: usize, tz: usize) -> u64 {
    let mut m = 0u64;
    for lx in 0..TILE_B {
        for ly in 0..TILE_B {
            for lz in 0..TILE_B {
                if geom.is_fluid(tx * TILE_B + lx, ty * TILE_B + ly, tz * TILE_B + lz) {
                    m |= 1u64 << tile_cell(lx, ly, lz);
                }
            }
        }
    }
    m
}

/// Fluid-cell count per tile column (groups of [`TILE_B`] x-planes) — the
/// weights the rank decomposition balances instead of slab extent.
pub fn column_fluid_counts(geom: &Geometry) -> Vec<u64> {
    let d = geom.dims();
    let cols = d.nx / TILE_B;
    let mut counts = vec![0u64; cols];
    for x in 0..cols * TILE_B {
        for y in 0..d.ny {
            for z in 0..d.nz {
                if geom.is_fluid(x, y, z) {
                    counts[x / TILE_B] += 1;
                }
            }
        }
    }
    counts
}

/// Split tile columns into `ranks` contiguous ranges balanced by fluid-cell
/// count. Every rank gets at least one column; errors if `ranks` exceeds the
/// column count. Deterministic greedy sweep over the prefix sums.
pub fn partition_columns(counts: &[u64], ranks: usize) -> Result<Vec<(usize, usize)>> {
    if ranks == 0 {
        return Err(Error::BadDecomposition("0 ranks".into()));
    }
    if ranks > counts.len() {
        return Err(Error::BadDecomposition(format!(
            "{ranks} ranks > {} tile columns",
            counts.len()
        )));
    }
    let total: u64 = counts.iter().sum();
    let mut out = Vec::with_capacity(ranks);
    let mut lo = 0usize;
    let mut used = 0u64;
    for r in 0..ranks {
        let remaining_ranks = ranks - r;
        let mut hi = lo + 1;
        let mut acc = counts[lo];
        // Leave enough columns for the ranks after us; stop once we reach
        // an even share of what's left.
        let target = (total - used).div_ceil(remaining_ranks as u64);
        while hi < counts.len() - (remaining_ranks - 1) && acc < target {
            acc += counts[hi];
            hi += 1;
        }
        if r == ranks - 1 {
            while hi < counts.len() {
                acc += counts[hi];
                hi += 1;
            }
        }
        used += acc;
        out.push((lo, hi));
        lo = hi;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::LatticeKind;

    fn dims(nx: usize, ny: usize, nz: usize) -> Dim3 {
        Dim3 { nx, ny, nz }
    }

    #[test]
    fn pipe_is_x_invariant_and_round_trips_mask() {
        let g = Geometry::pipe(dims(16, 24, 24), 8.0).unwrap();
        assert!(g.fluid_count() > 0);
        let mask = g.to_section_mask().expect("pipe is x-invariant");
        let back = Geometry::from_mask(16, &mask).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bifurcation_is_not_x_invariant() {
        let g = Geometry::bifurcation(dims(32, 32, 16), 6.0, 4.0).unwrap();
        assert!(g.to_section_mask().is_none());
        assert!(g.fluid_count() > 0);
    }

    #[test]
    fn porous_hits_target_fraction_deterministically() {
        let a = Geometry::porous(dims(24, 24, 24), 3.0, 0.1, 7).unwrap();
        let b = Geometry::porous(dims(24, 24, 24), 3.0, 0.1, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.fluid_fraction() >= 0.1);
        assert!(a.fluid_fraction() < 0.3, "{}", a.fluid_fraction());
    }

    #[test]
    fn frame_round_trips_and_detects_corruption() {
        let g = Geometry::porous(dims(16, 16, 16), 2.5, 0.2, 3).unwrap();
        let mut buf = vec![0xAA; 3]; // leading junk the frame sits after
        let start = buf.len();
        g.encode_frame(&mut buf);
        let mut pos = start;
        let back = Geometry::decode_frame(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(g, back);
        let mut pos = start;
        Geometry::validate_frame(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        // Any flipped bit anywhere in the frame must be caught.
        for byte in [start, start + 9, buf.len() - 1, buf.len() - 20] {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            let mut pos = start;
            assert!(
                Geometry::decode_frame(&bad, &mut pos).is_err(),
                "flip at {byte} undetected"
            );
        }
        let mut pos = start;
        assert!(Geometry::validate_frame(&buf[..buf.len() - 4], &mut pos).is_err());
    }

    #[test]
    fn lbmgeo_file_round_trips_and_rejects_damage() {
        let g = Geometry::bifurcation(dims(32, 32, 16), 6.0, 4.0).unwrap();
        let path = std::env::temp_dir().join(format!("lbmgeo-rt-{}.lbmgeo", std::process::id()));
        g.to_file(&path).unwrap();
        let back = Geometry::from_file(&path).unwrap();
        assert_eq!(g, back);

        // Corruption anywhere in the file fails the checksum walk.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Geometry::from_file(&path).is_err());

        // A valid frame with trailing garbage is not a valid file.
        bytes[mid] ^= 0x01;
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(Geometry::from_file(&path).is_err());

        std::fs::remove_file(&path).unwrap();
        assert!(Geometry::from_file(&path).is_err(), "missing file is Err");
    }

    #[test]
    fn tiles_allocate_fluid_plus_rim_only() {
        // One fluid cell in the middle of a 16³ box: its tile plus the 26
        // surrounding rim tiles are allocated, the rest are not.
        let g = Geometry::from_fn(dims(16, 16, 16), |x, y, z| (x, y, z) == (8, 8, 8)).unwrap();
        let t = SparseTiles::build_serial(&g).unwrap();
        assert_eq!(t.tile_count(), 27);
        assert_eq!(t.owned_tiles, 27);
        assert_eq!(t.owned_fluid_cells, 1);
        // The fluid tile has all 27 neighbour entries allocated.
        let centre = t.tile_of[t.tdims.idx(2, 2, 2)];
        assert!(centre >= 0);
        let nbrs = t.neighbors[centre as usize];
        assert!(nbrs.iter().all(|&n| n >= 0));
        // A rim corner tile has unallocated entries.
        let corner = t.tile_of[t.tdims.idx(1, 1, 1)];
        assert!(corner >= 0);
        assert!(t.neighbors[corner as usize].contains(&-1));
        // Far tiles unallocated.
        assert_eq!(t.tile_of[t.tdims.idx(0, 0, 0)], -1);
    }

    #[test]
    fn all_solid_box_rejected_and_full_box_dense() {
        let g = Geometry::from_fn(dims(8, 8, 8), |_, _, _| false).unwrap();
        assert!(SparseTiles::build_serial(&g).is_err());
        let g = Geometry::from_fn(dims(8, 8, 8), |_, _, _| true).unwrap();
        let t = SparseTiles::build_serial(&g).unwrap();
        assert_eq!(t.tile_count(), 8);
        assert_eq!(t.owned_fluid_cells, 512);
    }

    #[test]
    fn indivisible_dims_rejected() {
        let g = Geometry::from_fn(dims(10, 8, 8), |_, _, _| true).unwrap();
        assert!(matches!(
            SparseTiles::build_serial(&g),
            Err(Error::BadDimensions(_))
        ));
    }

    #[test]
    fn ghost_build_mirrors_global_allocation() {
        let g = Geometry::pipe(dims(32, 16, 16), 6.0).unwrap();
        let serial = SparseTiles::build_serial(&g);
        let serial = serial.unwrap();
        let cols = 32 / TILE_B;
        let counts = column_fluid_counts(&g);
        let parts = partition_columns(&counts, 2).unwrap();
        let mut owned_sum = 0;
        for &(lo, hi) in &parts {
            let t = SparseTiles::build(&g, lo, hi - lo, 1).unwrap();
            owned_sum += t.owned_fluid_cells;
            assert_eq!(t.tdims.nx, hi - lo + 2);
            // Boundary send sets match the ghost recv sets of the
            // periodic neighbour by construction from the same geometry.
            assert_eq!(t.send_left.len(), t.recv_left.len());
            assert!(!t.send_left.is_empty());
            // Ghost tiles sit after every owned tile in packed order.
            assert!(t
                .tiles
                .iter()
                .skip(t.owned_tiles)
                .all(|ti| ti.tx == 0 || ti.tx == t.tdims.nx - 1));
        }
        assert_eq!(owned_sum, serial.owned_fluid_cells);
        assert_eq!(parts.last().unwrap().1, cols);
    }

    #[test]
    fn partition_balances_fluid_not_extent() {
        // All fluid concentrated in the first two columns: the split must
        // give rank 0 far fewer columns than rank 1.
        let counts = vec![1000, 1000, 1, 1, 1, 1, 1, 1];
        let parts = partition_columns(&counts, 2).unwrap();
        assert_eq!(parts[0], (0, 2));
        assert_eq!(parts[1], (2, 8));
        assert!(partition_columns(&counts, 9).is_err());
        let one = partition_columns(&counts, 1).unwrap();
        assert_eq!(one, vec![(0, 8)]);
    }

    #[test]
    fn tunneling_check_matches_lattice_reach() {
        // A 1-cell slit: fine for D3Q19 (unit hops), tunnels for D3Q39.
        let g = Geometry::from_fn(dims(8, 8, 8), |_, y, _| y != 3 && y != 5).unwrap();
        let q19 = Lattice::new(LatticeKind::D3Q19);
        let q39 = Lattice::new(LatticeKind::D3Q39);
        g.check_tunneling(&q19).unwrap();
        assert!(g.check_tunneling(&q39).is_err());
        // A 3-cell-thick wall stops even the (3,0,0) hop.
        let g = Geometry::from_fn(dims(8, 8, 8), |_, y, _| !(3..6).contains(&y)).unwrap();
        g.check_tunneling(&q39).unwrap();
    }

    #[test]
    fn global_cell_x_maps_ghosts_periodically() {
        let g = Geometry::pipe(dims(32, 16, 16), 6.0).unwrap();
        let t = SparseTiles::build(&g, 0, 4, 1).unwrap();
        assert_eq!(t.global_cell_x(4, 32), 0); // first owned cell
        assert_eq!(t.global_cell_x(0, 32), 28); // left ghost wraps
        assert_eq!(t.global_cell_x(4 + 16, 32), 16); // right ghost
    }

    #[test]
    fn aa_lists_are_owned_fluid_tiles_plus_ghost_writers() {
        // A wide pipe has all-fluid interior tiles and rim tiles without
        // fluid. The even list is the owned fluid tiles in packed order; the
        // odd list adds the fluid tiles of the two ghost columns touching
        // the owned span, and equals the even list on a serial build.
        let g = Geometry::pipe(dims(16, 24, 24), 10.0).unwrap();
        for t in [
            SparseTiles::build_serial(&g).unwrap(),
            SparseTiles::build(&g, 1, 2, 1).unwrap(),
        ] {
            let owned_fluid: Vec<usize> = (0..t.owned_tiles)
                .filter(|&p| t.tiles[p].fluid != 0)
                .collect();
            assert!(
                owned_fluid.len() < t.owned_tiles,
                "pipe wall makes rim tiles"
            );
            assert_eq!(t.aa_even, owned_fluid);
            let writers: Vec<usize> = (t.owned_tiles..t.tile_count())
                .filter(|&p| {
                    let tx = t.tiles[p].tx;
                    t.tiles[p].fluid != 0
                        && (tx + 1 == t.ghost_cols || tx == t.tdims.nx - t.ghost_cols)
                })
                .collect();
            assert_eq!(t.aa_odd[..t.aa_even.len()], t.aa_even[..]);
            assert_eq!(t.aa_odd[t.aa_even.len()..], writers[..]);
            assert_eq!(writers.is_empty(), t.ghost_cols == 0);
            // The statistic: owned tiles all fluid with every neighbour.
            assert!(!t.fast_owned.is_empty(), "wide pipe has interior tiles");
            for p in 0..t.owned_tiles {
                let full = t.tiles[p].fluid == u64::MAX && t.neighbors[p].iter().all(|&n| n >= 0);
                assert_eq!(t.fast_owned.contains(&p), full);
            }
        }
    }

    #[test]
    fn multi_ghost_column_exchange_sets_correspond() {
        // All-fluid 32³ box split in two: with 2 ghost columns each rank
        // ships its outermost 2 owned columns, and rank 0's send_left must
        // enumerate the same global tiles as rank 1's recv_right.
        let g = Geometry::from_fn(dims(32, 16, 16), |_, _, _| true).unwrap();
        let a = SparseTiles::build(&g, 0, 4, 2).unwrap();
        let b = SparseTiles::build(&g, 4, 4, 2).unwrap();
        assert_eq!(a.tdims.nx, 8);
        for t in [&a, &b] {
            for list in [&t.send_left, &t.send_right, &t.recv_left, &t.recv_right] {
                assert_eq!(list.len(), 2 * 4 * 4);
            }
        }
        let globals = |t: &SparseTiles, list: &[usize]| -> Vec<(usize, usize, usize)> {
            list.iter()
                .map(|&p| {
                    let ti = t.tiles[p];
                    let gx = t.global_cell_x(ti.tx * TILE_B, 32) / TILE_B;
                    (gx, ti.ty, ti.tz)
                })
                .collect()
        };
        // a's left boundary wraps to b's right ghosts and vice versa.
        assert_eq!(globals(&a, &a.send_left), globals(&b, &b.recv_right));
        assert_eq!(globals(&a, &a.send_right), globals(&b, &b.recv_left));
        assert_eq!(globals(&b, &b.send_left), globals(&a, &a.recv_right));
        // Ghost writers: only the adjacent ghost columns join the odd list.
        assert!(a.aa_odd.len() > a.aa_even.len());
        for &p in &a.aa_odd {
            let tx = a.tiles[p].tx;
            assert!((2..6).contains(&tx) || tx == 1 || tx == 6, "tx {tx}");
        }
        // A rank narrower than the halo is rejected.
        assert!(SparseTiles::build(&g, 0, 1, 2).is_err());
    }
}
