//! Distribution-function and macroscopic-field storage.
//!
//! [`DistField`] is the paper's *collision-optimized* layout (§IV, citing
//! Wellein/Pohl/Rüde): a two-dimensional arrangement
//! `f[velocity][z + y·nz + x·nz·ny]` in contiguous memory — structure of
//! arrays with one *slab* per discrete velocity. The x-extent is enlarged by
//! a halo of ghost planes on each side (the ghost-cell pattern of §V-A);
//! y and z carry no halos because the decomposition is one-dimensional.
//!
//! How many instances a solver holds is the [`StorageMode`]'s business:
//! [`StorageMode::TwoGrid`] keeps the `distr`/`distr_adv` double buffer of
//! the paper's Fig. 2 (two resident populations, swapped each step), while
//! [`StorageMode::InPlaceAa`] streams in place over a *single* resident
//! population using the AA access pattern (even step: read-local/write-local
//! collide; odd step: gather-swapped, collide, scatter-swapped — see
//! [`crate::kernels::aa`]), halving resident population memory.

use crate::align::AlignedBuf;
use crate::error::{Error, Result};
use crate::index::Dim3;

/// How the particle distribution is resident in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageMode {
    /// The paper's layout: two full population arrays (`distr`/`distr_adv`),
    /// swapped every step. Every rung of the optimization ladder runs on it.
    #[default]
    TwoGrid,
    /// AA-pattern in-place streaming: one population array, updated in place
    /// by the alternating even/odd access pattern of
    /// [`crate::kernels::aa`]. Half the resident population memory of
    /// [`StorageMode::TwoGrid`] and `2·Q·8` bytes of model traffic per cell
    /// update instead of the paper's `3·Q·8`.
    InPlaceAa,
}

impl StorageMode {
    /// Both modes, two-grid first.
    pub const ALL: [StorageMode; 2] = [StorageMode::TwoGrid, StorageMode::InPlaceAa];

    /// Stable label (`"two_grid"` / `"aa"`), used by benches and reports.
    pub const fn name(self) -> &'static str {
        match self {
            StorageMode::TwoGrid => "two_grid",
            StorageMode::InPlaceAa => "aa",
        }
    }

    /// Parse a label (case-insensitive; accepts `two_grid`/`twogrid`/`tg`
    /// and `aa`/`in_place_aa`).
    pub fn parse(s: &str) -> Option<Self> {
        let t: String = s
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match t.as_str() {
            "twogrid" | "tg" | "two" => StorageMode::TwoGrid,
            "aa" | "inplaceaa" | "inplace" => StorageMode::InPlaceAa,
            _ => return None,
        })
    }

    /// Resident population arrays a solver holds in this mode.
    pub const fn resident_grids(self) -> usize {
        match self {
            StorageMode::TwoGrid => 2,
            StorageMode::InPlaceAa => 1,
        }
    }
}

/// Structure-of-arrays storage for the particle distribution on one rank's
/// subdomain, halo-extended along x.
#[derive(Debug, Clone)]
pub struct DistField {
    q: usize,
    /// Allocated dims: `alloc.nx = owned.nx + 2*halo`.
    alloc: Dim3,
    owned_nx: usize,
    halo: usize,
    slab_len: usize,
    slab_stride: usize,
    data: AlignedBuf,
}

/// Distance in points between consecutive velocity slabs: `len` rounded up
/// to a 64-byte boundary, then padded so the byte stride is an *odd*
/// multiple of the cache-line size. Grid boxes with power-of-two planes
/// otherwise make every slab's row `(x, y)` land on the same L1/L2 set
/// (the stride is a multiple of 4 KiB), so the Q-row working set of the
/// structure-of-arrays kernels thrashes a single associativity set; an odd
/// line offset walks successive slabs across all 64 line slots of a page.
fn pad_stride(len: usize) -> usize {
    let mut stride = len.next_multiple_of(8);
    if (stride / 8).is_multiple_of(2) {
        stride += 8;
    }
    stride
}

impl DistField {
    /// Allocate a zeroed field for `q` velocities over `owned` lattice points
    /// plus `halo` ghost planes on each side of the x axis.
    pub fn new(q: usize, owned: Dim3, halo: usize) -> Result<Self> {
        if owned.is_empty() {
            return Err(Error::BadDimensions(format!(
                "empty owned region {owned:?}"
            )));
        }
        if q == 0 {
            return Err(Error::BadDimensions("q == 0".into()));
        }
        let alloc = Dim3::new(owned.nx + 2 * halo, owned.ny, owned.nz);
        let slab_len = alloc.len();
        let slab_stride = pad_stride(slab_len);
        let data = AlignedBuf::new(q * slab_stride);
        Ok(Self {
            q,
            alloc,
            owned_nx: owned.nx,
            halo,
            slab_len,
            slab_stride,
            data,
        })
    }

    /// Number of velocity slabs.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Halo width (lattice planes per side).
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Allocated dimensions (including halos).
    #[inline]
    pub fn alloc_dims(&self) -> Dim3 {
        self.alloc
    }

    /// Owned dimensions (excluding halos).
    #[inline]
    pub fn owned_dims(&self) -> Dim3 {
        Dim3::new(self.owned_nx, self.alloc.ny, self.alloc.nz)
    }

    /// Allocation-local x range of the owned region: `halo .. halo+owned_nx`.
    #[inline]
    pub fn owned_x(&self) -> std::ops::Range<usize> {
        self.halo..self.halo + self.owned_nx
    }

    /// Points per slab (allocated lattice points, pad excluded).
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    /// Distance in points between consecutive slab starts in the backing
    /// storage — `slab_len` plus the anti-aliasing pad (see [`pad_stride`]).
    /// Raw-pointer kernels must use this, not [`Self::slab_len`], when
    /// computing `i · stride + idx` offsets.
    #[inline]
    pub fn slab_stride(&self) -> usize {
        self.slab_stride
    }

    /// Linear index inside a slab for allocation-local coordinates.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        self.alloc.idx(x, y, z)
    }

    /// Velocity slab `i` (read).
    #[inline]
    pub fn slab(&self, i: usize) -> &[f64] {
        &self.data[i * self.slab_stride..i * self.slab_stride + self.slab_len]
    }

    /// Velocity slab `i` (write).
    #[inline]
    pub fn slab_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.slab_stride..i * self.slab_stride + self.slab_len]
    }

    /// All slabs as disjoint mutable slices (for per-velocity parallelism).
    pub fn slabs_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let len = self.slab_len;
        self.data
            .chunks_exact_mut(self.slab_stride)
            .map(move |c| &mut c[..len])
    }

    /// The whole backing storage (read).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole backing storage (write).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Raw pointer to the backing storage — used by the (audited) rayon
    /// kernel drivers that split work into disjoint x-chunks.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.data.as_mut_ptr()
    }

    /// Bytes of resident population storage backing this field.
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Gather the Q populations of one cell into `out`.
    #[inline]
    pub fn gather_cell(&self, lin: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.q);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.slab_stride + lin];
        }
    }

    /// Scatter Q populations of one cell from `vals`.
    #[inline]
    pub fn scatter_cell(&mut self, lin: usize, vals: &[f64]) {
        debug_assert_eq!(vals.len(), self.q);
        for (i, v) in vals.iter().enumerate() {
            self.data[i * self.slab_stride + lin] = *v;
        }
    }

    /// Total mass over the owned region (halo excluded), in one streaming
    /// pass. The owned planes are one contiguous range of every slab, taken
    /// in blocks of cells: each cell's ρ is its slots added in order `0..q`,
    /// and the ρs are added into the total in cell order. That is bitwise
    /// the sum of [`crate::moments::Moments::of_cell`]'s `rho` over the
    /// owned cells in [`Dim3::idx`] order. The pass is never split across
    /// threads, since that would reorder the sum.
    pub fn owned_mass(&self) -> f64 {
        const BLOCK: usize = 512; // a 4 KiB stack buffer
        let x = self.owned_x();
        let (start, end) = (self.idx(x.start, 0, 0), self.idx(x.end, 0, 0));
        let mut rho = [0.0f64; BLOCK];
        let mut mass = 0.0;
        for lo in (start..end).step_by(BLOCK) {
            let rho = &mut rho[..BLOCK.min(end - lo)];
            rho.fill(0.0);
            for i in 0..self.q {
                for (r, f) in rho.iter_mut().zip(&self.slab(i)[lo..]) {
                    *r += f;
                }
            }
            for r in rho.iter() {
                mass += r;
            }
        }
        mass
    }

    /// Copy every owned plane and halo plane from `other` (shape must match).
    pub fn copy_from(&mut self, other: &DistField) -> Result<()> {
        if self.q != other.q || self.alloc != other.alloc || self.halo != other.halo {
            return Err(Error::Mismatch("DistField shapes differ".into()));
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Maximum absolute difference over owned regions (test/diagnostic aid).
    pub fn max_abs_diff_owned(&self, other: &DistField) -> f64 {
        assert_eq!(self.q, other.q);
        assert_eq!(self.owned_dims(), other.owned_dims());
        let mut m: f64 = 0.0;
        let da = self.alloc;
        let db = other.alloc;
        for i in 0..self.q {
            let sa = self.slab(i);
            let sb = other.slab(i);
            for (oa, ob) in self.owned_x().zip(other.owned_x()) {
                let ba = da.idx(oa, 0, 0);
                let bb = db.idx(ob, 0, 0);
                for k in 0..da.plane() {
                    m = m.max((sa[ba + k] - sb[bb + k]).abs());
                }
            }
        }
        m
    }
}

/// A scalar field over a (halo-free) box — densities, error maps, images.
#[derive(Debug, Clone)]
pub struct ScalarField {
    dims: Dim3,
    data: AlignedBuf,
}

impl ScalarField {
    /// Allocate zeroed.
    pub fn new(dims: Dim3) -> Self {
        Self {
            dims,
            data: AlignedBuf::new(dims.len()),
        }
    }

    /// Extents.
    #[inline]
    pub fn dims(&self) -> Dim3 {
        self.dims
    }

    /// Read `(x,y,z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.dims.idx(x, y, z)]
    }

    /// Write `(x,y,z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.dims.idx(x, y, z);
        self.data[i] = v;
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Raw values, mutable.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A 3-component vector field over a box (velocity output).
#[derive(Debug, Clone)]
pub struct VectorField {
    dims: Dim3,
    data: AlignedBuf, // 3 consecutive component slabs
}

impl VectorField {
    /// Allocate zeroed.
    pub fn new(dims: Dim3) -> Self {
        Self {
            dims,
            data: AlignedBuf::new(3 * dims.len()),
        }
    }

    /// Extents.
    #[inline]
    pub fn dims(&self) -> Dim3 {
        self.dims
    }

    /// Component slab `a ∈ 0..3`.
    #[inline]
    pub fn component(&self, a: usize) -> &[f64] {
        let n = self.dims.len();
        &self.data[a * n..(a + 1) * n]
    }

    /// Read the vector at `(x,y,z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> [f64; 3] {
        let n = self.dims.len();
        let i = self.dims.idx(x, y, z);
        [self.data[i], self.data[n + i], self.data[2 * n + i]]
    }

    /// Write the vector at `(x,y,z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: [f64; 3]) {
        let n = self.dims.len();
        let i = self.dims.idx(x, y, z);
        self.data[i] = v[0];
        self.data[n + i] = v[1];
        self.data[2 * n + i] = v[2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_shape() {
        let f = DistField::new(19, Dim3::new(8, 4, 4), 2).unwrap();
        assert_eq!(f.q(), 19);
        assert_eq!(f.alloc_dims(), Dim3::new(12, 4, 4));
        assert_eq!(f.owned_dims(), Dim3::new(8, 4, 4));
        assert_eq!(f.owned_x(), 2..10);
        assert_eq!(f.slab_len(), 12 * 16);
        // 192 points is an even number of cache lines, so the stride pads
        // to the next odd line count (192 + 8 = 25 lines of 8 doubles).
        assert_eq!(f.slab_stride(), 12 * 16 + 8);
        assert_eq!(f.as_slice().len(), 19 * (12 * 16 + 8));
    }

    #[test]
    fn slab_stride_is_an_odd_number_of_cache_lines() {
        for (nx, ny, nz, halo) in [(8, 4, 4, 2), (64, 48, 48, 0), (5, 3, 7, 1), (1, 1, 1, 0)] {
            let f = DistField::new(19, Dim3::new(nx, ny, nz), halo).unwrap();
            let stride = f.slab_stride();
            assert!(stride >= f.slab_len());
            assert_eq!(stride % 8, 0, "slab starts stay 64-byte aligned");
            assert_eq!(
                (stride / 8) % 2,
                1,
                "byte stride must be an odd multiple of 64 to break set aliasing"
            );
            assert!(stride - f.slab_len() < 16, "pad stays below two lines");
        }
    }

    #[test]
    fn storage_mode_labels_round_trip() {
        for m in StorageMode::ALL {
            assert_eq!(StorageMode::parse(m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(StorageMode::parse("TWO_GRID"), Some(StorageMode::TwoGrid));
        assert_eq!(
            StorageMode::parse("in-place-aa"),
            Some(StorageMode::InPlaceAa)
        );
        assert_eq!(StorageMode::parse("bogus"), None);
        assert_eq!(StorageMode::TwoGrid.resident_grids(), 2);
        assert_eq!(StorageMode::InPlaceAa.resident_grids(), 1);
        assert_eq!(StorageMode::default(), StorageMode::TwoGrid);
    }

    #[test]
    fn resident_bytes_counts_the_allocation() {
        let f = DistField::new(19, Dim3::new(8, 4, 4), 2).unwrap();
        assert_eq!(f.resident_bytes(), (19 * (12 * 16 + 8) * 8) as u64);
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(DistField::new(0, Dim3::cube(4), 1).is_err());
        assert!(DistField::new(19, Dim3::new(0, 4, 4), 1).is_err());
    }

    #[test]
    fn slabs_are_disjoint_and_contiguous() {
        let mut f = DistField::new(3, Dim3::cube(2), 0).unwrap();
        f.slab_mut(1).fill(7.0);
        assert!(f.slab(0).iter().all(|&v| v == 0.0));
        assert!(f.slab(1).iter().all(|&v| v == 7.0));
        assert!(f.slab(2).iter().all(|&v| v == 0.0));
        let n: usize = f.slabs_mut().map(|s| s.len()).sum();
        assert_eq!(n, 3 * 8);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut f = DistField::new(5, Dim3::cube(3), 1).unwrap();
        let lin = f.idx(2, 1, 1);
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        f.scatter_cell(lin, &vals);
        let mut out = [0.0; 5];
        f.gather_cell(lin, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn owned_mass_ignores_halo() {
        let mut f = DistField::new(1, Dim3::new(2, 2, 2), 1).unwrap();
        // Put 1.0 in a halo plane (x=0) and 2.0 in an owned cell (x=1).
        let h = f.idx(0, 0, 0);
        let o = f.idx(1, 0, 0);
        f.slab_mut(0)[h] = 1.0;
        f.slab_mut(0)[o] = 2.0;
        assert_eq!(f.owned_mass(), 2.0);
    }

    #[test]
    fn owned_mass_is_bitwise_the_per_cell_rho_sum() {
        use crate::lattice::{Lattice, LatticeKind};
        use crate::moments::Moments;
        // Owned ranges below one block, across a block edge mid-plane and
        // over several blocks, at halo depths 0–3.
        for (kind, owned, halo) in [
            (LatticeKind::D3Q19, Dim3::new(1, 3, 5), 1),
            (LatticeKind::D3Q39, Dim3::new(2, 7, 70), 3),
            (LatticeKind::D3Q19, Dim3::new(5, 9, 13), 2),
            (LatticeKind::D3Q39, Dim3::new(3, 8, 64), 0),
        ] {
            let lat = Lattice::new(kind);
            let q = lat.q();
            let mut f = DistField::new(q, owned, halo).unwrap();
            // Magnitudes spread over 12 decades, so any reordering of the
            // additions shows in the low bits.
            let mut s = 0x2545_f491_4f6c_dd1d_u64;
            for v in f.as_mut_slice() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = (s >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((s % 13) as i32 - 6);
            }
            let d = f.alloc_dims();
            let mut cell = vec![0.0; q];
            let mut want = 0.0;
            for x in f.owned_x() {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        f.gather_cell(d.idx(x, y, z), &mut cell);
                        want += Moments::of_cell(&lat, &cell).rho;
                    }
                }
            }
            assert_eq!(
                f.owned_mass().to_bits(),
                want.to_bits(),
                "{kind:?} {owned:?} halo {halo}"
            );
        }
    }

    #[test]
    fn copy_from_requires_same_shape() {
        let mut a = DistField::new(2, Dim3::cube(3), 1).unwrap();
        let b = DistField::new(2, Dim3::cube(3), 1).unwrap();
        let c = DistField::new(2, Dim3::cube(4), 1).unwrap();
        assert!(a.copy_from(&b).is_ok());
        assert!(a.copy_from(&c).is_err());
    }

    #[test]
    fn max_abs_diff_owned_sees_only_owned() {
        let mut a = DistField::new(1, Dim3::new(2, 1, 1), 1).unwrap();
        let mut b = DistField::new(1, Dim3::new(2, 1, 1), 1).unwrap();
        let halo_lin = a.idx(0, 0, 0);
        a.slab_mut(0)[halo_lin] = 100.0; // halo difference is invisible
        assert_eq!(a.max_abs_diff_owned(&b), 0.0);
        let lin = b.idx(1, 0, 0);
        b.slab_mut(0)[lin] = 0.5;
        assert_eq!(a.max_abs_diff_owned(&b), 0.5);
    }

    #[test]
    fn scalar_and_vector_fields() {
        let mut s = ScalarField::new(Dim3::cube(3));
        s.set(1, 2, 0, 9.0);
        assert_eq!(s.get(1, 2, 0), 9.0);
        assert_eq!(s.values().len(), 27);

        let mut v = VectorField::new(Dim3::cube(2));
        v.set(1, 0, 1, [1.0, 2.0, 3.0]);
        assert_eq!(v.get(1, 0, 1), [1.0, 2.0, 3.0]);
        assert_eq!(v.component(2).iter().sum::<f64>(), 3.0);
    }
}
