//! Performance accounting in the paper's metric (§III-B).
//!
//! The paper argues flop/s is the wrong metric for LBM and uses **MFlup/s** —
//! million fluid lattice-point updates per second (its Eq. 4):
//! `P = s · N_fl / (T(s) · 10⁶)`. [`PerfCounters`] implements exactly that,
//! plus derived bandwidth/flop figures from a per-cell traffic accounting.
//!
//! The bytes-per-cell constant depends on the [`StorageMode`]: the paper's
//! `B = 3·Q·8` (two loads + one store per velocity) assumes the two-grid
//! `distr`/`distr_adv` double buffer; AA-pattern in-place streaming touches
//! each population once for read and once for write in the *same* array,
//! `B = 2·Q·8` — see [`model_bytes_per_cell`].

use crate::field::StorageMode;
use std::time::{Duration, Instant};

/// The model bytes moved to/from main memory per lattice-point update for a
/// `q`-velocity BGK step under the given storage mode (paper Eq. 5's `B`,
/// storage-parameterized): `3·Q·8` for [`StorageMode::TwoGrid`] (load src,
/// load+store dst with write-allocate), `2·Q·8` for
/// [`StorageMode::InPlaceAa`] (one read + one in-place write per velocity).
/// The two-grid figure overstates the AVX2 fused pass, whose non-temporal
/// stores skip the write-allocate read: it moves `2·Q·8`.
pub const fn model_bytes_per_cell(storage: StorageMode, q: usize) -> usize {
    match storage {
        StorageMode::TwoGrid => 3 * q * 8,
        StorageMode::InPlaceAa => 2 * q * 8,
    }
}

/// Per-tile metadata the sparse gather walks each streaming step: the
/// 27-entry `i32` neighbour row plus the `u64` fluid bitmap. The shared
/// `GatherTable` (and its two z-line plans) is a few KB reused by every
/// tile, so it lives in cache and is excluded — like the dense kernels'
/// lattice constants.
pub const SPARSE_TILE_META_BYTES: usize = 27 * 4 + 8;

/// [`model_bytes_per_cell`] for the sparse tiled backend: the same
/// per-population traffic as the dense storage mode plus the tile metadata
/// amortized over the 64 cells of a tile (rounded up). Two-grid walks the
/// neighbour table every step (+2 B/cell); AA only on odd steps
/// (+1 B/cell per-step average). The near-identity with the dense model is
/// the model's claim: sparse addressing costs *instructions and latency*,
/// not main-store bytes — which is why the measured per-fluid-cell gap is
/// closable at all.
pub const fn model_bytes_per_cell_sparse(storage: StorageMode, q: usize) -> usize {
    let meta = match storage {
        StorageMode::TwoGrid => SPARSE_TILE_META_BYTES.div_ceil(64),
        StorageMode::InPlaceAa => SPARSE_TILE_META_BYTES.div_ceil(128),
    };
    model_bytes_per_cell(storage, q) + meta
}

/// Parity of an AA-pattern step — the two alternating access patterns of
/// [`StorageMode::InPlaceAa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AaParity {
    /// First step of a pair: read-local/write-local velocity-pair update.
    Even,
    /// Second step: gather-swapped / scatter-swapped double-shifted sweep.
    Odd,
}

/// The model bytes per lattice-point update of **one AA step of the given
/// parity**. With the tile-free even step and the in-place pair-swap odd
/// step, *both* parities read each population exactly once from main memory
/// and write it exactly once in the same array — a uniform `2·Q·8` with no
/// gather-tile round trip on either side. (Each step's second pass over a
/// z-block's rows — the pair-relax after the moment pass — re-reads from
/// L1, which the main-store model deliberately excludes.) The per-pair
/// average therefore equals the aggregate
/// [`model_bytes_per_cell`]`(InPlaceAa, q)`.
pub const fn model_bytes_per_cell_aa(parity: AaParity, q: usize) -> usize {
    match parity {
        AaParity::Even | AaParity::Odd => 2 * q * 8,
    }
}

/// Accumulates lattice updates and wall time; reports MFlup/s.
#[derive(Debug, Clone, Default)]
pub struct PerfCounters {
    /// Fluid-cell updates performed (s · N_fl, *owned* cells only).
    pub updates: u64,
    /// Extra updates spent on ghost/halo cells (the deep-halo overhead the
    /// paper's model deliberately excludes — tracked separately, as its §VI
    /// discussion of the GC gap suggests).
    pub ghost_updates: u64,
    /// Wall time attributed to computation.
    pub elapsed: Duration,
}

impl PerfCounters {
    /// New, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `cells` owned-cell updates plus `ghost` halo updates over `dt`.
    pub fn record(&mut self, cells: u64, ghost: u64, dt: Duration) {
        self.updates += cells;
        self.ghost_updates += ghost;
        self.elapsed += dt;
    }

    /// Paper Eq. 4: million fluid lattice updates per second, counting only
    /// owned cells (ghost updates are overhead, exactly as in the paper's
    /// model-vs-measured comparison).
    pub fn mflups(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.updates as f64 / secs / 1e6
    }

    /// MFlup/s counting ghost updates as useful work (upper curve; the gap
    /// to [`PerfCounters::mflups`] is the deep-halo overhead).
    pub fn mflups_including_ghost(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.updates + self.ghost_updates) as f64 / secs / 1e6
    }

    /// Fraction of all updates spent on ghost cells.
    pub fn ghost_fraction(&self) -> f64 {
        let total = self.updates + self.ghost_updates;
        if total == 0 {
            return 0.0;
        }
        self.ghost_updates as f64 / total as f64
    }

    /// Effective memory traffic in GB/s under a per-update bytes accounting
    /// (use [`model_bytes_per_cell`] for the storage-mode-correct constant).
    pub fn effective_bandwidth_gbs(&self, bytes_per_cell: usize) -> f64 {
        self.mflups_including_ghost() * 1e6 * bytes_per_cell as f64 / 1e9
    }

    /// Effective GFlop/s under the paper's F flops-per-cell accounting.
    pub fn effective_gflops(&self, flops_per_cell: usize) -> f64 {
        self.mflups_including_ghost() * 1e6 * flops_per_cell as f64 / 1e9
    }

    /// Merge another counter set (e.g. across ranks).
    pub fn merge_max_time(&mut self, other: &PerfCounters) {
        self.updates += other.updates;
        self.ghost_updates += other.ghost_updates;
        // Parallel ranks overlap in time: wall time is the max, not the sum.
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Scoped timer: measures one phase and records into counters on drop.
pub struct FlupTimer<'a> {
    counters: &'a mut PerfCounters,
    cells: u64,
    ghost: u64,
    start: Instant,
}

impl<'a> FlupTimer<'a> {
    /// Start timing a phase that will update `cells` owned and `ghost` halo
    /// cells.
    pub fn start(counters: &'a mut PerfCounters, cells: u64, ghost: u64) -> Self {
        Self {
            counters,
            cells,
            ghost,
            start: Instant::now(),
        }
    }
}

impl Drop for FlupTimer<'_> {
    fn drop(&mut self) {
        self.counters
            .record(self.cells, self.ghost, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_model_is_storage_parameterized() {
        // Two-grid keeps the paper's constants; AA cuts them by a third.
        assert_eq!(model_bytes_per_cell(StorageMode::TwoGrid, 19), 456);
        assert_eq!(model_bytes_per_cell(StorageMode::TwoGrid, 39), 936);
        assert_eq!(model_bytes_per_cell(StorageMode::InPlaceAa, 19), 304);
        assert_eq!(model_bytes_per_cell(StorageMode::InPlaceAa, 39), 624);
    }

    #[test]
    fn sparse_traffic_adds_amortized_tile_metadata() {
        // +2 B/cell (two-grid, every step) or +1 B/cell (AA, odd steps
        // only) on top of the dense constants — a <1% perturbation.
        assert_eq!(model_bytes_per_cell_sparse(StorageMode::TwoGrid, 19), 458);
        assert_eq!(model_bytes_per_cell_sparse(StorageMode::TwoGrid, 39), 938);
        assert_eq!(model_bytes_per_cell_sparse(StorageMode::InPlaceAa, 19), 305);
        assert_eq!(model_bytes_per_cell_sparse(StorageMode::InPlaceAa, 39), 625);
    }

    #[test]
    fn aa_parity_model_is_uniform_and_consistent_with_the_aggregate() {
        // Both parities are pure 2·Q·8 (tile-free even, in-place pair-swap
        // odd), so the per-pair mean reproduces the aggregate AA constant.
        for q in [15usize, 19, 27, 39] {
            let even = model_bytes_per_cell_aa(AaParity::Even, q);
            let odd = model_bytes_per_cell_aa(AaParity::Odd, q);
            assert_eq!(even, 2 * q * 8);
            assert_eq!(odd, even);
            assert_eq!(
                (even + odd) / 2,
                model_bytes_per_cell(StorageMode::InPlaceAa, q)
            );
        }
    }

    #[test]
    fn mflups_matches_eq4() {
        let mut p = PerfCounters::new();
        // 10⁶ updates in 1 s = 1 MFlup/s.
        p.record(1_000_000, 0, Duration::from_secs(1));
        assert!((p.mflups() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghost_updates_are_separate() {
        let mut p = PerfCounters::new();
        p.record(800, 200, Duration::from_millis(1));
        assert!(p.mflups_including_ghost() > p.mflups());
        assert!((p.ghost_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_time_reports_zero_not_inf() {
        let p = PerfCounters::new();
        assert_eq!(p.mflups(), 0.0);
        assert_eq!(p.mflups_including_ghost(), 0.0);
        assert_eq!(p.ghost_fraction(), 0.0);
    }

    #[test]
    fn derived_bandwidth_and_flops() {
        let mut p = PerfCounters::new();
        p.record(1_000_000, 0, Duration::from_secs(1));
        // 1 MFlup/s × 456 B = 0.456 GB/s; × 178 flops = 0.178 GFlop/s.
        assert!((p.effective_bandwidth_gbs(456) - 0.456).abs() < 1e-9);
        assert!((p.effective_gflops(178) - 0.178).abs() < 1e-9);
    }

    #[test]
    fn merge_takes_max_time_sum_updates() {
        let mut a = PerfCounters::new();
        a.record(100, 0, Duration::from_millis(10));
        let mut b = PerfCounters::new();
        b.record(200, 50, Duration::from_millis(30));
        a.merge_max_time(&b);
        assert_eq!(a.updates, 300);
        assert_eq!(a.ghost_updates, 50);
        assert_eq!(a.elapsed, Duration::from_millis(30));
    }

    #[test]
    fn timer_records_on_drop() {
        let mut p = PerfCounters::new();
        {
            let _t = FlupTimer::start(&mut p, 42, 7);
        }
        assert_eq!(p.updates, 42);
        assert_eq!(p.ghost_updates, 7);
        assert!(p.elapsed > Duration::ZERO);
    }
}
