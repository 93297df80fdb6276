//! Experiment configuration.

use std::sync::Arc;

use lbm_comm::CostModel;
use lbm_core::equilibrium::EqOrder;
use lbm_core::error::{Error, Result};
use lbm_core::field::StorageMode;
use lbm_core::geometry::{self, Geometry};
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};

use crate::scenario::ScenarioHandle;

/// Communication schedule (paper §V-E/F, Fig. 9 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommStrategy {
    /// Blocking exchange at cycle start; receives completed one at a time
    /// (sum of link delays). The `Orig`…`LoBr` rungs of the ladder.
    Blocking,
    /// Nonblocking posts with an *immediate* waitall — the paper's "NB-C"
    /// without ghost cells (Fig. 9 solid lines): zero overlap window,
    /// but completion is max-of-links rather than sum.
    NonBlockingEager,
    /// Nonblocking with ghost cells: sends posted at cycle end, waited at
    /// the start of the next cycle ("NB-C & GC", Fig. 9 dash-dot).
    NonBlockingGhost,
    /// Separate ghost-cell collide (paper Fig. 7, "GC-C", Fig. 9 dashed):
    /// border planes collided first, sends posted, then the interior collide
    /// overlaps the messages in flight.
    OverlapGhostCollide,
}

impl CommStrategy {
    /// The schedule each optimization rung used in the paper.
    pub fn for_level(level: OptLevel) -> Self {
        match level {
            OptLevel::Orig | OptLevel::Gc | OptLevel::Dh | OptLevel::Cf | OptLevel::LoBr => {
                CommStrategy::Blocking
            }
            OptLevel::NbC => CommStrategy::NonBlockingGhost,
            OptLevel::GcC | OptLevel::Simd | OptLevel::Fused => CommStrategy::OverlapGhostCollide,
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            CommStrategy::Blocking => "Blocking",
            CommStrategy::NonBlockingEager => "NB-C",
            CommStrategy::NonBlockingGhost => "NB-C & GC",
            CommStrategy::OverlapGhostCollide => "GC-C",
        }
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Discrete velocity model.
    pub lattice: LatticeKind,
    /// Equilibrium order (None = natural for the lattice: 3rd on D3Q39).
    pub order: Option<EqOrder>,
    /// Global periodic box.
    pub global: Dim3,
    /// BGK relaxation time.
    pub tau: f64,
    /// Time steps to run (after warmup).
    pub steps: usize,
    /// Untimed warmup steps.
    pub warmup: usize,
    /// Number of ranks (1-D decomposition along x).
    pub ranks: usize,
    /// Rayon threads per rank (1 = serial kernels).
    pub threads_per_rank: usize,
    /// Ghost-cell depth d in multiples of the lattice reach k (paper §V-A).
    pub ghost_depth: usize,
    /// Kernel optimization rung.
    pub level: OptLevel,
    /// Population storage mode: the two-grid double buffer (every rung of
    /// the paper's ladder) or AA-pattern in-place streaming (one resident
    /// population, one halo exchange per two steps).
    pub storage: StorageMode,
    /// Communication schedule (None = the rung's paper default).
    pub strategy: Option<CommStrategy>,
    /// Injected link-cost model.
    pub cost: CostModel,
    /// Multiplicative per-substep compute jitter (0 = none): emulates OS /
    /// node noise; each substep sleeps an extra `U(0,jitter)` fraction of
    /// its own measured duration (deterministic per rank/step).
    pub compute_jitter: f64,
    /// Deterministic per-rank compute slowdown ramp (0 = homogeneous):
    /// rank r runs `1 + skew·r/(ranks−1)` times slower. This is the node
    /// heterogeneity (placement/daemon/DVFS) stand-in that produces the
    /// paper's Fig. 9 min→max communication-time gradient: fast ranks
    /// accumulate wait on slow neighbours.
    pub compute_skew: f64,
    /// Initial flow: amplitude of the Taylor–Green mode used to make the
    /// field non-trivial (0 = uniform rest fluid). Ignored when a scenario
    /// is plugged in.
    pub init_u0: f64,
    /// Pluggable scenario (initial state, boundaries, forcing,
    /// observables). `None` = a periodic Taylor–Green vortex of amplitude
    /// `init_u0` (rest fluid on the sparse path).
    pub scenario: Option<ScenarioHandle>,
    /// Voxel geometry selecting the sparse tiled-storage path: only
    /// fluid-bearing 4×4×4 tiles are allocated and computed, walls come
    /// from the voxelization (bounce-back at fluid/solid faces), and the
    /// rank decomposition partitions tile columns balanced by fluid-cell
    /// count. `None` = the dense box paths.
    pub geometry: Option<Arc<Geometry>>,
}

impl SimConfig {
    /// A reasonable default configuration for the given lattice and box.
    pub fn new(lattice: LatticeKind, global: Dim3) -> Self {
        Self {
            lattice,
            order: None,
            global,
            tau: 0.8,
            steps: 10,
            warmup: 0,
            ranks: 1,
            threads_per_rank: 1,
            ghost_depth: 1,
            level: OptLevel::Simd,
            storage: StorageMode::TwoGrid,
            strategy: None,
            cost: CostModel::free(),
            compute_jitter: 0.0,
            compute_skew: 0.0,
            init_u0: 0.02,
            scenario: None,
            geometry: None,
        }
    }

    /// Name of the configured scenario (`"taylor_green"` for the legacy
    /// default initialisation).
    pub fn scenario_name(&self) -> &'static str {
        self.scenario.as_ref().map_or("taylor_green", |s| s.name())
    }

    /// Resolved equilibrium order.
    pub fn eq_order(&self) -> EqOrder {
        self.order.unwrap_or(match self.lattice {
            LatticeKind::D3Q39 => EqOrder::Third,
            _ => EqOrder::Second,
        })
    }

    /// Resolved communication strategy.
    pub fn comm_strategy(&self) -> CommStrategy {
        self.strategy.unwrap_or(CommStrategy::for_level(self.level))
    }

    /// Halo width in lattice planes. Two-grid: `d · k` (the deep-halo
    /// trade of §V-A). AA: always `2·k` — the odd step's ghost writers
    /// need `2k` planes of post-even state, and the exchange cadence is
    /// fixed at one per two steps regardless of `ghost_depth`.
    pub fn halo_width(&self) -> usize {
        let k = Lattice::new(self.lattice).reach();
        match self.storage {
            StorageMode::TwoGrid => self.ghost_depth * k,
            StorageMode::InPlaceAa => 2 * k,
        }
    }

    /// Validate decomposition, halo and shape constraints; returns the
    /// smallest per-rank plane count on success.
    pub fn validate(&self) -> Result<usize> {
        let lat = Lattice::new(self.lattice);
        let k = lat.reach();
        if self.ghost_depth == 0 {
            return Err(Error::BadHalo("ghost depth must be ≥ 1".into()));
        }
        if self.tau <= 0.5 {
            return Err(Error::BadParameter(format!(
                "tau must exceed 0.5: {}",
                self.tau
            )));
        }
        if self.threads_per_rank == 0 || self.ranks == 0 {
            return Err(Error::BadDecomposition(
                "ranks and threads must be ≥ 1".into(),
            ));
        }
        if self.global.ny <= 2 * k || self.global.nz <= 2 * k {
            return Err(Error::BadDimensions(format!(
                "ny/nz must exceed 2·k = {} for {}",
                2 * k,
                lat.name()
            )));
        }
        if let Some(s) = &self.scenario {
            s.validate(&lat, self.global)?;
        }
        if let Some(geom) = &self.geometry {
            return self.validate_sparse(geom, &lat);
        }
        let dec = lbm_core::domain::Decomp1d::new(self.global, self.ranks)?;
        let h = self.halo_width();
        let mut min_nx = usize::MAX;
        for r in 0..self.ranks {
            let sub = dec.subdomain(r);
            // The paper's out-of-memory wall: the exchange sends the
            // outermost `h` owned planes, so h > nx cannot run (the 133k
            // GC=4 failure of Fig. 10).
            sub.validate_halo(h)?;
            min_nx = min_nx.min(sub.nx);
        }
        Ok(min_nx)
    }

    /// Sparse-path validation: the geometry must tile, match the global
    /// box, keep every streaming hop inside the 27-neighbour reach, and
    /// yield at least one fluid tile column per rank. Returns the smallest
    /// per-rank plane count (tile columns × 4), mirroring the dense path.
    fn validate_sparse(&self, geom: &Geometry, lat: &Lattice) -> Result<usize> {
        if geom.dims() != self.global {
            return Err(Error::BadDimensions(format!(
                "geometry {:?} does not match the global box {:?}",
                geom.dims(),
                self.global
            )));
        }
        geom.validate_tiles()?;
        geom.check_tunneling(lat)?;
        if let Some(s) = &self.scenario {
            if !s.boundaries(self.global).is_periodic() {
                return Err(Error::BadParameter(format!(
                    "scenario `{}` supplies walls/masks; with a geometry the \
                     voxelization is the boundary — use a periodic scenario",
                    s.name()
                )));
            }
        }
        let counts = geometry::column_fluid_counts(geom);
        let parts = geometry::partition_columns(&counts, self.ranks)?;
        let min_cols = parts.iter().map(|&(lo, hi)| hi - lo).min().unwrap_or(0);
        let gc = self.sparse_ghost_cols();
        if gc > 0 && min_cols < gc {
            return Err(Error::BadDecomposition(format!(
                "a rank owns {min_cols} tile column(s) but the sparse {} halo \
                 ships {gc} — fewer ranks or a longer box",
                self.storage.name()
            )));
        }
        Ok(min_cols * geometry::TILE_B)
    }

    /// Ghost tile columns per side of the sparse backend: none serially;
    /// one column for two-grid (reach ≤ 3 < tile edge); `ceil(2k / 4)` for
    /// in-place AA, whose ghost-writer protocol reads `2k` cells of
    /// post-even neighbour state before each odd step.
    pub fn sparse_ghost_cols(&self) -> usize {
        if self.ranks == 1 {
            return 0;
        }
        let k = Lattice::new(self.lattice).reach();
        match self.storage {
            StorageMode::TwoGrid => 1,
            StorageMode::InPlaceAa => (2 * k).div_ceil(geometry::TILE_B),
        }
    }
}

/// Typed rejection from [`Simulation::builder`](crate::Simulation::builder)'s
/// `build()`: a runtime scheduling many externally-supplied job specs needs
/// to refuse a bad one without killing the worker, so validation failures are
/// values, not panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The resolved configuration failed [`SimConfig::validate`] (bad tau,
    /// decomposition, halo, dimensions, …).
    Invalid(Error),
    /// A textual label (lattice, level, storage, scenario, …) did not parse.
    UnknownLabel {
        /// Which field the label was for.
        field: &'static str,
        /// The rejected input.
        value: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Invalid(e) => write!(f, "invalid config: {e}"),
            ConfigError::UnknownLabel { field, value } => {
                write!(f, "unknown {field} label: `{value}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Invalid(e) => Some(e),
            ConfigError::UnknownLabel { .. } => None,
        }
    }
}

impl From<Error> for ConfigError {
    fn from(e: Error) -> Self {
        ConfigError::Invalid(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        match e {
            ConfigError::Invalid(inner) => inner,
            ConfigError::UnknownLabel { field, value } => {
                Error::BadParameter(format!("unknown {field} label: `{value}`"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_display_and_conversions() {
        let e = ConfigError::from(Error::BadParameter("tau".into()));
        assert!(e.to_string().contains("invalid config"));
        let back: Error = e.into();
        assert_eq!(back, Error::BadParameter("tau".into()));
        let u = ConfigError::UnknownLabel {
            field: "lattice",
            value: "d3q99".into(),
        };
        assert!(u.to_string().contains("d3q99"));
        assert!(matches!(Error::from(u), Error::BadParameter(_)));
    }

    #[test]
    fn defaults_are_valid() {
        let c = SimConfig::new(LatticeKind::D3Q19, Dim3::cube(16));
        assert!(c.validate().is_ok());
        assert_eq!(c.eq_order(), EqOrder::Second);
        assert_eq!(c.comm_strategy(), CommStrategy::OverlapGhostCollide);
        assert_eq!(c.storage, StorageMode::TwoGrid);
    }

    #[test]
    fn q39_defaults_to_third_order_and_k3_halo() {
        let mut c = SimConfig::new(LatticeKind::D3Q39, Dim3::cube(16));
        c.ghost_depth = 2;
        assert_eq!(c.eq_order(), EqOrder::Third);
        assert_eq!(c.halo_width(), 6);
    }

    #[test]
    fn aa_halo_width_is_twice_the_reach_at_any_ghost_depth() {
        for depth in [1usize, 2, 3] {
            let mut c = SimConfig::new(LatticeKind::D3Q39, Dim3::cube(16));
            c.storage = StorageMode::InPlaceAa;
            c.ghost_depth = depth;
            assert_eq!(c.halo_width(), 6, "AA halo is 2k regardless of depth");
            let mut c19 = SimConfig::new(LatticeKind::D3Q19, Dim3::cube(16));
            c19.storage = StorageMode::InPlaceAa;
            c19.ghost_depth = depth;
            assert_eq!(c19.halo_width(), 2);
        }
    }

    #[test]
    fn aa_requires_two_reach_planes_per_rank() {
        // 16 planes over 8 ranks = 2 planes each: fine for D3Q19 (2k = 2),
        // impossible for D3Q39 (2k = 6).
        let mut ok = SimConfig::new(LatticeKind::D3Q19, Dim3::new(16, 8, 8));
        ok.storage = StorageMode::InPlaceAa;
        ok.ranks = 8;
        assert!(ok.validate().is_ok());
        let mut bad = SimConfig::new(LatticeKind::D3Q39, Dim3::new(16, 8, 8));
        bad.storage = StorageMode::InPlaceAa;
        bad.ranks = 8;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn strategy_ladder_mapping_matches_paper() {
        assert_eq!(
            CommStrategy::for_level(OptLevel::Orig),
            CommStrategy::Blocking
        );
        assert_eq!(
            CommStrategy::for_level(OptLevel::LoBr),
            CommStrategy::Blocking
        );
        assert_eq!(
            CommStrategy::for_level(OptLevel::NbC),
            CommStrategy::NonBlockingGhost
        );
        assert_eq!(
            CommStrategy::for_level(OptLevel::GcC),
            CommStrategy::OverlapGhostCollide
        );
        assert_eq!(
            CommStrategy::for_level(OptLevel::Simd),
            CommStrategy::OverlapGhostCollide
        );
        // The fused top rung keeps the Fig. 7 overlap schedule: the fused
        // border planes are complete post-collision state, so they can be
        // sent while the interior is still being computed.
        assert_eq!(
            CommStrategy::for_level(OptLevel::Fused),
            CommStrategy::OverlapGhostCollide
        );
    }

    #[test]
    fn oversized_halo_is_rejected_like_the_paper_oom() {
        // 16 planes over 8 ranks = 2 planes/rank; depth 3 (k=1) needs 3.
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::new(16, 8, 8));
        c.ranks = 8;
        c.ghost_depth = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn thin_cross_sections_are_rejected_for_q39() {
        let c = SimConfig::new(LatticeKind::D3Q39, Dim3::new(16, 6, 16));
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_tau_and_zero_threads_rejected() {
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::cube(8));
        c.tau = 0.5;
        assert!(c.validate().is_err());
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::cube(8));
        c.threads_per_rank = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_returns_min_planes() {
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::new(10, 8, 8));
        c.ranks = 3;
        assert_eq!(c.validate().unwrap(), 3); // 4+3+3
    }

    #[test]
    fn sparse_geometry_validation_rules() {
        let geom = || Arc::new(Geometry::pipe(Dim3::new(16, 16, 16), 5.0).unwrap());
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::cube(16));
        c.geometry = Some(geom());
        // Two ranks over four tile columns → two columns = 8 planes each.
        c.ranks = 2;
        assert_eq!(c.validate().unwrap(), 8);
        // More ranks than tile columns cannot be balanced.
        c.ranks = 5;
        assert!(c.validate().is_err());
        c.ranks = 1;
        // The geometry must match the configured box.
        c.global = Dim3::new(16, 16, 32);
        assert!(c.validate().is_err());
        c.global = Dim3::cube(16);
        // Sparse tiles accept AA storage (one frame per tile).
        c.storage = StorageMode::InPlaceAa;
        assert!(c.validate().is_ok());
        // …but the AA halo needs 2k cells: D3Q39 over 2 ranks of a 16-box
        // leaves 2 columns each, below the ceil(6/4) = 2-column halo — ok;
        // 4 ranks (1 column each) is rejected.
        let mut aa39 = SimConfig::new(LatticeKind::D3Q39, Dim3::cube(16));
        aa39.geometry = Some(geom());
        aa39.storage = StorageMode::InPlaceAa;
        aa39.ranks = 2;
        assert!(aa39.validate().is_ok());
        aa39.ranks = 4;
        assert!(aa39.validate().is_err(), "AA Q39 halo needs 2 columns");
        c.storage = StorageMode::TwoGrid;
        // A walled scenario conflicts with the voxel boundary.
        c.scenario = Some(ScenarioHandle::new(
            crate::scenario::PoiseuilleChannel::new(1e-5),
        ));
        assert!(c.validate().is_err());
        c.scenario = Some(ScenarioHandle::new(crate::scenario::ForcedFlow::new(1e-5)));
        assert!(c.validate().is_ok());
        // Non-tile-multiple dimensions are rejected.
        let mut c = SimConfig::new(LatticeKind::D3Q19, Dim3::new(16, 18, 16));
        c.geometry = Some(Arc::new(
            Geometry::pipe(Dim3::new(16, 18, 16), 5.0).unwrap(),
        ));
        assert!(c.validate().is_err());
        // Multi-cell D3Q39 hops must not tunnel: 2-wide fluid slabs with a
        // 2-cell solid gap let a (3,0,0) hop jump wall-to-wall.
        let thin = Geometry::from_fn(Dim3::cube(16), |x, _, _| x % 4 < 2).unwrap();
        let mut c = SimConfig::new(LatticeKind::D3Q39, Dim3::cube(16));
        c.geometry = Some(Arc::new(thin));
        assert!(c.validate().is_err(), "Q39 hops tunnel through 2-cell gaps");
    }
}
