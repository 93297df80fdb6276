//! The unified simulation API: a fluent builder over the distributed solver
//! with pluggable [`Scenario`]s.
//!
//! ```
//! use lbm_sim::{Simulation, TaylorGreen};
//! use lbm_core::index::Dim3;
//! use lbm_core::kernels::OptLevel;
//! use lbm_core::lattice::LatticeKind;
//!
//! let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
//!     .scenario(TaylorGreen::default())
//!     .ranks(2)
//!     .level(OptLevel::Fused)
//!     .build()
//!     .unwrap();
//! let report = sim.run(4).unwrap();
//! assert!(report.mflups > 0.0);
//! ```
//!
//! One handle, one engine: the first call to [`Simulation::run`],
//! [`Simulation::step`] or [`Simulation::probe`] materialises a persistent
//! universe of ranks (any rank × thread shape, every [`OptLevel`] and
//! [`CommStrategy`] schedule) initialised from the scenario, each rank on its
//! own thread, and every later call *continues* that same trajectory. `run`
//! returns a timed [`RunReport`] for the span it advanced; `step`/`probe`
//! interleave freely with it. [`Simulation::checkpoint`] serializes the live
//! state so [`Simulation::resume`] can continue the trajectory bitwise in
//! another process (the substrate of the [`crate::runtime`] job layer).
//!
//! [`SimulationBuilder::geometry`] plugs in a voxel [`Geometry`] and routes
//! the whole run through the sparse tiled-storage path (see
//! [`crate::sparse`]): same API, fluid-cell-cost memory.

use std::sync::Arc;
use std::time::Instant;

use lbm_comm::{Comm, CostModel, Universe};
use lbm_core::equilibrium::EqOrder;
use lbm_core::error::Result;
use lbm_core::field::StorageMode;
use lbm_core::geometry::Geometry;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};

use crate::config::{CommStrategy, ConfigError, SimConfig};
use crate::report::{RankReport, RunReport, REPORT_SCHEMA_VERSION};
use crate::scenario::{ObservableSpec, Scenario, ScenarioHandle};
use crate::sparse::{self, AnySolver};

/// Fluent configuration for a [`Simulation`] (see [`Simulation::builder`]).
///
/// Every setter is chainable; [`SimulationBuilder::build`] validates the
/// whole configuration (decomposition, halo, τ, scenario-vs-lattice fit) in
/// one place and reports failures as a typed [`ConfigError`] — never a
/// panic, so a job runtime can reject a bad spec without losing the worker.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    cfg: SimConfig,
    tau_explicit: bool,
}

impl SimulationBuilder {
    pub(crate) fn new(lattice: LatticeKind, global: Dim3) -> Self {
        Self {
            cfg: SimConfig::new(lattice, global),
            tau_explicit: false,
        }
    }

    /// Plug in the scenario (initial state, boundaries, forcing,
    /// observables). Without one a dense run is an unforced periodic
    /// [`TaylorGreen`](crate::TaylorGreen) vortex of amplitude
    /// [`Self::init_amplitude`].
    #[must_use]
    pub fn scenario(mut self, s: impl Scenario + 'static) -> Self {
        self.cfg.scenario = Some(ScenarioHandle::new(s));
        self
    }

    /// BGK relaxation time τ (> ½). Overrides any
    /// [`Scenario::suggested_tau`].
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.cfg.tau = tau;
        self.tau_explicit = true;
        self
    }

    /// Equilibrium truncation order (default: the lattice's natural order —
    /// third on D3Q39).
    #[must_use]
    pub fn order(mut self, order: EqOrder) -> Self {
        self.cfg.order = Some(order);
        self
    }

    /// Number of ranks (1-D decomposition along x).
    #[must_use]
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.cfg.ranks = ranks;
        self
    }

    /// Rayon threads per rank (1 = serial kernels).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads_per_rank = threads;
        self
    }

    /// Ghost-cell depth d in multiples of the lattice reach (paper §V-A).
    #[must_use]
    pub fn ghost_depth(mut self, d: usize) -> Self {
        self.cfg.ghost_depth = d;
        self
    }

    /// Kernel optimization rung (paper Fig. 8 ladder; default `Simd`).
    #[must_use]
    pub fn level(mut self, level: OptLevel) -> Self {
        self.cfg.level = level;
        self
    }

    /// Population storage mode (default [`StorageMode::TwoGrid`]).
    /// [`StorageMode::InPlaceAa`] streams in place over a single resident
    /// population (half the memory footprint, one halo exchange per two
    /// steps), orthogonal to [`Self::level`].
    #[must_use]
    pub fn storage(mut self, storage: StorageMode) -> Self {
        self.cfg.storage = storage;
        self
    }

    /// Explicit communication schedule, overriding the rung's paper default
    /// — the only way to reach [`CommStrategy::NonBlockingEager`], which
    /// [`CommStrategy::for_level`] never selects.
    #[must_use]
    pub fn strategy(mut self, s: CommStrategy) -> Self {
        self.cfg.strategy = Some(s);
        self
    }

    /// Injected link-cost model (default free).
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Multiplicative per-substep compute jitter (OS-noise stand-in).
    #[must_use]
    pub fn jitter(mut self, j: f64) -> Self {
        self.cfg.compute_jitter = j;
        self
    }

    /// Deterministic per-rank compute slowdown ramp (node heterogeneity
    /// stand-in).
    #[must_use]
    pub fn compute_skew(mut self, s: f64) -> Self {
        self.cfg.compute_skew = s;
        self
    }

    /// Untimed warmup steps before the first [`Simulation::run`]
    /// measurement.
    #[must_use]
    pub fn warmup(mut self, w: usize) -> Self {
        self.cfg.warmup = w;
        self
    }

    /// Amplitude of the Taylor–Green vortex a dense run starts from when no
    /// scenario is plugged in.
    #[must_use]
    pub fn init_amplitude(mut self, u0: f64) -> Self {
        self.cfg.init_u0 = u0;
        self
    }

    /// Plug in a voxel geometry and select the sparse tiled-storage path:
    /// only fluid-bearing 4×4×4 tiles are allocated and computed, walls are
    /// bounce-back at the voxel fluid/solid faces, and ranks split the tile
    /// columns balanced by fluid-cell count. Composes with both storage
    /// modes — [`StorageMode::InPlaceAa`] keeps one frame per tile and
    /// exchanges halos only before odd steps — but requires a wall-free
    /// (periodic-boundary) scenario; `ghost_depth` and the communication
    /// strategy are ignored on this path, and a run reports the eager
    /// depth-1 exchange it uses instead.
    #[must_use]
    pub fn geometry(mut self, geom: Geometry) -> Self {
        self.cfg.geometry = Some(Arc::new(geom));
        self
    }

    /// Resolve and validate the configuration without constructing the
    /// handle — for call sites that drive [`RankSolver`] directly.
    pub fn build_config(mut self) -> std::result::Result<SimConfig, ConfigError> {
        if !self.tau_explicit {
            if let Some(s) = &self.cfg.scenario {
                let lat = Lattice::new(self.cfg.lattice);
                if let Some(tau) = s.suggested_tau(&lat, self.cfg.global) {
                    self.cfg.tau = tau;
                }
            }
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Validate everything and return the typed simulation handle.
    pub fn build(self) -> std::result::Result<Simulation, ConfigError> {
        Ok(Simulation {
            cfg: self.build_config()?,
            engine: None,
        })
    }
}

/// A configured simulation over one persistent universe of ranks: run it in
/// timed spans, step it incrementally, probe observables, checkpoint it.
pub struct Simulation {
    cfg: SimConfig,
    /// Lazily-created persistent rank engine; `None` until first advanced.
    engine: Option<Engine>,
}

/// The persistent multi-rank engine: every rank's solver and communicator
/// held alive between calls. Every per-rank phase — construction (or the
/// snapshot restore of a resume) and every advance — runs through
/// [`once_per_rank`]: inline for a solo rank, one scoped thread per rank
/// otherwise, so ranks allocate, first-touch and fill their fields
/// concurrently exactly as they step.
pub(crate) struct Engine {
    pub(crate) ranks: Vec<RankState>,
}

/// One rank of the persistent engine.
pub(crate) struct RankState {
    pub(crate) solver: AnySolver,
    pub(crate) comm: Comm,
}

/// Run `work` once per item and collect the results in item order: inline
/// for a single item, on a scoped thread per item otherwise. A panic on any
/// thread is re-raised on the caller's thread.
fn once_per_rank<I, T, F>(items: I, work: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items = items.into_iter();
    if items.len() == 1 {
        return items.map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

impl Engine {
    /// Build every rank with `solver(cfg, rank)`, each on its own thread
    /// (see [`once_per_rank`]). The solvers are those a serial loop builds,
    /// bit for bit; a failure returns the first error in rank order.
    fn build<F>(cfg: &SimConfig, solver: F) -> Result<Self>
    where
        F: Fn(&SimConfig, usize) -> Result<AnySolver> + Sync,
    {
        let comms = Universe::endpoints(cfg.ranks, cfg.cost.clone());
        let ranks = once_per_rank(comms, |comm| {
            Ok(RankState {
                solver: solver(cfg, comm.rank())?,
                comm,
            })
        });
        Ok(Self {
            ranks: ranks.into_iter().collect::<Result<_>>()?,
        })
    }

    /// Advance every rank by `steps` (untimed). Multi-rank advances drive
    /// each rank on its own scoped thread — the exchanges need all ranks
    /// in flight concurrently.
    fn advance(&mut self, steps: usize) {
        self.for_each_rank(|rs| rs.solver.run(&mut rs.comm, steps));
    }

    /// Advance every rank by `steps` with per-rank timing, preceded by an
    /// aligning barrier (and the one-time warmup on a fresh engine).
    /// Returns `(report, global mass)` per rank, in rank order.
    fn run_timed(&mut self, warmup: usize, steps: usize) -> Vec<(RankReport, f64)> {
        self.for_each_rank(|rs| {
            if warmup > 0 && rs.solver.steps_done() == 0 {
                rs.solver.run(&mut rs.comm, warmup);
            }
            rs.solver.reset_counters();
            // Align ranks so per-rank walls measure the same phase, then
            // drop the barrier wait from the timers.
            rs.comm.barrier();
            let _ = rs.comm.take_timers();
            let t0 = Instant::now();
            rs.solver.run_folding_mass(&mut rs.comm, steps);
            let wall = t0.elapsed();
            let timers = rs.comm.take_timers();
            let mass = rs.solver.global_mass(&mut rs.comm);
            let report = RankReport {
                schema: REPORT_SCHEMA_VERSION,
                rank: rs.comm.rank(),
                owned_cells: rs.solver.owned_cells(),
                updates: rs.solver.counters().updates,
                ghost_updates: rs.solver.counters().ghost_updates,
                resident_bytes: rs.solver.resident_population_bytes(),
                compute_secs: rs.solver.counters().elapsed.as_secs_f64(),
                wait_secs: timers.wait.as_secs_f64(),
                barrier_secs: timers.barrier.as_secs_f64(),
                collective_secs: timers.collective.as_secs_f64(),
                messages: timers.messages_sent,
                bytes: timers.bytes_sent(),
                wall_secs: wall.as_secs_f64(),
            };
            (report, mass)
        })
    }

    /// Run `work` once per rank (see [`once_per_rank`]) and collect the
    /// results in rank order.
    fn for_each_rank<T, F>(&mut self, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankState) -> T + Sync,
    {
        once_per_rank(&mut self.ranks, work)
    }
}

/// A point-in-time measurement of a simulation's trajectory
/// (see [`Simulation::probe`]).
#[derive(Debug, Clone)]
pub struct Probe {
    /// Time steps completed.
    pub step: u64,
    /// Total mass over owned cells (solid wall/mask cells included — they
    /// hold bounced populations, so this is the conserved global mass).
    pub mass: f64,
    /// Total momentum over owned cells (solid cells included).
    pub momentum: [f64; 3],
    /// Peak |u| over owned *fluid* cells (wall rows and masked cells are
    /// excluded — their transform state is not a flow velocity).
    pub max_speed: f64,
    /// The scenario's profile observable (mean `u_axis(y)` over the fluid
    /// rows), when the scenario declares one. Multi-rank probes average the
    /// per-rank profiles weighted by owned x extent.
    pub profile: Option<Vec<f64>>,
}

impl Simulation {
    /// Start configuring a simulation of a `global` box on `lattice`.
    pub fn builder(lattice: LatticeKind, global: Dim3) -> SimulationBuilder {
        SimulationBuilder::new(lattice, global)
    }

    /// The validated configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The scenario name (`"taylor_green"` for the legacy default).
    pub fn scenario_name(&self) -> &'static str {
        self.cfg.scenario_name()
    }

    /// Time steps this simulation's trajectory has completed (0 before the
    /// engine first advances; includes warmup steps).
    pub fn steps_done(&self) -> u64 {
        self.engine
            .as_ref()
            .map_or(0, |e| e.ranks[0].solver.steps_done())
    }

    /// Advance the trajectory by `steps` timed steps and report aggregate
    /// performance for that span. The first call on a fresh engine runs the
    /// configured warmup (untimed) beforehand; later calls continue exactly
    /// where the previous [`Self::run`]/[`Self::step`] left off — the same
    /// incremental path the [`crate::runtime`] job layer drives, so `run(a)`
    /// then `run(b)` is bitwise `run(a + b)`.
    pub fn run(&mut self, steps: usize) -> Result<RunReport> {
        let cfg = self.cfg.clone();
        let engine = self.engine_mut()?;
        let results = engine.run_timed(cfg.warmup, steps);
        let mass = results[0].1;
        let per_rank: Vec<RankReport> = results.into_iter().map(|(r, _)| r).collect();
        // Report what ran: the sparse path has its own storage and schedule.
        let (storage_label, (strategy, ghost_depth)) = if cfg.geometry.is_some() {
            let label = match cfg.storage {
                StorageMode::TwoGrid => "sparse_tiles",
                StorageMode::InPlaceAa => "sparse_tiles_aa",
            };
            (label, sparse::SCHEDULE)
        } else {
            // AA exchanges a fixed 2·k halo once per even/odd pair, whatever
            // the configured depth.
            let depth = cfg.halo_width() / Lattice::new(cfg.lattice).reach();
            (cfg.storage.name(), (cfg.comm_strategy(), depth))
        };
        let mut report = RunReport::assemble(
            cfg.lattice.name().to_string(),
            cfg.scenario_name().to_string(),
            cfg.level.name().to_string(),
            storage_label.to_string(),
            strategy.label().to_string(),
            cfg.threads_per_rank,
            ghost_depth,
            (cfg.global.nx, cfg.global.ny, cfg.global.nz),
            steps,
            mass,
            per_rank,
        );
        if let Some(geom) = &cfg.geometry {
            report.fluid_fraction = geom.fluid_fraction();
        }
        Ok(report)
    }

    /// How many fused passes, summed over ranks, have folded the owned mass
    /// that [`Self::run`] reports instead of reading the field again (test
    /// aid: shows the fold ran).
    #[doc(hidden)]
    pub fn mass_folds(&self) -> u64 {
        self.engine
            .as_ref()
            .map_or(0, |e| e.ranks.iter().map(|rs| rs.solver.mass_folds()).sum())
    }

    /// Advance the trajectory by one time step (untimed; any rank count).
    /// The engine is created lazily from the scenario's initial state on
    /// first call.
    pub fn step(&mut self) -> Result<()> {
        self.engine_mut()?.advance(1);
        Ok(())
    }

    /// Advance the trajectory by `n` steps (untimed; any rank count).
    pub fn run_local(&mut self, n: usize) -> Result<()> {
        self.engine_mut()?.advance(n);
        Ok(())
    }

    /// Measure the scenario's observables on the current state (step 0
    /// state if the simulation has not advanced yet). Multi-rank states are
    /// reduced here: invariants summed, peak speed maxed, profiles averaged
    /// with owned-extent weights.
    pub fn probe(&mut self) -> Result<Probe> {
        let scenario = self.cfg.scenario.clone();
        let global = self.cfg.global;
        let engine = self.engine_mut()?;
        let step = engine.ranks[0].solver.steps_done();
        let mut mass = 0.0;
        let mut momentum = [0.0f64; 3];
        let mut max_speed = 0.0f64;
        let mut profiles: Vec<(usize, Vec<f64>)> = Vec::new();
        for rs in &engine.ranks {
            let solver = &rs.solver;
            let (m, mom) = solver.local_invariants();
            mass += m;
            for a in 0..3 {
                momentum[a] += mom[a];
            }
            max_speed = max_speed.max(solver.max_speed());
            if let Some(s) = &scenario {
                for obs in s.observables() {
                    let (axis, z_slice) = match *obs {
                        ObservableSpec::Profile { axis } => (axis, None),
                        ObservableSpec::CentreLineProfile { axis } => (axis, Some(global.nz / 2)),
                        _ => continue,
                    };
                    // The solver resolved the boundary spec once at
                    // construction; the fluid-aware profile skips wall rows
                    // and masked cells, matching max_speed. The sparse path
                    // has no row structure and declines.
                    if let Some(weighted) = solver.profile(axis, z_slice) {
                        profiles.push(weighted);
                    }
                    break;
                }
            }
        }
        let profile = match profiles.len() {
            0 => None,
            // Solo rank: hand back the exact per-rank values (no weighted
            // round trip through multiply/divide).
            1 => Some(profiles.pop().expect("len checked").1),
            _ => {
                let total: f64 = profiles.iter().map(|(nx, _)| *nx as f64).sum();
                let rows = profiles[0].1.len();
                let mut avg = vec![0.0f64; rows];
                for (nx, p) in &profiles {
                    for (a, v) in avg.iter_mut().zip(p) {
                        *a += *nx as f64 * v;
                    }
                }
                for a in &mut avg {
                    *a /= total;
                }
                Some(avg)
            }
        };
        Ok(Probe {
            step,
            mass,
            momentum,
            max_speed,
            profile,
        })
    }

    /// Scan every rank's resident populations (owned and halo planes
    /// alike) for NaN/inf. `false` means the trajectory has numerically
    /// diverged and no checkpoint of this state should ever be written.
    /// This is the cheap half of the runtime's health guard; it reads the
    /// raw storage, so it works identically mid-AA-pair.
    pub fn all_finite(&mut self) -> Result<bool> {
        let engine = self.engine_mut()?;
        Ok(engine.ranks.iter().all(|rs| rs.solver.all_finite()))
    }

    /// Overwrite one owned population value on rank 0 with NaN — the
    /// deterministic divergence injection used by the fault harness. The
    /// midpoint of the storage sits mid-slab in x (halos live at the slab
    /// edges), so the poison lands in an owned cell and streams outward on
    /// the next step exactly like a real numeric blow-up.
    #[doc(hidden)]
    pub fn fault_inject_nan(&mut self) -> Result<()> {
        let engine = self.engine_mut()?;
        engine.ranks[0].solver.inject_nan();
        Ok(())
    }

    /// The scenario's analytic reference for its profile observable at this
    /// configuration, if it has one.
    pub fn reference_profile(&self) -> Option<Vec<f64>> {
        let s = self.cfg.scenario.as_ref()?;
        s.reference_solution(
            &Lattice::new(self.cfg.lattice),
            self.cfg.tau,
            self.cfg.global,
        )
    }

    /// Serialize the live trajectory — every rank's owned planes plus the
    /// step/cycle counters and the full (RNG-free) configuration — to the
    /// versioned checkpoint format ([`crate::runtime::checkpoint`]).
    /// [`Self::resume_bytes`] on the result continues the trajectory
    /// bitwise at every `OptLevel` × `StorageMode`, including mid-AA-pair.
    /// Materialises the engine if the simulation has not advanced yet.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>> {
        crate::runtime::checkpoint::encode(self)
    }

    /// [`Self::checkpoint`] straight to a file, crash-safely: the bytes go
    /// to a sibling temp file first and are renamed into place, so a kill
    /// mid-write can never leave a torn file at `path`.
    pub fn checkpoint_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.checkpoint()?;
        crate::runtime::checkpoint::write_atomic(path.as_ref(), &bytes)
    }

    /// Rebuild a simulation from checkpoint bytes; the trajectory continues
    /// bitwise from the checkpointed step. Each rank is allocated, decoded
    /// and restored on its own thread, without the scenario's initial fill
    /// (the snapshot overwrites every owned value; the first cycle derives
    /// the halos). The link-cost model is not part of the format
    /// (it shapes timings, never state) and resumes as [`CostModel::free`].
    pub fn resume_bytes(bytes: &[u8]) -> Result<Simulation> {
        crate::runtime::checkpoint::decode(bytes)
    }

    /// [`Self::resume_bytes`] from a file written by [`Self::checkpoint_to`].
    pub fn resume(path: impl AsRef<std::path::Path>) -> Result<Simulation> {
        let bytes = std::fs::read(path).map_err(|e| lbm_core::Error::Io(e.to_string()))?;
        Self::resume_bytes(&bytes)
    }

    /// The engine, built from the scenario's initial state on first use.
    pub(crate) fn engine_mut(&mut self) -> Result<&mut Engine> {
        if self.engine.is_none() {
            self.engine = Some(Engine::build(&self.cfg, AnySolver::new)?);
        }
        Ok(self.engine.as_mut().expect("just created"))
    }

    /// Build the engine with `solver(cfg, rank)` in place of the initial
    /// state — the resume path, whose ranks come from their snapshots.
    pub(crate) fn build_engine<F>(&mut self, solver: F) -> Result<()>
    where
        F: Fn(&SimConfig, usize) -> Result<AnySolver> + Sync,
    {
        self.engine = Some(Engine::build(&self.cfg, solver)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LidDrivenCavity, PoiseuilleChannel, TaylorGreen};

    #[test]
    fn builder_produces_validated_config() {
        let sim = Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 8, 8))
            .ranks(2)
            .ghost_depth(2)
            .level(OptLevel::Fused)
            .build()
            .unwrap();
        let cfg = sim.config();
        assert_eq!(cfg.ranks, 2);
        assert_eq!(cfg.halo_width(), 6);
        assert_eq!(cfg.eq_order(), EqOrder::Third);
        assert_eq!(sim.scenario_name(), "taylor_green");
    }

    #[test]
    fn builder_rejects_invalid_configs_with_typed_errors() {
        let err = match Simulation::builder(LatticeKind::D3Q19, Dim3::cube(8))
            .tau(0.5)
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("tau = 0.5 must be rejected"),
        };
        assert!(matches!(err, ConfigError::Invalid(_)), "{err}");
        assert!(Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 8, 8))
            .ranks(8)
            .ghost_depth(2)
            .build()
            .is_err());
        // Scenario-vs-lattice misfit: 1-layer walls on a reach-3 lattice.
        assert!(Simulation::builder(LatticeKind::D3Q39, Dim3::new(8, 12, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .build()
            .is_err());
    }

    #[test]
    fn scenario_suggested_tau_applies_unless_overridden() {
        let g = Dim3::new(4, 13, 13);
        let sim = Simulation::builder(LatticeKind::D3Q19, g)
            .scenario(LidDrivenCavity::new(10.0))
            .build()
            .unwrap();
        let want = LidDrivenCavity::new(10.0)
            .suggested_tau(&Lattice::new(LatticeKind::D3Q19), g)
            .unwrap();
        assert_eq!(sim.config().tau, want);
        let sim = Simulation::builder(LatticeKind::D3Q19, g)
            .scenario(LidDrivenCavity::new(10.0))
            .tau(0.93)
            .build()
            .unwrap();
        assert_eq!(sim.config().tau, 0.93);
    }

    #[test]
    fn incremental_stepping_probes_the_flow() {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(4, 11, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .tau(0.9)
            .build()
            .unwrap();
        let p0 = sim.probe().unwrap();
        assert_eq!(p0.step, 0);
        assert_eq!(p0.max_speed, 0.0, "starts at rest");
        let mass0 = p0.mass;
        sim.step().unwrap();
        sim.run_local(49).unwrap();
        let p = sim.probe().unwrap();
        assert_eq!(p.step, 50);
        assert!((p.mass - mass0).abs() < 1e-9 * mass0, "mass conserved");
        assert!(p.max_speed > 0.0, "force must accelerate the flow");
        let profile = p.profile.expect("poiseuille declares a profile");
        assert_eq!(profile.len(), 9);
        let reference = sim.reference_profile().unwrap();
        assert_eq!(reference.len(), 9);
    }

    #[test]
    fn incremental_stepping_works_multi_rank() {
        // Step a 2-rank decomposition and compare against a solo run of the
        // same flow: the persistent engine must agree bitwise.
        let build = |ranks: usize| {
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 11, 8))
                .scenario(PoiseuilleChannel::new(1e-5))
                .tau(0.9)
                .ranks(ranks)
                .build()
                .unwrap()
        };
        let mut dist = build(2);
        dist.step().unwrap();
        dist.run_local(9).unwrap();
        let pd = dist.probe().unwrap();
        let mut solo = build(1);
        solo.run_local(10).unwrap();
        let ps = solo.probe().unwrap();
        assert_eq!(pd.step, 10);
        assert_eq!(pd.mass.to_bits(), ps.mass.to_bits(), "mass must match solo");
        assert_eq!(pd.max_speed, ps.max_speed);
    }

    #[test]
    fn run_continues_the_trajectory_instead_of_restarting() {
        let build = || {
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 8, 8))
                .scenario(TaylorGreen::default())
                .ranks(2)
                .build()
                .unwrap()
        };
        let mut split = build();
        split.run(3).unwrap();
        let rep = split.run(4).unwrap();
        assert_eq!(rep.steps, 4, "report covers the span it advanced");
        assert_eq!(split.steps_done(), 7);
        let mut whole = build();
        let rep_whole = whole.run(7).unwrap();
        assert_eq!(
            rep.mass.to_bits(),
            rep_whole.mass.to_bits(),
            "run(3); run(4) must land on the run(7) state bitwise"
        );
        assert_eq!(rep_whole.steps, 7);
    }

    #[test]
    fn batch_run_reports_scenario_name() {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 8, 8))
            .scenario(TaylorGreen::default())
            .ranks(2)
            .build()
            .unwrap();
        let rep = sim.run(3).unwrap();
        assert_eq!(rep.scenario, "taylor_green");
        assert_eq!(rep.steps, 3);
        assert!(rep.mflups > 0.0);
    }

    #[test]
    fn report_accounts_all_updates() {
        let rep = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
            .ranks(4)
            .level(OptLevel::LoBr)
            .build()
            .unwrap()
            .run(6)
            .unwrap();
        assert_eq!(rep.ranks, 4);
        assert_eq!(rep.scenario, "taylor_green");
        let updates: u64 = rep.per_rank.iter().map(|r| r.updates).sum();
        assert_eq!(updates, 6 * 16 * 8 * 8);
        assert!(rep.mflups > 0.0);
        assert!((rep.mass - (16 * 8 * 8) as f64).abs() < 1e-6);
    }

    #[test]
    fn warmup_steps_are_not_counted() {
        let rep = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
            .warmup(3)
            .level(OptLevel::Cf)
            .build()
            .unwrap()
            .run(4)
            .unwrap();
        let updates: u64 = rep.per_rank.iter().map(|r| r.updates).sum();
        assert_eq!(updates, 4 * 12 * 8 * 8);
    }

    #[test]
    fn report_carries_storage_and_resident_bytes() {
        let mk = |storage: StorageMode| {
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
                .ranks(2)
                .level(OptLevel::Simd)
                .storage(storage)
                .ghost_depth(3)
                .build()
                .unwrap()
                .run(4)
                .unwrap()
        };
        let tg = mk(StorageMode::TwoGrid);
        let aa = mk(StorageMode::InPlaceAa);
        assert_eq!(tg.storage, "two_grid");
        assert_eq!(aa.storage, "aa");
        // The depth that ran: AA's halo is two planes of reach at any
        // configured depth.
        assert_eq!(tg.ghost_depth, 3);
        assert_eq!(aa.ghost_depth, 2);
        let tg_bytes = tg.resident_population_bytes();
        let aa_bytes = aa.resident_population_bytes();
        assert!(tg_bytes > 0 && aa_bytes > 0);
        // Two-grid holds two buffers with d·k halos, AA one buffer with 2k
        // halos: the footprint must land well under two-thirds of two-grid
        // on this box (~½ + halo differences).
        assert!(
            (aa_bytes as f64) < 0.67 * tg_bytes as f64,
            "AA resident {aa_bytes} vs two-grid {tg_bytes}"
        );
    }

    #[test]
    fn fused_rung_conserves_mass_like_simd() {
        // Acceptance check for the fused top rung: distributed fused runs
        // must conserve global mass to the same tolerance as the Simd rung.
        for (kind, global) in [
            (LatticeKind::D3Q19, Dim3::new(16, 8, 8)),
            (LatticeKind::D3Q39, Dim3::new(12, 8, 8)),
        ] {
            let expected = (global.nx * global.ny * global.nz) as f64;
            let mut masses = Vec::new();
            for level in [OptLevel::Simd, OptLevel::Fused] {
                let rep = Simulation::builder(kind, global)
                    .ranks(2)
                    .level(level)
                    .build()
                    .unwrap()
                    .run(8)
                    .unwrap();
                assert!(
                    (rep.mass - expected).abs() < 1e-9 * expected,
                    "{kind:?} {}: mass {} vs {}",
                    level.name(),
                    rep.mass,
                    expected
                );
                assert!(rep.mflups > 0.0);
                masses.push(rep.mass);
            }
            assert!(
                (masses[0] - masses[1]).abs() < 1e-9 * expected,
                "{kind:?}: Simd vs Fused mass drift"
            );
        }
    }

    /// Every rank's resident values (field with halos, or every sparse
    /// tile frame) as bits.
    fn rank_bits(solver: &AnySolver) -> Vec<u64> {
        solver.raw().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_construction_is_bitwise_the_serial_one() {
        // More ranks than a two-core host has cores, so some construction
        // threads share a core.
        let global = Dim3::new(16, 16, 16);
        let pipe = Geometry::pipe(global, 5.0).unwrap();
        for ranks in [2, 3, 4] {
            for storage in [StorageMode::TwoGrid, StorageMode::InPlaceAa] {
                for sparse in [false, true] {
                    for threads in [1, 2] {
                        let mut b = Simulation::builder(LatticeKind::D3Q19, global)
                            .scenario(TaylorGreen::default())
                            .ranks(ranks)
                            .threads(threads)
                            .storage(storage);
                        if sparse {
                            b = b.geometry(pipe.clone());
                        }
                        let mut sim = b.build().unwrap();
                        let cfg = sim.config().clone();
                        let parallel = sim.engine_mut().unwrap();
                        assert_eq!(parallel.ranks.len(), ranks);
                        for (rank, rs) in parallel.ranks.iter().enumerate() {
                            let serial = AnySolver::new(&cfg, rank).unwrap();
                            assert_eq!(rs.comm.rank(), rank);
                            assert!(
                                rank_bits(&rs.solver) == rank_bits(&serial),
                                "ranks={ranks} {} sparse={sparse} threads={threads}: \
                                 rank {rank} differs",
                                storage.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_construction_returns_the_serial_error() {
        // Fluid only in tile column 1 of 6: three ranks split the columns
        // [0, 2), [2, 3), [3, 6), and the last rank's columns hold neither
        // fluid nor rim, so its tile build fails.
        let global = Dim3::new(24, 8, 8);
        let geom = Geometry::from_fn(global, |x, _, _| (4..8).contains(&x)).unwrap();
        let mut sim = Simulation::builder(LatticeKind::D3Q19, global)
            .geometry(geom)
            .ranks(3)
            .build()
            .unwrap();
        let cfg = sim.config().clone();
        let serial = (0..cfg.ranks)
            .map(|rank| AnySolver::new(&cfg, rank))
            .collect::<Result<Vec<_>>>();
        let want = match serial {
            Err(e) => e,
            Ok(_) => panic!("the last rank's tile build must fail"),
        };
        assert!(want.to_string().contains("allocate no tiles"), "{want}");
        match sim.engine_mut() {
            Err(got) => assert_eq!(got, want),
            Ok(_) => panic!("parallel construction accepted what a serial loop rejects"),
        }
    }

    #[test]
    fn parallel_construction_propagates_a_rank_panic() {
        /// Panics while initialising a site only the last of 4 ranks of
        /// 16 planes touches (it owns 12..16; its neighbours' depth-1 halos
        /// reach 12 and 15).
        struct FaultyInit;
        impl Scenario for FaultyInit {
            fn name(&self) -> &'static str {
                "faulty_init"
            }
            fn init(&self, _: Dim3, x: usize, _: usize, _: usize) -> (f64, [f64; 3]) {
                assert_ne!(x, 13, "injected init fault");
                (1.0, [0.0; 3])
            }
        }
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
            .scenario(FaultyInit)
            .ranks(4)
            .build()
            .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.probe()));
        let payload = caught.expect_err("the rank's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected init fault"), "{msg}");
    }

    #[test]
    fn invalid_config_errors_cleanly() {
        // halo 6 > 2 planes per rank
        assert!(Simulation::builder(LatticeKind::D3Q39, Dim3::new(8, 8, 8))
            .ranks(4)
            .ghost_depth(2)
            .build()
            .is_err());
    }
}
