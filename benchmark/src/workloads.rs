//! The four workloads, and how a seed becomes their inputs.
//!
//! Names are fixed: later issues cite them. Each workload stresses layers the
//! others bypass, so for every optimisation there is one workload that
//! exercises its mechanism and one on which the prediction is "no change".
//! The library never sees the seed, only the inputs generated from it.

use lbm_core::boundary::{BoundarySpec, SectionMask};
use lbm_core::collision::{Bgk, BodyForce};
use lbm_core::field::StorageMode;
use lbm_core::geometry::{Geometry, TILE_B};
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_sim::{ForcedFlow, KnudsenMicrochannel, Scenario, Simulation, TaylorGreen};

/// Untimed steps after the first one, before the timed chunks start.
pub const WARMUP_STEPS: usize = 3;
/// Steps of the small twin runs of check (e).
pub const TWIN_STEPS: usize = 20;
/// Solid layers per side of the Knudsen channel (the D3Q39 reach).
const KNUDSEN_LAYERS: usize = 3;
/// Fluid share of the pipe workload's box.
const PIPE_FLUID_FRACTION: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TgQ19Fused,
    KnudsenQ39Aa,
    TgQ39Halo,
    PipeQ19Sparse,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub lattice: LatticeKind,
    pub global: Dim3,
    /// Box of the small twin of check (e): at most an eighth of the cells.
    pub twin_global: Dim3,
    /// Steps per timed chunk, i.e. per `Simulation::run` call.
    pub chunk_steps: usize,
    pub ranks: usize,
    pub storage: StorageMode,
    pub level: OptLevel,
}

impl Workload {
    /// The four workloads at full size, or at `--smoke` size (boxes of at
    /// most 16³, which run every code path in seconds).
    pub fn all(smoke: bool) -> Vec<Workload> {
        let box_of = |d: (usize, usize, usize)| Dim3::new(d.0, d.1, d.2);
        // (full box, its twin, the twin at smoke size). The Taylor–Green
        // twins are square in x–y with 32 planes per wavelength: only for
        // kx = ky is the initial vortex divergence-free, which is what the
        // analytic decay of check (d) assumes, and 16 planes resolve the
        // decay rate of D3Q39 to 5 % only. That makes the D3Q39 smoke twin
        // the one smoke box above 16³ cells (D3Q39 needs more than 6 planes
        // in z).
        let dims = |full, twin, smoke_twin| {
            if smoke {
                (Dim3::cube(16), box_of(smoke_twin))
            } else {
                (box_of(full), box_of(twin))
            }
        };
        let (g1, t1) = dims((128, 96, 96), (32, 32, 32), (32, 32, 4));
        let (g2, t2) = dims((96, 64, 64), (24, 32, 32), (16, 16, 16));
        let (g3, t3) = dims((16, 128, 128), (32, 32, 16), (32, 32, 8));
        let (g4, t4) = dims((64, 192, 192), (16, 96, 96), (16, 16, 16));
        vec![
            Workload {
                kind: Kind::TgQ19Fused,
                name: "tg_q19_fused_1r1t",
                why: "Plain single-threaded baseline: the fused dense D3Q19 kernel is nearly all \
                      of the step; bypasses AA, boundaries, halo exchange and sparse tiles.",
                lattice: LatticeKind::D3Q19,
                global: g1,
                twin_global: t1,
                chunk_steps: 10,
                ranks: 1,
                storage: StorageMode::TwoGrid,
                level: OptLevel::Fused,
            },
            Workload {
                kind: Kind::KnudsenQ39Aa,
                name: "knudsen_q39_aa_1r1t",
                why: "The beyond-Navier-Stokes case: D3Q39 third-order, in-place AA even/odd \
                      steps, diffuse walls and Guo forcing; half the resident memory.",
                lattice: LatticeKind::D3Q39,
                global: g2,
                twin_global: t2,
                chunk_steps: 10,
                ranks: 1,
                storage: StorageMode::InPlaceAa,
                level: OptLevel::Simd,
            },
            Workload {
                kind: Kind::TgQ39Halo,
                name: "tg_q39_halo_2r1t",
                why: "Thin slabs on 2 ranks: halo pack/unpack, comm waits and the GC-C schedule \
                      take a large share of the step; the only workload using both cores.",
                lattice: LatticeKind::D3Q39,
                global: g3,
                twin_global: t3,
                chunk_steps: 20,
                ranks: 2,
                storage: StorageMode::TwoGrid,
                level: OptLevel::Fused,
            },
            Workload {
                kind: Kind::PipeQ19Sparse,
                name: "pipe_q19_sparse_1r1t",
                why: "The vascular use case: a pipe at 10 % fluid on sparse tiles; tile build is \
                      the set-up, the neighbour-table gather kernel is the step; dense kernels idle.",
                lattice: LatticeKind::D3Q19,
                global: g4,
                twin_global: t4,
                chunk_steps: 20,
                ranks: 1,
                storage: StorageMode::TwoGrid,
                level: OptLevel::Simd,
            },
        ]
    }

    pub fn is_taylor_green(&self) -> bool {
        matches!(self.kind, Kind::TgQ19Fused | Kind::TgQ39Halo)
    }

    /// Generate this workload's inputs for `global` from the seeded values.
    /// For the pipe this voxelises the geometry, which is why input
    /// generation is part of the set-up time.
    pub fn inputs(&self, global: Dim3, seeded: &Seeded) -> Inputs {
        let geometry = (self.kind == Kind::PipeQ19Sparse).then(|| {
            let area = (global.ny * global.nz) as f64;
            // Smoke boxes are too small for a 10 % pipe to keep a fluid core.
            let fraction = if global.ny <= 16 {
                0.30
            } else {
                PIPE_FLUID_FRACTION
            };
            let radius = (fraction * area / std::f64::consts::PI).sqrt();
            let room = |n: usize| ((n as f64 / 2.0 - radius) / TILE_B as f64).floor().max(0.0);
            let shift = |tiles: usize, n: usize| (tiles.min(room(n) as usize) * TILE_B) as f64;
            let cy = (global.ny as f64 - 1.0) / 2.0 + shift(seeded.pipe_shift_tiles.0, global.ny);
            let cz = (global.nz as f64 - 1.0) / 2.0 + shift(seeded.pipe_shift_tiles.1, global.nz);
            Geometry::pipe_at(global, cy, cz, radius).expect("pipe radius is positive")
        });
        Inputs {
            global,
            seeded: *seeded,
            geometry,
        }
    }

    /// The workload on its own path.
    pub fn build(&self, inputs: &Inputs) -> Result<Simulation, String> {
        self.build_with(inputs, self.ranks, 1)
    }

    /// The workload's own path on another rank × thread layout (the traced
    /// pass's scaling and threading side runs).
    pub fn build_with(
        &self,
        inputs: &Inputs,
        ranks: usize,
        threads: usize,
    ) -> Result<Simulation, String> {
        let b = Simulation::builder(self.lattice, inputs.global)
            .ranks(ranks)
            .threads(threads)
            .storage(self.storage)
            .level(self.level);
        let s = &inputs.seeded;
        let b = match self.kind {
            Kind::TgQ19Fused | Kind::TgQ39Halo => b.scenario(TaylorGreen::new(s.tg_u0)),
            Kind::KnudsenQ39Aa => b.scenario(knudsen(s)),
            Kind::PipeQ19Sparse => b.scenario(ForcedFlow::new(s.pipe_force)).geometry(
                inputs
                    .geometry
                    .clone()
                    .expect("pipe inputs carry a geometry"),
            ),
        };
        b.build().map_err(|e| format!("{}: {e}", self.name))
    }

    /// The same flow on the plain path — 1 rank, 1 thread, two-grid, `LoBr`
    /// scalar kernels, and for the pipe the dense masked box — which check
    /// (e) compares the workload's own path against.
    pub fn build_plain(&self, inputs: &Inputs) -> Result<Simulation, String> {
        let b = Simulation::builder(self.lattice, inputs.global).level(OptLevel::LoBr);
        let s = &inputs.seeded;
        let b = match self.kind {
            Kind::TgQ19Fused | Kind::TgQ39Halo => b.scenario(TaylorGreen::new(s.tg_u0)),
            Kind::KnudsenQ39Aa => b.scenario(knudsen(s)),
            Kind::PipeQ19Sparse => {
                let geom = inputs
                    .geometry
                    .as_ref()
                    .expect("pipe inputs carry a geometry");
                b.scenario(MaskedForced {
                    g: s.pipe_force,
                    mask: geom.to_section_mask().expect("a pipe is x-invariant"),
                })
            }
        };
        b.build().map_err(|e| format!("{} (plain): {e}", self.name))
    }

    /// Fluid cells of the whole box: the `N_fl` of the paper's Eq. 4.
    pub fn fluid_cells(&self, inputs: &Inputs) -> u64 {
        let g = inputs.global;
        match self.kind {
            Kind::TgQ19Fused | Kind::TgQ39Halo => g.len() as u64,
            Kind::KnudsenQ39Aa => (g.nx * (g.ny - 2 * KNUDSEN_LAYERS) * g.nz) as u64,
            Kind::PipeQ19Sparse => inputs
                .geometry
                .as_ref()
                .expect("pipe inputs carry a geometry")
                .fluid_count(),
        }
    }

    /// Analytic Taylor–Green amplitude ratio `max|u|(t) / u0` after `steps`
    /// steps at relaxation time `tau`.
    pub fn taylor_green_decay(&self, global: Dim3, tau: f64, steps: u64) -> f64 {
        let cs2 = Lattice::new(self.lattice).cs2();
        let nu = Bgk::new(tau).expect("validated tau").viscosity(cs2);
        let kx = 2.0 * std::f64::consts::PI / global.nx as f64;
        let ky = 2.0 * std::f64::consts::PI / global.ny as f64;
        lbm_core::analytic::viscous_decay(nu, kx, ky, steps as f64)
    }
}

fn knudsen(s: &Seeded) -> KnudsenMicrochannel {
    KnudsenMicrochannel::new(0.1)
        .with_layers(KNUDSEN_LAYERS)
        .with_force(s.knudsen_force)
}

/// Body-forced flow through a periodic box whose cross-section is carved by
/// a mask: the dense reference for the sparse pipe.
struct MaskedForced {
    g: f64,
    mask: SectionMask,
}

impl Scenario for MaskedForced {
    fn name(&self) -> &'static str {
        "masked_forced"
    }
    fn boundaries(&self, _global: Dim3) -> BoundarySpec {
        BoundarySpec::periodic().with_mask(self.mask.clone())
    }
    fn forcing(&self, _step: u64) -> Option<BodyForce> {
        Some(BodyForce::along_x(self.g))
    }
}

/// The values a seed determines. Each drives one workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seeded {
    pub seed: u64,
    /// Taylor–Green amplitude, in [0.02, 0.05).
    pub tg_u0: f64,
    /// Knudsen channel force density, in [2e-6, 8e-6).
    pub knudsen_force: f64,
    /// Pipe force density, in [0.5e-6, 2e-6).
    pub pipe_force: f64,
    /// Pipe centre shift in whole tiles along (y, z), each in 0..6. Whole
    /// tiles because the tile structure — tile count, fast/slow split,
    /// resident bytes — is invariant under them; a sub-tile shift moves the
    /// tile count by up to 4 %, which would make `resident_mib` depend on the
    /// seed by more than its bound.
    pub pipe_shift_tiles: (usize, usize),
}

impl Seeded {
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut unit = || (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let tg_u0 = 0.02 + 0.03 * unit();
        let knudsen_force = 2e-6 + 6e-6 * unit();
        let pipe_force = 0.5e-6 + 1.5e-6 * unit();
        let pipe_shift_tiles = ((unit() * 6.0) as usize, (unit() * 6.0) as usize);
        Self {
            seed,
            tg_u0,
            knudsen_force,
            pipe_force,
            pipe_shift_tiles,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generated inputs of one workload: everything `build` needs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub global: Dim3,
    pub seeded: Seeded,
    pub geometry: Option<Geometry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(Seeded::new(7), Seeded::new(7));
        assert_ne!(Seeded::new(7).tg_u0, Seeded::new(8).tg_u0);
        for seed in 0..200 {
            let s = Seeded::new(seed);
            assert!((0.02..0.05).contains(&s.tg_u0), "{s:?}");
            assert!((2e-6..8e-6).contains(&s.knudsen_force), "{s:?}");
            assert!((0.5e-6..2e-6).contains(&s.pipe_force), "{s:?}");
            assert!(
                s.pipe_shift_tiles.0 < 6 && s.pipe_shift_tiles.1 < 6,
                "{s:?}"
            );
        }
    }

    #[test]
    fn pipe_geometry_is_deterministic_and_its_tile_structure_seed_free() {
        let w = &Workload::all(false)[3];
        let a = w.inputs(w.twin_global, &Seeded::new(3));
        let b = w.inputs(w.twin_global, &Seeded::new(3));
        assert_eq!(a.geometry, b.geometry);
        // Whatever the seed, a whole-tile shift keeps the fluid count.
        let counts: Vec<u64> = (0..20)
            .map(|seed| w.fluid_cells(&w.inputs(w.twin_global, &Seeded::new(seed))))
            .collect();
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
        let share = counts[0] as f64 / w.twin_global.len() as f64;
        assert!((share - 0.10).abs() < 0.01, "fluid share {share}");
    }

    #[test]
    fn names_fit_the_contract_and_twins_are_small() {
        for (full, smoke) in Workload::all(false).iter().zip(Workload::all(true)) {
            assert!(full.name.len() <= 64 && full.why.len() <= 200);
            assert!(!full.why.contains('\n'));
            assert!(
                full.twin_global.len() * 8 <= full.global.len(),
                "{}",
                full.name
            );
            assert!(smoke.global.len() <= 16 * 16 * 16);
            assert!(smoke.twin_global.len() <= 2 * 16 * 16 * 16);
        }
    }
}
