//! Regenerates **Fig. 1** — "Fluid density in the aorta" (illustration).
//!
//! The paper's figure is a rendering of its hemodynamics application; the
//! reproduction drives a pulsatile pipe (circular lumen carved by the solid
//! mask) through the rank solver and writes the density field to
//! `target/fig1_aorta_density.ppm`.
//!
//! ```sh
//! cargo run --release -p lbm-bench --bin fig1_aorta
//! ```

use lbm_comm::{CostModel, Universe};
use lbm_core::boundary::{BoundarySpec, ChannelWalls, SectionMask};
use lbm_core::collision::BodyForce;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::LatticeKind;
use lbm_sim::distributed::RankSolver;
use lbm_sim::{observables, output, ForcedFlow, Scenario, Simulation};

/// Lumen centre (y, z) and radius in allocated coordinates.
const LUMEN: (f64, f64, f64) = (13.0, 12.0, 11.0);

/// One-layer bounce-back walls in y, a circular lumen carved by the
/// cross-section mask, and the aorta-pulse drive of [`ForcedFlow`].
struct AortaPipe {
    drive: ForcedFlow,
}

impl Scenario for AortaPipe {
    fn name(&self) -> &'static str {
        "aorta_pipe"
    }

    fn boundaries(&self, global: Dim3) -> BoundarySpec {
        let (cy, cz, r) = LUMEN;
        BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(global.ny, global.nz, |y, z| {
                let dy = y as f64 - cy;
                let dz = z as f64 - cz;
                (dy * dy + dz * dz).sqrt() > r
            }))
    }

    fn forcing(&self, step: u64) -> Option<BodyForce> {
        self.drive.forcing(step)
    }
}

fn main() {
    // 64×25×25 fluid cells plus one wall layer on each y side.
    let fluid = Dim3::new(64, 25, 25);
    let global = Dim3::new(fluid.nx, fluid.ny + 2, fluid.nz);
    // One systolic pulse.
    let period = 300;
    let cfg = Simulation::builder(LatticeKind::D3Q19, global)
        .scenario(AortaPipe {
            drive: ForcedFlow::new(4e-6).with_pulse(0.8, period),
        })
        .tau(0.7)
        .level(OptLevel::LoBr)
        .build_config()
        .expect("pipe");
    let (rho, axis_u) = Universe::run(1, CostModel::free(), |comm| {
        let mut s = RankSolver::new(&cfg, comm.rank()).expect("pipe");
        s.run(comm, period as usize);
        let rho = observables::density_slice(&s.ctx, s.field(), fluid.nz / 2);
        let (_, u) = observables::macro_fields(&s.ctx, s.field());
        (rho, u.get(fluid.nx / 2, 13, 12)[0])
    })
    .pop()
    .expect("one rank");

    std::fs::create_dir_all("target").expect("mkdir");
    let path = std::path::Path::new("target/fig1_aorta_density.ppm");
    output::write_ppm(path, &rho).expect("write");
    println!("Fig. 1 analogue written to {}", path.display());
    println!("axis velocity {axis_u:.3e}, density range rendered blue→red (see paper Fig. 1)");
}
