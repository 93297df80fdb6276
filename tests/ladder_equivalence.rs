//! End-to-end ladder equivalence: every optimization rung of the paper's
//! Fig. 8 must compute the *same flow* — the rungs may only change speed.
//! Runs the full distributed stack (decomposition, exchange schedule, deep
//! halos, kernels) for each rung and compares owned fields cell by cell.

use lbm::comm::{CostModel, Universe};
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;
use lbm::sim::scenario::ScenarioHandle;

fn owned_fields(b: &SimulationBuilder, steps: usize) -> Vec<lbm::core::DistField> {
    let cfg = b.clone().build_config().unwrap();
    Universe::run(cfg.ranks, CostModel::free(), |comm| {
        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
        s.run(comm, steps);
        s.owned_snapshot()
    })
}

fn max_diff(a: &[lbm::core::DistField], b: &[lbm::core::DistField]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.max_abs_diff_owned(y))
        .fold(0.0, f64::max)
}

#[test]
fn all_rungs_produce_the_same_flow_q19() {
    let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8)).ranks(4);
    let reference = owned_fields(&base.clone().level(OptLevel::Orig), 8);
    for level in OptLevel::ALL {
        let got = owned_fields(&base.clone().level(level), 8);
        let d = max_diff(&reference, &got);
        assert!(d < 1e-11, "{}: diff {d}", level.name());
    }
}

#[test]
fn all_rungs_produce_the_same_flow_q39() {
    let base = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8)).ranks(2);
    let reference = owned_fields(&base.clone().level(OptLevel::Orig), 5);
    for level in OptLevel::ALL {
        let got = owned_fields(&base.clone().level(level), 5);
        let d = max_diff(&reference, &got);
        assert!(d < 1e-11, "{}: diff {d}", level.name());
    }
}

#[test]
fn ladder_rungs_conserve_mass_and_momentum() {
    for level in [OptLevel::Orig, OptLevel::Dh, OptLevel::Simd] {
        let cfg = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8))
            .ranks(3)
            .level(level)
            .build_config()
            .unwrap();
        let out = Universe::run(cfg.ranks, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            let before = s.global_invariants(comm);
            s.run(comm, 6);
            let after = s.global_invariants(comm);
            (before, after)
        });
        let (b, a) = &out[0];
        assert!((b.0 - a.0).abs() < 1e-9 * b.0, "{}: mass", level.name());
        for ax in 0..3 {
            assert!(
                (b.1[ax] - a.1[ax]).abs() < 1e-9,
                "{}: momentum {ax}",
                level.name()
            );
        }
    }
}

const STRATEGIES: [CommStrategy; 4] = [
    CommStrategy::Blocking,
    CommStrategy::NonBlockingEager,
    CommStrategy::NonBlockingGhost,
    CommStrategy::OverlapGhostCollide,
];

#[test]
fn deep_halo_and_strategy_grid_equivalence() {
    // Two-grid: for each (level, scenario) the depth × strategy grid must
    // agree bitwise with that cell's own depth-1 blocking run. The walled
    // and forced scenarios run the boundary-aware updates, the fused rung
    // its single pass, under every schedule.
    let scenarios: [(&str, Option<ScenarioHandle>, Dim3); 3] = [
        ("taylor_green", None, Dim3::new(16, 8, 8)),
        (
            "poiseuille_channel",
            Some(ScenarioHandle::new(PoiseuilleChannel::new(1e-5))),
            Dim3::new(16, 11, 8),
        ),
        (
            "lid_driven_cavity",
            Some(ScenarioHandle::new(LidDrivenCavity::new(10.0))),
            Dim3::new(16, 13, 13),
        ),
    ];
    for level in [OptLevel::LoBr, OptLevel::Simd, OptLevel::Fused] {
        for (name, scenario, global) in &scenarios {
            let mut base = Simulation::builder(LatticeKind::D3Q19, *global)
                .ranks(2)
                .level(level);
            if let Some(s) = scenario {
                base = base.scenario(s.clone());
            }
            let reference = owned_fields(
                &base.clone().ghost_depth(1).strategy(CommStrategy::Blocking),
                6,
            );
            for depth in [1usize, 2, 3] {
                for strategy in STRATEGIES {
                    let got = owned_fields(&base.clone().ghost_depth(depth).strategy(strategy), 6);
                    let d = max_diff(&reference, &got);
                    assert_eq!(
                        d,
                        0.0,
                        "{} {name} depth {depth} strategy {}: diff {d}",
                        level.name(),
                        strategy.label()
                    );
                }
            }
        }
    }
    // AA storage: one exchange per even/odd pair, posted ahead under the
    // ghost schedules and border-first under GC-C; every strategy must
    // agree bitwise with the blocking one, threads on.
    let global = Dim3::new(32, 12, 8);
    for (name, scenario) in [
        ("taylor_green", None),
        (
            "knudsen_microchannel",
            Some(ScenarioHandle::new(KnudsenMicrochannel::new(0.2))),
        ),
    ] {
        let mut base = Simulation::builder(LatticeKind::D3Q39, global)
            .ranks(2)
            .threads(2)
            .level(OptLevel::Simd)
            .storage(StorageMode::InPlaceAa);
        if let Some(s) = scenario {
            base = base.scenario(s);
        }
        let reference = owned_fields(&base.clone().strategy(CommStrategy::Blocking), 8);
        for strategy in STRATEGIES {
            let got = owned_fields(&base.clone().strategy(strategy), 8);
            let d = max_diff(&reference, &got);
            assert_eq!(d, 0.0, "AA {name} strategy {}: diff {d}", strategy.label());
        }
    }
}
