//! Determinism guarantees: timing-perturbation knobs (jitter, compute skew,
//! link costs) and communication schedules must never change the physics —
//! only the clock. This is what makes the Fig. 9/10/11 timing experiments
//! trustworthy: every configuration computes the identical flow.

use std::time::Duration;

use lbm::comm::{CostModel, Universe};
use lbm::core::boundary::BoundarySpec;
use lbm::core::collision::BodyForce;
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;
use lbm::sim::ScenarioHandle;

fn owned_fields(b: &SimulationBuilder, steps: usize) -> Vec<lbm::core::DistField> {
    let cfg = b.clone().build_config().unwrap();
    Universe::run(cfg.ranks, cfg.cost.clone(), |comm| {
        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
        s.run(comm, steps);
        s.owned_snapshot()
    })
}

fn assert_identical(a: &[lbm::core::DistField], b: &[lbm::core::DistField], what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.max_abs_diff_owned(y), 0.0, "{what}");
    }
}

#[test]
fn jitter_and_skew_change_only_time() {
    let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
        .ranks(4)
        .level(OptLevel::LoBr);
    let clean = owned_fields(&base, 5);
    let noisy = owned_fields(&base.jitter(0.3).compute_skew(0.5), 5);
    assert_identical(&clean, &noisy, "jitter/skew must not alter physics");
}

#[test]
fn link_costs_change_only_time() {
    let base = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8))
        .ranks(2)
        .level(OptLevel::Simd);
    let free = owned_fields(&base, 4);
    let costly = owned_fields(
        &base.cost(CostModel::torus_ramp(
            Duration::from_micros(300),
            1e9,
            2,
            4.0,
        )),
        4,
    );
    assert_identical(&free, &costly, "link cost must not alter physics");
}

#[test]
fn repeated_runs_are_bitwise_reproducible() {
    let cfg = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8))
        .ranks(3)
        .threads(2)
        .level(OptLevel::Simd);
    let a = owned_fields(&cfg, 5);
    let b = owned_fields(&cfg, 5);
    assert_identical(&a, &b, "same config twice must agree bitwise");
}

#[test]
fn eager_midstep_exchange_does_not_alter_physics() {
    // The no-ghost schedule's extra mid-step scatter exchange writes real
    // halo values into tmp; physics must match the other schedules exactly.
    let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 8, 8))
        .ranks(3)
        .level(OptLevel::LoBr);
    let eager = owned_fields(&base.clone().strategy(CommStrategy::NonBlockingEager), 6);
    let ghost = owned_fields(&base.strategy(CommStrategy::NonBlockingGhost), 6);
    assert_identical(&eager, &ghost, "schedules must agree");
}

#[test]
fn report_is_internally_consistent() {
    let rep = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
        .ranks(4)
        .ghost_depth(2)
        .level(OptLevel::Simd)
        .build()
        .unwrap()
        .run(8)
        .unwrap();
    // Eq. 4 bookkeeping: updates = steps × cells; mflups consistent.
    let updates: u64 = rep.per_rank.iter().map(|r| r.updates).sum();
    assert_eq!(updates, 8 * 16 * 8 * 8);
    let expect = updates as f64 / rep.wall_secs / 1e6;
    assert!((rep.mflups - expect).abs() < 1e-9);
    assert!(rep.mflups_with_ghost >= rep.mflups);
    // Comm stats ordered.
    assert!(rep.comm_min_secs <= rep.comm_median_secs);
    assert!(rep.comm_median_secs <= rep.comm_max_secs);
    // Mass equals the initial uniform density times the cell count.
    assert!((rep.mass - (16 * 8 * 8) as f64).abs() < 1e-6);
    // The legacy default flow is reported as the Taylor–Green scenario.
    assert_eq!(rep.scenario, "taylor_green");
}

/// The report's mass is one streaming pass per rank, allreduced in rank
/// order: bitwise the probe's rank-ordered sum of per-cell moments, at
/// every rank and thread count and AA parity.
#[test]
fn run_mass_is_bitwise_the_probe_mass() {
    let knudsen = Simulation::builder(LatticeKind::D3Q39, Dim3::new(18, 8, 16))
        .scenario(KnudsenMicrochannel::new(0.1))
        .storage(StorageMode::InPlaceAa)
        .level(OptLevel::Simd);
    let taylor_green =
        Simulation::builder(LatticeKind::D3Q19, Dim3::new(12, 9, 70)).level(OptLevel::Fused);
    for base in [knudsen, taylor_green] {
        for (ranks, threads) in [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)] {
            let mut sim = base.clone().ranks(ranks).threads(threads).build().unwrap();
            for n in [1, 2, 7] {
                let run = sim.run(n).unwrap().mass;
                let probe = sim.probe().unwrap().mass;
                assert_eq!(
                    run.to_bits(),
                    probe.to_bits(),
                    "{} ranks {ranks} threads {threads} run({n}): {run} vs {probe}",
                    sim.scenario_name()
                );
            }
        }
    }
}

/// Three ranks finish a chunk in an order set by thread timing; the
/// report's mass must not depend on it.
#[test]
fn three_rank_run_mass_has_one_bit_pattern() {
    let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(24, 9, 70))
        .ranks(3)
        .level(OptLevel::Fused);
    let patterns: std::collections::BTreeSet<u64> = (0..50)
        .map(|_| base.clone().build().unwrap().run(1).unwrap().mass.to_bits())
        .collect();
    assert_eq!(patterns.len(), 1, "{patterns:?}");
}

/// Run `b` for each length of `runs` in turn: each report's mass must be
/// bitwise the probe's moments sweep, and where the fused pass folds it
/// (`folds`: every rank, one serial vector pass) the fold must have run
/// once per rank and run, so the match cannot come from the field pass
/// alone.
fn assert_run_mass_is_the_probe_mass(
    b: &SimulationBuilder,
    runs: &[usize],
    folds: bool,
    what: &str,
) {
    let mut sim = b.clone().build().unwrap();
    let ranks = sim.config().ranks as u64;
    let per_run = if folds && lbm::core::kernels::simd::simd_available() {
        ranks
    } else {
        0
    };
    for (i, &n) in runs.iter().enumerate() {
        let run = sim.run(n).unwrap().mass;
        let probe = sim.probe().unwrap().mass;
        assert!(probe.is_finite(), "{what} run({n}): mass {probe}");
        assert_eq!(
            run.to_bits(),
            probe.to_bits(),
            "{what} run({n}): {run} vs {probe}"
        );
        assert_eq!(
            sim.mass_folds(),
            per_run * (i as u64 + 1),
            "{what} run({n}): folds"
        );
    }
}

/// `flow`'s walls, mask and forcing, started as one uniform stream: every
/// cell away from the walls then holds the same populations, so a change in
/// the order a cell's density is summed moves every such cell's density the
/// same way, and the mass shows it. (Over cells that differ, such 1-ulp
/// changes take both signs and vanish in the rounding of the chain.) The
/// stream is far faster than any physical flow, so its populations are
/// large and of both signs and each density is a near-cancelling sum whose
/// rounding depends on the order.
struct UniformStart(ScenarioHandle);

impl Scenario for UniformStart {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn init(&self, _: Dim3, _: usize, _: usize, _: usize) -> (f64, [f64; 3]) {
        (1.0, [8.0, 3.0, -5.0])
    }

    fn boundaries(&self, global: Dim3) -> BoundarySpec {
        self.0.boundaries(global)
    }

    fn forcing(&self, step: u64) -> Option<BodyForce> {
        self.0.forcing(step)
    }

    fn suggested_tau(&self, lat: &Lattice, global: Dim3) -> Option<f64> {
        self.0.suggested_tau(lat, global)
    }

    fn validate(&self, lat: &Lattice, global: Dim3) -> lbm::core::Result<()> {
        self.0.validate(lat, global)
    }
}

/// The fused pass that ends a `run` folds the owned mass the report
/// carries, with the bits of a separate readout: every lattice, periodic,
/// Guo-forced, bounce-back, moving-wall, diffuse-wall and masked flows
/// (from a uniform start, see [`UniformStart`]), on line-aligned (nz = 64)
/// and unaligned (70) rows; then rank × thread × schedule × ghost-depth
/// layouts, with runs that end mid-cycle. Threaded ranks and the multi-rank
/// GC-C order read the field instead.
#[test]
fn run_mass_folded_in_the_last_pass_is_the_probe_mass() {
    let lattices = [
        (LatticeKind::D3Q19, EqOrder::Second),
        (LatticeKind::D3Q27, EqOrder::Second),
        (LatticeKind::D3Q39, EqOrder::Third),
    ];
    let flows = |k: usize| -> Vec<ScenarioHandle> {
        vec![
            ScenarioHandle::new(TaylorGreen::new(0.03)),
            ScenarioHandle::new(ForcedFlow::new(2e-5)),
            ScenarioHandle::new(PoiseuilleChannel::new(1e-5).with_layers(k)),
            ScenarioHandle::new(CouetteFlow::new(0.04).with_layers(k)),
            ScenarioHandle::new(KnudsenMicrochannel::new(0.1).with_layers(k)),
            ScenarioHandle::new(LidDrivenCavity::new(100.0).with_layers(k)),
        ]
    };
    for (kind, order) in lattices {
        let k = lbm::core::lattice::Lattice::new(kind).reach();
        for flow in flows(k) {
            for nz in [64, 70] {
                let b = Simulation::builder(kind, Dim3::new(6, 8, nz))
                    .order(order)
                    .scenario(UniformStart(flow.clone()))
                    .level(OptLevel::Fused);
                let what = format!("{kind:?} {} nz={nz}", flow.name());
                assert_run_mass_is_the_probe_mass(&b, &[2, 3], true, &what);
            }
        }
    }
    // Three ranks of ghost depth 2 need 2k owned planes each.
    let cases = [
        (LatticeKind::D3Q19, EqOrder::Second, 1, Dim3::new(6, 8, 70)),
        (LatticeKind::D3Q39, EqOrder::Third, 3, Dim3::new(18, 8, 64)),
    ];
    for (kind, order, k, global) in cases {
        // The plain path and the boundary-aware one (walls and a mask).
        let mut flows = vec![ScenarioHandle::new(
            LidDrivenCavity::new(100.0).with_layers(k),
        )];
        if k == 1 {
            flows.push(ScenarioHandle::new(TaylorGreen::new(0.03)));
        }
        for flow in flows {
            for (ranks, threads) in [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)] {
                for strategy in [
                    CommStrategy::OverlapGhostCollide,
                    CommStrategy::NonBlockingGhost,
                ] {
                    for depth in [1, 2] {
                        let b = Simulation::builder(kind, global)
                            .order(order)
                            .scenario(flow.clone())
                            .level(OptLevel::Fused)
                            .ranks(ranks)
                            .threads(threads)
                            .strategy(strategy)
                            .ghost_depth(depth);
                        let serial = threads == 1
                            && !(strategy == CommStrategy::OverlapGhostCollide && ranks > 1);
                        let what = format!(
                            "{kind:?} {} {global:?} ranks {ranks} threads {threads} {strategy:?} \
                             depth {depth}",
                            flow.name()
                        );
                        assert_run_mass_is_the_probe_mass(&b, &[1, 3], serial, &what);
                    }
                }
            }
        }
    }
}
