//! Determinism guarantees: timing-perturbation knobs (jitter, compute skew,
//! link costs) and communication schedules must never change the physics —
//! only the clock. This is what makes the Fig. 9/10/11 timing experiments
//! trustworthy: every configuration computes the identical flow.

use std::time::Duration;

use lbm::comm::{CostModel, Universe};
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;

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
