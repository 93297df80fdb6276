//! Checkpoint/restart acceptance: a resumed trajectory must be
//! **bitwise identical** to the uninterrupted one — at every lattice, both
//! storage modes, scalar and fused kernel rungs, solo and distributed, when
//! the checkpoint lands mid-AA-pair (odd step count, the parity case the
//! in-place mode makes interesting), and when it is taken before the first
//! step (a resumed rank is never filled with the initial state, so even
//! then it must derive its halos itself).
//!
//! The comparison is strict: the full checkpoint byte stream (every owned
//! f value of every rank plus the step/cycle counters) of
//! `run(a); run(b)` must equal that of `resume(checkpoint after a); run(b)`.

use lbm::core::field::StorageMode;
use lbm::core::kernels::OptLevel;
use lbm::prelude::*;

/// Build the standard test flow: Taylor–Green (periodic, smooth, has a
/// `ScenarioSpec` so it checkpoints) on a 16×8×8 box.
fn build(
    kind: LatticeKind,
    storage: StorageMode,
    level: OptLevel,
    ranks: usize,
    ghost_depth: usize,
) -> Simulation {
    Simulation::builder(kind, Dim3::new(16, 8, 8))
        .scenario(TaylorGreen::default())
        .ranks(ranks)
        .ghost_depth(ghost_depth)
        .storage(storage)
        .level(level)
        .build()
        .expect("config")
}

/// The final checkpoint bytes of `run(a); run(b)` and of
/// `resume(checkpoint at a); run(b)` — which the tests assert equal.
fn uninterrupted_vs_resumed(
    kind: LatticeKind,
    storage: StorageMode,
    level: OptLevel,
    ranks: usize,
    ghost_depth: usize,
    a: usize,
    b: usize,
) -> (Vec<u8>, Vec<u8>) {
    let mut sim = build(kind, storage, level, ranks, ghost_depth);
    sim.run(a).expect("first leg");
    let snapshot = sim.checkpoint().expect("checkpoint");
    sim.run(b).expect("second leg");
    let uninterrupted = sim.checkpoint().expect("final checkpoint");

    let mut resumed = Simulation::resume_bytes(&snapshot).expect("resume");
    assert_eq!(resumed.steps_done(), a as u64);
    resumed.run(b).expect("resumed leg");
    let resumed = resumed.checkpoint().expect("final checkpoint");
    (uninterrupted, resumed)
}

#[test]
fn resume_is_bitwise_identical_across_the_matrix() {
    for kind in [
        LatticeKind::D3Q15,
        LatticeKind::D3Q19,
        LatticeKind::D3Q27,
        LatticeKind::D3Q39,
    ] {
        for storage in [StorageMode::TwoGrid, StorageMode::InPlaceAa] {
            for level in [OptLevel::LoBr, OptLevel::Fused] {
                for ranks in [1usize, 2] {
                    // a = 0: cycle 0, whose halos an uninterrupted run takes
                    // from the initial fill. a = 3: odd, so the AA cases
                    // resume mid-pair (the slot-swapped parity state).
                    for a in [0, 3] {
                        let (uninterrupted, resumed) =
                            uninterrupted_vs_resumed(kind, storage, level, ranks, 1, a, 5);
                        assert_eq!(
                            uninterrupted,
                            resumed,
                            "trajectory diverged after resume: {} {} {} ranks={ranks} a={a}",
                            kind.name(),
                            storage.name(),
                            level.name(),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn resume_is_bitwise_identical_with_deep_halos() {
    // Ghost depth 2 over 2 ranks: the restored rank must re-post the halo
    // exchange its pre-checkpoint self had already scheduled (the
    // just-in-time fallback), with a bitwise-equal payload.
    for storage in [StorageMode::TwoGrid, StorageMode::InPlaceAa] {
        // a = 3 is deliberately not a multiple of the depth: the checkpoint
        // lands after a short cycle. a = 0 restores into cycle 0.
        for a in [0, 3] {
            let (uninterrupted, resumed) =
                uninterrupted_vs_resumed(LatticeKind::D3Q19, storage, OptLevel::Simd, 2, 2, a, 5);
            assert_eq!(
                uninterrupted,
                resumed,
                "deep-halo resume diverged ({}, a={a})",
                storage.name()
            );
        }
    }
}

#[test]
fn resume_is_bitwise_identical_across_comm_strategies() {
    for strategy in [
        CommStrategy::Blocking,
        CommStrategy::NonBlockingEager,
        CommStrategy::NonBlockingGhost,
        CommStrategy::OverlapGhostCollide,
    ] {
        let build = || {
            Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
                .scenario(TaylorGreen::default())
                .ranks(2)
                .strategy(strategy)
                .level(OptLevel::Simd)
                .build()
                .expect("config")
        };
        let mut sim = build();
        sim.run(3).expect("first leg");
        let snapshot = sim.checkpoint().expect("checkpoint");
        sim.run(4).expect("second leg");
        let uninterrupted = sim.checkpoint().expect("final");

        let mut resumed = Simulation::resume_bytes(&snapshot).expect("resume");
        resumed.run(4).expect("resumed leg");
        assert_eq!(
            uninterrupted,
            resumed.checkpoint().expect("final"),
            "strategy {} diverged after resume",
            strategy.label()
        );
    }
}

#[test]
fn checkpoint_files_round_trip_through_disk() {
    let dir = std::env::temp_dir().join(format!("lbm-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("tg.ckpt");

    let mut sim = build(
        LatticeKind::D3Q39,
        StorageMode::InPlaceAa,
        OptLevel::Fused,
        2,
        1,
    );
    sim.run(5).expect("run");
    sim.checkpoint_to(&path).expect("write checkpoint");
    sim.run(5).expect("second leg");
    let expect = sim.probe().expect("probe");

    let mut resumed = Simulation::resume(&path).expect("read checkpoint");
    assert_eq!(resumed.steps_done(), 5);
    assert_eq!(resumed.scenario_name(), "taylor_green");
    resumed.run(5).expect("resumed leg");
    let got = resumed.probe().expect("probe");
    assert_eq!(expect.mass.to_bits(), got.mass.to_bits());
    assert_eq!(expect.max_speed.to_bits(), got.max_speed.to_bits());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_resume_with_the_trajectory() {
    // The report stream picks up where the checkpoint left off: step
    // counts continue, and the merged report over the resumed chunks
    // matches the uninterrupted run's totals where determinism demands it.
    let mut sim = build(
        LatticeKind::D3Q19,
        StorageMode::TwoGrid,
        OptLevel::Fused,
        1,
        1,
    );
    let r1 = sim.run(4).expect("leg 1");
    assert_eq!(r1.schema, lbm::sim::REPORT_SCHEMA_VERSION);
    let bytes = sim.checkpoint().expect("checkpoint");
    let r2 = sim.run(6).expect("leg 2");

    let mut resumed = Simulation::resume_bytes(&bytes).expect("resume");
    let r2b = resumed.run(6).expect("resumed leg");
    assert_eq!(r2.steps, r2b.steps);
    assert_eq!(r2.mass.to_bits(), r2b.mass.to_bits());
    assert_eq!(sim.steps_done(), resumed.steps_done());
}
