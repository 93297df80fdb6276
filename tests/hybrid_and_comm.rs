//! Integration tests for the hybrid (rank × thread) execution paths and the
//! communication-schedule measurement plumbing.

use std::time::Duration;

use lbm::comm::{CostModel, Universe};
use lbm::core::lattice::Lattice;
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;
use lbm::sim::halo::HaloPlan;

fn owned_fields(b: &SimulationBuilder, steps: usize) -> Vec<lbm::core::DistField> {
    let cfg = b.clone().build_config().unwrap();
    Universe::run(cfg.ranks, cfg.cost.clone(), |comm| {
        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
        s.run(comm, steps);
        s.owned_snapshot()
    })
}

#[test]
fn thread_count_does_not_change_results() {
    let base = Simulation::builder(LatticeKind::D3Q39, Dim3::new(12, 8, 8))
        .ranks(2)
        .level(OptLevel::LoBr); // hybrid path uses the parallel DH-math kernels
    let serial = owned_fields(&base.clone().threads(1), 4);
    for threads in [2usize, 4] {
        let hybrid = owned_fields(&base.clone().threads(threads), 4);
        for (a, b) in serial.iter().zip(&hybrid) {
            // Parallel two-phase collide is bit-identical to the serial
            // DH-class collide by construction.
            assert_eq!(a.max_abs_diff_owned(b), 0.0, "threads={threads}");
        }
    }
}

#[test]
fn rank_thread_tradeoff_preserves_physics() {
    // 8 CPUs split as 8×1, 4×2, 2×4, 1×8 must all give the same flow.
    // Compare against the obviously-correct global reference kernels.
    use lbm::core::collision::Bgk;
    use lbm::core::kernels::{reference, KernelCtx};

    let global = Dim3::new(16, 8, 8);
    let ctx = KernelCtx::new(LatticeKind::D3Q19, EqOrder::Second, Bgk::new(0.8).unwrap());
    let mut whole = lbm::core::DistField::new(ctx.lat.q(), global, 0).unwrap();
    lbm::core::init::taylor_green(&ctx, &mut whole, 1.0, 0.02, global.nx, global.ny, 0, 0);
    let mut tmp = whole.clone();
    for _ in 0..5 {
        reference::step_periodic(&ctx, &mut whole, &mut tmp);
    }

    for (ranks, threads) in [(8usize, 1usize), (4, 2), (2, 4), (1, 8)] {
        let b = Simulation::builder(LatticeKind::D3Q19, global)
            .ranks(ranks)
            .threads(threads)
            .level(OptLevel::Simd);
        let fields = owned_fields(&b, 5);
        let dref = whole.alloc_dims();
        let mut x0 = 0usize;
        let mut max = 0.0f64;
        for snap in &fields {
            let ds = snap.alloc_dims();
            for i in 0..snap.q() {
                for x in 0..ds.nx {
                    let a = dref.idx(x0 + x, 0, 0);
                    let b = ds.idx(x, 0, 0);
                    for p in 0..dref.plane() {
                        max = max.max((whole.slab(i)[a + p] - snap.slab(i)[b + p]).abs());
                    }
                }
            }
            x0 += ds.nx;
        }
        // SIMD collide (serial path) vs par collide (threaded path) differ
        // only by FMA re-rounding.
        assert!(max < 1e-12, "{ranks}x{threads}: {max}");
    }
}

#[test]
fn comm_timers_reflect_injected_latency() {
    // With a 5 ms per-message latency and exchange-every-step, a 6-step run
    // must accumulate multiple milliseconds of wait on every rank.
    let rep = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 8, 8))
        .ranks(4)
        .level(OptLevel::LoBr)
        .strategy(CommStrategy::NonBlockingEager)
        .cost(CostModel::uniform(Duration::from_millis(5), f64::INFINITY))
        .build()
        .unwrap()
        .run(6)
        .unwrap();
    assert!(
        rep.comm_min_secs > 0.015,
        "min comm {} too small",
        rep.comm_min_secs
    );
    // The no-ghost schedule sends 2 halo messages per exchange (first cycle
    // skipped — initialisation fills the halos) plus 2 mid-step scatter
    // messages every step.
    for r in &rep.per_rank {
        assert_eq!(r.messages, 2 * (6 - 1) + 2 * 6);
    }
}

/// Bytes a rank's report must show if every message it sent was one
/// crossing-plan border of `kind` at ghost depth `depth` on `ny × nz` planes.
fn plan_bytes(r: &lbm::sim::RankReport, kind: LatticeKind, depth: usize, plane: usize) -> u64 {
    let lat = Lattice::new(kind);
    let plan = HaloPlan::crossing(&lat, depth * lat.reach());
    r.messages * (plan.len() * plane * 8) as u64
}

#[test]
fn deep_halo_cuts_message_count_and_ships_exactly_the_plan() {
    // The paper's §V-A "same volume, fewer messages" holds for full-Q
    // messages. A message now carries only the populations that cross the
    // cut — 5 of 19 plane-slabs at depth 1, 38 of 57 at depth 3 — so a deep
    // halo buys its fewer messages with *more* bytes.
    let mk = |depth: usize| {
        Simulation::builder(LatticeKind::D3Q19, Dim3::new(24, 8, 8))
            .ranks(2)
            .ghost_depth(depth)
            .level(OptLevel::LoBr)
            .strategy(CommStrategy::NonBlockingGhost)
            .build()
            .unwrap()
            .run(12)
            .unwrap()
    };
    let d1 = mk(1);
    let d3 = mk(3);
    let msgs = |r: &lbm::sim::RunReport| -> u64 { r.per_rank.iter().map(|p| p.messages).sum() };
    let bytes = |r: &lbm::sim::RunReport| -> u64 { r.per_rank.iter().map(|p| p.bytes).sum() };
    assert!(
        msgs(&d3) * 2 < msgs(&d1),
        "messages: d1={} d3={}",
        msgs(&d1),
        msgs(&d3)
    );
    for (rep, depth) in [(&d1, 1), (&d3, 3)] {
        for r in &rep.per_rank {
            assert!(r.messages > 0);
            assert_eq!(r.bytes, plan_bytes(r, LatticeKind::D3Q19, depth, 8 * 8));
        }
    }
    assert!(bytes(&d3) > bytes(&d1));
    // And the deep run pays for it in ghost updates too.
    assert!(d3.ghost_fraction() > d1.ghost_fraction());
}

#[test]
fn reported_bytes_are_messages_times_the_crossing_plan() {
    // Plane-slabs per message at depth 1: Σ_{cx>0} cx, not Q·k.
    for (kind, slabs) in [
        (LatticeKind::D3Q15, 5),
        (LatticeKind::D3Q19, 5),
        (LatticeKind::D3Q27, 9),
        (LatticeKind::D3Q39, 18),
    ] {
        let lat = Lattice::new(kind);
        assert_eq!(HaloPlan::crossing(&lat, lat.reach()).len(), slabs);
        for strategy in [
            CommStrategy::Blocking,
            CommStrategy::NonBlockingGhost,
            CommStrategy::OverlapGhostCollide,
        ] {
            let rep = Simulation::builder(kind, Dim3::new(16, 8, 8))
                .ranks(2)
                .level(OptLevel::Fused)
                .strategy(strategy)
                .build()
                .unwrap()
                .run(6)
                .unwrap();
            for r in &rep.per_rank {
                assert!(r.messages >= 2 * 5, "{kind:?} {strategy:?}");
                assert_eq!(
                    r.bytes,
                    plan_bytes(r, kind, 1, 8 * 8),
                    "{kind:?} {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn overlap_schedule_hides_latency() {
    // With latency comparable to a step's compute, GC-C must show less wait
    // time than the eager schedule — the mechanism of the paper's Fig. 9.
    let base = Simulation::builder(LatticeKind::D3Q19, Dim3::new(32, 16, 16))
        .ranks(4)
        .warmup(2)
        .level(OptLevel::Simd)
        .cost(CostModel::uniform(
            Duration::from_micros(500),
            f64::INFINITY,
        ));
    let eager = base
        .clone()
        .strategy(CommStrategy::NonBlockingEager)
        .build()
        .unwrap()
        .run(10)
        .unwrap();
    let overlap = base
        .strategy(CommStrategy::OverlapGhostCollide)
        .build()
        .unwrap()
        .run(10)
        .unwrap();
    assert!(
        overlap.comm_median_secs < eager.comm_median_secs,
        "overlap {:.4}s should beat eager {:.4}s",
        overlap.comm_median_secs,
        eager.comm_median_secs
    );
}
