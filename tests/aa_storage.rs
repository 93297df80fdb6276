//! Acceptance suite for the AA-pattern storage mode
//! (`StorageMode::InPlaceAa`): the in-place single-population trajectory
//! must be the exact streamed image of the two-grid trajectory — across
//! lattices, kernel classes, thread counts, rank counts and communication
//! strategies — while exchanging halos once per two steps and holding half
//! the resident population memory. Physics acceptance (Poiseuille
//! parabola, Couette line, Knudsen slip) runs end-to-end in AA mode.

use lbm::comm::Universe;
use lbm::core::field::StorageMode;
use lbm::core::kernels::KernelCtx;
use lbm::core::validate::l2_error;
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;
use lbm::sim::scenario::ScenarioHandle;

/// Run a config distributed and return the per-rank owned snapshots.
fn distributed_owned(cfg: &lbm::sim::SimConfig, steps: usize) -> Vec<DistField> {
    Universe::run(cfg.ranks, cfg.cost.clone(), |comm| {
        let mut s = RankSolver::new(cfg, comm.rank()).unwrap();
        s.run(comm, steps);
        s.owned_snapshot()
    })
}

/// Concatenate owned snapshots along x into one global, halo-free field.
fn assemble_global(snaps: &[DistField], global: Dim3) -> DistField {
    let mut out = DistField::new(snaps[0].q(), global, 0).unwrap();
    let dg = out.alloc_dims();
    let mut x0 = 0usize;
    for snap in snaps {
        let ds = snap.alloc_dims();
        for i in 0..snap.q() {
            for x in 0..ds.nx {
                let s = ds.idx(x, 0, 0);
                let t = dg.idx(x0 + x, 0, 0);
                let row = snap.slab(i)[s..s + ds.plane()].to_vec();
                out.slab_mut(i)[t..t + dg.plane()].copy_from_slice(&row);
            }
        }
        x0 += ds.nx;
    }
    out
}

/// The pull-stream image of a two-grid state over the whole periodic global
/// box: `s[x][i] = tg[wrap(x − c_i)][i]`.
fn streamed_image(ctx: &KernelCtx, tg: &DistField) -> DistField {
    let d = tg.alloc_dims();
    let mut out = tg.clone();
    for (i, c) in ctx.lat.velocities().iter().enumerate() {
        for x in 0..d.nx {
            let ux = (x as isize - c[0] as isize).rem_euclid(d.nx as isize) as usize;
            for y in 0..d.ny {
                let uy = (y as isize - c[1] as isize).rem_euclid(d.ny as isize) as usize;
                for z in 0..d.nz {
                    let uz = (z as isize - c[2] as isize).rem_euclid(d.nz as isize) as usize;
                    out.slab_mut(i)[d.idx(x, y, z)] = tg.slab(i)[d.idx(ux, uy, uz)];
                }
            }
        }
    }
    out
}

/// After an even number of steps the AA state is the pull-stream of the
/// two-grid state: `aa[x][i] = tg[wrap(x − c_i)][i]`. Returns the max abs
/// deviation from that correspondence over the whole global box.
fn aa_vs_streamed_two_grid(ctx: &KernelCtx, aa: &DistField, tg: &DistField) -> f64 {
    aa.max_abs_diff_owned(&streamed_image(ctx, tg))
}

fn total_mass(f: &DistField) -> f64 {
    f.owned_mass()
}

/// A periodic start that varies along z and is not separable in x and y.
/// Taylor–Green is constant in z, so against it a wrong `c_z` shift in the
/// AA start leaves the streamed image intact; against this one it does not.
struct SkewedWaves;

impl Scenario for SkewedWaves {
    fn name(&self) -> &'static str {
        "skewed_waves"
    }

    fn init(&self, g: Dim3, x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        let tau = std::f64::consts::TAU;
        let (px, py, pz) = (
            tau * x as f64 / g.nx as f64,
            tau * y as f64 / g.ny as f64,
            tau * z as f64 / g.nz as f64,
        );
        (
            1.0 + 0.01 * (px + py + pz).cos(),
            [
                0.02 * (py + pz).sin(),
                0.02 * (px + pz).sin(),
                0.02 * (px + py).sin(),
            ],
        )
    }
}

/// Parity: `aa ≡ two_grid` (≤ 1e-11 after 6 steps, mass drift ≤ 1e-9)
/// across all four lattices × scalar/SIMD/fused kernel classes ×
/// serial/threaded runs × the Taylor–Green and [`SkewedWaves`] starts,
/// distributed over 2 ranks.
#[test]
fn aa_matches_two_grid_across_lattices_levels_and_drivers() {
    let global = Dim3::new(16, 8, 8);
    let steps = 6;
    for kind in LatticeKind::ALL {
        let ctx = KernelCtx::new(
            kind,
            Simulation::builder(kind, global)
                .build_config()
                .unwrap()
                .eq_order(),
            Bgk::new(0.8).unwrap(),
        );
        for level in [OptLevel::LoBr, OptLevel::Simd, OptLevel::Fused] {
            for (threads, skewed) in [(1usize, false), (3, false), (1, true), (3, true)] {
                let mut base = Simulation::builder(kind, global)
                    .ranks(2)
                    .threads(threads)
                    .level(level);
                if skewed {
                    base = base.scenario(SkewedWaves);
                }
                let tg_cfg = base.clone().build_config().unwrap();
                let aa_cfg = base.storage(StorageMode::InPlaceAa).build_config().unwrap();
                let tg = assemble_global(&distributed_owned(&tg_cfg, steps), global);
                let aa = assemble_global(&distributed_owned(&aa_cfg, steps), global);
                let diff = aa_vs_streamed_two_grid(&ctx, &aa, &tg);
                assert!(
                    diff <= 1e-11,
                    "{kind:?} {} threads={threads} skewed={skewed}: aa vs two-grid {diff}",
                    level.name()
                );
                let expected = (global.nx * global.ny * global.nz) as f64;
                let mass = total_mass(&aa);
                assert!(
                    (mass - expected).abs() < 1e-9 * expected,
                    "{kind:?} {} threads={threads} skewed={skewed}: mass {mass} vs {expected}",
                    level.name()
                );
            }
        }
    }
}

/// Parity at every communication strategy: the AA halo protocol (one
/// exchange per pair, posted-ahead under the ghost schedules, blocking or
/// eager otherwise) must produce the identical flow, from the
/// [`SkewedWaves`] start.
#[test]
fn aa_matches_two_grid_at_every_comm_strategy() {
    let steps = 8;
    for (kind, global) in [
        (LatticeKind::D3Q19, Dim3::new(12, 8, 8)),
        (LatticeKind::D3Q39, Dim3::new(16, 8, 8)),
    ] {
        let ctx = KernelCtx::new(
            kind,
            Simulation::builder(kind, global)
                .build_config()
                .unwrap()
                .eq_order(),
            Bgk::new(0.8).unwrap(),
        );
        let tg_cfg = Simulation::builder(kind, global)
            .scenario(SkewedWaves)
            .ranks(2)
            .level(OptLevel::Fused)
            .build_config()
            .unwrap();
        let tg = assemble_global(&distributed_owned(&tg_cfg, steps), global);
        for strategy in [
            CommStrategy::Blocking,
            CommStrategy::NonBlockingEager,
            CommStrategy::NonBlockingGhost,
            CommStrategy::OverlapGhostCollide,
        ] {
            let aa_cfg = Simulation::builder(kind, global)
                .scenario(SkewedWaves)
                .ranks(2)
                .level(OptLevel::Fused)
                .storage(StorageMode::InPlaceAa)
                .strategy(strategy)
                .build_config()
                .unwrap();
            let aa = assemble_global(&distributed_owned(&aa_cfg, steps), global);
            let diff = aa_vs_streamed_two_grid(&ctx, &aa, &tg);
            assert!(
                diff <= 1e-11,
                "{kind:?} {:?}: aa vs two-grid {diff}",
                strategy
            );
        }
    }
}

/// Walled + forced scenarios in AA mode match the two-grid run through the
/// same streamed correspondence — the boundary transforms (no-op
/// bounce-back, in-place moving/diffuse) and the Guo forcing all conjugate
/// exactly.
#[test]
fn aa_forced_scenarios_match_two_grid() {
    let global = Dim3::new(8, 11, 8);
    let scenarios: Vec<(&str, ScenarioHandle)> = vec![
        (
            "poiseuille_channel",
            ScenarioHandle::new(PoiseuilleChannel::new(1e-5)),
        ),
        ("couette_flow", ScenarioHandle::new(CouetteFlow::new(0.04))),
        (
            "knudsen_microchannel",
            ScenarioHandle::new(KnudsenMicrochannel::new(0.2).with_layers(1)),
        ),
    ];
    let steps = 10;
    for (name, scenario) in scenarios {
        for level in [OptLevel::LoBr, OptLevel::Fused] {
            let base = Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(scenario.clone())
                .ranks(2)
                .level(level);
            let tg_cfg = base.clone().build_config().unwrap();
            let aa_cfg = base.storage(StorageMode::InPlaceAa).build_config().unwrap();
            let ctx = KernelCtx::new(
                LatticeKind::D3Q19,
                tg_cfg.eq_order(),
                Bgk::new(tg_cfg.tau).unwrap(),
            );
            let tg = assemble_global(&distributed_owned(&tg_cfg, steps), global);
            let aa = assemble_global(&distributed_owned(&aa_cfg, steps), global);
            let diff = aa_vs_streamed_two_grid(&ctx, &aa, &tg);
            assert!(
                diff <= 1e-11,
                "{name} at {}: aa vs two-grid {diff}",
                level.name()
            );
            let expected = (global.nx * global.ny * global.nz) as f64;
            let mass = total_mass(&aa);
            assert!(
                (mass - expected).abs() < 1e-9 * expected,
                "{name} at {}: mass {mass} vs {expected}",
                level.name()
            );
        }
    }
}

/// End-to-end physics in AA mode: the Poiseuille parabola (< 2% L2) and
/// the Couette linear profile (< 5% L2) via the incremental probe API.
#[test]
fn aa_channel_profiles_validate() {
    for level in [OptLevel::Simd, OptLevel::Fused] {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(4, 11, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .tau(0.9)
            .level(level)
            .storage(StorageMode::InPlaceAa)
            .build()
            .unwrap();
        sim.run_local(1500).unwrap();
        let measured = sim.probe().unwrap().profile.unwrap();
        let reference = sim.reference_profile().unwrap();
        let err = l2_error(&measured, &reference);
        assert!(
            err < 0.02,
            "AA Poiseuille at {}: relative L2 error {err:.4} ≥ 2%",
            level.name()
        );

        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(4, 15, 8))
            .scenario(CouetteFlow::new(0.04))
            .tau(0.8)
            .level(level)
            .storage(StorageMode::InPlaceAa)
            .build()
            .unwrap();
        sim.run_local(2500).unwrap();
        let measured = sim.probe().unwrap().profile.unwrap();
        let reference = sim.reference_profile().unwrap();
        let err = l2_error(&measured, &reference);
        assert!(
            err < 0.05,
            "AA Couette at {}: relative L2 error {err:.4} ≥ 5%",
            level.name()
        );
    }
}

/// Kinetic wall slip survives in AA mode: the diffuse-wall Knudsen
/// microchannel keeps its finite slip velocity at the walls.
#[test]
fn aa_knudsen_slip_survives() {
    let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(4, 13, 8))
        .scenario(KnudsenMicrochannel::new(0.06).with_layers(1))
        .level(OptLevel::Fused)
        .storage(StorageMode::InPlaceAa)
        .build()
        .unwrap();
    sim.run_local(2000).unwrap();
    let p = sim.probe().unwrap().profile.unwrap();
    let wall = 0.5 * (p[0] + p[p.len() - 1]);
    let centre = p[p.len() / 2];
    assert!(centre > 0.0, "no flow");
    assert!(
        wall > 0.02 * centre,
        "diffuse walls must slip: wall {wall} vs centre {centre}"
    );
}

/// The AA footprint and message economics: half the resident population
/// bytes (asymptotically) and half the halo messages of a depth-1 two-grid
/// run over the same number of steps.
#[test]
fn aa_halves_footprint_and_messages() {
    let run = |storage: StorageMode| {
        Simulation::builder(LatticeKind::D3Q19, Dim3::new(32, 10, 10))
            .ranks(2)
            .level(OptLevel::Fused)
            .storage(storage)
            .build()
            .unwrap()
            .run(8)
            .unwrap()
    };
    let tg = run(StorageMode::TwoGrid);
    let aa = run(StorageMode::InPlaceAa);
    assert_eq!(aa.storage, "aa");
    let (tg_bytes, aa_bytes) = (
        tg.resident_population_bytes(),
        aa.resident_population_bytes(),
    );
    assert!(
        (aa_bytes as f64) < 0.62 * tg_bytes as f64,
        "AA resident {aa_bytes} vs two-grid {tg_bytes}"
    );
    let msgs = |r: &RunReport| r.per_rank.iter().map(|p| p.messages).sum::<u64>();
    let (tg_msgs, aa_msgs) = (msgs(&tg), msgs(&aa));
    assert!(
        aa_msgs <= tg_msgs / 2 + 4,
        "one exchange per two steps expected: AA {aa_msgs} vs two-grid {tg_msgs} messages"
    );
}

/// Compensated sum of every owned population.
fn kahan_mass(f: &DistField) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for v in (0..f.q()).flat_map(|i| f.slab(i)) {
        let y = v - comp;
        let next = sum + y;
        comp = (next - sum) - y;
        sum = next;
    }
    sum
}

/// The paper's own configuration end to end: D3Q39 third order at Kn 0.1
/// between diffuse walls. The pair-evaluated AVX2 AA kernels must develop
/// the same slip flow as the scalar two-grid rung — streamwise profile equal
/// to 1e-9 of its peak, compared in one representation (the AA state is the
/// streamed image of the two-grid one).
#[test]
fn aa_simd_knudsen_q39_profile_matches_scalar_two_grid() {
    let kind = LatticeKind::D3Q39;
    let global = Dim3::new(6, 17, 8);
    let steps = 400;
    let base = Simulation::builder(kind, global).scenario(KnudsenMicrochannel::new(0.1));
    let tg_cfg = base.clone().level(OptLevel::LoBr).build_config().unwrap();
    let aa_cfg = base
        .level(OptLevel::Simd)
        .storage(StorageMode::InPlaceAa)
        .build_config()
        .unwrap();
    assert_eq!(tg_cfg.eq_order(), EqOrder::Third);
    let ctx = KernelCtx::new(kind, tg_cfg.eq_order(), Bgk::new(tg_cfg.tau).unwrap());
    let tg = assemble_global(&distributed_owned(&tg_cfg, steps), global);
    let aa = assemble_global(&distributed_owned(&aa_cfg, steps), global);

    let fluid = 3..global.ny - 3;
    let p_aa = lbm::sim::observables::u_profile(&ctx, &aa, fluid.clone(), 0, None);
    let p_tg = lbm::sim::observables::u_profile(&ctx, &streamed_image(&ctx, &tg), fluid, 0, None);
    let peak = p_tg.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let wall = 0.5 * (p_tg[0] + p_tg[p_tg.len() - 1]);
    assert!(
        wall > 0.1 * peak,
        "slip has not developed: wall {wall} vs peak {peak}"
    );
    for (y, (a, b)) in p_aa.iter().zip(&p_tg).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * peak,
            "fluid row {y}: AA@Simd {a} vs two-grid@LoBr {b} (peak {peak})"
        );
    }
}

/// A fully wrapped torus (one rank, no walls): an even+odd pair of the
/// AVX2 AA kernels conserves total mass to 1e-13 relative.
#[test]
fn aa_simd_pair_conserves_mass_on_the_torus() {
    let global = Dim3::new(8, 7, 12);
    let cfg = Simulation::builder(LatticeKind::D3Q39, global)
        .level(OptLevel::Simd)
        .storage(StorageMode::InPlaceAa)
        .build_config()
        .unwrap();
    let before = kahan_mass(&distributed_owned(&cfg, 0)[0]);
    let after = kahan_mass(&distributed_owned(&cfg, 2)[0]);
    assert!(
        (after - before).abs() <= 1e-13 * before,
        "mass {before} -> {after}"
    );
}
