//! Cross-crate physics validation: the distributed solver must produce the
//! hydrodynamics the lattice models promise.

use lbm::comm::{CostModel, Universe};
use lbm::core::analytic;
use lbm::core::boundary::{BoundarySpec, ChannelWalls, SectionMask};
use lbm::core::collision::{Bgk, BodyForce};
use lbm::core::knudsen;
use lbm::prelude::*;
use lbm::sim::distributed::RankSolver;
use lbm::sim::observables;

/// Taylor–Green decay measured through the full distributed stack (2 ranks,
/// deep halos, SIMD kernels) matches ν = c_s²(τ−½) for both models.
#[test]
fn distributed_taylor_green_viscosity() {
    for (kind, tol_pct) in [(LatticeKind::D3Q19, 3.0), (LatticeKind::D3Q39, 3.0)] {
        let n = 16usize;
        let steps = 60usize;
        let tau = 0.9;
        let cfg = Simulation::builder(kind, Dim3::cube(n))
            .ranks(2)
            .ghost_depth(2)
            .tau(tau)
            .level(OptLevel::Simd)
            .build_config()
            .unwrap();
        let amps: Vec<(f64, f64)> = Universe::run(cfg.ranks, CostModel::free(), |comm| {
            let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
            let a0 = observables::max_speed(&s.ctx, s.field());
            s.run(comm, steps);
            let a1 = observables::max_speed(&s.ctx, s.field());
            // Reduce the true global max across ranks.
            let m0 = comm.allreduce_max(&[a0]);
            let m1 = comm.allreduce_max(&[a1]);
            (m0[0], m1[0])
        });
        let (a0, a1) = amps[0];
        let k = 2.0 * std::f64::consts::PI / n as f64;
        let nu_measured = analytic::viscosity_from_decay(a1 / a0, k, k, steps as f64);
        let lat = Lattice::new(kind);
        let nu_expect = Bgk::new(tau).unwrap().viscosity(lat.cs2());
        let err = 100.0 * (nu_measured - nu_expect).abs() / nu_expect;
        assert!(
            err < tol_pct,
            "{}: measured ν {nu_measured:.6} vs {nu_expect:.6} ({err:.2}%)",
            lat.name()
        );
    }
}

/// `steps` of `scenario` on one rank at the `LoBr` rung, stepped through
/// [`Simulation`].
fn settled(
    kind: LatticeKind,
    global: Dim3,
    tau: f64,
    scenario: impl Scenario + 'static,
    steps: usize,
) -> Simulation {
    let mut sim = Simulation::builder(kind, global)
        .scenario(scenario)
        .tau(tau)
        .level(OptLevel::LoBr)
        .build()
        .unwrap();
    sim.run_local(steps).unwrap();
    sim
}

/// Mean `u_x(y)` over the fluid rows.
fn probe_profile(sim: &mut Simulation) -> Vec<f64> {
    sim.probe()
        .unwrap()
        .profile
        .expect("channel scenarios declare a profile")
}

/// A force-driven channel with no-slip walls converges to the analytic
/// parabola.
#[test]
fn poiseuille_profile_converges_to_parabola() {
    // Narrow channel, moderate force, run to near steady state: 17 fluid
    // rows between single-layer walls.
    let g = 1e-5;
    let mut sim = settled(
        LatticeKind::D3Q19,
        Dim3::new(4, 19, 8),
        0.9,
        PoiseuilleChannel::new(g),
        3000,
    );
    let profile = probe_profile(&mut sim);
    // Bounce-back walls sit on the links half a cell outside the
    // first/last fluid rows: width H = 17, fluid row j at y = j + ½.
    let reference = sim.reference_profile().unwrap();
    let mut worst = 0.0f64;
    for (u, want) in profile.iter().zip(&reference) {
        worst = worst.max((u - want).abs() / want.abs().max(1e-12));
    }
    assert!(worst < 0.03, "relative profile error {worst}");
}

/// A sliding upper wall drives the linear Couette profile.
#[test]
fn couette_profile_is_linear() {
    // 15 fluid rows between single-layer walls.
    let uw = 0.04;
    let mut sim = settled(
        LatticeKind::D3Q19,
        Dim3::new(4, 17, 8),
        0.8,
        CouetteFlow::new(uw),
        4000,
    );
    let profile = probe_profile(&mut sim);
    // Full-way bounce-back walls: effective gap 15 + 1, row j at y = j + 1.
    let reference = sim.reference_profile().unwrap();
    let mut worst = 0.0f64;
    for (u, want) in profile.iter().zip(&reference) {
        worst = worst.max((u - want).abs());
    }
    assert!(worst < 0.15 * uw, "couette error {worst}");
}

/// Diffuse (kinetic) walls at a large relaxation time give finite-Kn slip
/// on D3Q39: the wall-adjacent velocity stays a visible fraction of the
/// centreline velocity, unlike bounce-back.
#[test]
fn diffuse_walls_produce_slip_at_high_knudsen() {
    let kind = LatticeKind::D3Q39;
    let lat = Lattice::new(kind);
    // 13 fluid rows between three-layer walls.
    let (fluid_ny, global) = (13usize, Dim3::new(4, 19, 8));
    let g = 1e-5;
    let tau = 1.8; // Kn ≈ c_s(τ−½)/H well into the slip regime
    let kn = knudsen::knudsen(tau, lat.cs2(), fluid_ny as f64);
    let diffuse = KnudsenMicrochannel::new(kn).with_force(g).with_layers(3);
    let p_slip = probe_profile(&mut settled(kind, global, tau, diffuse, 2500));
    let wall_u = p_slip[0];
    let centre_u = p_slip[fluid_ny / 2];
    assert!(centre_u > 0.0);
    let slip_ratio = wall_u / centre_u;
    assert!(
        slip_ratio > 0.15,
        "expected kinetic slip, got ratio {slip_ratio} ({p_slip:?})"
    );

    // Bounce-back reference: near-zero wall velocity ratio.
    let no_slip = PoiseuilleChannel::new(g).with_layers(3);
    let p_ns = probe_profile(&mut settled(kind, global, tau, no_slip, 2500));
    let ns_ratio = p_ns[0] / p_ns[fluid_ny / 2];
    assert!(
        slip_ratio > 2.0 * ns_ratio,
        "diffuse slip {slip_ratio} should far exceed bounce-back {ns_ratio}"
    );
}

/// A pipe carved from the channel by a circular cross-section mask.
struct MaskedPipe;

impl Scenario for MaskedPipe {
    fn name(&self) -> &'static str {
        "masked_pipe"
    }

    fn boundaries(&self, global: Dim3) -> BoundarySpec {
        let (cy, cz, r) = (8.5, 7.5, 6.0);
        BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(global.ny, global.nz, |y, z| {
                let dy = y as f64 - cy;
                let dz = z as f64 - cz;
                (dy * dy + dz * dz).sqrt() > r
            }))
    }

    fn forcing(&self, _step: u64) -> Option<BodyForce> {
        Some(BodyForce::along_x(2e-5))
    }
}

/// Forced flow through a masked pipe peaks on the axis.
#[test]
fn masked_pipe_flow_is_fastest_on_axis() {
    // 15×15 fluid cross-section between single-layer walls.
    let cfg = Simulation::builder(LatticeKind::D3Q19, Dim3::new(4, 17, 15))
        .scenario(MaskedPipe)
        .tau(0.9)
        .level(OptLevel::LoBr)
        .build_config()
        .unwrap();
    let (axis, edge) = Universe::run(1, CostModel::free(), |comm| {
        let mut s = RankSolver::new(&cfg, comm.rank()).unwrap();
        s.run(comm, 1200);
        let (_, u) = observables::macro_fields(&s.ctx, s.field());
        // Axis, and a cell near the mask boundary.
        (u.get(1, 8, 7)[0], u.get(1, 8, 2)[0])
    })[0];
    assert!(axis > 0.0, "axis velocity {axis}");
    assert!(
        axis > 3.0 * edge.abs().max(1e-9),
        "axis {axis} vs edge {edge}"
    );
}

/// At a continuum-regime Knudsen number both models give the same channel
/// flow; the extended model is a strict superset of Navier–Stokes.
#[test]
fn q19_and_q39_agree_in_continuum_regime() {
    let height = 11usize;
    let g = 5e-6;
    let steps = 2500;
    let mut profiles = Vec::new();
    for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
        let lat = Lattice::new(kind);
        // Same physical viscosity for both lattices (cs2 differs!).
        let nu = 0.08;
        let tau = nu / lat.cs2() + 0.5;
        let kn = knudsen::knudsen(tau, lat.cs2(), height as f64);
        assert!(
            knudsen::navier_stokes_valid(kn),
            "test must sit in the continuum window"
        );
        let layers = lat.reach();
        let mut sim = settled(
            kind,
            Dim3::new(4, height + 2 * layers, 8),
            tau,
            PoiseuilleChannel::new(g).with_layers(layers),
            steps,
        );
        profiles.push(probe_profile(&mut sim));
    }
    // Compare centreline-normalised shapes. The effective wall position
    // differs at O(1 cell) between the k=1 and k=3 solid stacks, so the
    // wall-adjacent rows carry the largest (purely geometric) deviation.
    let c0 = profiles[0][height / 2];
    let c1 = profiles[1][height / 2];
    assert!(c0 > 0.0 && c1 > 0.0);
    for j in 0..height {
        let a = profiles[0][j] / c0;
        let b = profiles[1][j] / c1;
        let dist_to_wall = j.min(height - 1 - j);
        let tol = if dist_to_wall <= 1 { 0.09 } else { 0.05 };
        assert!(
            (a - b).abs() < tol,
            "profiles diverge at y={j}: {a:.4} vs {b:.4}"
        );
    }
}

/// Grid-refining the Poiseuille channel shrinks the error (convergence).
#[test]
fn poiseuille_error_shrinks_under_refinement() {
    let mut errors = Vec::new();
    for height in [9usize, 17] {
        let g = 1e-5 / (height as f64 / 9.0).powi(2); // keep u_max comparable
        let tau = 0.9;
        let mut sim = settled(
            LatticeKind::D3Q19,
            Dim3::new(4, height + 2, 8),
            tau,
            PoiseuilleChannel::new(g),
            6000,
        );
        let profile = probe_profile(&mut sim);
        let nu = Bgk::new(tau).unwrap().viscosity(1.0 / 3.0);
        let h = height as f64;
        let analytic_p: Vec<f64> = (0..height)
            .map(|j| analytic::poiseuille(g, nu, h, j as f64 + 0.5))
            .collect();
        errors.push(lbm::core::validate::l2_error(&profile, &analytic_p));
    }
    assert!(
        errors[1] < errors[0],
        "refinement must reduce error: {errors:?}"
    );
}

/// Acoustic sanity: a density pulse in a periodic box must not blow up and
/// must conserve mass exactly — exercised on the D3Q39 lattice whose sound
/// speed differs (c_s² = 2/3).
#[test]
fn density_pulse_is_stable_on_q39() {
    use lbm::core::init;
    use lbm::core::kernels::{self, KernelCtx, StreamTables};

    let n = 12usize;
    let ctx = KernelCtx::new(LatticeKind::D3Q39, EqOrder::Third, Bgk::new(0.8).unwrap());
    let k = ctx.lat.reach();
    let mut f = lbm::core::DistField::new(ctx.lat.q(), Dim3::cube(n), k).unwrap();
    init::density_pulse(&ctx, &mut f, 1.0, 0.05, 2.0);
    let mut tmp = f.clone();
    let tables = StreamTables::new(n, n);
    let mass0 = f.owned_mass();
    for _ in 0..50 {
        lbm::sim::halo::fill_periodic_self(&mut f, k);
        kernels::stream(OptLevel::Simd, &ctx, &tables, &f, &mut tmp, k, k + n);
        kernels::collide(OptLevel::Simd, &ctx, &mut tmp, k, k + n);
        std::mem::swap(&mut f, &mut tmp);
    }
    let mass1 = f.owned_mass();
    assert!((mass0 - mass1).abs() < 1e-9 * mass0);
    let peak = observables::max_speed(&ctx, &f);
    assert!(peak.is_finite() && peak < 0.2, "unstable: {peak}");
}
