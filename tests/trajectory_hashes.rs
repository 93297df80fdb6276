//! Bit-identity harness: the FNV-1a hash of `Simulation::checkpoint()`
//! bytes after `run_local(21)`, for one configuration per kernel path the
//! dense, AA and sparse steps run.
//!
//! A kernel change that claims "bit-identical" must pass this file
//! unedited: every hash was recorded on the code before the change. A
//! change that moves a trajectory on purpose (reassociated arithmetic, a
//! new rounding) updates the hashes it moves and says so.
//!
//! Vector cases (the AVX2+FMA bodies behind `Simd` and `Fused`) are pinned
//! to that instruction set: without AVX2+FMA those rungs fall back to the
//! scalar kernels, whose trajectory differs in the last bits, so the cases
//! are skipped there. Scalar cases run everywhere.

use lbm::core::field::StorageMode;
use lbm::core::geometry::Geometry;
use lbm::core::kernels::simd::simd_available;
use lbm::prelude::*;

/// Steps per case: odd, so AA runs end mid-pair (slot-swapped state).
const STEPS: usize = 21;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `b` for [`STEPS`] steps and compare its checkpoint hash with `want`.
/// `vector` cases run only where the AVX2+FMA bodies do.
fn check(b: SimulationBuilder, vector: bool, want: u64) {
    if vector && !simd_available() {
        eprintln!("skipped: no AVX2+FMA on this host");
        return;
    }
    let mut sim = b.build().unwrap();
    sim.run_local(STEPS).unwrap();
    let got = fnv1a(&sim.checkpoint().unwrap());
    assert_eq!(
        got, want,
        "trajectory hash {got:#018x}, recorded {want:#018x}"
    );
}

/// The paper's beyond-Navier–Stokes channel: D3Q39 third order at Kn 0.1
/// between three-layer diffuse walls, Guo-forced.
fn knudsen_q39(global: Dim3) -> SimulationBuilder {
    Simulation::builder(LatticeKind::D3Q39, global).scenario(
        KnudsenMicrochannel::new(0.1)
            .with_layers(3)
            .with_force(5e-6),
    )
}

fn aa(b: SimulationBuilder, level: OptLevel) -> SimulationBuilder {
    b.storage(StorageMode::InPlaceAa).level(level)
}

/// A D3Q19 pipe on sparse tiles, about a third fluid.
fn pipe_q19() -> SimulationBuilder {
    let global = Dim3::new(16, 32, 32);
    Simulation::builder(LatticeKind::D3Q19, global)
        .scenario(ForcedFlow::new(4e-6))
        .geometry(Geometry::pipe(global, 10.0).unwrap())
}

#[test]
fn knudsen_q39_aa_lobr_1_rank() {
    let b = aa(knudsen_q39(Dim3::new(12, 24, 32)), OptLevel::LoBr);
    check(b, false, 0x7466_9f30_9651_46d2);
}

#[test]
fn knudsen_q39_aa_simd_1_rank() {
    let b = aa(knudsen_q39(Dim3::new(12, 24, 32)), OptLevel::Simd);
    check(b, true, 0x9c6b_f220_2c1f_6ed2);
}

#[test]
fn knudsen_q39_aa_lobr_2_ranks_2_threads() {
    let b = aa(knudsen_q39(Dim3::new(12, 24, 32)), OptLevel::LoBr);
    check(b.ranks(2).threads(2), false, 0xb8aa_4102_b2eb_8036);
}

#[test]
fn knudsen_q39_aa_simd_2_ranks_2_threads() {
    let b = aa(knudsen_q39(Dim3::new(12, 24, 32)), OptLevel::Simd);
    check(b.ranks(2).threads(2), true, 0x052e_ffbd_7713_47f7);
}

#[test]
fn cavity_q19_aa_simd() {
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 24, 24))
        .scenario(LidDrivenCavity::new(100.0));
    check(aa(b, OptLevel::Simd), true, 0x5ea2_2329_a6a2_9352);
}

#[test]
fn poiseuille_q19_aa_simd() {
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 17, 32))
        .scenario(PoiseuilleChannel::new(1e-5));
    check(aa(b, OptLevel::Simd), true, 0x7ff9_ba55_be46_4561);
}

#[test]
fn knudsen_q39_aa_simd_across_a_z_block_seam() {
    // nz = 70: one 64-cell z-block and a 6-cell one per row.
    let b = aa(knudsen_q39(Dim3::new(6, 16, 70)), OptLevel::Simd);
    check(b, true, 0x0186_65d0_09a9_db58);
}

#[test]
fn knudsen_q39_aa_simd_short_rows() {
    // nz = 13: every 8-cell group of a row is a seam group or a short last
    // one, on both parities.
    let b = aa(knudsen_q39(Dim3::new(6, 16, 13)), OptLevel::Simd);
    check(b, true, 0xd42a_65c7_241c_06fc);
}

#[test]
fn cavity_q19_aa_simd_2_ranks_2_threads() {
    // The cavity's side walls are a z-mask: masked cells inside fluid rows,
    // at nz = 21 a seam group at each row end and a 5-cell last group.
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 16, 21))
        .scenario(LidDrivenCavity::new(100.0));
    check(
        aa(b, OptLevel::Simd).ranks(2).threads(2),
        true,
        0x7ac3_4170_bcf2_2b31,
    );
}

#[test]
fn taylor_green_q19_fused_unaligned_rows() {
    // nz = 70 is no whole number of 8-cell groups: the fused step collides
    // into its stack frame and streams that out, across a 64-cell chunk.
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 12, 70))
        .scenario(TaylorGreen::new(0.03))
        .level(OptLevel::Fused);
    check(b, true, 0x449a_6b28_234f_6055);
}

#[test]
fn knudsen_q39_fused() {
    let b = knudsen_q39(Dim3::new(12, 24, 32)).level(OptLevel::Fused);
    check(b, true, 0x0b72_1348_a9d9_1f79);
}

#[test]
fn taylor_green_q19_fused() {
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(16, 16, 32))
        .scenario(TaylorGreen::new(0.03))
        .level(OptLevel::Fused);
    check(b, true, 0xe073_2eee_26d0_1cf8);
}

#[test]
fn taylor_green_q39_fused_2_ranks() {
    // The halo workload's thin-slab shape, scaled down.
    let b = Simulation::builder(LatticeKind::D3Q39, Dim3::new(16, 16, 72))
        .scenario(TaylorGreen::new(0.03))
        .level(OptLevel::Fused)
        .ranks(2);
    check(b, true, 0x81e0_2d2c_edb5_166d);
}

#[test]
fn cavity_q19_fused() {
    let b = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 24, 24))
        .scenario(LidDrivenCavity::new(100.0))
        .level(OptLevel::Fused);
    check(b, true, 0x27e3_56c9_8c02_f5c9);
}

#[test]
fn pipe_q19_sparse_two_grid_scalar() {
    check(
        pipe_q19().level(OptLevel::LoBr),
        false,
        0xcd92_bb51_ba7f_8cb0,
    );
}

#[test]
fn pipe_q19_sparse_two_grid_simd() {
    check(
        pipe_q19().level(OptLevel::Simd),
        true,
        0xb1a1_5f76_92f3_3daa,
    );
}

#[test]
fn pipe_q19_sparse_aa_simd() {
    check(aa(pipe_q19(), OptLevel::Simd), true, 0xf679_b9cd_5858_1504);
}

#[test]
fn pipe_q19_sparse_aa_scalar() {
    check(aa(pipe_q19(), OptLevel::LoBr), false, 0xeb1d_79f3_47a0_9d92);
}

#[test]
fn pipe_q19_sparse_aa_simd_2_ranks_2_threads() {
    // Two ranks: the odd step also runs each rank's ghost-writer tiles.
    check(
        aa(pipe_q19(), OptLevel::Simd).ranks(2).threads(2),
        true,
        0x323a_819c_10cd_a24b,
    );
}
