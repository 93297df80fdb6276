//! Criterion microbenchmarks for the optimization-ladder kernels: per-rung
//! stream and collide throughput on both velocity models (the kernel-level
//! view of the paper's Fig. 8).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lbm_core::collision::Bgk;
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::DistField;
use lbm_core::index::Dim3;
use lbm_core::kernels::{self, KernelClass, KernelCtx, OptLevel, StreamTables};
use lbm_core::lattice::LatticeKind;

fn ctx_for(kind: LatticeKind) -> KernelCtx {
    let order = if kind == LatticeKind::D3Q39 {
        EqOrder::Third
    } else {
        EqOrder::Second
    };
    KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
}

fn seeded_field(q: usize, dims: Dim3, halo: usize) -> DistField {
    let mut f = DistField::new(q, dims, halo).unwrap();
    let mut s = 0x1234_5678_9abc_def1u64;
    for v in f.as_mut_slice() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = 0.02 + (s % 1000) as f64 / 1200.0;
    }
    f
}

/// Distinct kernel classes (deduplicating the rungs that share kernels).
const CLASSES: [(OptLevel, KernelClass); 6] = [
    (OptLevel::Orig, KernelClass::Naive),
    (OptLevel::Gc, KernelClass::Ghost),
    (OptLevel::Dh, KernelClass::Dh),
    (OptLevel::Cf, KernelClass::Cf),
    (OptLevel::LoBr, KernelClass::LoBr),
    (OptLevel::Simd, KernelClass::Simd),
];

fn bench_stream(c: &mut Criterion) {
    for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
        let ctx = ctx_for(kind);
        let k = ctx.lat.reach();
        let dims = Dim3::new(16, 24, 24);
        let src = seeded_field(ctx.lat.q(), dims, k);
        let mut dst = DistField::new(ctx.lat.q(), dims, k).unwrap();
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut g = c.benchmark_group(format!("stream/{}", kind.name()));
        g.throughput(Throughput::Elements(dims.len() as u64));
        for (level, class) in CLASSES {
            g.bench_function(BenchmarkId::from_parameter(format!("{class:?}")), |b| {
                b.iter(|| {
                    kernels::stream(level, &ctx, &tables, &src, &mut dst, k, k + dims.nx);
                    std::hint::black_box(dst.slab(0)[0])
                })
            });
        }
        g.finish();
    }
}

fn bench_collide(c: &mut Criterion) {
    for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
        let ctx = ctx_for(kind);
        let dims = Dim3::new(16, 24, 24);
        let mut g = c.benchmark_group(format!("collide/{}", kind.name()));
        g.throughput(Throughput::Elements(dims.len() as u64));
        for (level, class) in CLASSES {
            let mut f = seeded_field(ctx.lat.q(), dims, 0);
            g.bench_function(BenchmarkId::from_parameter(format!("{class:?}")), |b| {
                b.iter(|| {
                    kernels::collide(level, &ctx, &mut f, 0, dims.nx);
                    std::hint::black_box(f.slab(0)[0])
                })
            });
        }
        g.finish();
    }
}

/// Ablation for the paper's §VII future-work item: fused stream+collide
/// (2·Q·8 bytes/cell) vs the split pipeline (4·Q·8 bytes/cell).
fn bench_fused_ablation(c: &mut Criterion) {
    for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
        let ctx = ctx_for(kind);
        let k = ctx.lat.reach();
        // DRAM-resident working set (≈2×46 MB for D3Q39): the fused kernel's
        // advantage is memory traffic, invisible at cache-resident sizes.
        let dims = Dim3::new(48, 56, 56);
        let src = seeded_field(ctx.lat.q(), dims, k);
        let mut dst = DistField::new(ctx.lat.q(), dims, k).unwrap();
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut g = c.benchmark_group(format!("full_step/{}", kind.name()));
        g.throughput(Throughput::Elements(dims.len() as u64));
        g.bench_function("split_simd", |b| {
            b.iter(|| {
                kernels::stream(
                    OptLevel::Simd,
                    &ctx,
                    &tables,
                    &src,
                    &mut dst,
                    k,
                    k + dims.nx,
                );
                kernels::collide(OptLevel::Simd, &ctx, &mut dst, k, k + dims.nx);
                std::hint::black_box(dst.slab(0)[0])
            })
        });
        // Like-for-like scalar comparison (the fused kernel is scalar).
        g.bench_function("split_scalar", |b| {
            b.iter(|| {
                kernels::stream(
                    OptLevel::LoBr,
                    &ctx,
                    &tables,
                    &src,
                    &mut dst,
                    k,
                    k + dims.nx,
                );
                kernels::collide(OptLevel::LoBr, &ctx, &mut dst, k, k + dims.nx);
                std::hint::black_box(dst.slab(0)[0])
            })
        });
        g.bench_function("fused_scalar", |b| {
            b.iter(|| {
                kernels::fused::stream_collide(&ctx, &tables, &src, &mut dst, k, k + dims.nx);
                std::hint::black_box(dst.slab(0)[0])
            })
        });
        // The Fused rung proper: AVX2+FMA single pass (scalar fallback).
        g.bench_function("fused_simd", |b| {
            b.iter(|| {
                kernels::stream_collide(
                    OptLevel::Fused,
                    &ctx,
                    &tables,
                    &src,
                    &mut dst,
                    k,
                    k + dims.nx,
                );
                std::hint::black_box(dst.slab(0)[0])
            })
        });
        // The same kernel threaded: disjoint x-chunks of dst across a pool.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        g.bench_function("fused_par", |b| {
            b.iter(|| {
                pool.install(|| {
                    kernels::fused_simd::stream_collide(
                        &ctx,
                        &tables,
                        &src,
                        &mut dst,
                        k,
                        k + dims.nx,
                    )
                });
                std::hint::black_box(dst.slab(0)[0])
            })
        });
        g.finish();
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_stream, bench_collide, bench_fused_ablation
}
criterion_main!(benches);
