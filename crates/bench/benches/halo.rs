//! Criterion microbenchmarks for halo pack/unpack: the per-exchange software
//! cost that deep halos amortise (paper §V-A), as a function of ghost depth
//! and velocity model — full width (`halo/*`) and the crossing-only
//! [`HaloPlan`] the solver ships (`plan/*`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lbm_core::field::DistField;
use lbm_core::index::Dim3;
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_sim::halo::{HaloPlan, Side};

const DIMS: Dim3 = Dim3::new(32, 24, 24);

/// Pack and unpack one border message per ghost depth through the plan
/// `plan_of(lattice, h)` builds.
fn bench_group(c: &mut Criterion, group: &str, plan_of: fn(&Lattice, usize) -> HaloPlan) {
    for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
        let lat = Lattice::new(kind);
        let k = lat.reach();
        let mut g = c.benchmark_group(format!("{group}/{}", kind.name()));
        for depth in 1..=4usize {
            let h = depth * k;
            let plan = plan_of(&lat, h);
            let mut f = DistField::new(lat.q(), DIMS, h).unwrap();
            for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = i as f64;
            }
            let mut buf = Vec::new();
            g.throughput(Throughput::Bytes((plan.len() * DIMS.plane() * 8) as u64));
            g.bench_function(BenchmarkId::new("pack", format!("GC{depth}")), |b| {
                b.iter(|| {
                    plan.pack(&f, Side::Left, &mut buf);
                    std::hint::black_box(buf.len())
                })
            });
            plan.pack(&f, Side::Left, &mut buf);
            let data = buf.clone();
            g.bench_function(BenchmarkId::new("unpack", format!("GC{depth}")), |b| {
                b.iter(|| {
                    plan.unpack(&mut f, Side::Right, &data);
                    std::hint::black_box(f.slab(0)[0])
                })
            });
        }
        g.finish();
    }
}

/// Every velocity, all `h` planes: what `pack_border`/`unpack_halo` move.
fn bench_full_width(c: &mut Criterion) {
    bench_group(c, "halo", |lat, h| HaloPlan::full(lat.q(), h));
}

/// The crossing populations only: what the solver ships.
fn bench_plan(c: &mut Criterion) {
    bench_group(c, "plan", HaloPlan::crossing);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_full_width, bench_plan
}
criterion_main!(benches);
