//! Property tests for the halo pack/unpack layer: the exchange must be a
//! faithful copy for arbitrary shapes, depths and velocity counts — this is
//! the layer every distributed result rests on.

use proptest::prelude::*;

use lbm_core::equilibrium::EqOrder;
use lbm_core::field::DistField;
use lbm_core::index::Dim3;
use lbm_core::kernels::{self, KernelCtx, OptLevel, StreamTables};
use lbm_core::lattice::LatticeKind;
use lbm_core::prelude::Bgk;
use lbm_sim::halo::{fill_periodic_self, pack_border, packed_len, unpack_halo, HaloPlan, Side};

fn seeded_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
    let mut f = DistField::new(q, dims, halo).unwrap();
    let mut s = seed | 1;
    for v in f.as_mut_slice() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s % 100_000) as f64;
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// pack → unpack between two neighbouring fields lands each of A's
    /// border planes in B's halo at the matching global position.
    #[test]
    fn pack_unpack_is_position_faithful(
        q in 1usize..8,
        nx in 3usize..8,
        ny in 1usize..5,
        nz in 1usize..6,
        h in 1usize..4,
        left in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let h = h.min(nx);
        let dims = Dim3::new(nx, ny, nz);
        let a = seeded_field(q, dims, h, seed);
        let mut b = seeded_field(q, dims, h, seed ^ 0xFFFF);
        let side = if left { Side::Left } else { Side::Right };
        let mut buf = Vec::new();
        pack_border(&a, side, h, &mut buf);
        prop_assert_eq!(buf.len(), packed_len(&a, h));
        unpack_halo(&mut b, side.opposite(), h, &buf);

        let d = a.alloc_dims();
        let plane = d.plane();
        for i in 0..q {
            for p in 0..h {
                // A's border plane p on `side` ↔ B's halo plane p on the
                // opposite side.
                let ax = match side {
                    Side::Left => a.owned_x().start + p,
                    Side::Right => a.owned_x().end - h + p,
                };
                let bx = match side {
                    Side::Left => b.owned_x().end + p,          // B's right halo
                    Side::Right => b.halo() - h + p,             // B's left halo
                };
                let ab = d.idx(ax, 0, 0);
                let bb = d.idx(bx, 0, 0);
                prop_assert_eq!(
                    &a.slab(i)[ab..ab + plane],
                    &b.slab(i)[bb..bb + plane],
                    "slab {} plane {}", i, p
                );
            }
        }
    }

    /// Self-periodic fill equals messaging yourself through pack/unpack.
    #[test]
    fn self_fill_equals_explicit_wrap(
        q in 1usize..6,
        nx in 2usize..7,
        h in 1usize..3,
        seed in any::<u64>(),
    ) {
        let h = h.min(nx);
        let dims = Dim3::new(nx, 3, 4);
        let mut a = seeded_field(q, dims, h, seed);
        let mut b = a.clone();

        fill_periodic_self(&mut a, h);

        let mut buf = Vec::new();
        pack_border(&b, Side::Right, h, &mut buf);
        let right = buf.clone();
        pack_border(&b, Side::Left, h, &mut buf);
        let left = buf.clone();
        unpack_halo(&mut b, Side::Left, h, &right);
        unpack_halo(&mut b, Side::Right, h, &left);

        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// unpack writes exactly the halo planes: owned data untouched.
    #[test]
    fn unpack_never_touches_owned(
        q in 1usize..6,
        nx in 2usize..7,
        h in 1usize..4,
        seed in any::<u64>(),
    ) {
        let h = h.min(nx);
        let dims = Dim3::new(nx, 2, 3);
        let mut f = seeded_field(q, dims, h, seed);
        let before = f.clone();
        let payload = vec![-1.0; packed_len(&f, h)];
        unpack_halo(&mut f, Side::Left, h, &payload);
        unpack_halo(&mut f, Side::Right, h, &payload);
        prop_assert_eq!(f.max_abs_diff_owned(&before), 0.0);
    }

    /// pack reads exactly the border: mutating halos does not change packs.
    #[test]
    fn pack_ignores_halo_content(
        q in 1usize..5,
        nx in 2usize..6,
        h in 1usize..3,
        seed in any::<u64>(),
    ) {
        let h = h.min(nx);
        let dims = Dim3::new(nx, 3, 3);
        let mut f = seeded_field(q, dims, h, seed);
        let mut a = Vec::new();
        pack_border(&f, Side::Left, h, &mut a);
        let packed_a = a.clone();
        // Trash the halos.
        let d = f.alloc_dims();
        for i in 0..q {
            for x in (0..h).chain(h + nx..d.nx) {
                let b = d.idx(x, 0, 0);
                f.slab_mut(i)[b..b + d.plane()].fill(f64::NAN);
            }
        }
        pack_border(&f, Side::Left, h, &mut a);
        prop_assert_eq!(packed_a, a);
    }
    /// Nothing outside the crossing plan is read: exchanging only the plan's
    /// segments into NaN-poisoned halos and running sub-step 0 over
    /// `region(0) = [k, nx_alloc − k)` gives, at every rung, bitwise the
    /// (finite) result of the full-width exchange.
    #[test]
    fn substep_reads_only_the_crossing_plan(
        kind in 0usize..4,
        depth in 1usize..4,
        extra_nx in 0usize..4,
        // Wider than the widest reach (3), as every y/z wrap requires.
        ny in 4usize..7,
        nz in 4usize..10,
        seed in any::<u64>(),
    ) {
        let kind = [LatticeKind::D3Q15, LatticeKind::D3Q19, LatticeKind::D3Q27, LatticeKind::D3Q39][kind];
        let ctx = KernelCtx::new(kind, EqOrder::Second, Bgk::new(0.8).unwrap());
        let (q, k) = (ctx.lat.q(), ctx.lat.reach());
        let h = depth * k;
        let dims = Dim3::new(h + extra_nx, ny, nz);
        let tables = StreamTables::new(ny, nz);
        let plan = HaloPlan::crossing(&ctx.lat, h);

        // Populations in [0.5, 1.5): a positive density in every cell.
        let populations = |seed| {
            let mut f = seeded_field(q, dims, h, seed);
            f.as_mut_slice().iter_mut().for_each(|v| *v = 0.5 + *v / 100_000.0);
            f
        };
        let neighbour = populations(seed);
        let mut full = populations(seed ^ 0xFFFF);
        let mut planned = full.clone();
        let d = full.alloc_dims();
        for i in 0..q {
            for x in (0..h).chain(h + dims.nx..d.nx) {
                let b = d.idx(x, 0, 0);
                planned.slab_mut(i)[b..b + d.plane()].fill(f64::NAN);
            }
        }
        let mut buf = Vec::new();
        for side in [Side::Left, Side::Right] {
            pack_border(&neighbour, side.opposite(), h, &mut buf);
            unpack_halo(&mut full, side, h, &buf);
            plan.pack(&neighbour, side.opposite(), &mut buf);
            prop_assert_eq!(buf.len(), plan.len() * d.plane());
            plan.unpack(&mut planned, side, &buf);
        }

        for level in OptLevel::ALL {
            let step = |src: &DistField| {
                let mut dst = DistField::new(q, dims, h).unwrap();
                kernels::stream_collide(level, &ctx, &tables, src, &mut dst, k, d.nx - k);
                dst
            };
            let (want, got) = (step(&full), step(&planned));
            prop_assert!(got.as_slice().iter().all(|v| v.is_finite()), "{:?} {}", kind, level.name());
            prop_assert!(
                want.as_slice().iter().zip(got.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{:?} {} depth {}", kind, level.name(), depth
            );
        }
    }
}
