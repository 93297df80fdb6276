//! Intra-rank threading — the substrate for the paper's hybrid MPI/OpenMP
//! experiments (§VI-B, Fig. 11).
//!
//! One rule: every kernel entry point chunks across the installed rayon pool
//! and is one plain call outside one. The x-sweeping entry points (collide,
//! fused stream+collide, the AA steps) run their raw-pointer body through
//! `x_chunks`; the sparse tile drivers split their tile lists the same
//! way. A rank that wants threads installs its pool around the serial
//! kernel call; nothing else changes.
//!
//! Every chunk runs the same per-cell arithmetic in the same order as one
//! call over the whole range, so threaded runs are bit-identical to serial
//! runs — which is what lets the Fig. 11 experiments compare configurations
//! on time alone. Each body's safety argument is the disjointness of its
//! chunks: a collide or AA even step reads and writes only its own planes, a
//! fused step writes only its own destination planes of a field no chunk
//! reads, and the AA odd step's writers own disjoint slots (see
//! [`crate::kernels::aa`]). The chunks share a raw base pointer because an
//! x-chunk spans every velocity slab, so it cannot be handed out as one
//! disjoint slice; the safe alternative, a staged moment-field collide,
//! doubles the memory traffic of a bandwidth-bound kernel.
//!
//! The stream splits by velocity instead: [`stream_par`] runs one task per
//! velocity, each owning its destination slab ([`DistField::slabs_mut`]
//! hands out disjoint `&mut [f64]`) — fully safe. [`crate::kernels::stream`]
//! takes it inside a pool.

use rayon::prelude::*;

use crate::field::DistField;
use crate::kernels::{dh, KernelCtx, StreamTables};

/// Parallel pull-stream over `x ∈ [x_lo, x_hi)` (one velocity per task),
/// using the DH rotate-copy row routine.
pub fn stream_par(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    let dims = src.alloc_dims();
    debug_assert!(x_lo >= ctx.lat.reach());
    debug_assert!(x_hi + ctx.lat.reach() <= dims.nx);
    let dst_slabs: Vec<&mut [f64]> = dst.slabs_mut().collect();
    dst_slabs
        .into_par_iter()
        .enumerate()
        .for_each(|(i, dst_slab)| {
            dh::stream_velocity(ctx, tables, src.slab(i), dst_slab, dims, i, x_lo, x_hi);
        });
}

/// Shareable base pointer for the chunks of one [`x_chunks`] sweep (or one
/// sparse tile-list sweep).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr(pub(crate) *mut f64);
// SAFETY: the pointer is only dereferenced by kernel bodies whose chunks
// touch disjoint elements (see the module docs); the pointee outlives the
// sweep, which borrows the field mutably for its whole duration.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The raw pointer. A method rather than a field read, so a closure
    /// captures the whole (`Sync`) wrapper, not the bare pointer.
    #[inline]
    pub(crate) fn get(self) -> *mut f64 {
        self.0
    }
}

/// Whether the calling thread runs inside an installed pool.
#[inline]
pub(crate) fn in_pool() -> bool {
    rayon::current_thread_index().is_some()
}

/// Balanced x-plane partition: chunk `c` of `chunks` over
/// `[x_lo, x_lo + planes)`. Every chunk is non-empty when
/// `chunks ≤ planes` and chunk sizes differ by at most one plane — unlike a
/// `div_ceil`-sized split, which can strand empty tail chunks (and hence
/// idle workers) whenever `planes` barely exceeds `chunks`.
pub(crate) fn chunk_bounds(x_lo: usize, planes: usize, chunks: usize, c: usize) -> (usize, usize) {
    debug_assert!(c < chunks);
    (x_lo + c * planes / chunks, x_lo + (c + 1) * planes / chunks)
}

/// Chunk count for a sweep over `planes` items: a few chunks per worker of
/// the current pool for load balance, never more chunks than items.
pub(crate) fn chunk_count(planes: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    (threads * 4).min(planes).max(1)
}

/// Run `work(lo, hi)` over `x ∈ [x_lo, x_hi)`. Inside
/// `ThreadPool::install` the calls cover a balanced partition of the range
/// into a few non-empty chunks per worker, run concurrently; outside a pool
/// it is one plain `work(x_lo, x_hi)` call on the caller's thread, whatever
/// the host's width.
pub(crate) fn x_chunks(x_lo: usize, x_hi: usize, work: impl Fn(usize, usize) + Sync) {
    if !in_pool() {
        work(x_lo, x_hi);
        return;
    }
    let planes = x_hi.saturating_sub(x_lo);
    let chunks = chunk_count(planes);
    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        work(lo, hi);
    });
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::kernels::{aa, cf, fused_simd};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.9).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.02 + (state % 613) as f64 / 900.0;
        }
        f
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn x_chunks_is_one_call_outside_a_pool_and_a_partition_inside() {
        let calls = Mutex::new(Vec::new());
        let record = |lo, hi| calls.lock().unwrap().push((lo, hi));
        // Outside a pool: one call over the whole range, whatever the
        // host's available parallelism.
        x_chunks(3, 40, record);
        assert_eq!(*calls.lock().unwrap(), [(3, 40)]);
        for width in [1usize, 2, 5, 8] {
            let pool = pool(width);
            for planes in 1usize..=40 {
                calls.lock().unwrap().clear();
                pool.install(|| x_chunks(5, 5 + planes, record));
                let mut got = calls.lock().unwrap().clone();
                got.sort_unstable();
                assert!(
                    got.len() <= 4 * width,
                    "{} calls ({width}/{planes})",
                    got.len()
                );
                let mut expect = 5;
                for (lo, hi) in got {
                    assert_eq!(lo, expect, "gap or overlap ({width}/{planes})");
                    assert!(hi > lo, "empty chunk ({width}/{planes})");
                    expect = hi;
                }
                assert_eq!(expect, 5 + planes, "coverage ({width}/{planes})");
            }
        }
    }

    #[test]
    fn parallel_stream_bitwise_equals_serial() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(8, 6, 10);
            let src = random_field(c.lat.q(), dims, k, 41);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
            let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut a, k, k + dims.nx);
            stream_par(&c, &tables, &src, &mut b, k, k + dims.nx);
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_collide_bitwise_equals_serial_cf() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(11, 5, 70); // odd plane count, partial z-block
            let mut a = random_field(c.lat.q(), dims, 0, 29);
            let mut b = a.clone();
            cf::collide(&c, &mut a, 0, dims.nx);
            pool(4).install(|| cf::collide(&c, &mut b, 0, dims.nx));
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_collide_respects_x_range() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(6, 4, 4);
        let mut f = random_field(c.lat.q(), dims, 0, 3);
        let before = f.clone();
        pool(4).install(|| cf::collide(&c, &mut f, 2, 4));
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (0..2).chain(4..6) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &f.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()]
                );
            }
        }
    }

    #[test]
    fn chunk_bounds_partition_is_balanced_and_gapless() {
        // Adversarial combos, including the div_ceil failure shapes
        // (planes barely above chunks) and planes < chunks.
        for planes in 1usize..40 {
            for chunks in 1usize..20 {
                let mut expect = 5; // x_lo
                let (mut min_sz, mut max_sz) = (usize::MAX, 0);
                for c in 0..chunks {
                    let (lo, hi) = chunk_bounds(5, planes, chunks, c);
                    assert_eq!(lo, expect, "gap at chunk {c} ({planes}/{chunks})");
                    assert!(hi >= lo);
                    expect = hi;
                    min_sz = min_sz.min(hi - lo);
                    max_sz = max_sz.max(hi - lo);
                }
                assert_eq!(expect, 5 + planes, "coverage ({planes}/{chunks})");
                assert!(max_sz - min_sz <= 1, "imbalance ({planes}/{chunks})");
                if chunks <= planes {
                    assert!(min_sz >= 1, "empty chunk ({planes}/{chunks})");
                }
            }
        }
    }

    #[test]
    fn parallel_collide_with_fewer_planes_than_threads() {
        // Regression: planes < threads (and planes barely above the old
        // div_ceil chunk count) must still partition correctly.
        let c = ctx(LatticeKind::D3Q19);
        let pool = pool(8);
        for nx in [1usize, 2, 3, 5, 9, 33] {
            let dims = Dim3::new(nx, 4, 11);
            let mut a = random_field(c.lat.q(), dims, 0, 57);
            let mut b = a.clone();
            cf::collide(&c, &mut a, 0, nx);
            pool.install(|| cf::collide(&c, &mut b, 0, nx));
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "nx={nx}");
        }
    }

    #[test]
    fn parallel_fused_matches_serial_fused() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(9, 7, 13);
            let src = random_field(c.lat.q(), dims, k, 83);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut serial = DistField::new(c.lat.q(), dims, k).unwrap();
            fused_simd::stream_collide(&c, &tables, &src, &mut serial, k, k + dims.nx);
            let mut par = DistField::new(c.lat.q(), dims, k).unwrap();
            pool(5).install(|| {
                fused_simd::stream_collide(&c, &tables, &src, &mut par, k, k + dims.nx)
            });
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_fused_respects_x_range_and_empty() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(8, 6, 8);
        let src = random_field(c.lat.q(), dims, 1, 3);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut dst = DistField::new(c.lat.q(), dims, 1).unwrap();
        let before = dst.clone();
        let pool = pool(4);
        pool.install(|| fused_simd::stream_collide(&c, &tables, &src, &mut dst, 4, 4)); // empty
        assert_eq!(dst.max_abs_diff_owned(&before), 0.0);
        pool.install(|| fused_simd::stream_collide(&c, &tables, &src, &mut dst, 3, 5));
        let d = dst.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (1..3).chain(5..9) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &dst.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()],
                    "x={x}"
                );
            }
        }
    }

    #[test]
    fn parallel_aa_steps_are_bitwise_identical_to_serial() {
        use crate::boundary::ChannelWalls;
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(9, 9, 11);
            let bounds =
                crate::boundary::BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(k));
            let tables = StreamTables::new(dims.ny, dims.nz);
            let a0 = random_field(c.lat.q(), dims, 2 * k, 61);
            let pool = pool(5);

            let mut serial = a0.clone();
            let mut par = a0.clone();
            let op = crate::kernels::op::GuoForced {
                g: [2e-5, 0.0, 0.0],
            };
            aa::even_cells(&c, &mut serial, 2 * k, 2 * k + dims.nx, op, &bounds, false);
            pool.install(|| {
                aa::even_cells(&c, &mut par, 2 * k, 2 * k + dims.nx, op, &bounds, false)
            });
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?} even");

            let nx = serial.alloc_dims().nx;
            aa::odd_cells(&c, &tables, &mut serial, k, nx - k, op, &bounds, false);
            pool.install(|| aa::odd_cells(&c, &tables, &mut par, k, nx - k, op, &bounds, false));
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?} odd");
        }
    }

    #[test]
    fn parallel_collide_handles_empty_and_single_plane() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 4, 4);
        let mut f = random_field(c.lat.q(), dims, 0, 9);
        let before = f.clone();
        let pool = pool(4);
        pool.install(|| cf::collide(&c, &mut f, 2, 2)); // empty
        assert_eq!(f.max_abs_diff_owned(&before), 0.0);
        pool.install(|| cf::collide(&c, &mut f, 1, 2)); // one plane
        let mut g = before.clone();
        cf::collide(&c, &mut g, 1, 2);
        assert_eq!(f.max_abs_diff_owned(&g), 0.0);
    }
}
