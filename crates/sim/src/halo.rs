//! Border pack/unpack with message aggregation.
//!
//! The paper stores each velocity's distribution contiguously precisely so
//! that border exchange can aggregate the velocities into **one message per
//! neighbour** (§IV: "to maximize messaging performance"). That is still the
//! protocol here, but the message no longer carries *all* velocities: a
//! pull-stream reads population `i` from a halo plane only when `c_ix`
//! carries it across the cut into the computed region, so a [`HaloPlan`]
//! lists, per side, the `(velocity, first plane, plane count)` segments that
//! are actually read and [`HaloPlan::pack`]/[`HaloPlan::unpack`] ship exactly
//! those. A packed message is laid out `[segment][plane][y][z]`; the planes of
//! a segment are one contiguous `count·ny·nz` run, so packing is one slice
//! copy per segment.
//!
//! The free functions [`pack_border`], [`unpack_halo`], [`packed_len`] and
//! [`fill_periodic_self`] are the full-width entry points (every velocity,
//! all `h` planes) over the same copy routines.

use lbm_core::field::DistField;
use lbm_core::lattice::Lattice;

/// Which side of the subdomain a border/halo is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Low-x side.
    Left,
    /// High-x side.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// `planes` consecutive x-planes of one velocity, starting `first` planes
/// into an `h`-wide halo (or the border it is filled from), both counted in
/// ascending x.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Velocity (slab) index.
    pub velocity: usize,
    /// First plane, `0..h` in ascending x.
    pub first: usize,
    /// Number of planes.
    pub planes: usize,
}

/// The full-width segments of a `q`-velocity, `h`-plane border.
fn full_segments(q: usize, h: usize) -> impl Iterator<Item = Segment> + Clone {
    (0..q).map(move |velocity| Segment {
        velocity,
        first: 0,
        planes: h,
    })
}

/// What one halo exchange ships: per halo side, the segments of the `h`
/// halo planes that the next sub-step reads. Built once per solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloPlan {
    h: usize,
    /// Segments of the left halo (filled from the left neighbour's right
    /// border).
    left: Vec<Segment>,
    /// Segments of the right halo.
    right: Vec<Segment>,
}

impl HaloPlan {
    /// Every velocity, all `h` planes.
    pub fn full(q: usize, h: usize) -> Self {
        Self {
            h,
            left: full_segments(q, h).collect(),
            right: full_segments(q, h).collect(),
        }
    }

    /// Only the populations that stream across the cut. In allocation
    /// coordinates, with `p = 0` the outermost of the `h` left-halo planes,
    /// sub-step 0 computes the planes from `k = lat.reach()` on and cell `x`
    /// pulls population `i` from plane `x − c_ix`: slot `i` of halo plane `p`
    /// is read iff `p + c_ix ≥ k`. The right halo is the mirror image,
    /// `(h−1−p) − c_ix ≥ k`. Either way a velocity's planes are the innermost
    /// ones — one segment per velocity and side — and at ghost depth 1
    /// (`h = k`) a side has `Σ_{c_ix>0} c_ix` planes in all.
    pub fn crossing(lat: &Lattice, h: usize) -> Self {
        let k = lat.reach() as i32;
        // Outermost halo planes from which an x-component `c` pointing into
        // the subdomain cannot reach the computed region.
        let skipped = |c: i32| ((k - c).max(0) as usize).min(h);
        let side = |into: i32| -> Vec<Segment> {
            lat.velocities()
                .iter()
                .enumerate()
                .map(|(velocity, c)| {
                    let skip = skipped(into * c[0]);
                    Segment {
                        velocity,
                        first: if into > 0 { skip } else { 0 },
                        planes: h - skip,
                    }
                })
                .filter(|s| s.planes > 0)
                .collect()
        };
        Self {
            h,
            left: side(1),
            right: side(-1),
        }
    }

    /// The segments shipped into the halo on `side`.
    pub fn segments(&self, side: Side) -> &[Segment] {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// Whether slot `velocity` of plane `plane` (`0..h`, ascending x) of the
    /// halo on `side` is shipped.
    #[cfg(test)]
    pub(crate) fn ships(&self, side: Side, velocity: usize, plane: usize) -> bool {
        self.segments(side)
            .iter()
            .any(|s| s.velocity == velocity && (s.first..s.first + s.planes).contains(&plane))
    }

    /// Plane-slabs (one velocity × one plane) per message: a message is
    /// `len() · ny · nz` doubles. Both directions are equally long because
    /// the velocity set is symmetric under `c_x → −c_x`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.left.iter().map(|s| s.planes).sum()
    }

    /// Pack the border on `side` of `f` — the planes the neighbour's
    /// opposite halo receives — into one aggregated message (reusing `buf`).
    pub fn pack(&self, f: &DistField, side: Side, buf: &mut Vec<f64>) {
        let segments = self.segments(side.opposite()).iter().copied();
        pack_segments(f, side, self.h, segments, buf);
    }

    /// Unpack a message packed by the neighbour's [`Self::pack`] into the
    /// halo on `side`.
    pub fn unpack(&self, f: &mut DistField, side: Side, data: &[f64]) {
        let segments = self.segments(side).iter().copied();
        unpack_segments(f, side, self.h, segments, data);
    }

    /// Fill both halos of a *single-rank* periodic field from its own
    /// borders (left halo ← right border, right halo ← left border).
    pub fn fill_self(&self, f: &mut DistField) {
        for side in [Side::Left, Side::Right] {
            fill_self_segments(f, side, self.h, self.segments(side).iter().copied());
        }
    }
}

/// First plane of the `h`-wide owned border on `side`.
fn border_x0(f: &DistField, side: Side, h: usize) -> usize {
    let owned = f.owned_x();
    assert!(h <= owned.len(), "border width exceeds owned planes");
    match side {
        Side::Left => owned.start,
        Side::Right => owned.end - h,
    }
}

/// First of the `h` halo planes adjacent to the owned region on `side`.
fn halo_x0(f: &DistField, side: Side, h: usize) -> usize {
    assert!(h <= f.halo(), "halo narrower than received border");
    match side {
        Side::Left => f.halo() - h,
        Side::Right => f.owned_x().end,
    }
}

/// Doubles in a message made of `segments`.
fn segments_len(f: &DistField, segments: impl Iterator<Item = Segment>) -> usize {
    segments.map(|s| s.planes).sum::<usize>() * f.alloc_dims().plane()
}

/// The one pack routine: `segments` of the `h`-wide border on `side`, each a
/// single contiguous run of its slab.
fn pack_segments(
    f: &DistField,
    side: Side,
    h: usize,
    segments: impl Iterator<Item = Segment> + Clone,
    buf: &mut Vec<f64>,
) {
    let d = f.alloc_dims();
    let x0 = border_x0(f, side, h);
    buf.clear();
    buf.reserve(segments_len(f, segments.clone()));
    for s in segments {
        let base = d.idx(x0 + s.first, 0, 0);
        buf.extend_from_slice(&f.slab(s.velocity)[base..base + s.planes * d.plane()]);
    }
}

/// The one unpack routine. The neighbour packed its planes in ascending
/// global x, so they land in our halo in the same ascending order.
fn unpack_segments(
    f: &mut DistField,
    side: Side,
    h: usize,
    segments: impl Iterator<Item = Segment> + Clone,
    data: &[f64],
) {
    let d = f.alloc_dims();
    let x0 = halo_x0(f, side, h);
    assert_eq!(
        data.len(),
        segments_len(f, segments.clone()),
        "bad packed border length"
    );
    let mut off = 0;
    for s in segments {
        let base = d.idx(x0 + s.first, 0, 0);
        let n = s.planes * d.plane();
        f.slab_mut(s.velocity)[base..base + n].copy_from_slice(&data[off..off + n]);
        off += n;
    }
}

/// Halo on `side` ← the opposite border of the same field, in place per
/// slab.
fn fill_self_segments(
    f: &mut DistField,
    side: Side,
    h: usize,
    segments: impl Iterator<Item = Segment>,
) {
    let d = f.alloc_dims();
    let src0 = border_x0(f, side.opposite(), h);
    let dst0 = halo_x0(f, side, h);
    for s in segments {
        let src = d.idx(src0 + s.first, 0, 0);
        f.slab_mut(s.velocity)
            .copy_within(src..src + s.planes * d.plane(), d.idx(dst0 + s.first, 0, 0));
    }
}

/// Number of doubles in a full-width packed border of width `h` for field
/// `f`.
pub fn packed_len(f: &DistField, h: usize) -> usize {
    f.q() * h * f.alloc_dims().plane()
}

/// Pack all velocities of the outermost `h` **owned** planes on `side` into
/// one aggregated message buffer (reusing `buf`).
pub fn pack_border(f: &DistField, side: Side, h: usize, buf: &mut Vec<f64>) {
    pack_segments(f, side, h, full_segments(f.q(), h), buf);
}

/// Unpack a full-width received border into the `h` halo planes on `side`.
pub fn unpack_halo(f: &mut DistField, side: Side, h: usize, data: &[f64]) {
    unpack_segments(f, side, h, full_segments(f.q(), h), data);
}

/// Fill both halos of a *single-rank* periodic field from its own borders
/// (left halo ← right border, right halo ← left border), all velocities.
pub fn fill_periodic_self(f: &mut DistField, h: usize) {
    for side in [Side::Left, Side::Right] {
        fill_self_segments(f, side, h, full_segments(f.q(), h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::index::Dim3;
    use lbm_core::lattice::LatticeKind;

    fn field_with_x_tags(q: usize, nx: usize, halo: usize) -> DistField {
        // Encode (slab, global x) in every cell so copies are traceable.
        let mut f = DistField::new(q, Dim3::new(nx, 2, 3), halo).unwrap();
        let d = f.alloc_dims();
        for i in 0..q {
            for x in 0..d.nx {
                let base = d.idx(x, 0, 0);
                let v = (i * 1000 + x) as f64;
                f.slab_mut(i)[base..base + d.plane()].fill(v);
            }
        }
        f
    }

    #[test]
    fn pack_reads_owned_planes_only() {
        let f = field_with_x_tags(2, 4, 2); // owned x: 2..6
        let mut buf = Vec::new();
        pack_border(&f, Side::Left, 2, &mut buf);
        assert_eq!(buf.len(), packed_len(&f, 2));
        // First plane of slab 0 must be owned x=2 (tag 2).
        assert!(buf[..6].iter().all(|&v| v == 2.0));
        // Second plane is x=3.
        assert!(buf[6..12].iter().all(|&v| v == 3.0));
        pack_border(&f, Side::Right, 2, &mut buf);
        assert!(buf[..6].iter().all(|&v| v == 4.0));
        assert!(buf[6..12].iter().all(|&v| v == 5.0));
    }

    #[test]
    fn unpack_writes_halo_planes_only() {
        let mut f = field_with_x_tags(2, 4, 2);
        let payload = vec![7.5; packed_len(&f, 2)];
        unpack_halo(&mut f, Side::Left, 2, &payload);
        let d = f.alloc_dims();
        for i in 0..2 {
            for x in 0..2 {
                let base = d.idx(x, 0, 0);
                assert!(f.slab(i)[base..base + d.plane()].iter().all(|&v| v == 7.5));
            }
            // Owned untouched.
            let base = d.idx(2, 0, 0);
            assert!(f.slab(i)[base..base + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 2) as f64));
        }
    }

    #[test]
    fn pack_unpack_round_trip_between_neighbours() {
        // Rank A's right border must land in rank B's left halo such that
        // B's halo plane g corresponds to A's owned plane (end-h+g).
        let a = field_with_x_tags(3, 5, 2); // owned x 2..7 (tags 2..=6)
        let mut b = field_with_x_tags(3, 5, 2);
        let mut buf = Vec::new();
        pack_border(&a, Side::Right, 2, &mut buf);
        unpack_halo(&mut b, Side::Left, 2, &buf);
        let d = b.alloc_dims();
        // B's left halo planes (x=0,1) should now carry A's tags 5, 6.
        for i in 0..3 {
            let p0 = d.idx(0, 0, 0);
            let p1 = d.idx(1, 0, 0);
            assert!(b.slab(i)[p0..p0 + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 5) as f64));
            assert!(b.slab(i)[p1..p1 + d.plane()]
                .iter()
                .all(|&v| v == (i * 1000 + 6) as f64));
        }
    }

    #[test]
    fn self_periodic_fill_wraps() {
        let mut f = field_with_x_tags(1, 4, 2); // owned tags 2..=5
        fill_periodic_self(&mut f, 2);
        let d = f.alloc_dims();
        // Left halo (x=0,1) ← right border (tags 4,5).
        assert!(f.slab(0)[d.idx(0, 0, 0)..d.idx(0, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 4.0));
        assert!(f.slab(0)[d.idx(1, 0, 0)..d.idx(1, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 5.0));
        // Right halo (x=6,7) ← left border (tags 2,3).
        assert!(f.slab(0)[d.idx(6, 0, 0)..d.idx(6, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 2.0));
        assert!(f.slab(0)[d.idx(7, 0, 0)..d.idx(7, 0, 0) + d.plane()]
            .iter()
            .all(|&v| v == 3.0));
    }

    #[test]
    fn partial_width_unpack_fills_innermost_halo_planes() {
        // h smaller than the allocated halo must fill the planes adjacent
        // to the owned region (left halo: highest-x halo planes).
        let mut f = field_with_x_tags(1, 4, 3);
        let payload = vec![9.0; packed_len(&f, 1)];
        unpack_halo(&mut f, Side::Left, 1, &payload);
        let d = f.alloc_dims();
        let adj = d.idx(2, 0, 0); // halo=3, so plane x=2 is adjacent to owned x=3
        assert!(f.slab(0)[adj..adj + d.plane()].iter().all(|&v| v == 9.0));
    }
    #[test]
    fn crossing_plan_counts_per_lattice_and_depth() {
        // Plane-slabs per message at ghost depth 1, 2, 3, against Q·h.
        for (kind, want) in [
            (LatticeKind::D3Q15, [5, 15, 30]),
            (LatticeKind::D3Q19, [5, 19, 38]),
            (LatticeKind::D3Q27, [9, 27, 54]),
            (LatticeKind::D3Q39, [18, 117, 234]),
        ] {
            let lat = Lattice::new(kind);
            let k = lat.reach();
            for (depth, want) in (1..=3).zip(want) {
                let plan = HaloPlan::crossing(&lat, depth * k);
                assert_eq!(plan.len(), want, "{kind:?} depth {depth}");
                let right: usize = plan.segments(Side::Right).iter().map(|s| s.planes).sum();
                assert_eq!(right, want, "{kind:?} depth {depth}: directions differ");
                assert!(plan.len() < HaloPlan::full(lat.q(), depth * k).len());
            }
            // Depth 1: Σ_{cx>0} cx.
            let crossing: i32 = lat.velocities().iter().map(|c| c[0].max(0)).sum();
            assert_eq!(HaloPlan::crossing(&lat, k).len(), crossing as usize);
        }
    }

    #[test]
    fn crossing_plan_is_exactly_the_rule() {
        // Slot i of left-halo plane p is shipped iff p + cx ≥ k; the right
        // halo is the mirror (h−1−p) − cx ≥ k.
        let lat = Lattice::new(LatticeKind::D3Q39);
        let k = lat.reach() as i32;
        for h in [3usize, 6, 9] {
            let plan = HaloPlan::crossing(&lat, h);
            for side in [Side::Left, Side::Right] {
                for (i, c) in lat.velocities().iter().enumerate() {
                    for p in 0..h {
                        let (p_in, h_in) = (p as i32, h as i32);
                        let shipped = match side {
                            Side::Left => p_in + c[0] >= k,
                            Side::Right => (h_in - 1 - p_in) - c[0] >= k,
                        };
                        assert_eq!(
                            plan.ships(side, i, p),
                            shipped,
                            "{side:?} h={h} velocity {i} plane {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_plan_is_the_full_width_entry_points() {
        let a = field_with_x_tags(3, 5, 2);
        let plan = HaloPlan::full(3, 2);
        assert_eq!(plan.len() * a.alloc_dims().plane(), packed_len(&a, 2));
        let (mut by_plan, mut by_fn) = (Vec::new(), Vec::new());
        for side in [Side::Left, Side::Right] {
            plan.pack(&a, side, &mut by_plan);
            pack_border(&a, side, 2, &mut by_fn);
            assert_eq!(by_plan, by_fn);
            let (mut b, mut c) = (a.clone(), a.clone());
            plan.unpack(&mut b, side.opposite(), &by_plan);
            unpack_halo(&mut c, side.opposite(), 2, &by_fn);
            assert_eq!(b.as_slice(), c.as_slice());
        }
        let (mut b, mut c) = (a.clone(), a);
        plan.fill_self(&mut b);
        fill_periodic_self(&mut c, 2);
        assert_eq!(b.as_slice(), c.as_slice());
    }

    #[test]
    fn crossing_plan_moves_only_its_segments() {
        // Pack → unpack and the self-fill copy border plane p to halo plane
        // p for every slot in the plan and leave every other slot alone.
        let lat = Lattice::new(LatticeKind::D3Q19);
        let (h, nx) = (2, 5);
        let plan = HaloPlan::crossing(&lat, h);
        let src = field_with_x_tags(lat.q(), nx, h);
        let mut sent = src.clone();
        sent.as_mut_slice().iter_mut().for_each(|v| *v = -*v - 1.0);
        let mut filled = src.clone();
        plan.fill_self(&mut filled);
        let mut buf = Vec::new();
        let d = src.alloc_dims();
        for side in [Side::Left, Side::Right] {
            let mut got = src.clone();
            plan.pack(&sent, side.opposite(), &mut buf);
            assert_eq!(buf.len(), plan.len() * d.plane());
            plan.unpack(&mut got, side, &buf);
            let (halo0, border0) = match side {
                Side::Left => (0, nx),
                Side::Right => (h + nx, h),
            };
            for i in 0..lat.q() {
                for p in 0..h {
                    let at = d.idx(halo0 + p, 0, 0);
                    let from = d.idx(border0 + p, 0, 0);
                    let (want_got, want_filled) = if plan.ships(side, i, p) {
                        (sent.slab(i)[from], src.slab(i)[from])
                    } else {
                        (src.slab(i)[at], src.slab(i)[at])
                    };
                    assert!(got.slab(i)[at..at + d.plane()]
                        .iter()
                        .all(|&v| v == want_got));
                    assert!(filled.slab(i)[at..at + d.plane()]
                        .iter()
                        .all(|&v| v == want_filled));
                }
            }
            assert_eq!(got.max_abs_diff_owned(&src), 0.0);
        }
    }
}
