//! Initial conditions.
//!
//! All initialisers set the field to the local equilibrium of a prescribed
//! macroscopic state — the standard LBM start that avoids initial
//! transients beyond the physical ones.
//!
//! The `*_streamed` variants build the *arrivals* representation the
//! AA-pattern storage mode ([`crate::field::StorageMode::InPlaceAa`]) stores
//! at even steps: population `i` of a cell holds the equilibrium evaluated
//! at the **upwind** site `x − c_i` (periodically wrapped), i.e. the
//! pull-stream of the two-grid initial field. Initialising AA this way makes
//! the in-place trajectory site-for-site the streamed image of the two-grid
//! trajectory, which is what the `aa ≡ two_grid` parity suites compare.
//!
//! Both forms run one plane-ring writer. It calls `state` **once per source
//! site**, plane by plane, into a ring of structure-of-arrays planes
//! (ρ, u_x, u_y, u_z): one plane for the plain form, `2·reach + 1` for the
//! streamed form, whose allocation plane `x` reads the source planes
//! `x − reach ..= x + reach`. Then, per destination plane, velocity and
//! y-row, it writes one velocity's equilibria over a contiguous source row
//! into that velocity's slab (rotated by `c_z` in the streamed form). Every
//! value is [`feq_i`] of its site's state, so the field is bitwise the one
//! a per-(cell, velocity) `feq_i(state(..))` loop writes; only the number
//! of `state` calls (one per cell, or `(alloc.nx + 2·reach)·ny·nz`) and the
//! write order differ. The ring is the only transient memory, and it does
//! not grow with `nx`.

use crate::equilibrium::{feq_i, EqOrder};
use crate::field::DistField;
use crate::index::Dim3;
use crate::kernels::{KernelCtx, MAX_Q};
use crate::lattice::Lattice;

/// Periodic wrap of a possibly-negative coordinate into `[0, n)`.
#[inline]
fn wrap_coord(i: isize, n: usize) -> usize {
    i.rem_euclid(n as isize) as usize
}

/// Macroscopic states of a run of sites, structure of arrays: filled once
/// per site, then read one velocity at a time over contiguous runs.
pub(crate) struct SiteStates {
    rho: Vec<f64>,
    u: [Vec<f64>; 3],
}

impl SiteStates {
    /// `n` sites, all at `(0, [0; 3])`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            rho: vec![0.0; n],
            u: [vec![0.0; n], vec![0.0; n], vec![0.0; n]],
        }
    }

    /// Store site `k`'s state.
    #[inline]
    pub(crate) fn set(&mut self, k: usize, (rho, u): (f64, [f64; 3])) {
        self.rho[k] = rho;
        for (a, ua) in u.into_iter().enumerate() {
            self.u[a][k] = ua;
        }
    }

    /// `out[j] = feq_i(state of site start + j)` — [`feq_i`] value for
    /// value, over `out.len()` consecutive sites. With `i` fixed the loop
    /// vectorises.
    #[inline]
    pub(crate) fn feq_row(
        &self,
        lat: &Lattice,
        order: EqOrder,
        i: usize,
        start: usize,
        out: &mut [f64],
    ) {
        let run = start..start + out.len();
        let (rho, ux, uy, uz) = (
            &self.rho[run.clone()],
            &self.u[0][run.clone()],
            &self.u[1][run.clone()],
            &self.u[2][run],
        );
        for ((((o, &r), &x), &y), &z) in out.iter_mut().zip(rho).zip(ux).zip(uy).zip(uz) {
            *o = feq_i(lat, order, i, r, [x, y, z]);
        }
    }
}

/// The plane-ring writer behind [`from_macroscopic`] (`reach = 0`) and
/// [`from_macroscopic_streamed`] (`reach = lattice reach`). Extended plane
/// `e ∈ 0..alloc.nx + 2·reach` holds `state(plane_x(e), y, z)`; population
/// `i` of allocation plane `x` is the equilibrium at extended plane
/// `x + reach − c_x`, row `wrap(y − c_y)`, column `wrap(z − c_z)` (with
/// `c = 0` when `reach = 0`). `state` is called once per extended site, in
/// `(e, y, z)` order.
fn fill_planes<F>(
    ctx: &KernelCtx,
    f: &mut DistField,
    reach: usize,
    plane_x: impl Fn(usize) -> usize,
    mut state: F,
) where
    F: FnMut(usize, usize, usize) -> (f64, [f64; 3]),
{
    let d = f.alloc_dims();
    let (ny, nz, plane) = (d.ny, d.nz, d.plane());
    let slots = 2 * reach + 1;
    let mut ring = SiteStates::new(slots * plane);
    let mut load = |ring: &mut SiteStates, e: usize| {
        let (x, base) = (plane_x(e), e % slots * plane);
        for y in 0..ny {
            for z in 0..nz {
                ring.set(base + y * nz + z, state(x, y, z));
            }
        }
    };
    for e in 0..2 * reach {
        load(&mut ring, e);
    }
    for x in 0..d.nx {
        load(&mut ring, x + 2 * reach);
        for (i, c) in ctx.lat.velocities().iter().enumerate() {
            let c = if reach == 0 { [0; 3] } else { *c };
            let slot = ((x + reach) as isize - c[0] as isize) as usize % slots;
            let rot = wrap_coord(c[2] as isize, nz);
            let dst = &mut f.slab_mut(i)[x * plane..(x + 1) * plane];
            for (y, row) in dst.chunks_exact_mut(nz).enumerate() {
                let src = slot * plane + wrap_coord(y as isize - c[1] as isize, ny) * nz;
                let (head, tail) = row.split_at_mut(rot);
                ring.feq_row(&ctx.lat, ctx.order, i, src, tail);
                ring.feq_row(&ctx.lat, ctx.order, i, src + nz - rot, head);
            }
        }
    }
}

/// Set every owned and halo cell to equilibrium at `(rho, u)`.
pub fn uniform(ctx: &KernelCtx, f: &mut DistField, rho: f64, u: [f64; 3]) {
    let q = ctx.lat.q();
    let mut cell = [0.0f64; MAX_Q];
    for (i, c) in cell[..q].iter_mut().enumerate() {
        *c = feq_i(&ctx.lat, ctx.order, i, rho, u);
    }
    for i in 0..q {
        let v = cell[i];
        f.slab_mut(i).fill(v);
    }
}

/// Set each cell to equilibrium of a macroscopic state given by a closure of
/// *global* coordinates (the subdomain mapping is the caller's business; the
/// closure receives allocation-local coordinates here). `state` is called
/// exactly once per allocated cell, in [`Dim3::idx`] order.
pub fn from_macroscopic<F>(ctx: &KernelCtx, f: &mut DistField, state: F)
where
    F: FnMut(usize, usize, usize) -> (f64, [f64; 3]),
{
    fill_planes(ctx, f, 0, |x| x, state);
}

/// AA-pattern (arrivals) initialisation: set population `i` of every
/// allocated cell to the equilibrium of the macroscopic state at its
/// *upwind* site — `f_i(x) = f^eq_i(state(x − c_i))`, coordinates wrapped
/// over the **global** periodic box.
///
/// `state` receives wrapped global coordinates; `x_start` is this rank's
/// first owned global x plane (allocation-local `x` maps to global
/// `x_start + x − halo` before the upwind shift and wrap). `global.ny` /
/// `global.nz` must equal the allocated cross-section (the decomposition
/// cuts x only). `state` is called exactly `(alloc.nx + 2·reach)·ny·nz`
/// times: once per site of the allocated planes widened by the lattice
/// reach on each side.
pub fn from_macroscopic_streamed<F>(
    ctx: &KernelCtx,
    f: &mut DistField,
    global: Dim3,
    x_start: isize,
    state: F,
) where
    F: FnMut(usize, usize, usize) -> (f64, [f64; 3]),
{
    let d = f.alloc_dims();
    debug_assert_eq!(d.ny, global.ny, "decomposition cuts x only");
    debug_assert_eq!(d.nz, global.nz, "decomposition cuts x only");
    let reach = ctx.lat.reach();
    let x0 = x_start - f.halo() as isize - reach as isize;
    fill_planes(
        ctx,
        f,
        reach,
        |e| wrap_coord(x0 + e as isize, global.nx),
        state,
    );
}

/// Taylor–Green-like vortex in the x–y plane (z-invariant), the classic
/// viscosity-validation flow:
///
/// `u_x =  u0 · cos(κx̂) · sin(κŷ)`,
/// `u_y = −u0 · sin(κx̂) · cos(κŷ)`, with `x̂ = 2π(x+offset_x)/n`.
///
/// `global_nx`/`global_ny` set the wavelength; `x_offset` maps local to
/// global x so decomposed ranks initialise consistently. Halo planes are
/// evaluated at their periodic image `(x − halo + x_offset) mod global_nx`,
/// so they hold exactly the neighbour's owned values.
#[allow(clippy::too_many_arguments)]
pub fn taylor_green(
    ctx: &KernelCtx,
    f: &mut DistField,
    rho0: f64,
    u0: f64,
    global_nx: usize,
    global_ny: usize,
    x_offset: isize,
    halo: usize,
) {
    let kx = 2.0 * std::f64::consts::PI / global_nx as f64;
    let ky = 2.0 * std::f64::consts::PI / global_ny as f64;
    from_macroscopic(ctx, f, |x, y, _z| {
        let gx = (x as isize - halo as isize + x_offset).rem_euclid(global_nx as isize) as f64;
        let gy = y as f64;
        let ux = u0 * (kx * gx).cos() * (ky * gy).sin();
        let uy = -u0 * (kx * gx).sin() * (ky * gy).cos();
        (rho0, [ux, uy, 0.0])
    });
}

/// A shear wave `u_x(y) = u0 sin(2πy/ny)` whose decay rate measures ν.
pub fn shear_wave(ctx: &KernelCtx, f: &mut DistField, rho0: f64, u0: f64, global_ny: usize) {
    let k = 2.0 * std::f64::consts::PI / global_ny as f64;
    from_macroscopic(ctx, f, |_x, y, _z| {
        (rho0, [u0 * (k * y as f64).sin(), 0.0, 0.0])
    });
}

/// A Gaussian density pulse at the box centre (acoustic test / Fig. 1-style
/// visual).
pub fn density_pulse(ctx: &KernelCtx, f: &mut DistField, rho0: f64, amplitude: f64, width: f64) {
    let d = f.alloc_dims();
    let cx = d.nx as f64 / 2.0;
    let cy = d.ny as f64 / 2.0;
    let cz = d.nz as f64 / 2.0;
    from_macroscopic(ctx, f, |x, y, z| {
        let r2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2) + (z as f64 - cz).powi(2);
        (
            rho0 + amplitude * (-r2 / (2.0 * width * width)).exp(),
            [0.0; 3],
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::lattice::LatticeKind;
    use crate::moments::Moments;

    fn ctx() -> KernelCtx {
        KernelCtx::new(LatticeKind::D3Q19, EqOrder::Second, Bgk::new(0.8).unwrap())
    }

    #[test]
    fn uniform_sets_exact_equilibrium_everywhere() {
        let c = ctx();
        let mut f = DistField::new(c.lat.q(), Dim3::cube(4), 1).unwrap();
        uniform(&c, &mut f, 1.2, [0.01, 0.02, 0.03]);
        let mut cell = [0.0; MAX_Q];
        let lin = f.idx(3, 2, 1);
        f.gather_cell(lin, &mut cell[..c.lat.q()]);
        let m = Moments::of_cell(&c.lat, &cell[..c.lat.q()]);
        assert!((m.rho - 1.2).abs() < 1e-13);
        assert!((m.u[0] - 0.01).abs() < 1e-13);
    }

    #[test]
    fn taylor_green_has_zero_net_momentum() {
        let c = ctx();
        let n = 8;
        let mut f = DistField::new(c.lat.q(), Dim3::cube(n), 0).unwrap();
        taylor_green(&c, &mut f, 1.0, 0.03, n, n, 0, 0);
        let mut mom = [0.0f64; 3];
        let mut cell = [0.0; MAX_Q];
        for lin in 0..f.slab_len() {
            f.gather_cell(lin, &mut cell[..c.lat.q()]);
            let m = Moments::of_cell(&c.lat, &cell[..c.lat.q()]);
            for a in 0..3 {
                mom[a] += m.rho * m.u[a];
            }
        }
        for a in 0..3 {
            assert!(mom[a].abs() < 1e-10, "axis {a}: {}", mom[a]);
        }
    }

    #[test]
    fn density_pulse_peaks_at_centre() {
        let c = ctx();
        let n = 9;
        let mut f = DistField::new(c.lat.q(), Dim3::cube(n), 0).unwrap();
        density_pulse(&c, &mut f, 1.0, 0.1, 2.0);
        let d = f.alloc_dims();
        let mut cell = [0.0; MAX_Q];
        f.gather_cell(d.idx(4, 4, 4), &mut cell[..c.lat.q()]);
        let centre = Moments::of_cell(&c.lat, &cell[..c.lat.q()]).rho;
        f.gather_cell(d.idx(0, 0, 0), &mut cell[..c.lat.q()]);
        let corner = Moments::of_cell(&c.lat, &cell[..c.lat.q()]).rho;
        assert!(centre > corner + 0.05, "{centre} vs {corner}");
    }

    #[test]
    fn streamed_init_is_the_gather_of_the_plain_init() {
        // AA arrivals init must equal the pull-stream of the two-grid init:
        // f_i(x) = F0[wrap(x − c_i)][i], site for site, bitwise. The state
        // varies along z and is not separable in x and y, so a wrong sign
        // or axis in any of the three shifts shows.
        let g = Dim3::new(6, 7, 5);
        for kind in LatticeKind::ALL {
            let c = KernelCtx::new(kind, EqOrder::Third, Bgk::new(0.8).unwrap());
            let mut plain = DistField::new(c.lat.q(), g, 0).unwrap();
            from_macroscopic(&c, &mut plain, site_state);
            let mut streamed = DistField::new(c.lat.q(), g, 0).unwrap();
            from_macroscopic_streamed(&c, &mut streamed, g, 0, site_state);
            let d = plain.alloc_dims();
            for (i, cv) in c.lat.velocities().iter().enumerate() {
                for x in 0..d.nx {
                    for y in 0..d.ny {
                        for z in 0..d.nz {
                            let ux = wrap_coord(x as isize - cv[0] as isize, d.nx);
                            let uy = wrap_coord(y as isize - cv[1] as isize, d.ny);
                            let uz = wrap_coord(z as isize - cv[2] as isize, d.nz);
                            assert_eq!(
                                streamed.slab(i)[d.idx(x, y, z)].to_bits(),
                                plain.slab(i)[d.idx(ux, uy, uz)].to_bits(),
                                "{} i={i} ({x},{y},{z})",
                                c.lat.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The per-(cell, velocity) plain initialiser the plane ring replaced:
    /// the bitwise oracle.
    fn oracle_plain<F>(ctx: &KernelCtx, f: &mut DistField, mut state: F)
    where
        F: FnMut(usize, usize, usize) -> (f64, [f64; 3]),
    {
        let d = f.alloc_dims();
        let q = ctx.lat.q();
        let mut cell = [0.0f64; MAX_Q];
        for x in 0..d.nx {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    let (rho, u) = state(x, y, z);
                    for (i, c) in cell[..q].iter_mut().enumerate() {
                        *c = feq_i(&ctx.lat, ctx.order, i, rho, u);
                    }
                    let lin = d.idx(x, y, z);
                    f.scatter_cell(lin, &cell[..q]);
                }
            }
        }
    }

    /// The per-(cell, velocity) streamed initialiser the plane ring
    /// replaced: the bitwise oracle.
    fn oracle_streamed<F>(
        ctx: &KernelCtx,
        f: &mut DistField,
        global: Dim3,
        x_start: isize,
        mut state: F,
    ) where
        F: FnMut(usize, usize, usize) -> (f64, [f64; 3]),
    {
        let d = f.alloc_dims();
        let halo = f.halo() as isize;
        for x in 0..d.nx {
            let gx = x_start + x as isize - halo;
            for y in 0..d.ny {
                for z in 0..d.nz {
                    let lin = d.idx(x, y, z);
                    for (i, c) in ctx.lat.velocities().iter().enumerate() {
                        let ux = wrap_coord(gx - c[0] as isize, global.nx);
                        let uy = wrap_coord(y as isize - c[1] as isize, global.ny);
                        let uz = wrap_coord(z as isize - c[2] as isize, global.nz);
                        let (rho, u) = state(ux, uy, uz);
                        f.slab_mut(i)[lin] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                    }
                }
            }
        }
    }

    /// A state that differs at every site of a small box.
    fn site_state(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        let (x, y, z) = (x as f64, y as f64, z as f64);
        (
            1.0 + 0.01 * (1.3 * x + 0.7 * y + 0.3 * z).sin(),
            [
                0.04 * (0.9 * x - 0.4 * z).cos(),
                -0.03 * (0.5 * y + 1.1 * x).sin(),
                0.02 * (0.8 * z - 0.6 * y).cos(),
            ],
        )
    }

    fn assert_bitwise(got: &DistField, want: &DistField, what: &str) {
        let bits = |f: &DistField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(got) == bits(want), "{what}: fields differ");
    }

    /// Every lattice and order, with halo 0, reach and 2·reach.
    fn cases() -> impl Iterator<Item = (KernelCtx, usize)> {
        LatticeKind::ALL.into_iter().flat_map(|kind| {
            [EqOrder::Second, EqOrder::Third]
                .into_iter()
                .flat_map(move |order| {
                    let c = KernelCtx::new(kind, order, Bgk::new(0.8).unwrap());
                    let k = c.lat.reach();
                    [0, k, 2 * k].map(|h| (c.clone(), h))
                })
        })
    }

    /// Global boxes: a plain one, and ones whose ny or nz (or both) lie
    /// below the D3Q39 reach, so the wraps repeat.
    const BOXES: [Dim3; 4] = [
        Dim3::new(9, 7, 5),
        Dim3::new(6, 2, 8),
        Dim3::new(6, 5, 1),
        Dim3::new(3, 2, 2),
    ];

    /// Three ranks' `(x_start, owned nx)` over `nx`: the first, a middle
    /// and the last.
    fn ranks(nx: usize) -> [(usize, usize); 3] {
        let w = nx / 3;
        [(0, w), (w, w), (2 * w, nx - 2 * w)]
    }

    #[test]
    fn plain_init_is_bitwise_the_per_value_oracle() {
        for (c, h) in cases() {
            for g in BOXES {
                for (x_start, nx) in ranks(g.nx) {
                    let owned = Dim3::new(nx, g.ny, g.nz);
                    let state = |x: usize, y, z| {
                        site_state(wrap_coord((x_start + x) as isize - h as isize, g.nx), y, z)
                    };
                    let mut got = DistField::new(c.lat.q(), owned, h).unwrap();
                    from_macroscopic(&c, &mut got, state);
                    let mut want = DistField::new(c.lat.q(), owned, h).unwrap();
                    oracle_plain(&c, &mut want, state);
                    let what = format!(
                        "{} {:?} halo {h} {g:?} x_start {x_start}",
                        c.lat.name(),
                        c.order
                    );
                    assert_bitwise(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn streamed_init_is_bitwise_the_per_value_oracle() {
        for (c, h) in cases() {
            for g in BOXES {
                for (x_start, nx) in ranks(g.nx) {
                    let owned = Dim3::new(nx, g.ny, g.nz);
                    let x_start = x_start as isize;
                    let mut got = DistField::new(c.lat.q(), owned, h).unwrap();
                    from_macroscopic_streamed(&c, &mut got, g, x_start, site_state);
                    let mut want = DistField::new(c.lat.q(), owned, h).unwrap();
                    oracle_streamed(&c, &mut want, g, x_start, site_state);
                    let what = format!(
                        "{} {:?} halo {h} {g:?} x_start {x_start}",
                        c.lat.name(),
                        c.order
                    );
                    assert_bitwise(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn plain_init_calls_state_once_per_allocated_cell() {
        for (c, h) in cases() {
            let mut f = DistField::new(c.lat.q(), Dim3::new(4, 3, 5), h).unwrap();
            let mut calls = 0usize;
            from_macroscopic(&c, &mut f, |x, y, z| {
                calls += 1;
                site_state(x, y, z)
            });
            assert_eq!(calls, f.alloc_dims().len(), "{} halo {h}", c.lat.name());
        }
    }

    #[test]
    fn streamed_init_calls_state_once_per_source_site() {
        for (c, h) in cases() {
            let g = Dim3::new(12, 3, 5);
            let mut f = DistField::new(c.lat.q(), Dim3::new(4, g.ny, g.nz), h).unwrap();
            let mut calls = 0usize;
            from_macroscopic_streamed(&c, &mut f, g, 4, |x, y, z| {
                calls += 1;
                site_state(x, y, z)
            });
            let d = f.alloc_dims();
            let want = (d.nx + 2 * c.lat.reach()) * d.ny * d.nz;
            assert_eq!(calls, want, "{} halo {h}", c.lat.name());
        }
    }

    #[test]
    fn decomposed_taylor_green_matches_global() {
        // Two ranks initialising with offsets must reproduce the global field.
        let c = ctx();
        let n = 8;
        let mut whole = DistField::new(c.lat.q(), Dim3::cube(n), 0).unwrap();
        taylor_green(&c, &mut whole, 1.0, 0.04, n, n, 0, 0);
        let mut part = DistField::new(c.lat.q(), Dim3::new(4, n, n), 0).unwrap();
        taylor_green(&c, &mut part, 1.0, 0.04, n, n, 4, 0); // right half
        let dw = whole.alloc_dims();
        let dp = part.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 0..4 {
                let a = dw.idx(x + 4, 0, 0);
                let b = dp.idx(x, 0, 0);
                assert_eq!(
                    &whole.slab(i)[a..a + dw.plane()],
                    &part.slab(i)[b..b + dp.plane()]
                );
            }
        }
    }
}
