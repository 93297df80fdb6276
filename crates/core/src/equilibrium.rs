//! Truncated Hermite equilibria (paper Eq. 2 and Eq. 3).
//!
//! The local equilibrium is a truncated Hermite expansion of the local
//! Maxwellian with density ρ and velocity **u** (paper §II):
//!
//! * **Second order** (Eq. 2, recovers Navier–Stokes):
//!   `f_i^eq = w_i ρ [1 + ξ/c_s² + ξ²/(2c_s⁴) − u²/(2c_s²)]`, `ξ = c_i·u`.
//! * **Third order** (Eq. 3, beyond Navier–Stokes):
//!   adds `ξ/(6c_s⁴) · (ξ²/c_s² − 3u²)` — the term related to the
//!   velocity-dependent viscosity, requiring a sixth-order isotropic lattice.
//!
//! (The paper's typeset equations drop two exponents — `u²/c_s` should be
//! `u²/c_s²` — we implement the standard Hermite forms, which its reference
//! [5] (Zhang, Shan & Chen 2006) states correctly.)

use crate::lattice::Lattice;

/// Truncation order of the Hermite equilibrium expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EqOrder {
    /// Second-order truncation (paper Eq. 2) — Navier–Stokes hydrodynamics.
    Second,
    /// Third-order truncation (paper Eq. 3) — finite-Knudsen corrections.
    Third,
}

impl EqOrder {
    /// The natural order for a lattice: third order where the quadrature
    /// supports it (D3Q39), second otherwise.
    pub fn natural_for(lat: &Lattice) -> Self {
        lat.max_eq_order()
    }

    /// Short label used in reports ("O2"/"O3").
    pub const fn label(self) -> &'static str {
        match self {
            EqOrder::Second => "O2",
            EqOrder::Third => "O3",
        }
    }
}

/// Precomputed per-lattice equilibrium constants, shared by all kernel
/// variants past the `Orig` rung (the paper's DH optimization replaces
/// repeated divisions with multiplications by these reciprocals).
#[derive(Debug, Clone)]
pub struct EqConsts {
    /// Discrete velocities as f64 triples.
    pub c: Vec<[f64; 3]>,
    /// Quadrature weights.
    pub w: Vec<f64>,
    /// `1 / c_s²`.
    pub inv_cs2: f64,
    /// `1 / (2 c_s⁴)`.
    pub inv_2cs4: f64,
    /// `1 / (6 c_s⁶)`.
    pub inv_6cs6: f64,
    /// `1 / (2 c_s²)`.
    pub inv_2cs2: f64,
    /// `c_s²` itself (used by the third-order term).
    pub cs2: f64,
}

impl EqConsts {
    /// Precompute constants for `lat`.
    pub fn new(lat: &Lattice) -> Self {
        let cs2 = lat.cs2();
        Self {
            c: lat
                .velocities()
                .iter()
                .map(|c| [c[0] as f64, c[1] as f64, c[2] as f64])
                .collect(),
            w: lat.weights().to_vec(),
            inv_cs2: 1.0 / cs2,
            inv_2cs4: 1.0 / (2.0 * cs2 * cs2),
            inv_6cs6: 1.0 / (6.0 * cs2 * cs2 * cs2),
            inv_2cs2: 1.0 / (2.0 * cs2),
            cs2,
        }
    }

    /// Number of velocities.
    #[inline]
    pub fn q(&self) -> usize {
        self.w.len()
    }
}

/// Bind `$poly` to the Hermite polynomial of [`feq_i`], written once for
/// [`feq_i`] and [`feq_poly_i`]. A macro, not a call: `feq_i` keeps the
/// body it always had, so where the compiler inlines it (the initialisers'
/// per-row loops vectorise over it) does not move.
macro_rules! feq_poly {
    ($lat:ident, $order:ident, $i:ident, $u:ident => $poly:ident) => {
        let cs2 = $lat.cs2();
        let c = $lat.velocities()[$i];
        let cf = [c[0] as f64, c[1] as f64, c[2] as f64];
        let xi = cf[0] * $u[0] + cf[1] * $u[1] + cf[2] * $u[2];
        let u2 = $u[0] * $u[0] + $u[1] * $u[1] + $u[2] * $u[2];
        let mut $poly = 1.0 + xi / cs2 + (xi * xi) / (2.0 * cs2 * cs2) - u2 / (2.0 * cs2);
        if $order == EqOrder::Third {
            $poly += xi / (6.0 * cs2 * cs2) * ((xi * xi) / cs2 - 3.0 * u2);
        }
    };
}

/// Equilibrium distribution for one velocity index.
///
/// Straightforward (division-containing) form used by the `Orig` kernel and
/// as the oracle in tests; the optimized kernels inline the reciprocal form
/// via [`EqConsts`].
pub fn feq_i(lat: &Lattice, order: EqOrder, i: usize, rho: f64, u: [f64; 3]) -> f64 {
    feq_poly!(lat, order, i, u => poly);
    lat.weights()[i] * rho * poly
}

/// Fill `out[0..q]` with the equilibrium populations for `(rho, u)`.
pub fn feq(lat: &Lattice, order: EqOrder, rho: f64, u: [f64; 3], out: &mut [f64]) {
    assert_eq!(out.len(), lat.q(), "feq output slice must have length Q");
    for (i, o) in out.iter_mut().enumerate() {
        *o = feq_i(lat, order, i, rho, u);
    }
}

/// Reciprocal-form equilibrium used by the optimized kernels: identical
/// mathematics to [`feq_i`], expressed with precomputed constants so the hot
/// loop contains no division (paper §V-B).
#[inline(always)]
pub fn feq_i_consts(k: &EqConsts, third_order: bool, i: usize, rho: f64, u: [f64; 3]) -> f64 {
    let c = k.c[i];
    let xi = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
    let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let mut poly = 1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
    if third_order {
        poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
    }
    k.w[i] * rho * poly
}

/// The polynomial of [`feq_i`]: `feq_i = (w_i ρ) · poly_i(u)`, evaluated in
/// the same operations. A loop that emits the equilibrium of many densities
/// at one velocity (the diffuse wall rows) hoists it and stays bitwise
/// [`feq_i`].
pub fn feq_poly_i(lat: &Lattice, order: EqOrder, i: usize, u: [f64; 3]) -> f64 {
    feq_poly!(lat, order, i, u => poly);
    poly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::LatticeKind;

    fn moments_of_feq(lat: &Lattice, order: EqOrder, rho: f64, u: [f64; 3]) -> (f64, [f64; 3]) {
        let mut f = vec![0.0; lat.q()];
        feq(lat, order, rho, u, &mut f);
        let m0: f64 = f.iter().sum();
        let mut m1 = [0.0; 3];
        for (fi, c) in f.iter().zip(lat.velocities()) {
            for a in 0..3 {
                m1[a] += fi * c[a] as f64;
            }
        }
        (m0, m1)
    }

    #[test]
    fn equilibrium_conserves_density_and_momentum() {
        for kind in LatticeKind::ALL {
            let lat = Lattice::new(kind);
            let orders: &[EqOrder] = if kind == LatticeKind::D3Q39 {
                &[EqOrder::Second, EqOrder::Third]
            } else {
                &[EqOrder::Second]
            };
            for &order in orders {
                let rho = 1.13;
                let u = [0.03, -0.02, 0.05];
                let (m0, m1) = moments_of_feq(&lat, order, rho, u);
                assert!((m0 - rho).abs() < 1e-13, "{kind:?} {order:?}: {m0}");
                for a in 0..3 {
                    assert!(
                        (m1[a] - rho * u[a]).abs() < 1e-13,
                        "{kind:?} {order:?} axis {a}: {} vs {}",
                        m1[a],
                        rho * u[a]
                    );
                }
            }
        }
    }

    #[test]
    fn at_rest_equilibrium_is_weights_times_rho() {
        for kind in LatticeKind::ALL {
            let lat = Lattice::new(kind);
            let mut f = vec![0.0; lat.q()];
            feq(&lat, EqOrder::Second, 2.0, [0.0; 3], &mut f);
            for (fi, w) in f.iter().zip(lat.weights()) {
                assert!((fi - 2.0 * w).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn second_moment_is_pressure_plus_advection() {
        // Σ f_i^eq c_a c_b = ρ (c_s² δ_ab + u_a u_b) exactly, both orders,
        // because both lattices are at least fourth-order isotropic.
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let lat = Lattice::new(kind);
            let rho = 0.97;
            let u = [0.04, 0.01, -0.03];
            let mut f = vec![0.0; lat.q()];
            feq(&lat, order, rho, u, &mut f);
            for a in 0..3 {
                for b in 0..3 {
                    let m: f64 = f
                        .iter()
                        .zip(lat.velocities())
                        .map(|(fi, c)| fi * (c[a] * c[b]) as f64)
                        .sum();
                    let want = rho * (lat.cs2() * ((a == b) as u8 as f64) + u[a] * u[b]);
                    assert!(
                        (m - want).abs() < 1e-12,
                        "{kind:?} ({a},{b}): {m} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn third_moment_correct_only_at_third_order_on_d3q39() {
        // Σ f^eq c c c = ρ[c_s²(u δ)_sym + u u u]. The third-order term
        // exists precisely to fix this moment (velocity-dependent viscosity,
        // paper §II); second-order truncation misses the u³ part.
        let lat = Lattice::new(LatticeKind::D3Q39);
        let rho = 1.0;
        let u = [0.1, 0.0, 0.0];
        let want_xxx = rho * (3.0 * lat.cs2() * u[0] + u[0].powi(3));

        let mut f3 = vec![0.0; lat.q()];
        feq(&lat, EqOrder::Third, rho, u, &mut f3);
        let m3: f64 = f3
            .iter()
            .zip(lat.velocities())
            .map(|(fi, c)| fi * (c[0] * c[0] * c[0]) as f64)
            .sum();
        assert!((m3 - want_xxx).abs() < 1e-12, "O3: {m3} vs {want_xxx}");

        let mut f2 = vec![0.0; lat.q()];
        feq(&lat, EqOrder::Second, rho, u, &mut f2);
        let m2: f64 = f2
            .iter()
            .zip(lat.velocities())
            .map(|(fi, c)| fi * (c[0] * c[0] * c[0]) as f64)
            .sum();
        let err2 = (m2 - want_xxx).abs();
        assert!(
            (err2 - u[0].powi(3)).abs() < 1e-12,
            "O2 should miss exactly the u³ term: err={err2}"
        );
    }

    #[test]
    fn consts_form_matches_division_form() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let lat = Lattice::new(kind);
            let k = EqConsts::new(&lat);
            for &order in &[EqOrder::Second, EqOrder::Third] {
                let rho = 1.21;
                let u = [0.06, -0.04, 0.02];
                for i in 0..lat.q() {
                    let a = feq_i(&lat, order, i, rho, u);
                    let b = feq_i_consts(&k, order == EqOrder::Third, i, rho, u);
                    assert!(
                        (a - b).abs() < 1e-14 * a.abs().max(1.0),
                        "{kind:?} {order:?} i={i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn order_labels() {
        assert_eq!(EqOrder::Second.label(), "O2");
        assert_eq!(EqOrder::Third.label(), "O3");
    }
}
