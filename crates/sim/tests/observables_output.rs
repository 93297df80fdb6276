//! Satellite coverage: observable extraction against known analytic fields,
//! and round-trip/golden tests for the file-output writers.

use std::path::PathBuf;

use lbm_core::collision::Bgk;
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::{DistField, ScalarField};
use lbm_core::index::Dim3;
use lbm_core::kernels::KernelCtx;
use lbm_core::lattice::LatticeKind;
use lbm_sim::{observables, output};

fn ctx() -> KernelCtx {
    KernelCtx::new(LatticeKind::D3Q19, EqOrder::Second, Bgk::new(0.8).unwrap())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbm_obs_out_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A field initialised to the equilibrium of an analytic parabola must give
/// back exactly that parabola through every profile observable.
#[test]
fn profiles_recover_an_analytic_parabola() {
    let c = ctx();
    let dims = Dim3::new(5, 9, 6);
    let h = 9.0f64;
    let parab = |y: usize| 1e-3 * (y as f64 + 0.5) * (h - y as f64 - 0.5);
    let mut f = DistField::new(c.lat.q(), dims, 1).unwrap();
    lbm_core::init::from_macroscopic(&c, &mut f, |_x, y, _z| (1.0, [parab(y), 0.0, 0.0]));

    let ux = observables::u_profile(&c, &f, 0..9, 0, None);
    for (y, u) in ux.iter().enumerate() {
        assert!((u - parab(y)).abs() < 1e-13, "y={y}: {u}");
    }
    // The observable reads zero off-axis…
    for v in observables::u_profile(&c, &f, 0..9, 2, None) {
        assert!(v.abs() < 1e-13);
    }
    // …and a single z-slice of an x/z-invariant flow equals the z-average
    // (up to the averaging's reassociation rounding).
    let slice = observables::u_profile(&c, &f, 2..7, 0, Some(3));
    let avg = observables::u_profile(&c, &f, 2..7, 0, None);
    for (s, a) in slice.iter().zip(&avg) {
        assert!((s - a).abs() < 1e-15, "{s} vs {a}");
    }
}

/// `macro_fields` and `max_speed` on a sheared analytic state.
#[test]
fn macro_fields_and_max_speed_match_the_initialised_state() {
    let c = ctx();
    let dims = Dim3::new(4, 5, 5);
    let mut f = DistField::new(c.lat.q(), dims, 1).unwrap();
    lbm_core::init::from_macroscopic(&c, &mut f, |x, y, z| {
        (
            1.0 + 0.02 * z as f64,
            [0.004 * y as f64, 0.0, 0.001 * x as f64],
        )
    });
    let (rho, u) = observables::macro_fields(&c, &f);
    // Owned coordinates: alloc x = owned x + halo, so the closure saw x+1.
    assert!((rho.get(2, 1, 3) - 1.06).abs() < 1e-12);
    assert!((u.get(2, 4, 0)[0] - 0.016).abs() < 1e-12);
    assert!((u.get(3, 0, 0)[2] - 0.004).abs() < 1e-12);
    // Peak |u| over owned cells: x = 3 (alloc 4), y = 4.
    let expect = (0.016f64.powi(2) + 0.004f64.powi(2)).sqrt();
    assert!((observables::max_speed(&c, &f) - expect).abs() < 1e-9);
}

/// Golden test: the PGM writer must emit exactly this byte stream for a
/// fixed 3×2 gradient (header, row-major y, x across).
#[test]
fn pgm_writer_emits_golden_bytes() {
    let mut field = ScalarField::new(Dim3::new(3, 2, 1));
    // Values 0..=5 → normalised to 0, 51, 102, 153, 204, 255.
    for y in 0..2 {
        for x in 0..3 {
            field.set(x, y, 0, (y * 3 + x) as f64);
        }
    }
    let p = tmpdir("pgm").join("golden.pgm");
    output::write_pgm(&p, &field).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    let golden: &[u8] = b"P5\n3 2\n255\n\x00\x33\x66\x99\xcc\xff";
    assert_eq!(bytes, golden);
}

/// Golden test: the PPM writer's diverging map on the two extremes and the
/// midpoint.
#[test]
fn ppm_writer_emits_golden_extremes() {
    let mut field = ScalarField::new(Dim3::new(3, 1, 1));
    field.set(0, 0, 0, -1.0); // → 0   → pure blue
    field.set(1, 0, 0, 0.0); //  → 128 → near-white
    field.set(2, 0, 0, 1.0); //  → 255 → pure red
    let p = tmpdir("ppm").join("golden.ppm");
    output::write_ppm(&p, &field).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    let header = b"P6\n3 1\n255\n";
    assert_eq!(&bytes[..header.len()], header);
    let px = &bytes[header.len()..];
    assert_eq!(&px[0..3], &[0, 0, 255], "t=0 is blue");
    let mid = &px[3..6];
    assert!(mid.iter().all(|&v| v > 250), "t≈0.5 is white-ish: {mid:?}");
    assert_eq!(&px[6..9], &[255, 0, 0], "t=1 is red");
}

/// Round-trip: CSV values written with 9 decimal digits of precision must
/// parse back to within that precision, row and column structure intact.
#[test]
fn csv_round_trips_values_and_shape() {
    let p = tmpdir("csv").join("rt.csv");
    let rows = vec![
        vec![0.0, -1.5, std::f64::consts::PI],
        vec![6.02214076e23, 1.0 / 3.0, -2.2250738585072014e-308],
    ];
    output::write_csv(&p, &["a", "b", "c"], &rows).unwrap();
    let text = std::fs::read_to_string(&p).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("a,b,c"));
    for (i, line) in lines.enumerate() {
        let parsed: Vec<f64> = line.split(',').map(|v| v.parse().unwrap()).collect();
        assert_eq!(parsed.len(), 3, "row {i}");
        for (j, (got, want)) in parsed.iter().zip(&rows[i]).enumerate() {
            let tol = want.abs().max(1e-300) * 1e-9;
            assert!(
                (got - want).abs() <= tol,
                "row {i} col {j}: {got} vs {want}"
            );
        }
    }
}
