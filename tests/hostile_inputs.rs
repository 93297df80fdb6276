//! Hostile inputs: every truncation and every single-bit flip of a small
//! valid input must be rejected with an `Err` or, where the format carries
//! no checksum, parse into a value — never panic. Covered: a `.lbmgeo`
//! voxel file (`Geometry::from_bytes`, the frame codec plus the
//! trailing-byte rule of `Geometry::from_file`) and a job manifest
//! (`Json::parse`, then `JobSpec::from_json`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use lbm::core::geometry::Geometry;
use lbm::prelude::*;
use lbm::sim::json::Json;
use lbm::sim::GeometrySpec;

/// `input` with bit `bit` flipped.
fn flipped(input: &[u8], bit: usize) -> Vec<u8> {
    let mut out = input.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

/// Every proper prefix of `input` and every single-bit flip of it, with a
/// label.
fn corpus(input: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..input.len()).map(|n| (format!("truncated to {n} bytes"), input[..n].to_vec()));
    let flips = (0..input.len() * 8).map(|b| (format!("bit {b} flipped"), flipped(input, b)));
    cuts.chain(flips)
}

/// `parse(input)`, with a panic turned into a test failure that names the
/// input.
fn no_panic<T>(what: &str, input: &[u8], parse: impl FnOnce(&[u8]) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| parse(input)))
        .unwrap_or_else(|_| panic!("{what}: the parser panicked on {input:02x?}"))
}

#[test]
fn every_truncation_and_bit_flip_of_a_geometry_file_is_an_error() {
    // A pipe in a box with runs of many lengths: solid and fluid rows.
    let geom = Geometry::pipe(Dim3::new(2, 6, 7), 2.2).unwrap();
    let mut valid = Vec::new();
    geom.encode_frame(&mut valid);
    assert_eq!(Geometry::from_bytes(&valid).unwrap(), geom);
    let mut longer = valid.clone();
    longer.push(0);
    assert!(Geometry::from_bytes(&longer).is_err(), "a trailing byte");
    let mut n = 0;
    for (what, bytes) in corpus(&valid) {
        let got = no_panic(&what, &bytes, Geometry::from_bytes);
        assert!(got.is_err(), "{what}: accepted {:02x?}", bytes);
        n += 1;
    }
    assert_eq!(n, valid.len() * 9);
}

#[test]
fn every_truncation_and_bit_flip_of_a_job_manifest_parses_or_errs() {
    let mut spec = JobSpec::new("pipe-q19", LatticeKind::D3Q19, Dim3::new(8, 16, 16), 40);
    spec.scenario = Some(ScenarioSpec::ForcedFlow {
        g: 2e-5,
        pulse_amp: 0.2,
        pulse_period: 50,
    });
    spec.geometry = Some(GeometrySpec::Pipe { radius: 5.5 });
    spec.tau = Some(0.8);
    spec.progress_every = 10;
    spec.checkpoint_every = 20;
    spec.mass_drift_tol = 1e-9;
    let valid = spec.to_json().to_string().into_bytes();
    let parse = |bytes: &[u8]| -> Result<JobSpec, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let json = Json::parse(text)?;
        JobSpec::from_json(&json).map_err(|e| e.to_string())
    };
    assert_eq!(parse(&valid).unwrap(), spec);
    let (mut rejected, mut parsed) = (0, 0);
    for (what, bytes) in corpus(&valid) {
        let got = no_panic(&what, &bytes, parse);
        if what.starts_with("truncated") {
            assert!(
                got.is_err(),
                "{what}: accepted {}",
                String::from_utf8_lossy(&bytes)
            );
        }
        match got {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    // Most flips break the syntax or a label; some change only a value.
    assert!(
        rejected > parsed && parsed > 0,
        "{rejected} rejected, {parsed} parsed"
    );
}
