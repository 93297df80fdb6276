//! Hostile inputs: every truncation and every single-bit flip of a small
//! valid input must be rejected with an `Err` or, where the format carries
//! no checksum, parse into a value — never panic. Covered: a `.lbmgeo`
//! voxel file (`Geometry::from_bytes`, the frame codec plus the
//! trailing-byte rule of `Geometry::from_file`) and a job manifest
//! (`Json::parse`, then `JobSpec::from_json`). Generated garbage goes
//! through `Json::parse` too, and generated value trees must survive a
//! render and re-parse, compact and indented.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lbm::core::geometry::Geometry;
use lbm::prelude::*;
use lbm::sim::json::{Json, MAX_DEPTH};
use lbm::sim::GeometrySpec;
use proptest::prelude::*;
use proptest::TestRng;

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

/// Text for the parser, one of three families: random bytes, a random
/// string over JSON's own alphabet, or brackets nested up to twice
/// [`MAX_DEPTH`] (closed, or cut off at a random point).
struct Garbage;

impl Strategy for Garbage {
    type Value = Vec<u8>;
    fn sample(&self, rng: &mut TestRng) -> Vec<u8> {
        match rng.below(3) {
            0 => (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect(),
            1 => {
                const TOKENS: [&str; 40] = [
                    "{", "}", "[", "]", "\"", ",", ":", "0", "1", "7", "9", ".", "e", "E", "+",
                    "-", "t", "f", "n", "u", "l", "true", "null", "\\\"", "\\\\", "\\/", "\\n",
                    "\\u00e9", "\\ud800", "\\u12", "\\q", "\\", " ", "\t", "\n", "\r", "\"k\":",
                    "1e999", "-0", "é",
                ];
                (0..rng.below(48))
                    .map(|_| TOKENS[rng.below(TOKENS.len() as u64) as usize])
                    .collect::<String>()
                    .into_bytes()
            }
            _ => {
                let depth = rng.below(2 * MAX_DEPTH as u64 + 1) as usize;
                let opens: Vec<bool> = (0..depth).map(|_| rng.below(2) == 0).collect();
                let mut text: String = opens
                    .iter()
                    .map(|&arr| if arr { "[" } else { "{\"k\":" })
                    .collect();
                text.push_str(if rng.below(2) == 0 { "1.5" } else { "[]" });
                text.extend(opens.iter().rev().map(|&arr| if arr { ']' } else { '}' }));
                let cut = if rng.below(4) == 0 {
                    rng.below(text.len() as u64 + 1) as usize
                } else {
                    text.len()
                };
                text.into_bytes()[..cut].to_vec()
            }
        }
    }
}

/// A random JSON value tree: ints, finite floats (random bit patterns
/// included, so tiny and huge magnitudes), strings with escapes and
/// non-ASCII, and containers nested a few levels deep.
struct Tree;

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| match rng.below(4) {
            0 => ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/'][rng.below(8) as usize],
            1 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => (b' ' + rng.below(95) as u8) as char,
        })
        .collect()
}

fn tree(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(rng.next_u64() as i64),
        3 => {
            let x = f64::from_bits(rng.next_u64());
            Json::Num(if x.is_finite() {
                x
            } else {
                rng.next_f64() - 0.5
            })
        }
        4 => Json::Num((rng.next_f64() - 0.5) * 1e3),
        5 => Json::Str(string(rng)),
        6 => Json::Arr((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Tree {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        tree(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn generated_garbage_parses_or_errs(bytes in Garbage) {
        let text = String::from_utf8_lossy(&bytes);
        let got = no_panic("generated input", &bytes, |_| Json::parse(&text));
        // Past the depth bound, an error (the leaf `[]` is a level too).
        let opens = text
            .bytes()
            .take_while(|b| b"[{\"k:".contains(b))
            .filter(|b| matches!(b, b'[' | b'{'))
            .count();
        if opens > MAX_DEPTH {
            prop_assert!(got.is_err(), "{opens} levels accepted");
        }
    }

    #[test]
    fn generated_trees_re_parse_equal_compact_and_indented(doc in Tree) {
        for text in [doc.to_string(), format!("{doc:#}\n")] {
            let back = Json::parse(&text);
            prop_assert_eq!(back.as_ref(), Ok(&doc), "{}", text);
            prop_assert_eq!(back.unwrap().to_string(), doc.to_string());
        }
    }
}
