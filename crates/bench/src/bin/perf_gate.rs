//! Perf-regression smoke gate over `bench_mflups` artifacts.
//!
//! Compares the *machine-relative* ratio metrics of a freshly measured
//! artifact against a committed baseline and fails (exit 1) when any
//! shared summary entry regresses beyond the tolerance band. Absolute
//! MFlup/s are not compared — they track the host, not the code — but the
//! summary ratios (`aa_over_two_grid`, `fused_over_simd`,
//! `sparse_over_dense_per_fluid_cell`) divide out the machine and are
//! comparable across hosts to within measurement noise, which the
//! tolerance band absorbs.
//!
//! ```text
//! perf_gate --baseline BENCH_kernels.json --measured fresh.json \
//!           [--tolerance 0.25] [--metrics aa_over_two_grid,fused_over_simd]
//! ```
//!
//! Entries present in only one artifact are skipped (the smoke sweep may
//! run a subset of the committed lattice matrix); a gate run that finds
//! *no* comparable entry fails loudly rather than passing vacuously.

use std::process::ExitCode;

use lbm_sim::json::Json;

struct Args {
    baseline: String,
    measured: String,
    tolerance: f64,
    metrics: Vec<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perf_gate --baseline PATH --measured PATH \
         [--tolerance T] [--metrics M1,M2]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        baseline: String::new(),
        measured: String::new(),
        tolerance: 0.25,
        metrics: vec![
            "aa_over_two_grid".to_string(),
            "fused_over_simd".to_string(),
            "sparse_over_dense_per_fluid_cell".to_string(),
        ],
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |argv: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--baseline" => a.baseline = take(&argv, &mut i, "--baseline"),
            "--measured" => a.measured = take(&argv, &mut i, "--measured"),
            "--tolerance" => {
                a.tolerance = take(&argv, &mut i, "--tolerance")
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && (0.0..1.0).contains(t))
                    .unwrap_or_else(|| usage("--tolerance needs a fraction in [0, 1)"));
            }
            "--metrics" => {
                a.metrics = take(&argv, &mut i, "--metrics")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if a.baseline.is_empty() || a.measured.is_empty() {
        usage("--baseline and --measured are required");
    }
    if a.metrics.is_empty() {
        usage("--metrics needs at least one metric name");
    }
    a
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| usage(&format!("cannot parse {path}: {e}")))
}

/// Finite metric value of one summary entry, `None` when absent or null.
fn metric(doc: &Json, key: &str, name: &str) -> Option<f64> {
    doc.get("summary")?
        .get(key)?
        .get(name)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
}

fn main() -> ExitCode {
    let args = parse_args();
    let baseline = load(&args.baseline);
    let measured = load(&args.measured);
    let Some(Json::Obj(base_summary)) = baseline.get("summary").cloned() else {
        usage(&format!("{} has no summary object", args.baseline));
    };

    println!(
        "== perf gate: {} vs baseline {} (tolerance {:.0}%) ==\n",
        args.measured,
        args.baseline,
        args.tolerance * 100.0
    );
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for (key, _) in &base_summary {
        for name in &args.metrics {
            let (Some(base), Some(meas)) =
                (metric(&baseline, key, name), metric(&measured, key, name))
            else {
                continue;
            };
            let floor = base * (1.0 - args.tolerance);
            let ok = meas >= floor;
            compared += 1;
            println!(
                "  {key:>24} {name:<20} baseline {base:.4}  measured {meas:.4}  \
                 floor {floor:.4}  {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                failures.push(format!("{key}/{name}: {meas:.4} < floor {floor:.4}"));
            }
        }
    }
    println!();
    if compared == 0 {
        eprintln!(
            "perf gate: no comparable summary entries between {} and {} \
             (metrics: {:?}) — refusing to pass vacuously",
            args.baseline, args.measured, args.metrics
        );
        return ExitCode::FAILURE;
    }
    if failures.is_empty() {
        println!(
            "perf gate: {compared} entr{} within tolerance",
            plural(compared)
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}
