//! The repo benchmark (see `README.md` beside this package).
//!
//! ```text
//! lbm-benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! lbm-benchmark --workload NAME --seed N --seconds S --trace 0|1     (the driver's form)
//! lbm-benchmark compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! `run` is the untraced pass: end-to-end metrics, written to
//! `out/result.json`. `trace` is the traced pass: per-layer metrics and the
//! spans, written to `out/trace.json`. With `--workload` the last line of
//! standard output is the one-object result the driver reads. Any failed
//! check makes the exit code non-zero.

mod host;
mod layers;
mod measure;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use host::Host;
use layers::traced_pass;
use measure::{digest_check, run_round, twin_check, Checks, EndToEnd, RoundPlan};
use report::{Outcome, RunId};
use trace::Tracer;
use workloads::{Seeded, Workload};

/// Rounds of an untraced run: the set-up is measured this many times and its
/// median reported; the timed chunks of all rounds are pooled.
const ROUNDS: usize = 5;
/// Default `--seconds`: timed-chunk seconds per workload (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug)]
struct Args {
    traced: bool,
    workload: Option<String>,
    id: RunId,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        traced: false,
        workload: None,
        id: RunId {
            seed: 1,
            smoke: false,
            seconds: DEFAULT_SECONDS,
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "run" => out.traced = false,
            "trace" => out.traced = true,
            "--smoke" => out.id.smoke = true,
            "--workload" => out.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                out.id.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.id.seconds = s;
            }
            "--trace" => {
                out.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// Why `w` cannot be measured on this host, if it cannot: two ranks on one
/// core would time the scheduler, not the code.
fn refusal(w: &Workload, host: &Host) -> Option<String> {
    (w.ranks > host.logical_cores).then(|| {
        format!(
            "{} ranks need {} cores, this host has {}",
            w.ranks, w.ranks, host.logical_cores
        )
    })
}

fn unresolved(w: &Workload, why: String) -> Outcome {
    Outcome {
        workload: w.name,
        end_to_end: None,
        layers: None,
        digest: None,
        checks: Checks::default(),
        unresolved: Some(why),
    }
}

/// The untraced pass: [`ROUNDS`] round-robin rounds over `selected`, so a
/// slow phase of a shared host spreads over all workloads.
fn untraced(selected: &[Workload], id: RunId, host: &Host) -> Result<Vec<Outcome>, String> {
    let seeded = Seeded::new(id.seed);
    let mut tracer = Tracer::new(false);
    let plan = RoundPlan {
        budget_s: if id.smoke {
            0.0
        } else {
            id.seconds / ROUNDS as f64
        },
        min_chunks: measure::DIGEST_CHUNKS,
        alternate_tracing: false,
    };
    let refusals: Vec<Option<String>> = selected.iter().map(|w| refusal(w, host)).collect();
    let mut checks = vec![Checks::default(); selected.len()];
    let mut rounds: Vec<Vec<_>> = selected.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (i, w) in selected.iter().enumerate() {
            if refusals[i].is_none() {
                // Only the numbers outlive the round: the fields are freed
                // before the next workload allocates its own.
                let round = run_round(
                    w,
                    &seeded,
                    plan,
                    &mut tracer,
                    &mut checks[i],
                    &mut |_, _| {},
                )?;
                rounds[i].push(round.sample);
            }
        }
    }
    let per_workload = selected.iter().zip(refusals).zip(rounds).zip(checks);
    per_workload
        .map(|(((w, refusal), rounds), mut checks)| {
            if let Some(why) = refusal {
                return Ok(unresolved(w, why));
            }
            let digests: Vec<_> = rounds.iter().map(|r| r.digest).collect();
            digest_check(&digests, &mut checks);
            twin_check(w, &seeded, &mut checks)?;
            Ok(Outcome {
                workload: w.name,
                end_to_end: Some(EndToEnd::from_samples(&rounds)),
                layers: None,
                digest: Some(digests[0].hex()),
                checks,
                unresolved: None,
            })
        })
        .collect()
}

/// The traced pass over `selected`, one workload after the other.
fn traced(
    selected: &[Workload],
    id: RunId,
    host: &Host,
    tracer: &mut Tracer,
) -> Result<Vec<Outcome>, String> {
    let seeded = Seeded::new(id.seed);
    selected
        .iter()
        .map(|w| {
            if let Some(why) = refusal(w, host) {
                return Ok(unresolved(w, why));
            }
            tracer.set_workload(w.name);
            let span = tracer.open("workload");
            let mut checks = Checks::default();
            let done = traced_pass(w, &seeded, host, id, tracer, &mut checks)?;
            if let Some(recorded) = report::recorded_digest(id, w.name) {
                let ours = done.digest.hex();
                checks.check("c.traced_pass_bitwise_identical", ours == recorded, || {
                    format!("traced {ours} vs untraced run {recorded}")
                });
            }
            tracer.close(span);
            Ok(Outcome {
                workload: w.name,
                end_to_end: None,
                layers: Some(done.metrics),
                digest: Some(done.digest.hex()),
                checks,
                unresolved: None,
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    let all = Workload::all(args.id.smoke);
    let selected: Vec<Workload> = match &args.workload {
        None => all,
        Some(name) => {
            let w = all.into_iter().find(|w| w.name == name).ok_or_else(|| {
                let names: Vec<_> = Workload::all(false).iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (known: {})", names.join(", "))
            })?;
            // A single workload that cannot be measured is refused outright:
            // there is no result to print.
            if let Some(why) = refusal(&w, &host) {
                return Err(format!("{name} is unresolved on this host: {why}"));
            }
            vec![w]
        }
    };
    println!(
        "lbm-benchmark: {} pass, seed {}, {} s per workload{}; host: {} cores, LLC {:.0} MiB \
         (as the VM reports it), AVX2+FMA {}, THP {}",
        if args.traced { "traced" } else { "untraced" },
        args.id.seed,
        args.id.seconds,
        if args.id.smoke { ", smoke size" } else { "" },
        host.logical_cores,
        host.llc_bytes as f64 / (1u64 << 20) as f64,
        if host.avx2_fma {
            "detected"
        } else {
            "not detected"
        },
        host.thp_mode,
    );
    let (outcomes, path) = if args.traced {
        let mut tracer = Tracer::new(true);
        let outcomes = traced(&selected, args.id, &host, &mut tracer)?;
        let path = report::write_result(args.id, &host, &outcomes, Some(&tracer))?;
        (outcomes, path)
    } else {
        let outcomes = untraced(&selected, args.id, &host)?;
        let path = report::write_result(args.id, &host, &outcomes, None)?;
        (outcomes, path)
    };
    for (o, w) in outcomes.iter().zip(&selected) {
        o.print(w.why);
    }
    println!("wrote {}", path.display());
    if args.workload.is_some() {
        println!("{}", outcomes[0].contract_line());
    }
    Ok(outcomes.iter().all(|o| o.checks.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b).map(|regressed| !regressed),
            _ => Err("usage: compare A.json[,A2.json…] B.json[,B2.json…]".to_string()),
        },
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lbm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let a = args(&[
            "--workload",
            "w",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(a.traced);
        assert_eq!(a.workload.as_deref(), Some("w"));
        assert_eq!((a.id.seed, a.id.seconds, a.id.smoke), (9, 2.5, false));
        let a = args(&["trace", "--smoke"]).unwrap();
        assert!(a.traced && a.id.smoke && a.workload.is_none());
        assert!(!args(&["run"]).unwrap().traced);
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// The whole benchmark at `--smoke` size: every workload, every check,
    /// both passes, in seconds.
    #[test]
    fn smoke_runs_every_workload_check_and_the_trace_pass() {
        let host = Host::probe();
        let id = RunId {
            seed: 5,
            smoke: true,
            seconds: 1.0,
        };
        let all = Workload::all(true);
        let outcomes = untraced(&all, id, &host).unwrap();
        assert_eq!(outcomes.len(), 4);
        for o in outcomes.iter().filter(|o| o.unresolved.is_none()) {
            assert_eq!(
                o.checks.failed, 0,
                "{}: {:?}",
                o.workload, o.checks.failures
            );
            // (a), (b) per round, (c), (e), and (d) on Taylor–Green.
            assert!(
                o.checks.attempted >= 2 * ROUNDS as u64 + 2,
                "{}",
                o.workload
            );
            let e = o.end_to_end.as_ref().unwrap();
            assert_eq!(e.chunk_samples, ROUNDS * measure::DIGEST_CHUNKS);
            for (name, value, _) in o.metrics() {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {name} = {value}",
                    o.workload
                );
            }
        }
        let mut tracer = Tracer::new(true);
        let traced = traced(&all, id, &host, &mut tracer).unwrap();
        for o in traced.iter().filter(|o| o.unresolved.is_none()) {
            assert_eq!(
                o.checks.failed, 0,
                "{}: {:?}",
                o.workload, o.checks.failures
            );
            let metrics = o.metrics();
            assert_eq!(metrics.len(), layers::PER_LAYER.len());
            for (name, value, _) in metrics {
                assert!(value.is_finite(), "{} {name} = {value}", o.workload);
            }
            let l = o.layers.as_ref().unwrap();
            let shares = l.get("core.kernels.share_of_step")
                + l.get("sim.halo.share_of_step")
                + l.get("comm.wait_fraction");
            assert!(shares > 0.0, "{}", o.workload);
        }
        // Same seed, same trajectory: both passes saw the same bits.
        for (u, t) in outcomes.iter().zip(&traced) {
            assert_eq!(u.digest, t.digest, "{}", u.workload);
        }
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
        for want in [
            "workload",
            "round",
            "setup",
            "inputs",
            "build",
            "first_step",
            "warmup",
            "chunk[0]",
            "probe",
            "checkpoint",
            "resume",
        ] {
            assert!(names.contains(&want), "no `{want}` span");
        }
        assert!(names.contains(&"chunk[1]") && !names.contains(&"chunk[2]"));
    }
}
