//! Result files, the printed tables, and the `compare` subcommand.

use std::path::{Path, PathBuf};

use lbm_sim::json::Json;

use crate::host::Host;
use crate::layers::LayerMetrics;
use crate::measure::{Checks, EndToEnd};
use crate::stats;
use crate::trace::Tracer;

/// Every end-to-end metric: (name, unit, better). `BENCHMARK.json` lists
/// exactly these, each with its bound.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("mflups", "MFlup/s", "higher"),
    ("step_ms_p75", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("resident_mib", "MiB", "lower"),
];

/// The benchmark's own directory (`benchmark/` of the checkout it was built
/// in); results go to `out/` below it.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_path(file: &str) -> PathBuf {
    bench_dir().join("out").join(file)
}

fn write_out(file: &str, json: &Json) -> Result<PathBuf, String> {
    let path = out_path(file);
    let dir = path.parent().expect("out_path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One workload's outcome in either pass.
pub struct Outcome {
    pub workload: &'static str,
    /// `None`: refused to measure (see `unresolved`).
    pub end_to_end: Option<EndToEnd>,
    pub layers: Option<LayerMetrics>,
    pub digest: Option<String>,
    pub checks: Checks,
    /// Why the workload was not measured, when it was not.
    pub unresolved: Option<String>,
}

impl Outcome {
    /// (name, value, unit) of the metrics this pass reports.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if let Some(l) = &self.layers {
            return l.iter().collect();
        }
        let Some(e) = &self.end_to_end else {
            return Vec::new();
        };
        let values = [e.mflups, e.step_ms_p75, e.setup_s, e.resident_mib];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.0, v, d.1))
            .collect()
    }

    /// `{name: {"value": …, "unit": …}}` for every metric this pass reports.
    fn metrics_json(&self) -> Json {
        let members = self.metrics().into_iter().map(|(name, value, unit)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        });
        Json::Obj(members.collect())
    }

    fn to_json(&self) -> Json {
        let mut members = vec![(
            "status".to_string(),
            Json::Str(
                if self.unresolved.is_some() {
                    "unresolved"
                } else {
                    "ok"
                }
                .into(),
            ),
        )];
        if let Some(why) = &self.unresolved {
            members.push(("unresolved".into(), Json::Str(why.clone())));
        }
        members.push(("metrics".into(), self.metrics_json()));
        if let Some(e) = &self.end_to_end {
            members.push(("chunk_samples".into(), Json::Int(e.chunk_samples as i64)));
            members.push(("setup_samples".into(), Json::Int(e.setup_samples as i64)));
            let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
            members.push((
                "round_step_ms".into(),
                Json::Arr(e.round_step_ms.iter().map(|r| nums(r)).collect()),
            ));
            members.push(("setups_s".into(), nums(&e.setups_s)));
        }
        if let Some(d) = &self.digest {
            members.push(("digest".into(), Json::Str(d.clone())));
        }
        members.push((
            "checks_attempted".into(),
            Json::Int(self.checks.attempted as i64),
        ));
        members.push(("checks_failed".into(), Json::Int(self.checks.failed as i64)));
        members.push((
            "failures".into(),
            Json::Arr(
                self.checks
                    .failures
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ));
        Json::Obj(members)
    }

    /// Print every metric by name with its unit, and the check accounting.
    pub fn print(&self, why: &str) {
        println!("workload {} — {why}", self.workload);
        if let Some(why) = &self.unresolved {
            println!("  unresolved: {why}");
        }
        let samples = |name: &str| match (&self.end_to_end, name) {
            (Some(e), "mflups") => format!("  (median of {} chunks)", e.chunk_samples),
            (Some(e), "step_ms_p75") => format!("  (p75 of {} chunks)", e.chunk_samples),
            (Some(e), "setup_s") => format!("  (median of {} set-ups)", e.setup_samples),
            _ => String::new(),
        };
        for (name, value, unit) in self.metrics() {
            println!("  {name:<46} {value:>16.6} {unit}{}", samples(name));
        }
        println!(
            "  checks_attempted {}  checks_failed {}",
            self.checks.attempted, self.checks.failed
        );
        for f in &self.checks.failures {
            println!("  FAILED {f}");
        }
    }

    /// The result line of the driver's contract.
    pub fn contract_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.checks.failed == 0)),
            ("attempted".into(), Json::Int(self.checks.attempted as i64)),
            ("failed".into(), Json::Int(self.checks.failed as i64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .to_string()
    }
}

/// The identity of a run: results are comparable only when these agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunId {
    pub seed: u64,
    pub smoke: bool,
    pub seconds: f64,
}

/// Write `out/result.json` (untraced) or `out/trace.json` (traced, with the
/// spans) and return the path.
pub fn write_result(
    id: RunId,
    host: &Host,
    outcomes: &[Outcome],
    tracer: Option<&Tracer>,
) -> Result<PathBuf, String> {
    let mut members = vec![
        ("schema".to_string(), Json::Int(1)),
        (
            "mode".into(),
            Json::Str(if tracer.is_some() { "trace" } else { "run" }.into()),
        ),
        ("seed".into(), Json::Int(id.seed as i64)),
        ("smoke".into(), Json::Bool(id.smoke)),
        ("seconds".into(), Json::Num(id.seconds)),
        ("host".into(), host.to_json()),
        (
            "workloads".into(),
            Json::Obj(
                outcomes
                    .iter()
                    .map(|o| (o.workload.to_string(), o.to_json()))
                    .collect(),
            ),
        ),
    ];
    if let Some(t) = tracer {
        members.push(("spans".into(), t.to_json()));
    }
    write_out(
        if tracer.is_some() {
            "trace.json"
        } else {
            "result.json"
        },
        &Json::Obj(members),
    )
}

/// The digest the last untraced run of this very configuration recorded for
/// `workload`, if `out/result.json` holds one: check (c) extends to the
/// traced pass through it.
pub fn recorded_digest(id: RunId, workload: &str) -> Option<String> {
    let text = std::fs::read_to_string(out_path("result.json")).ok()?;
    let json = Json::parse(&text).ok()?;
    let same = json.get("seed")?.as_u64()? == id.seed && json.get("smoke")?.as_bool()? == id.smoke;
    if !same {
        return None;
    }
    let digest = json.get("workloads")?.get(workload)?.get("digest")?;
    digest.as_str().map(str::to_string)
}

/// The bound of every end-to-end metric, from the `BENCHMARK.json` beside
/// the benchmark's directory.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str)?;
            let bound = m.get("bound").and_then(Json::as_f64)?;
            let higher = m.get("better").and_then(Json::as_str)? == "higher";
            Some((name.to_string(), bound, higher))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed `end_to_end` entry".to_string())
}

/// One side of a comparison: the values of `metric` on `workload` in each of
/// the side's result files.
fn side_values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Verdict of one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// pairing cannot be told from noise.
    Unresolved,
}

/// Judge side B against side A: `worse` is by how much of A's median B's is
/// worse (negative when better).
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let too_wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    let verdict = if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `compare A B`: each side is one result file or a comma-separated set of
/// them; a side's value is the median over its files. Returns whether any
/// pairing regressed.
pub fn compare(a_arg: &str, b_arg: &str) -> Result<bool, String> {
    let load = |arg: &str| -> Result<Vec<Json>, String> {
        arg.split(',')
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(a_arg)?, load(b_arg)?);
    let workloads: Vec<String> = match a[0].get("workloads") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => return Err(format!("{a_arg}: no `workloads` object")),
    };
    println!(
        "{:<22} {:<13} {:>12} {:>12} {:>9}  verdict (bound; A = base, n = {}/{})",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        a.len(),
        b.len()
    );
    let mut regressed = false;
    for w in &workloads {
        for (metric, bound, higher) in bounds()? {
            let (va, vb) = (side_values(&a, w, &metric), side_values(&b, w, &metric));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{w:<22} {metric:<13} {:>12} {:>12} {:>9}  unresolved (not measured)",
                    "-", "-", "-"
                );
                continue;
            }
            let (worse, verdict) = judge(&va, &vb, bound, higher);
            regressed |= verdict == Verdict::Regressed;
            let spreads = [&va, &vb]
                .map(|v| stats::spread(v).map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0)));
            println!(
                "{w:<22} {metric:<13} {:>12.4} {:>12.4} {:>9.4}  {} ({:.1}% {}, bound {:.0}%, spread A {} B {})",
                stats::median(&va),
                stats::median(&vb),
                stats::median(&vb) / stats::median(&va),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                worse.abs() * 100.0,
                if worse > 0.0 { "worse" } else { "better" },
                bound * 100.0,
                spreads[0],
                spreads[1],
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        // Higher is better: 10 % lower is at the bound, not beyond it.
        assert_eq!(judge(&[100.0], &[90.0], 0.10, true).1, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[89.0], 0.10, true).1, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[150.0], 0.10, true).1, Verdict::Ok);
        // Lower is better.
        let (worse, v) = judge(&[2.0], &[2.5], 0.15, false);
        assert!((worse - 0.25).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        // A side whose own runs spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&[80.0, 100.0, 120.0], &[50.0, 50.0, 50.0], 0.10, true).1,
            Verdict::Unresolved
        );
        // An exact count with zero spread and an exact match.
        assert_eq!(
            judge(&[347.25; 3], &[347.25; 3], 0.01, false),
            (0.0, Verdict::Ok)
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_measures() {
        let path = bench_dir().join("..").join("BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |defs: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(crate::layers::PER_LAYER));
        let listed: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::Workload::all(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(bounds().unwrap().len(), END_TO_END.len());
    }
}
