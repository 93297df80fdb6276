//! Fault-injection matrix for the supervised ensemble runtime, emitted as
//! `BENCH_faults.json` plus a JSONL event stream.
//!
//! Every cell scripts one disturbance — a worker panic, a checkpoint
//! bit-flip or torn write, a watchdog-visible stall, or NaN poisoning —
//! at an early/mid/late point of a 12-step job, across storage modes
//! (two-grid and AA in-place) and rank counts. The supervisor must land
//! in one of exactly two places:
//!
//! - **recovered**: the job finishes and its final checkpoint generation
//!   is **bitwise identical** to an undisturbed serial run's state (the
//!   final report's mass matches to the bit as well), or
//! - **terminal**: the failure is deterministic (NaN divergence) and the
//!   job ends `Failed(diverged)` without consuming any retry budget.
//!
//! Any other landing — wrong bytes, wrong classification, burned budget —
//! fails the cell and the process exits nonzero.
//!
//! ```sh
//! cargo run --release -p lbm-bench --bin ensemble_faults -- \
//!     [--smoke] [--out BENCH_faults.json] [--events fault_events.jsonl]
//! ```
//!
//! `--smoke` runs the CI-sized subset (one config per fault family);
//! the default runs the full matrix.

use std::process::ExitCode;
use std::time::Duration;

use lbm_bench::Table;
use lbm_core::field::StorageMode;
use lbm_core::index::Dim3;
use lbm_core::lattice::LatticeKind;
use lbm_sim::json::Json;
use lbm_sim::runtime::checkpoint::list_generations;
use lbm_sim::runtime::{
    CorruptMode, EnsembleRunner, FailureKind, FaultPlan, JobEvent, JobOutcome, JobSpec,
};
use lbm_sim::scenario::ScenarioSpec;
use lbm_sim::GeometrySpec;

const STEPS: usize = 12;

struct Args {
    smoke: bool,
    out: String,
    events: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        smoke: false,
        out: "BENCH_faults.json".to_string(),
        events: "fault_events.jsonl".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => a.smoke = true,
            "--out" => a.out = argv.next().expect("--out needs a path"),
            "--events" => a.events = argv.next().expect("--events needs a path"),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: ensemble_faults [--smoke] [--out PATH] [--events PATH]");
                std::process::exit(2);
            }
        }
    }
    a
}

/// One execution environment for a victim job.
#[derive(Clone, Copy)]
struct Config {
    storage: StorageMode,
    ranks: usize,
    /// Run on the sparse tiled path (pipe geometry + forced flow) instead
    /// of the dense Taylor–Green box.
    sparse: bool,
}

impl Config {
    fn label(&self) -> String {
        let s = if self.sparse {
            "sparse_tiles"
        } else {
            match self.storage {
                StorageMode::TwoGrid => "two_grid",
                StorageMode::InPlaceAa => "aa",
            }
        };
        format!("{s}x{}", self.ranks)
    }
}

/// One fault family at one point of the trajectory. Step faults fire at
/// chunk boundaries (progress cadence 2); checkpoint generations land at
/// steps 4, 8 and (final) 12.
#[derive(Clone, Copy)]
enum Fault {
    /// Worker panic at the given chunk boundary.
    Panic(u64),
    /// Bit-rot the newest generation then panic: resume must fall back.
    CorruptNewest,
    /// Damage every generation then panic: resume must restart fresh.
    CorruptAll,
    /// Sleep through the watchdog deadline at the given boundary.
    Stall(u64),
    /// Poison the state with NaN: deterministic, terminal, unretried.
    Nan,
}

impl Fault {
    fn label(&self) -> String {
        match self {
            Fault::Panic(at) => format!("panic@{at}"),
            Fault::CorruptNewest => "corrupt-newest".into(),
            Fault::CorruptAll => "corrupt-all".into(),
            Fault::Stall(at) => format!("stall@{at}"),
            Fault::Nan => "nan".into(),
        }
    }

    fn plan(&self) -> FaultPlan {
        match *self {
            Fault::Panic(at) => FaultPlan::new().panic_at(at),
            // Generation 1 (step 8) rots on disk; the panic at the final
            // boundary (before generation 2 is written) forces the resume.
            Fault::CorruptNewest => FaultPlan::new()
                .corrupt_checkpoint(1, CorruptMode::FlipBit { bit: 99_991 })
                .panic_at(STEPS as u64),
            Fault::CorruptAll => FaultPlan::new()
                .corrupt_checkpoint(0, CorruptMode::Truncate { keep: 23 })
                .corrupt_checkpoint(1, CorruptMode::FlipBit { bit: 54_321 })
                .panic_at(STEPS as u64),
            Fault::Stall(at) => FaultPlan::new().stall_at(at, Duration::from_millis(1500)),
            Fault::Nan => FaultPlan::new().nan_at(8),
        }
    }

    /// Whether the supervisor is expected to recover (vs terminate).
    fn recovers(&self) -> bool {
        !matches!(self, Fault::Nan)
    }
}

fn victim(name: &str, cfg: Config, fault: &Fault) -> JobSpec {
    let global = if cfg.sparse {
        Dim3::new(16, 16, 16)
    } else {
        Dim3::new(16, 8, 8)
    };
    let mut j = JobSpec::new(name, LatticeKind::D3Q19, global, STEPS);
    if cfg.sparse {
        j.scenario = Some(ScenarioSpec::ForcedFlow {
            g: 4e-6,
            pulse_amp: 0.5,
            pulse_period: 8,
        });
        j.geometry = Some(GeometrySpec::Pipe { radius: 5.0 });
    } else {
        j.scenario = Some(ScenarioSpec::TaylorGreen {
            rho0: 1.0,
            u0: 0.02,
        });
    }
    j.storage = cfg.storage;
    j.ranks = cfg.ranks;
    j.progress_every = 2;
    j.checkpoint_every = 4;
    j.max_retries = 2;
    j.backoff_ms = 1;
    j.retention = lbm_sim::runtime::RetentionPolicy::keep(3);
    if matches!(fault, Fault::Stall(_)) {
        j.watchdog_secs = 0.5;
    }
    j
}

struct CellResult {
    config: String,
    fault: String,
    verdict: &'static str,
    detail: String,
    retries: u64,
    ok: bool,
}

/// Run one matrix cell: victim + scripted fault through a single-slot
/// runner, verdict against the undisturbed serial reference.
fn run_cell(cfg: Config, fault: &Fault, events_out: &mut impl std::io::Write) -> CellResult {
    let name = format!("{}-{}", cfg.label(), fault.label()).replace('@', "-");
    let job = victim(&name, cfg, fault);

    // Undisturbed reference: the same spec through the plain Simulation
    // API, final state captured as checkpoint bytes.
    let mut reference = job.to_builder().and_then(|b| b.build()).expect("config");
    let ref_report = reference.run(STEPS).expect("reference run");
    let ref_state = reference.checkpoint().expect("reference state");

    let dir = std::env::temp_dir().join(format!("lbm-faultbench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut runner = EnsembleRunner::with_slots(1).with_checkpoint_dir(&dir);
    let events = runner.events();
    runner
        .submit_with_faults(job.clone(), fault.plan())
        .expect("submit");
    let outcomes = runner.join();
    let evs: Vec<JobEvent> = events
        .try_iter()
        .map(|rec| {
            writeln!(events_out, "{}", rec.to_json_line()).expect("write event line");
            rec.event
        })
        .collect();
    let retries = evs
        .iter()
        .filter(|e| matches!(e, JobEvent::Retried { .. }))
        .count() as u64;
    let final_bytes = list_generations(&dir, &name)
        .into_iter()
        .last()
        .map(|(_, path)| std::fs::read(path).expect("read final generation"));
    std::fs::remove_dir_all(&dir).ok();

    let outcome = &outcomes[0].1;
    let (verdict, detail, ok) = if fault.recovers() {
        match outcome {
            JobOutcome::Finished(report) => {
                let bytes_ok = final_bytes.as_deref() == Some(ref_state.as_slice());
                let mass_ok = report.mass.to_bits() == ref_report.mass.to_bits();
                if bytes_ok && mass_ok && report.steps == STEPS {
                    ("recovered", "bitwise identical".to_string(), true)
                } else {
                    (
                        "MISMATCH",
                        format!(
                            "bytes_ok={bytes_ok} mass_ok={mass_ok} steps={}",
                            report.steps
                        ),
                        false,
                    )
                }
            }
            other => ("FAILED", format!("{other:?}"), false),
        }
    } else {
        match outcome {
            JobOutcome::Failed {
                reason: FailureKind::Diverged,
                ..
            } if retries == 0 => ("terminal", "diverged, no retries burned".to_string(), true),
            JobOutcome::Failed { reason, .. } => (
                "MISCLASSIFIED",
                format!("{reason:?}, retries={retries}"),
                false,
            ),
            other => ("SURVIVED", format!("{other:?}"), false),
        }
    };
    CellResult {
        config: cfg.label(),
        fault: fault.label(),
        verdict,
        detail,
        retries,
        ok,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let full = [
        Config {
            storage: StorageMode::TwoGrid,
            ranks: 1,
            sparse: false,
        },
        Config {
            storage: StorageMode::InPlaceAa,
            ranks: 1,
            sparse: false,
        },
        Config {
            storage: StorageMode::TwoGrid,
            ranks: 2,
            sparse: false,
        },
        Config {
            storage: StorageMode::InPlaceAa,
            ranks: 2,
            sparse: false,
        },
        Config {
            storage: StorageMode::TwoGrid,
            ranks: 2,
            sparse: true,
        },
    ];
    let faults = [
        Fault::Panic(6),
        Fault::Panic(10),
        Fault::Panic(STEPS as u64),
        Fault::CorruptNewest,
        Fault::CorruptAll,
        Fault::Stall(6),
        Fault::Nan,
    ];

    // The smoke subset covers every fault family once plus every config
    // once; the full matrix is the cross product.
    let cells: Vec<(Config, Fault)> = if args.smoke {
        faults
            .iter()
            .enumerate()
            .map(|(i, f)| (full[i % full.len()], *f))
            .collect()
    } else {
        full.iter()
            .flat_map(|c| faults.iter().map(move |f| (*c, *f)))
            .collect()
    };

    println!(
        "== ensemble fault matrix: {} cells ({}) ==\n",
        cells.len(),
        if args.smoke { "smoke" } else { "full" }
    );
    // Injected panics are the harness working as intended; keep their
    // backtraces out of the log. Anything else still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let mut events_out = std::fs::File::create(&args.events).expect("create events file");
    let mut table = Table::new(vec!["config", "fault", "verdict", "retries", "detail"]);
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (cfg, fault) in &cells {
        let r = run_cell(*cfg, fault, &mut events_out);
        all_ok &= r.ok;
        table.row(vec![
            r.config.clone(),
            r.fault.clone(),
            r.verdict.to_string(),
            r.retries.to_string(),
            r.detail.clone(),
        ]);
        rows.push(Json::obj(vec![
            ("config", Json::str(&r.config)),
            ("fault", Json::str(&r.fault)),
            ("verdict", Json::str(r.verdict)),
            ("retries", Json::Int(r.retries as i64)),
            ("ok", Json::Bool(r.ok)),
        ]));
    }
    table.print();

    let doc = Json::obj(vec![
        ("harness", Json::str("ensemble_faults")),
        ("mode", Json::str(if args.smoke { "smoke" } else { "full" })),
        ("cells", Json::Int(cells.len() as i64)),
        ("all_ok", Json::Bool(all_ok)),
        ("results", Json::Arr(rows)),
    ]);
    std::fs::write(&args.out, format!("{doc:#}\n")).expect("write JSON artifact");
    println!("\nwrote {} and {}", args.out, args.events);

    if !all_ok {
        println!("FAIL: at least one fault cell did not recover or classify correctly");
        return ExitCode::FAILURE;
    }
    println!(
        "all {} cells verified (bitwise recovery or typed terminal)",
        cells.len()
    );
    ExitCode::SUCCESS
}
