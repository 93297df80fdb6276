//! Machine-readable MFLUPS harness: per-lattice, per-rung throughput and
//! traffic accounting, emitted as `BENCH_kernels.json` so the performance
//! trajectory is regression-checkable from CI.
//!
//! Runs the full extended optimization ladder (`Orig` … `Fused`) through the
//! distributed solver for each requested lattice × scenario × storage mode
//! and records MFLUPS, the per-rung bytes/cell traffic model (`4·Q·8` for
//! the split two-grid pipeline, `2·Q·8` for the fused top rung and for
//! every AA-mode rung), the resident population bytes, the implied achieved
//! bandwidth, and the mass-conservation drift. The summary block carries
//! the headline ratios per (lattice, scenario) — `fused_over_simd` /
//! `fused_over_lobr` from the two-grid ladder, and `aa_over_two_grid`
//! (same-rung MFLUPS ratio at the topmost rung run in both modes) plus
//! `aa_resident_over_two_grid` (the footprint halving) when both storage
//! modes were measured.
//!
//! ```sh
//! cargo run --release -p lbm-bench --bin bench_mflups -- \
//!     [--global NX NY NZ] [--steps S] [--warmup W] [--repeats N] \
//!     [--ranks R] [--threads T] [--lattices D3Q19,D3Q39] \
//!     [--levels SIMD,Fused] [--scenario taylor_green,poiseuille] \
//!     [--storage two_grid,aa] [--out BENCH_kernels.json]
//! ```
//!
//! Defaults: every lattice at a DRAM-resident per-lattice box, the periodic
//! `taylor_green` scenario, two-grid storage, single rank, single thread,
//! best of 2 repeats, output to `BENCH_kernels.json`. `--scenario
//! poiseuille` (walled + forced), `couette`, `cavity` and `knudsen`
//! exercise the boundary-aware kernel variants; wall layers adapt to each
//! lattice's reach. `--storage two_grid,aa` measures both storage modes
//! and emits the `aa_over_two_grid` comparison.
//!
//! `--geometry [F1,F2,..]` switches the harness into sparse tiled-geometry
//! mode: for each lattice × storage mode it measures a dense forced-flow
//! baseline, then a circular-pipe `Geometry` sized to each target fluid
//! fraction (percent; default `5,10,50,100`) on the sparse fluid-tile
//! backend. Rows carry the measured fluid fraction, the sparse resident
//! footprint and the `sparse_resident_over_dense` ratio; the per-lattice
//! summary records the ratio at every fraction plus the headline
//! `sparse_over_dense_per_fluid_cell` (same-storage MFlup/s ratio at the
//! densest fraction — MFlup/s counts *fluid* updates only, so this IS the
//! per-fluid-cell cost ratio). `--storage two_grid,aa` sweeps both modes
//! and records `sparse_aa_resident_over_two_grid` (one tile frame instead
//! of two).
//!
//! `--append` merges the new runs and summary entries into an existing
//! `--out` artifact instead of overwriting it, so the committed
//! `BENCH_kernels.json` can carry the dense ladder *and* the geometry
//! sweep from two invocations.

use std::process::ExitCode;

use lbm_bench::{f, Table};
use lbm_comm::CostModel;
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::StorageMode;
use lbm_core::geometry::TILE_B;
use lbm_core::index::Dim3;
use lbm_core::kernels::{simd, KernelClass, OptLevel};
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_core::Geometry;
use lbm_sim::json::Json;
use lbm_sim::scenario::{
    CouetteFlow, ForcedFlow, KnudsenMicrochannel, LidDrivenCavity, PoiseuilleChannel,
    ScenarioHandle,
};
use lbm_sim::{RunReport, Simulation};

struct Args {
    global: Option<Dim3>,
    steps: usize,
    warmup: usize,
    repeats: usize,
    /// Minimum measured wall time per entry in seconds (0 disables): after
    /// the first timed run, the repeat count is raised until the projected
    /// total measurement span reaches this floor, so short-running entries
    /// aren't decided by a single noisy sample.
    min_secs: f64,
    ranks: usize,
    threads: usize,
    lattices: Vec<LatticeKind>,
    levels: Vec<OptLevel>,
    scenarios: Vec<String>,
    storages: Vec<StorageMode>,
    /// Equilibrium-order override (`None` = each lattice's natural order).
    order: Option<EqOrder>,
    /// Sparse tiled-geometry mode: target fluid fractions in (0, 1].
    geometry: Option<Vec<f64>>,
    /// Whether `--levels` was given explicitly (geometry mode defaults to
    /// the two sparse kernel classes instead of the full dense ladder).
    levels_explicit: bool,
    /// Merge into an existing `--out` artifact instead of overwriting.
    append: bool,
    out: String,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: bench_mflups [--global NX NY NZ] [--steps S] [--warmup W] \
         [--repeats N] [--min-secs SECS] [--ranks R] [--threads T] \
         [--lattices A,B] [--levels L1,L2] [--scenario S1,S2] \
         [--storage two_grid,aa] [--order O2|O3] [--geometry [F1,F2,..]] \
         [--append] [--out PATH]\n\
         scenarios: taylor_green (default), poiseuille, couette, cavity, knudsen\n\
         storage modes: two_grid (default), aa\n\
         --min-secs: raise the repeat count per entry until the measured \
         span reaches this many seconds (0 = fixed --repeats)\n\
         --geometry: sparse tiled-pipe sweep at the given fluid-fraction \
         percents (default 5,10,50,100)\n\
         --append: merge runs/summary into an existing --out artifact"
    );
    std::process::exit(2);
}

/// Resolve a scenario name for one lattice: `None` is the legacy periodic
/// Taylor–Green fast path; walled scenarios get wall layers matching the
/// lattice reach so every lattice runs a valid configuration.
fn scenario_for(name: &str, kind: LatticeKind) -> (&'static str, Option<ScenarioHandle>) {
    let layers = Lattice::new(kind).reach();
    match name {
        "taylor_green" | "tg" => ("taylor_green", None),
        "poiseuille" | "poiseuille_channel" => (
            "poiseuille_channel",
            Some(ScenarioHandle::new(
                PoiseuilleChannel::new(1e-5).with_layers(layers),
            )),
        ),
        "couette" | "couette_flow" => (
            "couette_flow",
            Some(ScenarioHandle::new(
                CouetteFlow::new(0.04).with_layers(layers),
            )),
        ),
        "cavity" | "lid_driven_cavity" => (
            "lid_driven_cavity",
            Some(ScenarioHandle::new(
                LidDrivenCavity::new(100.0).with_layers(layers),
            )),
        ),
        "knudsen" | "knudsen_microchannel" => (
            "knudsen_microchannel",
            Some(ScenarioHandle::new(
                KnudsenMicrochannel::new(0.1).with_layers(layers.max(3)),
            )),
        ),
        other => usage(&format!("unknown scenario {other:?}")),
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        global: None,
        steps: 6,
        warmup: 1,
        repeats: 2,
        min_secs: 0.0,
        ranks: 1,
        threads: 1,
        lattices: LatticeKind::ALL.to_vec(),
        levels: OptLevel::ALL.to_vec(),
        scenarios: vec!["taylor_green".to_string()],
        storages: vec![StorageMode::TwoGrid],
        order: None,
        geometry: None,
        levels_explicit: false,
        append: false,
        out: "BENCH_kernels.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let num = |argv: &[String], i: &mut usize, flag: &str| -> usize {
        *i += 1;
        argv.get(*i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--global" => {
                let nx = num(&argv, &mut i, "--global");
                let ny = num(&argv, &mut i, "--global");
                let nz = num(&argv, &mut i, "--global");
                a.global = Some(Dim3::new(nx, ny, nz));
            }
            "--steps" => a.steps = num(&argv, &mut i, "--steps"),
            "--warmup" => a.warmup = num(&argv, &mut i, "--warmup"),
            "--repeats" => a.repeats = num(&argv, &mut i, "--repeats").max(1),
            "--min-secs" => {
                i += 1;
                a.min_secs = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--min-secs needs a non-negative number of seconds"));
            }
            "--ranks" => a.ranks = num(&argv, &mut i, "--ranks"),
            "--threads" => a.threads = num(&argv, &mut i, "--threads"),
            "--lattices" => {
                i += 1;
                let spec = argv
                    .get(i)
                    .unwrap_or_else(|| usage("--lattices needs a list"));
                a.lattices = spec
                    .split(',')
                    .map(|s| {
                        LatticeKind::parse(s)
                            .unwrap_or_else(|| usage(&format!("unknown lattice {s:?}")))
                    })
                    .collect();
            }
            "--levels" => {
                i += 1;
                let spec = argv
                    .get(i)
                    .unwrap_or_else(|| usage("--levels needs a list"));
                a.levels = spec
                    .split(',')
                    .map(|s| {
                        OptLevel::parse(s)
                            .unwrap_or_else(|| usage(&format!("unknown opt level {s:?}")))
                    })
                    .collect();
                a.levels_explicit = true;
            }
            "--scenario" | "--scenarios" => {
                i += 1;
                let spec = argv
                    .get(i)
                    .unwrap_or_else(|| usage("--scenario needs a list"));
                a.scenarios = spec.split(',').map(|s| s.trim().to_string()).collect();
                // Validate eagerly — a typo must fail here, not mid-run
                // after minutes of benchmarking with no JSON written.
                for s in &a.scenarios {
                    let _ = scenario_for(s, LatticeKind::D3Q19);
                }
            }
            "--storage" | "--storages" => {
                i += 1;
                let spec = argv
                    .get(i)
                    .unwrap_or_else(|| usage("--storage needs a list"));
                a.storages = spec
                    .split(',')
                    .map(|s| {
                        StorageMode::parse(s)
                            .unwrap_or_else(|| usage(&format!("unknown storage mode {s:?}")))
                    })
                    .collect();
            }
            "--geometry" => {
                // Optional comma list of fluid-fraction percents; a bare
                // `--geometry` takes the default sweep.
                let fracs = match argv.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        i += 1;
                        next.split(',')
                            .map(|s| {
                                let pct: f64 = s.trim().parse().unwrap_or_else(|_| {
                                    usage(&format!("bad fluid-fraction percent {s:?}"))
                                });
                                if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
                                    usage(&format!("fluid fraction {pct}% outside (0, 100]"));
                                }
                                pct / 100.0
                            })
                            .collect()
                    }
                    _ => vec![0.05, 0.10, 0.50, 1.0],
                };
                a.geometry = Some(fracs);
            }
            "--order" => {
                i += 1;
                a.order = match argv.get(i).map(String::as_str) {
                    Some("O2") | Some("o2") | Some("2") => Some(EqOrder::Second),
                    Some("O3") | Some("o3") | Some("3") => Some(EqOrder::Third),
                    _ => usage("--order needs O2 or O3"),
                };
            }
            "--append" => a.append = true,
            "--out" => {
                i += 1;
                a.out = argv
                    .get(i)
                    .unwrap_or_else(|| usage("--out needs a path"))
                    .clone();
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    a
}

/// DRAM-resident default box per lattice (double-buffered working set
/// ≈ 35–50 MB): the fused rung's advantage is memory traffic, invisible at
/// cache-resident sizes.
fn default_box(kind: LatticeKind) -> Dim3 {
    match kind {
        LatticeKind::D3Q15 => Dim3::new(64, 48, 48),
        LatticeKind::D3Q19 => Dim3::new(64, 48, 48),
        LatticeKind::D3Q27 => Dim3::new(56, 44, 44),
        LatticeKind::D3Q39 => Dim3::new(48, 40, 40),
    }
}

/// The per-rung traffic model in bytes per cell update. Two-grid: the
/// split two-array pipeline moves `4·Q·8` (stream read+write, collide
/// read+write) and the fused single pass `2·Q·8` (one read, one write per
/// velocity). AA: every rung is a single in-place pass — `2·Q·8` at every
/// level.
fn model_bytes_per_cell(level: OptLevel, q: usize, storage: StorageMode) -> usize {
    match (storage, level.kernel_class()) {
        (StorageMode::InPlaceAa, _) | (StorageMode::TwoGrid, KernelClass::Fused) => 2 * q * 8,
        (StorageMode::TwoGrid, _) => 4 * q * 8,
    }
}

/// Repeat count actually used for one entry: at least `--repeats`, and —
/// when `--min-secs` is set — enough repeats of a run the length of the
/// first timed sample for the total measured span to reach that floor.
/// Calibrating off the first sample keeps the warm-up cost at one run; a
/// degenerate zero-length first sample falls back to the fixed count.
fn calibrated_repeats(args: &Args, first_wall_secs: f64) -> usize {
    if args.min_secs <= 0.0 || first_wall_secs <= 0.0 {
        return args.repeats;
    }
    let needed = (args.min_secs / first_wall_secs).ceil() as usize;
    args.repeats.max(needed)
}

/// Best-of-N over `calibrated_repeats` timed runs (standard practice:
/// minimum wall time, i.e. maximum MFlup/s). Returns the best report and
/// the repeat count actually used so the artifact can record it.
fn best_of_calibrated(args: &Args, sim: &mut Simulation, steps: usize) -> (RunReport, usize) {
    let first = sim.run(steps).expect("run");
    let repeats = calibrated_repeats(args, first.wall_secs);
    let best = std::iter::once(first)
        .chain((1..repeats).map(|_| sim.run(steps).expect("run")))
        .max_by(|a, b| a.mflups.total_cmp(&b.mflups))
        .unwrap();
    (best, repeats)
}

/// Host description for the artifact header: the machine's detected logical
/// core count *and* the parallelism this invocation actually used — without
/// both, a stored artifact can't distinguish "slow machine" from "ran on
/// one of many cores" when two JSON files are compared.
fn host_block(args: &Args) -> Json {
    Json::obj(vec![
        (
            "logical_cores",
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as i64,
            ),
        ),
        ("ranks", Json::Int(args.ranks as i64)),
        ("threads_per_rank", Json::Int(args.threads as i64)),
        (
            "threads_used",
            Json::Int((args.ranks * args.threads) as i64),
        ),
        ("simd_avx2_fma", Json::Bool(simd::simd_available())),
        ("simd_lanes", Json::str(simd::lanes().name())),
    ])
}

/// Write the artifact, honouring `--append`: new runs extend the existing
/// file's run list and new summary entries replace same-key ones, so a
/// ladder invocation and a geometry invocation can share one committed
/// JSON (the host block is taken from the *latest* invocation).
fn write_artifact(args: &Args, runs: Vec<Json>, summaries: Vec<(String, Json)>) {
    let (mut all_runs, mut all_summaries) = if args.append {
        let doc = std::fs::read_to_string(&args.out)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        match doc {
            Some(doc) => {
                let runs = match doc.get("runs") {
                    Some(Json::Arr(r)) => r.clone(),
                    _ => Vec::new(),
                };
                let sums = match doc.get("summary") {
                    Some(Json::Obj(s)) => s.clone(),
                    _ => Vec::new(),
                };
                (runs, sums)
            }
            None => (Vec::new(), Vec::new()),
        }
    } else {
        (Vec::new(), Vec::new())
    };
    all_runs.extend(runs);
    for (key, val) in summaries {
        if let Some(slot) = all_summaries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = val;
        } else {
            all_summaries.push((key, val));
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("lbm-bench/kernels-mflups/v5")),
        ("host", host_block(args)),
        ("runs", Json::Arr(all_runs)),
        ("summary", Json::Obj(all_summaries)),
    ]);
    std::fs::write(&args.out, format!("{doc:#}\n")).expect("write JSON artifact");
    println!("wrote {}", args.out);
}

fn run_entry(
    args: &Args,
    kind: LatticeKind,
    level: OptLevel,
    storage: StorageMode,
    scenario: &Option<ScenarioHandle>,
) -> (RunReport, Json, f64) {
    let global = args.global.unwrap_or_else(|| default_box(kind));
    let mut builder = Simulation::builder(kind, global)
        .ranks(args.ranks)
        .threads(args.threads)
        .warmup(args.warmup)
        .level(level)
        .storage(storage)
        .cost(CostModel::free());
    if let Some(s) = scenario {
        builder = builder.scenario(s.clone());
    }
    if let Some(order) = args.order {
        builder = builder.order(order);
    }
    let mut sim = builder.build().expect("config");
    let eq_order = sim.config().eq_order();
    let (rep, repeats) = best_of_calibrated(args, &mut sim, args.steps);
    let q = Lattice::new(kind).q();
    let bytes = model_bytes_per_cell(level, q, storage);
    let achieved_gbs = rep.mflups * 1e6 * bytes as f64 / 1e9;
    let expected_mass = (global.nx * global.ny * global.nz) as f64;
    let mass_rel_err = ((rep.mass - expected_mass) / expected_mass).abs();
    let entry = Json::obj(vec![
        ("lattice", Json::str(kind.name())),
        ("q", Json::Int(q as i64)),
        ("scenario", Json::str(rep.scenario.clone())),
        ("level", Json::str(level.name())),
        ("storage", Json::str(storage.name())),
        ("eq_order", Json::str(eq_order.label())),
        ("kernel", Json::str(format!("{:?}", level.kernel_class()))),
        ("strategy", Json::str(rep.strategy.clone())),
        ("ranks", Json::Int(rep.ranks as i64)),
        ("threads_per_rank", Json::Int(rep.threads_per_rank as i64)),
        (
            "global",
            Json::Arr(vec![
                Json::Int(global.nx as i64),
                Json::Int(global.ny as i64),
                Json::Int(global.nz as i64),
            ]),
        ),
        ("steps", Json::Int(rep.steps as i64)),
        ("repeats", Json::Int(repeats as i64)),
        ("wall_secs", Json::Num(rep.wall_secs)),
        ("mflups", Json::Num(rep.mflups)),
        ("mflups_with_ghost", Json::Num(rep.mflups_with_ghost)),
        ("bytes_per_cell_model", Json::Int(bytes as i64)),
        (
            "resident_population_bytes",
            Json::Int(rep.resident_population_bytes() as i64),
        ),
        ("achieved_gbs_model", Json::Num(achieved_gbs)),
        ("mass_rel_err", Json::Num(mass_rel_err)),
    ]);
    (rep, entry, mass_rel_err)
}

/// Geometry-mode default box: a pipe long enough to decompose over ranks
/// with a cross-section wide enough that a 5%-fluid lumen still spans many
/// 4³ tiles. Cross-sections shrink with Q to keep the dense baseline's
/// resident set bounded.
fn geometry_default_box(kind: LatticeKind) -> Dim3 {
    match kind {
        LatticeKind::D3Q15 | LatticeKind::D3Q19 => Dim3::new(32, 256, 256),
        LatticeKind::D3Q27 => Dim3::new(32, 224, 224),
        LatticeKind::D3Q39 => Dim3::new(32, 192, 192),
    }
}

/// Pipe radius hitting a target fluid fraction on an `ny`×`nz`
/// cross-section. A target of 100% returns a radius past the corners so
/// every voxel is fluid (a circle inscribed by area alone leaves the
/// corners solid).
fn radius_for(frac: f64, ny: usize, nz: usize) -> f64 {
    if frac >= 0.999 {
        ((ny * ny + nz * nz) as f64).sqrt()
    } else {
        (frac * ny as f64 * nz as f64 / std::f64::consts::PI).sqrt()
    }
}

/// One geometry-mode measurement: forced flow through `geom` (sparse
/// tiles) or the dense periodic box (`None`), best of `repeats`.
fn run_geometry_entry(
    args: &Args,
    kind: LatticeKind,
    global: Dim3,
    level: OptLevel,
    storage: StorageMode,
    geom: Option<&Geometry>,
) -> RunReport {
    let mut builder = Simulation::builder(kind, global)
        .scenario(ForcedFlow::new(1e-5))
        .ranks(args.ranks)
        .threads(args.threads)
        .warmup(args.warmup)
        .level(level)
        .storage(storage)
        .cost(CostModel::free());
    if let Some(g) = geom {
        builder = builder.geometry(g.clone());
    }
    if let Some(order) = args.order {
        builder = builder.order(order);
    }
    let mut sim = builder.build().expect("config");
    best_of_calibrated(args, &mut sim, args.steps).0
}

/// Sparse tiled-geometry sweep: per lattice, a dense forced-flow baseline
/// plus a circular pipe at each target fluid fraction, measured at every
/// requested rung. Emits per-fraction rows and the
/// `sparse_resident_over_dense` summary.
fn geometry_mode(args: &Args, fracs: &[f64]) -> ExitCode {
    // The sparse path has exactly two kernel classes — scalar (every rung
    // below SIMD) and AVX2 (SIMD and above) — so the default sweep runs
    // one representative of each instead of the dense 9-rung ladder.
    let levels: Vec<OptLevel> = if args.levels_explicit {
        args.levels.clone()
    } else {
        vec![OptLevel::LoBr, OptLevel::Simd]
    };
    let top = *levels.last().expect("at least one level");
    // Deterministic storage order (two-grid before AA) so the AA summary
    // can reference the two-grid sweep from the same invocation.
    let storages: Vec<StorageMode> = StorageMode::ALL
        .iter()
        .copied()
        .filter(|s| args.storages.contains(s))
        .collect();
    println!("== MFLUPS harness: sparse tiled-geometry mode ==\n");

    let mut runs = Vec::new();
    let mut summaries = Vec::new();
    let mut low_fraction_ok = true;

    for &kind in &args.lattices {
        let global = args.global.unwrap_or_else(|| geometry_default_box(kind));
        if !global.nx.is_multiple_of(TILE_B)
            || !global.ny.is_multiple_of(TILE_B)
            || !global.nz.is_multiple_of(TILE_B)
        {
            usage(&format!(
                "--global {}×{}×{} is not a multiple of the {TILE_B}-cell tile edge",
                global.nx, global.ny, global.nz
            ));
        }
        let q = Lattice::new(kind).q();
        let global_json = || {
            Json::Arr(vec![
                Json::Int(global.nx as i64),
                Json::Int(global.ny as i64),
                Json::Int(global.nz as i64),
            ])
        };

        // Top-rung sparse resident bytes per target fraction from the
        // two-grid sweep, for the AA summary's footprint-halving ratio.
        let mut two_grid_resident: Vec<(f64, u64)> = Vec::new();

        for &storage in &storages {
            // Dense forced-flow baseline at the top requested rung under
            // the *same* storage mode: the resident-footprint and
            // fluid-throughput yardstick.
            let dense = run_geometry_entry(args, kind, global, top, storage, None);
            let dense_resident = dense.resident_population_bytes();
            println!(
                "{} / geometry / {} (box {}×{}×{}, {} rank(s) × {} thread(s), {} steps, best of {}, \
                 {} lanes):",
                kind.name(),
                storage.name(),
                global.nx,
                global.ny,
                global.nz,
                args.ranks,
                args.threads,
                args.steps,
                args.repeats,
                simd::lanes().name()
            );
            println!(
                "  dense baseline at {}: {} MFlup/s, {} MB resident",
                top.name(),
                f(dense.mflups, 1),
                f(dense_resident as f64 / 1e6, 1)
            );
            runs.push(Json::obj(vec![
                ("lattice", Json::str(kind.name())),
                ("q", Json::Int(q as i64)),
                ("scenario", Json::str(dense.scenario.clone())),
                ("level", Json::str(top.name())),
                ("storage", Json::str(dense.storage.clone())),
                ("kernel", Json::str(format!("{:?}", top.kernel_class()))),
                ("ranks", Json::Int(dense.ranks as i64)),
                ("threads_per_rank", Json::Int(dense.threads_per_rank as i64)),
                ("global", global_json()),
                ("steps", Json::Int(dense.steps as i64)),
                ("wall_secs", Json::Num(dense.wall_secs)),
                ("mflups", Json::Num(dense.mflups)),
                ("fluid_fraction", Json::Num(dense.fluid_fraction)),
                (
                    "resident_population_bytes",
                    Json::Int(dense_resident as i64),
                ),
            ]));

            let mut t = Table::new(vec![
                "fluid %".to_string(),
                "radius".to_string(),
                "rung".to_string(),
                "MFlup/s".to_string(),
                "resident MB".to_string(),
                "vs dense resident".to_string(),
                "vs dense MFlup/s".to_string(),
            ]);
            let mut frac_rows = Vec::new();
            let mut headline: Option<(f64, f64)> = None; // (target, ratio)
            let mut densest: Option<(f64, RunReport)> = None; // (target, top-rung rep)
            for &target in fracs {
                let radius = radius_for(target, global.ny, global.nz);
                let geom = Geometry::pipe(global, radius).expect("pipe geometry");
                let fluid_fraction = geom.fluid_fraction();
                let mut top_rep: Option<RunReport> = None;
                for &level in &levels {
                    let rep = run_geometry_entry(args, kind, global, level, storage, Some(&geom));
                    let resident = rep.resident_population_bytes();
                    let ratio = resident as f64 / dense_resident as f64;
                    t.row(vec![
                        format!("{:.1}", 100.0 * fluid_fraction),
                        format!("{radius:.1}"),
                        level.name().to_string(),
                        f(rep.mflups, 1),
                        f(resident as f64 / 1e6, 1),
                        format!("{ratio:.3}x"),
                        format!("{:.2}x", rep.mflups / dense.mflups),
                    ]);
                    runs.push(Json::obj(vec![
                        ("lattice", Json::str(kind.name())),
                        ("q", Json::Int(q as i64)),
                        ("scenario", Json::str(rep.scenario.clone())),
                        ("level", Json::str(level.name())),
                        ("storage", Json::str(rep.storage.clone())),
                        ("kernel", Json::str(format!("{:?}", level.kernel_class()))),
                        ("ranks", Json::Int(rep.ranks as i64)),
                        ("threads_per_rank", Json::Int(rep.threads_per_rank as i64)),
                        ("global", global_json()),
                        ("geometry", Json::str("pipe")),
                        ("pipe_radius", Json::Num(radius)),
                        ("target_fluid_fraction", Json::Num(target)),
                        ("fluid_fraction", Json::Num(fluid_fraction)),
                        ("steps", Json::Int(rep.steps as i64)),
                        ("wall_secs", Json::Num(rep.wall_secs)),
                        ("mflups", Json::Num(rep.mflups)),
                        ("resident_population_bytes", Json::Int(resident as i64)),
                        (
                            "dense_resident_population_bytes",
                            Json::Int(dense_resident as i64),
                        ),
                        ("sparse_resident_over_dense", Json::Num(ratio)),
                        (
                            "sparse_over_dense_mflups",
                            Json::Num(rep.mflups / dense.mflups),
                        ),
                    ]));
                    if level == top {
                        top_rep = Some(rep);
                    }
                }
                let rep = top_rep.expect("top rung measured");
                let resident = rep.resident_population_bytes();
                let ratio = resident as f64 / dense_resident as f64;
                // The acceptance signal: fluid-cell-cost storage must pay
                // < 0.15 of the dense footprint in vascular territory.
                if target <= 0.10 + 1e-9 && ratio >= 0.15 {
                    low_fraction_ok = false;
                }
                if headline.is_none_or(|(t0, _)| target < t0) {
                    headline = Some((target, ratio));
                }
                if storage == StorageMode::TwoGrid {
                    two_grid_resident.push((target, resident));
                }
                frac_rows.push(Json::obj(vec![
                    ("target_fluid_fraction", Json::Num(target)),
                    ("fluid_fraction", Json::Num(fluid_fraction)),
                    ("pipe_radius", Json::Num(radius)),
                    ("sparse_mflups", Json::Num(rep.mflups)),
                    ("resident_population_bytes", Json::Int(resident as i64)),
                    ("sparse_resident_over_dense", Json::Num(ratio)),
                    (
                        "sparse_over_dense_mflups",
                        Json::Num(rep.mflups / dense.mflups),
                    ),
                ]));
                if densest.as_ref().is_none_or(|(t0, _)| target > *t0) {
                    densest = Some((target, rep));
                }
            }
            t.print();

            // The headline per-fluid-cell ratio, taken at the densest
            // fraction swept: MFlup/s counts fluid updates only, so the
            // same-storage MFLUPS ratio *is* the per-fluid-cell cost
            // ratio, and the densest row is where the tile steps, mostly
            // on all-fluid tiles there, must close the gap on the
            // direct-addressed dense kernel.
            let per_fluid = densest
                .as_ref()
                .filter(|_| dense.mflups > 0.0)
                .map(|(_, rep)| rep.mflups / dense.mflups);
            // AA footprint vs the two-grid sweep at the same (densest)
            // fraction — one tile frame instead of src/dst pairs.
            let aa_resident_over = match (storage, &densest) {
                (StorageMode::InPlaceAa, Some((target, rep))) => two_grid_resident
                    .iter()
                    .find(|(t0, _)| t0 == target)
                    .filter(|(_, tg)| *tg > 0)
                    .map(|(_, tg)| rep.resident_population_bytes() as f64 / *tg as f64),
                _ => None,
            };
            if let Some(r) = per_fluid {
                println!(
                    "  sparse vs dense per fluid cell at {} ({}): {r:.2}x",
                    top.name(),
                    storage.name()
                );
            }
            if let Some(r) = aa_resident_over {
                println!("  sparse AA resident vs sparse two-grid: {r:.2}x");
            }
            println!();
            let key = match storage {
                StorageMode::TwoGrid => format!("{}@geometry", kind.name()),
                StorageMode::InPlaceAa => format!("{}@geometry_aa", kind.name()),
            };
            summaries.push((
                key,
                Json::obj(vec![
                    ("scenario", Json::str("forced_flow")),
                    ("geometry", Json::str("pipe")),
                    ("storage", Json::str(storage.name())),
                    ("dense_level", Json::str(top.name())),
                    ("dense_mflups", Json::Num(dense.mflups)),
                    ("dense_resident_bytes", Json::Int(dense_resident as i64)),
                    ("fractions", Json::Arr(frac_rows)),
                    (
                        "sparse_resident_over_dense",
                        headline.map(|(_, r)| Json::Num(r)).unwrap_or(Json::Null),
                    ),
                    (
                        "sparse_over_dense_per_fluid_cell",
                        per_fluid.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    (
                        "sparse_aa_resident_over_two_grid",
                        aa_resident_over.map(Json::Num).unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
    }

    write_artifact(args, runs, summaries);
    if !low_fraction_ok {
        println!("note: sparse_resident_over_dense >= 0.15 at a <=10% fluid fraction (tiny box?)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(fracs) = args.geometry.clone() {
        return geometry_mode(&args, &fracs);
    }
    println!("== MFLUPS harness: extended ladder, machine-readable ==\n");

    let mut runs = Vec::new();
    let mut summaries = Vec::new();
    let mut fused_meets_target = true;

    for &kind in &args.lattices {
        for scenario_arg in &args.scenarios {
            let (scenario_name, scenario) = scenario_for(scenario_arg, kind);
            let global = args.global.unwrap_or_else(|| default_box(kind));
            // (storage, level) → (mflups, resident bytes).
            let mut measured: Vec<(StorageMode, OptLevel, f64, u64)> = Vec::new();
            for &storage in &args.storages {
                println!(
                    "{} / {} / {} (box {}×{}×{}, {} rank(s) × {} thread(s), {} steps, best of {}, \
                     {} lanes):",
                    kind.name(),
                    scenario_name,
                    storage.name(),
                    global.nx,
                    global.ny,
                    global.nz,
                    args.ranks,
                    args.threads,
                    args.steps,
                    args.repeats,
                    simd::lanes().name()
                );
                // The speedup column baselines against the first level
                // actually run (the whole ladder by default, i.e. Orig) —
                // label it honestly.
                let base_name = args.levels.first().map(|l| l.name()).unwrap_or("-");
                let mut t = Table::new(vec![
                    "rung".to_string(),
                    "kernel".to_string(),
                    "MFlup/s".to_string(),
                    "B/cell".to_string(),
                    "~GB/s".to_string(),
                    format!("vs {base_name}"),
                    "resident MB".to_string(),
                    "mass err".to_string(),
                ]);
                let mut orig: Option<f64> = None;
                for &level in &args.levels {
                    let (rep, entry, mass_err) = run_entry(&args, kind, level, storage, &scenario);
                    let base = *orig.get_or_insert(rep.mflups);
                    let q = Lattice::new(kind).q();
                    let bytes = model_bytes_per_cell(level, q, storage);
                    let resident = rep.resident_population_bytes();
                    t.row(vec![
                        level.name().to_string(),
                        format!("{:?}", level.kernel_class()),
                        f(rep.mflups, 1),
                        format!("{bytes}"),
                        f(rep.mflups * 1e6 * bytes as f64 / 1e9, 1),
                        format!("{:.2}x", rep.mflups / base),
                        f(resident as f64 / 1e6, 1),
                        format!("{mass_err:.1e}"),
                    ]);
                    measured.push((storage, level, rep.mflups, resident));
                    runs.push(entry);
                }
                t.print();
            }

            // Headline ratios from the rungs *actually run* in this
            // (lattice, scenario) sweep — never a ratio borrowed from a
            // different scenario's ladder. Ladder ratios come from the
            // two-grid sweep (the paper's ladder); the storage comparison
            // is same-rung AA vs two-grid at the topmost common rung.
            let find = |st: StorageMode, l: OptLevel| {
                measured
                    .iter()
                    .find(|(s, x, _, _)| *s == st && *x == l)
                    .map(|(_, _, m, b)| (*m, *b))
            };
            let tg = StorageMode::TwoGrid;
            let aa = StorageMode::InPlaceAa;
            let simd_m = find(tg, OptLevel::Simd).map(|(m, _)| m);
            let fused_m = find(tg, OptLevel::Fused).map(|(m, _)| m);
            let lobr_m = find(tg, OptLevel::LoBr).map(|(m, _)| m);
            let ratio = match (simd_m, fused_m) {
                (Some(s), Some(fu)) if s > 0.0 => Some(fu / s),
                _ => None,
            };
            let ratio_lobr = match (lobr_m, fused_m) {
                (Some(s), Some(fu)) if s > 0.0 => Some(fu / s),
                _ => None,
            };
            if let Some(r) = ratio {
                println!("  Fused vs SIMD ({scenario_name}): {r:.2}x");
                // The 1.2x regression signal is calibrated for the periodic
                // ladder; walled scenarios legitimately pay boundary work in
                // the fused pass and must not trip it.
                if r < 1.2 && scenario_name == "taylor_green" {
                    fused_meets_target = false;
                }
            }
            if let Some(r) = ratio_lobr {
                println!("  Fused vs LoBr ({scenario_name}): {r:.2}x");
            }
            // Same-rung AA vs two-grid at the topmost rung run in both.
            let top_common = args
                .levels
                .iter()
                .rev()
                .find(|l| find(tg, **l).is_some() && find(aa, **l).is_some())
                .copied();
            let mut aa_over = None;
            let mut aa_resident_over = None;
            let mut aa_top = None;
            if let Some(level) = top_common {
                let (tg_m, tg_b) = find(tg, level).unwrap();
                let (aa_m, aa_b) = find(aa, level).unwrap();
                if tg_m > 0.0 {
                    aa_over = Some(aa_m / tg_m);
                }
                if tg_b > 0 {
                    aa_resident_over = Some(aa_b as f64 / tg_b as f64);
                }
                aa_top = Some(aa_m);
                println!(
                    "  AA vs two-grid at {} ({scenario_name}): {:.2}x MFlup/s, {:.2}x resident",
                    level.name(),
                    aa_over.unwrap_or(0.0),
                    aa_resident_over.unwrap_or(0.0)
                );
            }
            println!();
            let key = if scenario_name == "taylor_green" {
                kind.name().to_string()
            } else {
                format!("{}@{}", kind.name(), scenario_name)
            };
            summaries.push((
                key,
                Json::obj(vec![
                    ("scenario", Json::str(scenario_name)),
                    ("lobr_mflups", lobr_m.map(Json::Num).unwrap_or(Json::Null)),
                    ("simd_mflups", simd_m.map(Json::Num).unwrap_or(Json::Null)),
                    ("fused_mflups", fused_m.map(Json::Num).unwrap_or(Json::Null)),
                    (
                        "fused_over_simd",
                        ratio.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    (
                        "fused_over_lobr",
                        ratio_lobr.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("aa_mflups", aa_top.map(Json::Num).unwrap_or(Json::Null)),
                    (
                        "aa_over_two_grid",
                        aa_over.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    (
                        "aa_resident_over_two_grid",
                        aa_resident_over.map(Json::Num).unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
    }

    write_artifact(&args, runs, summaries);
    if !fused_meets_target {
        println!("note: Fused < 1.2x SIMD on at least one lattice (cache-resident box?)");
    }
    ExitCode::SUCCESS
}
