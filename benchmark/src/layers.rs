//! The traced pass: per-layer metrics, measured from outside the crates.
//!
//! A traced pass runs one round of the workload with spans on. Between its
//! timed chunks it times direct calls into each public function of the
//! layers on the workload's path, on fields of the workload's per-rank shape
//! and under the workload's own concurrency (two lanes at once for the
//! two-rank workload, so the lanes contend for memory bandwidth as the ranks
//! do). The direct calls are interleaved with the chunks because a shared
//! host has slow phases lasting seconds: measured apart, a layer and the step
//! it is a share of would see different phases. A metric of a layer that the
//! workload's step and set-up never execute is reported as 0: "not on this
//! workload's path".
//!
//! How a step's wall time is attributed (all per step, per rank, medians):
//!
//! ```text
//! step = kernel + halo + wait + self
//! ```
//!
//! `kernel` and `halo` are the direct-call times, `wait` is what the ranks'
//! own `comm` timers report, and `self` is the remainder: what `sim` adds on
//! top — schedule bookkeeping, message buffer copies, the per-`run` barrier
//! and invariants sweep. The four shares sum to 1 by construction.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use lbm_comm::{CostModel, Universe};
use lbm_core::boundary::BoundarySpec;
use lbm_core::collision::Bgk;
use lbm_core::domain::Decomp1d;
use lbm_core::field::{DistField, StorageMode};
use lbm_core::geometry::SparseTiles;
use lbm_core::index::Dim3;
use lbm_core::kernels::sparse::{self, GatherTable, SparseField};
use lbm_core::kernels::{self, KernelCtx, OptLevel, StreamTables};
use lbm_core::{init, Lattice};
use lbm_machine::{attainable, measure, KernelTraffic, MachineSpec};
use lbm_sim::halo::{self, Side};
use lbm_sim::{RunReport, Scenario, SimConfig, Simulation};

use crate::host::Host;
use crate::measure::{run_round, Checks, Digest, Round, RoundPlan, RoundSample};
use crate::report::RunId;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Kind, Seeded, Workload, WARMUP_STEPS};

/// Every per-layer metric: (name, unit, better). The name starts with the
/// layer (`crate.module`). `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("machine.measure.threads", "count", "higher"),
    ("machine.measure.triad_gbs", "GB/s", "higher"),
    ("machine.measure.peak_gflops", "GFlop/s", "higher"),
    ("machine.measure.triad_array_mib", "MiB", "higher"),
    ("machine.measure.llc_mib", "MiB", "higher"),
    ("core.kernels.fused.ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.split_stream.ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.split_collide.ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.aa_even.ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.aa_odd.ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.model_bytes_per_cell", "B/cell", "lower"),
    ("core.kernels.flops_per_cell", "flop/cell", "lower"),
    ("core.kernels.intensity_flop_per_byte", "flop/B", "higher"),
    ("core.kernels.achieved_gbs_computed", "GB/s", "higher"),
    ("core.kernels.fraction_of_bw_bound", "ratio", "higher"),
    ("core.kernels.fraction_of_roofline", "ratio", "higher"),
    ("core.kernels.share_of_step", "ratio", "higher"),
    ("core.boundary.wall_cell_fraction", "ratio", "lower"),
    ("core.boundary.aa_wall_overhead_ratio", "ratio", "lower"),
    ("core.field.alloc_s", "s", "lower"),
    ("core.init.fill_s", "s", "lower"),
    ("core.geometry.build_s", "s", "lower"),
    ("core.geometry.tiles_build_s", "s", "lower"),
    ("core.geometry.tiles", "count", "lower"),
    ("core.geometry.fast_tile_fraction", "ratio", "higher"),
    ("core.geometry.fluid_fraction", "ratio", "higher"),
    (
        "core.kernels.sparse.step_ns_per_fluid_cell",
        "ns/cell",
        "lower",
    ),
    ("core.kernels.sparse.share_of_step", "ratio", "higher"),
    ("core.kernels.sparse.resident_over_dense", "ratio", "lower"),
    ("sim.halo.pack_ns_per_value", "ns/value", "lower"),
    ("sim.halo.unpack_ns_per_value", "ns/value", "lower"),
    ("sim.halo.self_fill_ns_per_value", "ns/value", "lower"),
    ("sim.halo.bytes_per_step", "B/step", "lower"),
    ("sim.halo.messages_per_step", "1/step", "lower"),
    ("sim.halo.share_of_step", "ratio", "lower"),
    ("comm.roundtrip_us", "us", "lower"),
    ("comm.wait_fraction", "ratio", "lower"),
    ("comm.imbalance", "ratio", "lower"),
    ("sim.distributed.self_ns_per_cell", "ns/cell", "lower"),
    ("sim.distributed.ghost_update_fraction", "ratio", "lower"),
    ("sim.distributed.scaling_efficiency_2r", "ratio", "higher"),
    ("sim.sparse.self_ns_per_fluid_cell", "ns/cell", "lower"),
    ("sim.hybrid.speedup_2t", "ratio", "higher"),
    ("sim.simulation.build_s", "s", "lower"),
    ("sim.simulation.first_step_s", "s", "lower"),
    ("sim.simulation.probe_ms", "ms", "lower"),
    ("sim.simulation.resident_population_mib", "MiB", "lower"),
    ("sim.runtime.checkpoint.bytes", "B", "lower"),
    ("sim.runtime.checkpoint.write_s", "s", "lower"),
    ("sim.runtime.checkpoint.write_mbs", "MB/s", "higher"),
    ("sim.runtime.checkpoint.resume_s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("trace.mflups", "MFlup/s", "higher"),
    ("trace.step_ms", "ms", "lower"),
];

/// The per-layer metrics of one workload; unset ones read 0.
#[derive(Debug, Default, Clone)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
}

impl LayerMetrics {
    fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not registered"));
        self.values.insert(def.0, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// (name, value, unit) of every registered metric, in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|d| (d.0, self.get(d.0), d.1))
    }
}

/// What the traced pass hands back besides the metrics.
pub struct Traced {
    pub metrics: LayerMetrics,
    pub digest: Digest,
}

/// Run one timed pass of `timed` on every lane at once and return its wall
/// seconds, from all lanes starting to the last one finishing. Lane 0 runs
/// on the calling thread and records the span.
fn time_lanes<S: Send>(
    tracer: &mut Tracer,
    span: &str,
    lanes: &mut [S],
    timed: impl Fn(&mut S) + Sync,
) -> f64 {
    let barrier = Barrier::new(lanes.len());
    let (first, rest) = lanes.split_first_mut().expect("at least one lane");
    std::thread::scope(|scope| {
        for lane in rest.iter_mut() {
            let (barrier, timed) = (&barrier, &timed);
            scope.spawn(move || {
                barrier.wait();
                timed(lane);
                barrier.wait();
            });
        }
        barrier.wait();
        let (_, secs) = tracer.timed(span, |_| {
            timed(first);
            barrier.wait();
        });
        secs
    })
}

/// Everything the direct calls need to know about the workload's rank-local
/// problem, taken from its validated configuration.
struct Local {
    ctx: KernelCtx,
    tables: StreamTables,
    global: Dim3,
    halo: usize,
    /// Owned box and first global x plane of each rank.
    slabs: Vec<(Dim3, usize)>,
    bounds: BoundarySpec,
    force: [f64; 3],
}

impl Local {
    fn new(cfg: &SimConfig) -> Result<Self, String> {
        let bgk = Bgk::new(cfg.tau).map_err(|e| e.to_string())?;
        let dec = Decomp1d::new(cfg.global, cfg.ranks).map_err(|e| e.to_string())?;
        let scenario = cfg.scenario.as_ref();
        Ok(Self {
            ctx: KernelCtx::new(cfg.lattice, cfg.eq_order(), bgk),
            tables: StreamTables::new(cfg.global.ny, cfg.global.nz),
            global: cfg.global,
            halo: cfg.halo_width(),
            slabs: dec
                .subdomains()
                .iter()
                .map(|s| (s.owned(), s.x_start))
                .collect(),
            bounds: scenario.map_or_else(BoundarySpec::periodic, |s| s.boundaries(cfg.global)),
            force: scenario
                .and_then(|s| s.forcing(0))
                .map_or([0.0; 3], |b| b.g),
        })
    }

    /// Owned cells of one rank.
    fn owned_cells(&self) -> usize {
        self.slabs[0].0.len()
    }

    /// Owned x range of a field of this shape, in allocation coordinates.
    fn owned_x(&self) -> (usize, usize) {
        (self.halo, self.halo + self.slabs[0].0.nx)
    }

    fn alloc(&self, lane: usize) -> Result<DistField, String> {
        DistField::new(self.ctx.lat.q(), self.slabs[lane].0, self.halo).map_err(|e| e.to_string())
    }

    /// The solver's own initial fill of a field of rank `lane`: the seeded
    /// Taylor–Green vortex on two-grid storage, the streamed image of the
    /// resting channel on AA storage.
    fn fill(&self, f: &mut DistField, lane: usize, storage: StorageMode, u0: f64) {
        let x_start = self.slabs[lane].1 as isize;
        let g = self.global;
        match storage {
            StorageMode::TwoGrid => {
                init::taylor_green(&self.ctx, f, 1.0, u0, g.nx, g.ny, x_start, self.halo)
            }
            StorageMode::InPlaceAa => {
                init::from_macroscopic_streamed(&self.ctx, f, g, x_start, |_, _, _| (1.0, [0.0; 3]))
            }
        }
    }
}

/// One lane of the two-grid direct calls: source, destination, and the
/// packed-border buffer of the halo calls.
struct Lane {
    src: DistField,
    dst: DistField,
    buf: Vec<f64>,
}

/// The fields the interleaved direct calls work on (one value per traced
/// pass, so the size difference between the variants costs nothing).
#[allow(clippy::large_enum_variant)]
enum Direct {
    /// Fused (and, on one rank, split) two-grid kernels plus the halo calls.
    TwoGrid(Vec<Lane>),
    /// In-place AA even/odd steps: one field with the workload's walls and
    /// force, one periodic and unforced.
    Aa { walled: DistField, open: DistField },
    /// The sparse gather kernel on the pipe's tiles.
    Sparse {
        tiles: SparseTiles,
        gather: GatherTable,
        src: SparseField,
        dst: SparseField,
    },
}

/// Seconds of the timed direct calls, keyed by the metric they feed.
#[derive(Default)]
struct Samples {
    /// Whether the burst under way is the timed one (see
    /// [`Interleaved::pass`]).
    sampling: bool,
    secs: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn record(&mut self, metric: &'static str, value: f64) {
        self.secs.entry(metric).or_default().push(value);
    }

    /// Run `call` on every lane at once; in the timed burst, as one sample of
    /// `metric` under a `layer.<metric>` span.
    fn lanes<S: Send>(
        &mut self,
        tracer: &mut Tracer,
        metric: &'static str,
        lanes: &mut [S],
        call: impl Fn(&mut S) + Sync,
    ) {
        let was_recording = tracer.recording();
        tracer.set_recording(was_recording && self.sampling);
        let secs = time_lanes(tracer, &format!("layer.{metric}"), lanes, call);
        tracer.set_recording(was_recording);
        if self.sampling {
            self.record(metric, secs);
        }
    }

    /// Median seconds of the samples of `metric` (0 when it was never timed).
    fn median(&self, metric: &str) -> f64 {
        self.secs.get(metric).map_or(0.0, |v| stats::median(v))
    }
}

/// The direct calls interleaved with the traced round's chunks.
struct Interleaved<'a> {
    w: &'a Workload,
    local: &'a Local,
    direct: Direct,
    /// Triad array size in MiB, FMA iterations in millions, probes to take.
    machine: (usize, usize, usize),
    /// Passes made so far.
    passes: usize,
    /// Seconds of untimed bursts per pass (0 at smoke size).
    warm_s: f64,
    samples: Samples,
}

/// Fewest untimed bursts before the timed one of each pass.
const WARM_BURSTS: usize = 3;
/// Seconds of untimed bursts a pass makes when its bursts are short.
const WARM_SECONDS: f64 = 0.25;

impl<'a> Interleaved<'a> {
    fn new(
        w: &'a Workload,
        local: &'a Local,
        inputs: &Inputs,
        host: &Host,
        smoke: bool,
    ) -> Result<Self, String> {
        let err = |e: lbm_core::Error| format!("{}: {e}", w.name);
        let direct = match w.kind {
            Kind::TgQ19Fused | Kind::TgQ39Halo => Direct::TwoGrid(
                (0..local.slabs.len())
                    .map(|lane| {
                        let mut src = local.alloc(lane)?;
                        local.fill(&mut src, lane, w.storage, inputs.seeded.tg_u0);
                        Ok(Lane {
                            dst: src.clone(),
                            src,
                            buf: Vec::new(),
                        })
                    })
                    .collect::<Result<_, String>>()?,
            ),
            Kind::KnudsenQ39Aa => {
                let mut walled = local.alloc(0)?;
                init::uniform(&local.ctx, &mut walled, 1.0, [0.0; 3]);
                Direct::Aa {
                    open: walled.clone(),
                    walled,
                }
            }
            Kind::PipeQ19Sparse => {
                let geom = inputs
                    .geometry
                    .as_ref()
                    .expect("pipe inputs carry a geometry");
                let tiles = SparseTiles::build_serial(geom).map_err(err)?;
                let gather = GatherTable::new(&local.ctx.lat);
                let mut src =
                    SparseField::new(local.ctx.lat.q(), tiles.tile_count()).map_err(err)?;
                let rest = |_, _, _| (1.0, [0.0; 3]);
                sparse::init_equilibrium(&local.ctx, &tiles, &gather, &mut src, local.global, rest);
                Direct::Sparse {
                    dst: src.clone(),
                    src,
                    tiles,
                    gather,
                }
            }
        };
        let machine = if smoke {
            (8, 5, 1)
        } else {
            (host.triad_array_mib(w.ranks), 20, 5)
        };
        Ok(Self {
            w,
            local,
            direct,
            machine,
            passes: 0,
            warm_s: if smoke { 0.0 } else { WARM_SECONDS },
            samples: Samples::default(),
        })
    }

    /// One pass of the direct calls: a machine probe on every second pass
    /// until enough are taken, then untimed bursts of every layer call — at
    /// least [`WARM_BURSTS`], and until `warm_s` seconds are used — and a
    /// timed one. The working sets of the smaller workloads fit the
    /// last-level cache, where the solver finds its planes again step after
    /// step; a call made right after a chunk has evicted them would time a
    /// cold start instead (pack and unpack came out 2.3 times slower that
    /// way, and the sparse step is still 3 % above its level on the fourth
    /// pass).
    fn pass(&mut self, tracer: &mut Tracer) {
        let (array_mib, fma_m, probes) = self.machine;
        let taken = self
            .samples
            .secs
            .get("machine.measure.triad_gbs")
            .map_or(0, Vec::len);
        if self.passes % 2 == 0 && taken < probes {
            let threads = self.w.ranks;
            let (gbs, _) = tracer.timed("layer.machine.measure.triad_gbs", |_| {
                measure::stream_triad_gbs(threads, 3 * array_mib, 3)
            });
            let (gflops, _) = tracer.timed("layer.machine.measure.peak_gflops", |_| {
                measure::peak_gflops(threads, fma_m)
            });
            self.samples.record("machine.measure.triad_gbs", gbs);
            self.samples.record("machine.measure.peak_gflops", gflops);
        }
        let started = Instant::now();
        let mut bursts = 0;
        loop {
            let last = bursts >= WARM_BURSTS && started.elapsed().as_secs_f64() >= self.warm_s;
            self.samples.sampling = last;
            self.burst(tracer);
            bursts += 1;
            if last {
                break;
            }
        }
        self.passes += 1;
    }

    /// One call of every layer function on the workload's path, in the order
    /// the solver makes them within a step.
    fn burst(&mut self, tracer: &mut Tracer) {
        let Self {
            w,
            local,
            direct,
            samples,
            passes,
            ..
        } = self;
        let (lo, hi) = local.owned_x();
        let (ctx, tables, h) = (&local.ctx, &local.tables, local.halo);
        match direct {
            Direct::TwoGrid(lanes) => {
                samples.lanes(tracer, "core.kernels.fused.ns_per_cell", lanes, |l| {
                    kernels::stream_collide(
                        OptLevel::Fused,
                        ctx,
                        tables,
                        &l.src,
                        &mut l.dst,
                        lo,
                        hi,
                    )
                });
                if w.ranks == 1 {
                    // The stream/collide decomposition of the same update:
                    // the split pair every workload bypasses.
                    samples.lanes(
                        tracer,
                        "core.kernels.split_stream.ns_per_cell",
                        lanes,
                        |l| {
                            kernels::stream(OptLevel::Simd, ctx, tables, &l.src, &mut l.dst, lo, hi)
                        },
                    );
                    samples.lanes(
                        tracer,
                        "core.kernels.split_collide.ns_per_cell",
                        lanes,
                        |l| kernels::collide(OptLevel::Simd, ctx, &mut l.dst, lo, hi),
                    );
                }
                for l in lanes.iter_mut() {
                    std::mem::swap(&mut l.src, &mut l.dst);
                }
                if w.ranks == 1 {
                    samples.lanes(tracer, "sim.halo.self_fill_ns_per_value", lanes, |l| {
                        halo::fill_periodic_self(&mut l.src, h)
                    });
                } else {
                    let side = if *passes % 2 == 0 {
                        Side::Left
                    } else {
                        Side::Right
                    };
                    samples.lanes(tracer, "sim.halo.pack_ns_per_value", lanes, |l| {
                        halo::pack_border(&l.src, side, h, &mut l.buf)
                    });
                    samples.lanes(tracer, "sim.halo.unpack_ns_per_value", lanes, |l| {
                        halo::unpack_halo(&mut l.src, side, h, &l.buf)
                    });
                    // Keep the lane's halos a valid continuation (untimed).
                    for l in lanes.iter_mut() {
                        halo::fill_periodic_self(&mut l.src, h);
                    }
                }
            }
            Direct::Aa { walled, open } => {
                let periodic = BoundarySpec::periodic();
                for (field, bounds, g, [even, odd]) in [
                    (walled, &local.bounds, local.force, AA_WALLED),
                    (open, &periodic, [0.0; 3], AA_OPEN),
                ] {
                    samples.lanes(tracer, even, std::slice::from_mut(field), |f| {
                        kernels::aa_even_scenario(w.level, ctx, f, lo, hi, g, bounds)
                    });
                    samples.lanes(tracer, odd, std::slice::from_mut(field), |f| {
                        kernels::aa_odd_scenario_periodic(
                            w.level, ctx, tables, f, lo, hi, g, bounds,
                        )
                    });
                }
            }
            Direct::Sparse {
                tiles,
                gather,
                src,
                dst,
            } => {
                let use_simd = w.level >= OptLevel::Simd;
                let (tiles, gather) = (&*tiles, &*gather);
                samples.lanes(
                    tracer,
                    "core.kernels.sparse.step_ns_per_fluid_cell",
                    &mut [(&*src, &mut *dst)],
                    |(src, dst)| sparse::step(ctx, tiles, gather, src, dst, local.force, use_simd),
                );
                std::mem::swap(src, dst);
            }
        }
    }
}

/// Sample keys of the AA even and odd steps with the workload's walls and
/// force (they are per-layer metrics) …
const AA_WALLED: [&str; 2] = [
    "core.kernels.aa_even.ns_per_cell",
    "core.kernels.aa_odd.ns_per_cell",
];
/// … and of the same steps periodic and unforced, the base of
/// `core.boundary.aa_wall_overhead_ratio`.
const AA_OPEN: [&str; 2] = [
    "core.boundary.aa_even_periodic",
    "core.boundary.aa_odd_periodic",
];

/// Median over ranks of the share of wall time spent in `comm`.
fn wait_fraction(report: &RunReport) -> f64 {
    let shares: Vec<f64> = report
        .per_rank
        .iter()
        .map(|r| r.comm_secs() / r.wall_secs)
        .collect();
    stats::median(&shares)
}

/// Slowest rank's compute time over the median rank's.
fn imbalance(report: &RunReport) -> f64 {
    let compute: Vec<f64> = report.per_rank.iter().map(|r| r.compute_secs).collect();
    compute.iter().copied().fold(0.0, f64::max) / stats::median(&compute)
}

/// Median seconds per step of `chunks` timed chunks of the workload on
/// another rank × thread layout.
fn side_run(
    w: &Workload,
    inputs: &Inputs,
    (ranks, threads): (usize, usize),
    chunks: usize,
    tracer: &mut Tracer,
    span: &str,
) -> Result<f64, String> {
    let err = |e: lbm_core::Error| format!("{} {ranks}r{threads}t: {e}", w.name);
    let id = tracer.open(span);
    let mut sim = w.build_with(inputs, ranks, threads)?;
    sim.run_local(1 + WARMUP_STEPS).map_err(err)?;
    let mut step_s = Vec::new();
    for _ in 0..chunks {
        let t0 = Instant::now();
        sim.run(w.chunk_steps).map_err(err)?;
        step_s.push(t0.elapsed().as_secs_f64() / w.chunk_steps as f64);
    }
    tracer.close(id);
    Ok(stats::median(&step_s))
}

/// The traced pass of one workload.
pub fn traced_pass(
    w: &Workload,
    seeded: &Seeded,
    host: &Host,
    id: RunId,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Traced, String> {
    let err = |e: lbm_core::Error| format!("{}: {e}", w.name);
    let mut m = LayerMetrics::default();
    let mib = (1u64 << 20) as f64;

    // `build()` is lazy, so this costs no allocation: it only resolves and
    // validates the configuration the direct calls mirror.
    let inputs = w.inputs(w.global, seeded);
    let local = Local::new(w.build(&inputs)?.config())?;
    let mut direct = Interleaved::new(w, &local, &inputs, host, id.smoke)?;

    // One round with spans on. Chunks come in pairs: a pass of the direct
    // calls runs before each pair, and every second pair is left unrecorded,
    // so recorded and unrecorded chunks follow a pass equally often.
    let round_plan = RoundPlan {
        budget_s: if id.smoke { 0.0 } else { 0.4 * id.seconds },
        min_chunks: 4,
        alternate_tracing: true,
    };
    let Round {
        sample,
        build_s,
        first_step_s,
        probe_s,
        chunk_traced,
        report,
        mut sim,
    } = run_round(
        w,
        seeded,
        round_plan,
        tracer,
        checks,
        &mut |chunk, tracer| {
            if chunk % 2 == 0 {
                direct.pass(tracer);
            }
        },
    )?;
    let RoundSample {
        step_s,
        digest,
        fluid_cells,
        resident_bytes,
        ..
    } = sample;
    let step = stats::median(&step_s);
    let mflups = fluid_cells as f64 / step / 1e6;
    m.set("trace.mflups", mflups);
    m.set("trace.step_ms", step * 1e3);
    // Every aligned block of four chunks holds a recorded and an unrecorded
    // pair; the ratio is taken per block, so a slow phase of the host, which
    // outlasts a block, cancels.
    let block_ratios: Vec<f64> = step_s
        .chunks_exact(4)
        .zip(chunk_traced.chunks_exact(4))
        .map(|(secs, traced)| {
            let sum = |on: bool| -> f64 {
                let of_kind = secs.iter().zip(traced).filter(|(_, &t)| t == on);
                of_kind.map(|(s, _)| s).sum()
            };
            sum(false) / sum(true)
        })
        .collect();
    m.set("trace.overhead", stats::median(&block_ratios));
    m.set("sim.simulation.build_s", build_s);
    m.set("sim.simulation.first_step_s", first_step_s);
    m.set("sim.simulation.probe_ms", probe_s * 1e3);
    m.set(
        "sim.simulation.resident_population_mib",
        resident_bytes as f64 / mib,
    );

    let (bytes, messages): (u64, u64) = report
        .per_rank
        .iter()
        .fold((0, 0), |(b, n), r| (b + r.bytes, n + r.messages));
    m.set(
        "sim.halo.bytes_per_step",
        bytes as f64 / report.steps as f64,
    );
    m.set(
        "sim.halo.messages_per_step",
        messages as f64 / report.steps as f64,
    );
    m.set("comm.wait_fraction", wait_fraction(&report));
    m.set("comm.imbalance", imbalance(&report));
    m.set(
        "sim.distributed.ghost_update_fraction",
        report.ghost_fraction(),
    );

    // Checkpoint codec, and check (f): a resumed copy continues bitwise.
    let (bytes, write_s) = tracer.timed("checkpoint", |_| sim.checkpoint());
    let bytes = bytes.map_err(err)?;
    let (resumed, resume_s) = tracer.timed("resume", |_| Simulation::resume_bytes(&bytes));
    let mut resumed = resumed.map_err(err)?;
    m.set("sim.runtime.checkpoint.bytes", bytes.len() as f64);
    m.set("sim.runtime.checkpoint.write_s", write_s);
    m.set(
        "sim.runtime.checkpoint.write_mbs",
        bytes.len() as f64 / 1e6 / write_s,
    );
    m.set("sim.runtime.checkpoint.resume_s", resume_s);
    drop(bytes);
    sim.run_local(4).map_err(err)?;
    resumed.run_local(4).map_err(err)?;
    let straight = Digest::of(&sim.probe().map_err(err)?);
    let restarted = Digest::of(&resumed.probe().map_err(err)?);
    checks.check("f.resume_is_bitwise", straight == restarted, || {
        format!("{} vs resumed {}", straight.hex(), restarted.hex())
    });
    drop((sim, resumed));

    // The roofline denominators: the upper quartile of the probes, because a
    // ceiling is what the machine does when no neighbour is in a slow phase.
    let threads = w.ranks;
    let triad_gbs = stats::p75(&direct.samples.secs["machine.measure.triad_gbs"]);
    let peak_gflops = stats::p75(&direct.samples.secs["machine.measure.peak_gflops"]);
    m.set("machine.measure.threads", threads as f64);
    m.set("machine.measure.triad_gbs", triad_gbs);
    m.set("machine.measure.peak_gflops", peak_gflops);
    m.set("machine.measure.triad_array_mib", direct.machine.0 as f64);
    m.set("machine.measure.llc_mib", host.llc_bytes as f64 / mib);

    // Model traffic of the workload's kernel (computed, not measured), and
    // the measured rate placed against it.
    let lat = Lattice::new(w.lattice);
    let (q, flops) = (lat.q(), lat.flops_per_cell());
    let traffic = match w.kind {
        Kind::PipeQ19Sparse => KernelTraffic::lbm_sparse(q, flops, w.storage),
        _ => KernelTraffic::lbm(q, flops, w.storage),
    };
    let spec = MachineSpec::host(peak_gflops, triad_gbs, threads);
    let achieved_gbs = traffic.bytes_per_cell * mflups * 1e6 / 1e9;
    m.set("core.kernels.model_bytes_per_cell", traffic.bytes_per_cell);
    m.set("core.kernels.flops_per_cell", traffic.flops_per_cell);
    m.set("core.kernels.intensity_flop_per_byte", traffic.intensity());
    m.set("core.kernels.achieved_gbs_computed", achieved_gbs);
    m.set(
        "core.kernels.fraction_of_bw_bound",
        achieved_gbs / triad_gbs,
    );
    m.set(
        "core.kernels.fraction_of_roofline",
        mflups / attainable(&spec, &traffic).mflups(),
    );

    // The interleaved direct calls: `kernel_s` and `halo_s` are seconds per
    // step and rank.
    let cells = local.owned_cells();
    let per_cell = |metric: &str, cells: usize| direct.samples.median(metric) / cells as f64 * 1e9;
    let (kernel_s, halo_s) = match &direct.direct {
        Direct::TwoGrid(lanes) => {
            for metric in [
                "core.kernels.fused.ns_per_cell",
                "core.kernels.split_stream.ns_per_cell",
                "core.kernels.split_collide.ns_per_cell",
            ] {
                m.set(metric, per_cell(metric, cells));
            }
            let values = halo::packed_len(&lanes[0].src, local.halo);
            // One rank refills both halos from its own borders each step;
            // each of two ranks packs both borders and unpacks both halos.
            let halo_s = if w.ranks == 1 {
                let metric = "sim.halo.self_fill_ns_per_value";
                m.set(metric, per_cell(metric, 2 * values));
                direct.samples.median(metric)
            } else {
                let (pack, unpack) = ("sim.halo.pack_ns_per_value", "sim.halo.unpack_ns_per_value");
                m.set(pack, per_cell(pack, values));
                m.set(unpack, per_cell(unpack, values));
                let trips = if id.smoke { 3 } else { 41 };
                m.set("comm.roundtrip_us", roundtrip_us(values, trips, tracer)?);
                2.0 * (direct.samples.median(pack) + direct.samples.median(unpack))
            };
            (
                direct.samples.median("core.kernels.fused.ns_per_cell"),
                halo_s,
            )
        }
        Direct::Aa { .. } => {
            let pair =
                |[even, odd]: [&str; 2]| direct.samples.median(even) + direct.samples.median(odd);
            for metric in AA_WALLED {
                m.set(metric, per_cell(metric, cells));
            }
            let (walled, open) = (pair(AA_WALLED), pair(AA_OPEN));
            m.set("core.boundary.aa_wall_overhead_ratio", walled / open);
            let ny = local.global.ny;
            m.set(
                "core.boundary.wall_cell_fraction",
                1.0 - local.bounds.fluid_y(ny).len() as f64 / ny as f64,
            );
            (walled / 2.0, 0.0)
        }
        Direct::Sparse {
            tiles, src, dst, ..
        } => {
            let metric = "core.kernels.sparse.step_ns_per_fluid_cell";
            m.set(metric, per_cell(metric, tiles.owned_fluid_cells as usize));
            m.set("core.geometry.tiles", tiles.tile_count() as f64);
            m.set(
                "core.geometry.fast_tile_fraction",
                tiles.fast_owned.len() as f64 / tiles.owned_tiles as f64,
            );
            let dense_bytes = (2 * q * 8 * local.global.len()) as f64;
            m.set(
                "core.kernels.sparse.resident_over_dense",
                (src.resident_bytes() + dst.resident_bytes()) as f64 / dense_bytes,
            );
            (direct.samples.median(metric), 0.0)
        }
    };

    // Attribution of the traced step (see the module docs).
    let wait_s = wait_fraction(&report) * step;
    let self_s = step - kernel_s - halo_s - wait_s;
    m.set("core.kernels.share_of_step", kernel_s / step);
    m.set("sim.halo.share_of_step", halo_s / step);
    if w.kind == Kind::PipeQ19Sparse {
        m.set("core.kernels.sparse.share_of_step", kernel_s / step);
        m.set(
            "sim.sparse.self_ns_per_fluid_cell",
            self_s / fluid_cells as f64 * 1e9,
        );
    } else {
        m.set(
            "sim.distributed.self_ns_per_cell",
            self_s / cells as f64 * 1e9,
        );
    }
    drop(direct);

    // Set-up layers: what the first step's allocation and initial fill cost
    // (dense workloads), what voxelising and tiling the geometry cost (pipe).
    let reps = if id.smoke { 1 } else { 3 };
    let mut setup: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        if w.kind == Kind::PipeQ19Sparse {
            let (inp, secs) = tracer.timed("layer.core.geometry.build_s", |_| {
                w.inputs(inputs.global, seeded)
            });
            setup.entry("core.geometry.build_s").or_default().push(secs);
            let geom = inp.geometry.expect("pipe inputs carry a geometry");
            let (tiles, secs) = tracer.timed("layer.core.geometry.tiles_build_s", |_| {
                SparseTiles::build_serial(&geom)
            });
            tiles.map_err(err)?;
            setup
                .entry("core.geometry.tiles_build_s")
                .or_default()
                .push(secs);
            m.set("core.geometry.fluid_fraction", geom.fluid_fraction());
        } else {
            let (f, secs) = tracer.timed("layer.core.field.alloc_s", |_| local.alloc(0));
            setup.entry("core.field.alloc_s").or_default().push(secs);
            let mut f = f?;
            let (_, secs) = tracer.timed("layer.core.init.fill_s", |_| {
                local.fill(&mut f, 0, w.storage, seeded.tg_u0)
            });
            setup.entry("core.init.fill_s").or_default().push(secs);
        }
    }
    for (metric, secs) in &setup {
        m.set(metric, stats::median(secs));
    }

    // Side runs on other layouts. Timing two threads on one core would
    // measure the scheduler, so without a second core these stay 0.
    if host.logical_cores >= 2 {
        let chunks = if id.smoke { 2 } else { 4 };
        match w.kind {
            Kind::TgQ39Halo => {
                let span = "layer.sim.distributed.scaling_efficiency_2r";
                let solo = side_run(w, &inputs, (1, 1), chunks, tracer, span)?;
                // mflups(2 ranks) ÷ (2 × mflups(1 rank)) of the same box.
                m.set("sim.distributed.scaling_efficiency_2r", solo / (2.0 * step));
            }
            Kind::TgQ19Fused | Kind::KnudsenQ39Aa => {
                let span = "layer.sim.hybrid.speedup_2t";
                let two = side_run(w, &inputs, (1, 2), chunks, tracer, span)?;
                m.set("sim.hybrid.speedup_2t", step / two);
            }
            Kind::PipeQ19Sparse => {}
        }
    }

    Ok(Traced { metrics: m, digest })
}

/// Median round trip, in microseconds, of one halo-sized message between two
/// `Universe` endpoints: `isend` there, `irecv` + `wait` back. The payload
/// vector is handed over, not copied, so this is the fabric's latency.
fn roundtrip_us(values: usize, trips: usize, tracer: &mut Tracer) -> Result<f64, String> {
    let mut ends = Universe::endpoints(2, CostModel::free());
    let mut echo = ends.pop().expect("two endpoints");
    let mut ping = ends.pop().expect("two endpoints");
    let err = |e: lbm_comm::CommError| format!("comm roundtrip: {e}");
    std::thread::scope(|scope| {
        let echoing = scope.spawn(move || -> Result<(), lbm_comm::CommError> {
            for tag in 0..trips as u64 {
                let data = echo.recv(0, tag)?;
                let _ = echo.isend(0, tag, data)?;
            }
            Ok(())
        });
        let mut payload = vec![1.0f64; values];
        let mut secs = Vec::with_capacity(trips);
        for tag in 0..trips as u64 {
            let (back, s) = tracer.timed("layer.comm.roundtrip_us", |_| {
                let _ = ping.isend(1, tag, std::mem::take(&mut payload))?;
                let req = ping.irecv(1, tag)?;
                ping.wait(req)
            });
            payload = back.map_err(err)?;
            secs.push(s);
        }
        echoing.join().expect("echo thread panicked").map_err(err)?;
        Ok(stats::median(&secs) * 1e6)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_fits_the_contract() {
        assert!(PER_LAYER.len() <= 128);
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{name}: {unit}");
            assert!(["higher", "lower"].contains(better), "{name}");
            assert!(
                PER_LAYER[..i].iter().all(|d| d.0 != *name),
                "duplicate {name}"
            );
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_are_refused() {
        let mut m = LayerMetrics::default();
        m.set("comm.roundtrip_us", 3.5);
        assert_eq!(m.get("comm.roundtrip_us"), 3.5);
        assert_eq!(m.get("core.geometry.tiles"), 0.0);
        assert_eq!(m.iter().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || m.set("no.such.metric", 1.0)).is_err());
    }

    #[test]
    fn lanes_run_together_under_one_span() {
        let mut tr = Tracer::new(true);
        let mut lanes = vec![0usize, 0];
        for _ in 0..4 {
            assert!(time_lanes(&mut tr, "layer.x", &mut lanes, |n| *n += 1) >= 0.0);
        }
        assert_eq!(lanes, vec![4, 4]);
        assert_eq!(tr.spans().len(), 4);
    }
}
