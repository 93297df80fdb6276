//! The end-to-end measurement loop and the correctness checks.
//!
//! One *round* of a workload is a closed loop in one process:
//! generate inputs → `build()` → first `step()` (that interval is one
//! `setup_s` sample) → untimed warm-up steps → timed chunks, each one
//! `Simulation::run(chunk_steps)` call, until the round's share of
//! `--seconds` is used. A run makes several rounds and pools their chunk
//! samples, so a slow phase of a shared host spreads over the pool and the
//! set-up time is a median of several set-ups.

use std::time::Instant;

use lbm_sim::{Probe, RunReport, Simulation};

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Kind, Seeded, Workload, TWIN_STEPS, WARMUP_STEPS};

/// Timed chunks every round runs before the probe whose bit pattern check
/// (c) compares, so that the probe sits at the same step count in every
/// round whatever the time budget.
pub const DIGEST_CHUNKS: usize = 2;

/// Pass/fail accounting of the correctness checks of one workload.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// The bit pattern of a probe: mass, momentum and peak speed. Equal digests
/// mean the trajectories agree bitwise in everything the probe observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub [u64; 5]);

impl Digest {
    pub fn of(p: &Probe) -> Self {
        Digest([
            p.mass.to_bits(),
            p.momentum[0].to_bits(),
            p.momentum[1].to_bits(),
            p.momentum[2].to_bits(),
            p.max_speed.to_bits(),
        ])
    }

    pub fn hex(&self) -> String {
        self.0
            .iter()
            .map(|w| format!("{w:016x}"))
            .collect::<Vec<_>>()
            .join("-")
    }
}

/// The numbers of one round that the end-to-end metrics are made of.
#[derive(Debug, Clone)]
pub struct RoundSample {
    pub setup_s: f64,
    /// Wall seconds *per step* of each timed chunk, in run order.
    pub step_s: Vec<f64>,
    pub digest: Digest,
    pub fluid_cells: u64,
    pub resident_bytes: u64,
}

/// What one round measured, and the live simulation for the traced pass to
/// go on with.
pub struct Round {
    pub sample: RoundSample,
    pub build_s: f64,
    pub first_step_s: f64,
    pub probe_s: f64,
    /// Whether the chunk at the same index was recorded as a span.
    pub chunk_traced: Vec<bool>,
    /// The `RunReport`s of all timed chunks, accumulated.
    pub report: RunReport,
    pub sim: Simulation,
}

/// How long and how a round runs.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Timed-chunk budget of this round in seconds (0 at `--smoke` size: the
    /// round then runs exactly `min_chunks` chunks).
    pub budget_s: f64,
    /// Fewest timed chunks, at least [`DIGEST_CHUNKS`].
    pub min_chunks: usize,
    /// Leave every second *pair* of chunks unrecorded, so the traced pass can
    /// compare recorded and unrecorded chunks of one trajectory.
    pub alternate_tracing: bool,
}

/// Run one round of `w` and its per-round checks (a) and (b). `before_chunk`
/// runs, untimed, ahead of every timed chunk (the traced pass interleaves its
/// direct layer calls there; the untraced pass does nothing).
pub fn run_round(
    w: &Workload,
    seeded: &Seeded,
    plan: RoundPlan,
    tracer: &mut Tracer,
    checks: &mut Checks,
    before_chunk: &mut dyn FnMut(usize, &mut Tracer),
) -> Result<Round, String> {
    let err = |e: lbm_core::Error| format!("{}: {e}", w.name);
    let round_span = tracer.open("round");

    let setup_span = tracer.open("setup");
    let t_setup = Instant::now();
    let (inputs, _) = tracer.timed("inputs", |_| w.inputs(w.global, seeded));
    let (sim, build_s) = tracer.timed("build", |_| w.build(&inputs));
    let mut sim = sim?;
    let (first, first_step_s) = tracer.timed("first_step", |_| sim.step());
    first.map_err(err)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    tracer.close(setup_span);

    let (warm, _) = tracer.timed("warmup", |_| sim.run_local(WARMUP_STEPS));
    warm.map_err(err)?;
    let before = sim.probe().map_err(err)?;

    let fluid_cells = w.fluid_cells(&inputs);
    let mut step_s = Vec::new();
    let mut chunk_traced = Vec::new();
    let mut report: Option<RunReport> = None;
    let mut digest_probe = None;
    let mut probe_s = 0.0;
    let mut spent = 0.0;
    let was_recording = tracer.recording();
    loop {
        let i = step_s.len();
        before_chunk(i, tracer);
        let traced = was_recording && (!plan.alternate_tracing || (i / 2) % 2 == 0);
        tracer.set_recording(traced);
        let (rep, wall) = tracer.timed(&format!("chunk[{i}]"), |_| sim.run(w.chunk_steps));
        tracer.set_recording(was_recording);
        let rep = rep.map_err(err)?;
        match &mut report {
            Some(total) => total.accumulate(&rep),
            None => report = Some(rep),
        }
        step_s.push(wall / w.chunk_steps as f64);
        chunk_traced.push(traced);
        spent += wall;
        if step_s.len() == DIGEST_CHUNKS {
            let (p, secs) = tracer.timed("probe", |_| sim.probe());
            digest_probe = Some(p.map_err(err)?);
            probe_s = secs;
        }
        if step_s.len() >= plan.min_chunks.max(DIGEST_CHUNKS) && spent >= plan.budget_s {
            break;
        }
    }
    let at_digest = digest_probe.expect("the loop runs at least DIGEST_CHUNKS chunks");
    let after = sim.probe().map_err(err)?;

    // (a) mass is conserved across the timed chunks.
    checks.check(
        "a.mass_conserved",
        (after.mass - before.mass).abs() <= 1e-9 * before.mass.abs(),
        || format!("{} → {}", before.mass, after.mass),
    );
    // (b) nothing diverged.
    let finite = sim.all_finite().map_err(err)?;
    checks.check("b.all_finite", finite, || "NaN/inf in the field".into());
    let report = report.expect("the loop runs at least one chunk");
    tracer.close(round_span);
    Ok(Round {
        sample: RoundSample {
            setup_s,
            step_s,
            digest: Digest::of(&at_digest),
            fluid_cells,
            resident_bytes: report.resident_population_bytes(),
        },
        build_s,
        first_step_s,
        probe_s,
        chunk_traced,
        report,
        sim,
    })
}

/// `|a − b|` within `rel` of their size, with a floor for values that are
/// zero up to rounding (a net momentum that cancels).
fn close(a: f64, b: f64, rel: f64, floor: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + floor
}

/// Checks (d) and (e) on a small twin of the workload (at most an eighth of
/// the cells, [`TWIN_STEPS`] steps).
///
/// (e) The twin run on the workload's own path and on the plain path must
/// give agreeing probes, to 1e-10 relative. Which probe fields are comparable
/// depends on the storage the workload's path uses. An in-place AA field
/// holds *arrivals*, whose velocity moment is the flow one streaming step
/// ahead of the two-grid state, so for the Knudsen twin only the conserved
/// totals are compared. The sparse path stores vacuum deep inside the solid
/// where the dense masked box keeps re-bounced populations, so for the pipe
/// twin only the peak speed — taken over fluid cells, which agree bitwise —
/// is compared.
///
/// (d) On the Taylor–Green twins the own path's peak speed must be within
/// 3 % of the analytic viscous decay. This is checked on the twin, not on
/// the workload's box: the twin is square in x–y, and only for kx = ky is
/// the initial vortex divergence-free (on the 128×96 and 16×128 boxes the
/// peak speed strays up to 20 % from the decay law within 50 steps).
pub fn twin_check(w: &Workload, seeded: &Seeded, checks: &mut Checks) -> Result<(), String> {
    let err = |e: lbm_core::Error| format!("{} twin: {e}", w.name);
    let inputs = w.inputs(w.twin_global, seeded);
    let mut own = w.build(&inputs)?;
    let mut plain = w.build_plain(&inputs)?;
    own.run_local(TWIN_STEPS).map_err(err)?;
    plain.run_local(TWIN_STEPS).map_err(err)?;
    let a = own.probe().map_err(err)?;
    let b = plain.probe().map_err(err)?;
    let floor = 1e-12 * b.mass.abs();
    let totals = w.kind != Kind::PipeQ19Sparse;
    let speed = w.kind != Kind::KnudsenQ39Aa;
    let ok = (!totals
        || (close(a.mass, b.mass, 1e-10, 0.0)
            && (0..3).all(|k| close(a.momentum[k], b.momentum[k], 1e-10, floor))))
        && (!speed || close(a.max_speed, b.max_speed, 1e-10, 0.0));
    checks.check("e.twin_matches_plain_path", ok, || {
        format!("own path {a:?} vs plain path {b:?}")
    });
    if w.is_taylor_green() {
        let want = w.taylor_green_decay(w.twin_global, own.config().tau, a.step);
        let got = a.max_speed / seeded.tg_u0;
        checks.check(
            "d.taylor_green_decay",
            (got / want - 1.0).abs() <= 0.03,
            || format!("max|u|/u0 = {got} vs analytic {want} at step {}", a.step),
        );
    }
    Ok(())
}

/// Check (c): the probe at the fixed step count has the same bit pattern in
/// every round (same seed ⇒ bitwise the same trajectory).
pub fn digest_check(digests: &[Digest], checks: &mut Checks) {
    if let Some(first) = digests.first() {
        checks.check(
            "c.rounds_bitwise_identical",
            digests.iter().all(|d| d == first),
            || {
                let all: Vec<String> = digests.iter().map(Digest::hex).collect();
                all.join(" vs ")
            },
        );
    }
}

/// The end-to-end metrics of one workload from its pooled rounds.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub mflups: f64,
    pub step_ms_p75: f64,
    pub setup_s: f64,
    pub resident_mib: f64,
    pub chunk_samples: usize,
    pub setup_samples: usize,
    /// The samples themselves, per round, so that a result file carries its
    /// own variance: milliseconds per step of every timed chunk, and the
    /// seconds of every set-up.
    pub round_step_ms: Vec<Vec<f64>>,
    pub setups_s: Vec<f64>,
}

impl EndToEnd {
    pub fn from_samples(rounds: &[RoundSample]) -> Self {
        let pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.step_s.iter().copied())
            .collect();
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let fluid = rounds[0].fluid_cells as f64;
        Self {
            mflups: fluid / stats::median(&pooled) / 1e6,
            step_ms_p75: stats::p75(&pooled) * 1e3,
            setup_s: stats::median(&setups),
            resident_mib: rounds[0].resident_bytes as f64 / (1u64 << 20) as f64,
            chunk_samples: pooled.len(),
            setup_samples: setups.len(),
            round_step_ms: rounds
                .iter()
                .map(|r| r.step_s.iter().map(|s| s * 1e3).collect())
                .collect(),
            setups_s: setups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(mass: f64, speed: f64) -> Probe {
        Probe {
            step: 3,
            mass,
            momentum: [0.5, -0.0, 0.0],
            max_speed: speed,
            profile: None,
        }
    }

    #[test]
    fn digest_sees_every_bit_and_nothing_else() {
        let a = Digest::of(&probe(1.0, 0.25));
        assert_eq!(a, Digest::of(&probe(1.0, 0.25)));
        assert_ne!(a, Digest::of(&probe(1.0 + f64::EPSILON, 0.25)));
        assert_ne!(a, Digest::of(&probe(1.0, 0.25 + f64::EPSILON)));
        // −0.0 and 0.0 compare equal as numbers but are different bits.
        assert_ne!(a.0[2], a.0[3]);
        assert_eq!(a.hex().len(), 5 * 16 + 4);
        assert!(a
            .hex()
            .starts_with("3ff0000000000000-3fe0000000000000-8000000000000000"));
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check("x", true, || unreachable!());
        c.check("y", false, || "why".into());
        digest_check(&[Digest([1; 5]), Digest([1; 5])], &mut c);
        digest_check(&[Digest([1; 5]), Digest([2; 5])], &mut c);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.failures[0], "y: why");
    }

    #[test]
    fn closeness_is_relative_with_a_floor() {
        assert!(close(1e6, 1e6 * (1.0 + 5e-11), 1e-10, 0.0));
        assert!(!close(1e6, 1e6 * (1.0 + 5e-10), 1e-10, 0.0));
        assert!(close(1e-15, -1e-15, 1e-10, 1e-12));
        assert!(!close(1e-3, -1e-3, 1e-10, 1e-12));
    }
}
