//! Per-job supervision: watchdog, retry with backoff, checkpoint rotation
//! and numeric health guards around one running job.
//!
//! The pool worker thread (owned by the scheduler) runs [`supervise`],
//! which in turn spawns one *attempt thread* per try. The attempt does the
//! actual stepping and reports through a private channel; the supervisor
//! forwards its events to the shared stream, tracks the merged report at
//! every checkpoint generation, and enforces policy:
//!
//! - **Watchdog** — with `watchdog_secs > 0`, silence on the attempt
//!   channel beyond the deadline marks the attempt stalled. Threads cannot
//!   be killed, so the attempt is *abandoned*: a shared flag tells it to
//!   exit quietly at its next chunk boundary (checked again before any
//!   checkpoint write, so an abandoned attempt never races its successor's
//!   files).
//! - **Retry with backoff** — retryable ends (panic, runtime error, stall)
//!   re-dispatch from the newest checkpoint generation that still
//!   validates, after an exponential backoff. Damaged generations are
//!   skipped with a [`JobEvent::Degraded`] note; with none left the job
//!   restarts from scratch. The budget is `max_retries`. The supervisor
//!   reads and hashes the chosen file once and hands the attempt that
//!   [`checkpoint::ValidCheckpoint`], which it resumes without reading or
//!   hashing the file again.
//! - **Health guards** — after every chunk the attempt scans for NaN/inf
//!   and compares global mass against the job's baseline. A trip ends the
//!   job as [`FailureKind::Diverged`] *without* consuming retries:
//!   divergence is deterministic, and re-running it would only burn the
//!   budget to reach the same wall. The check runs before the checkpoint
//!   write, so a diverged state is never persisted.
//!
//! Resumed chunks re-align to absolute `progress_every` boundaries, so a
//! retried job's progress events land on the same step numbers the
//! uninterrupted run would have produced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::RunReport;

use super::checkpoint;
use super::ensemble::{JobId, JobOutcome};
use super::event::{EventBus, FailureKind, JobEvent};
use super::fault::{FaultPlan, StepFaultKind};
use super::job::JobSpec;

/// Everything the supervisor needs about one job.
pub(crate) struct SuperviseCtx {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) bus: EventBus,
    pub(crate) checkpoint_dir: Option<PathBuf>,
    pub(crate) faults: Option<FaultPlan>,
}

/// Messages from an attempt thread to its supervisor.
enum AttemptMsg {
    /// Global mass at the job's first probe (the health-guard baseline).
    Baseline(f64),
    /// A lifecycle event to forward to the shared stream (boxed: the
    /// report-bearing variants dwarf the others).
    Event(Box<JobEvent>),
    /// The attempt is over.
    Done(AttemptEnd),
}

/// How an attempt ended. `Stalled` is synthesized by the supervisor when
/// the watchdog fires; everything else comes from the attempt itself.
enum AttemptEnd {
    Finished,
    Cancelled { steps_done: u64 },
    Diverged { error: String },
    Config { error: String },
    Errored { error: String },
    Panicked { error: String },
    Stalled,
}

/// Render a panic payload as a message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".into())
}

/// Exponential backoff for retry `attempt` (1-based), capped at 10 s.
fn backoff_delay(base_ms: u64, attempt: u32) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(20);
    Duration::from_millis((base_ms << shift).min(10_000))
}

/// Run one job under supervision; returns its terminal outcome. Emits
/// `Started` once, then forwards every attempt's events, retrying
/// retryable failures from the last good checkpoint until the budget runs
/// out.
pub(crate) fn supervise(ctx: SuperviseCtx) -> JobOutcome {
    let spec = &ctx.spec;
    ctx.bus.emit(JobEvent::Started {
        job: ctx.id,
        name: spec.name.clone(),
    });

    let fail = |error: String, reason: FailureKind| -> JobOutcome {
        ctx.bus.emit(JobEvent::Failed {
            job: ctx.id,
            name: spec.name.clone(),
            error: error.clone(),
            reason,
        });
        JobOutcome::Failed { error, reason }
    };

    // Merged report as of each retained checkpoint generation, so a
    // fallback resume restores a report prefix that matches its state.
    let mut by_gen: Vec<(u64, RunReport)> = Vec::new();
    let mut attempt: u32 = 0;
    let mut baseline: Option<f64> = None;
    // The validated generation the next attempt resumes from (its bytes and
    // checked frames, handed over so they are read and hashed once), None =
    // fresh start.
    let mut resume: Option<checkpoint::ValidCheckpoint> = None;
    // Merged report covering everything up to the resume point.
    let mut committed: Option<RunReport> = None;
    let mut next_gen: u64 = 0;
    let mut last_steps: u64 = 0;

    loop {
        let (tx, rx) = channel::<AttemptMsg>();
        let abandon = Arc::new(AtomicBool::new(false));
        {
            let spec = spec.clone();
            let cancel = ctx.cancel.clone();
            let abandon = abandon.clone();
            let dir = ctx.checkpoint_dir.clone();
            let faults = ctx.faults.clone();
            let resume = resume.take();
            let id = ctx.id;
            let first_gen = next_gen;
            let base = baseline;
            std::thread::Builder::new()
                .name(format!("job-{id}-try-{attempt}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        run_attempt(
                            id,
                            &spec,
                            resume,
                            first_gen,
                            base,
                            &cancel,
                            &abandon,
                            dir.as_deref(),
                            faults.as_ref(),
                            &tx,
                        );
                    }));
                    if let Err(payload) = result {
                        let _ = tx.send(AttemptMsg::Done(AttemptEnd::Panicked {
                            error: panic_message(payload),
                        }));
                    }
                })
                .expect("spawn attempt thread");
        }

        // Pump the attempt channel (with the watchdog deadline when armed)
        // until the attempt ends one way or another.
        let mut pending = committed.clone();
        let end = loop {
            let msg = if spec.watchdog_secs > 0.0 {
                match rx.recv_timeout(Duration::from_secs_f64(spec.watchdog_secs)) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        abandon.store(true, Ordering::SeqCst);
                        break AttemptEnd::Stalled;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        break AttemptEnd::Panicked {
                            error: "attempt thread vanished".into(),
                        }
                    }
                }
            } else {
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => {
                        break AttemptEnd::Panicked {
                            error: "attempt thread vanished".into(),
                        }
                    }
                }
            };
            match msg {
                AttemptMsg::Baseline(mass) => baseline = Some(mass),
                AttemptMsg::Event(event) => {
                    let event = *event;
                    match &event {
                        JobEvent::Progress {
                            steps_done, report, ..
                        } => {
                            last_steps = *steps_done;
                            match &mut pending {
                                None => pending = Some(report.clone()),
                                Some(p) => p.accumulate(report),
                            }
                        }
                        JobEvent::Checkpointed { generation, .. } => {
                            if let Some(p) = &pending {
                                by_gen.push((*generation, p.clone()));
                                while by_gen.len() > spec.retention.keep.max(1) {
                                    by_gen.remove(0);
                                }
                            }
                            next_gen = generation + 1;
                        }
                        _ => {}
                    }
                    ctx.bus.emit(event);
                }
                AttemptMsg::Done(end) => break end,
            }
        };

        let (reason, error) = match end {
            AttemptEnd::Finished => {
                let report = pending.expect("a finished job ran at least one chunk");
                ctx.bus.emit(JobEvent::Finished {
                    job: ctx.id,
                    name: spec.name.clone(),
                    report: report.clone(),
                });
                return JobOutcome::Finished(Box::new(report));
            }
            AttemptEnd::Cancelled { steps_done } => {
                ctx.bus.emit(JobEvent::Cancelled {
                    job: ctx.id,
                    name: spec.name.clone(),
                    steps_done,
                });
                return JobOutcome::Cancelled { steps_done };
            }
            // Terminal on sight: deterministic failures are never retried.
            AttemptEnd::Diverged { error } => return fail(error, FailureKind::Diverged),
            AttemptEnd::Config { error } => return fail(error, FailureKind::Config),
            AttemptEnd::Errored { error } => (FailureKind::Error, error),
            AttemptEnd::Panicked { error } => (FailureKind::Panic, error),
            AttemptEnd::Stalled => {
                ctx.bus.emit(JobEvent::Stalled {
                    job: ctx.id,
                    name: spec.name.clone(),
                    steps_done: last_steps,
                    deadline_secs: spec.watchdog_secs,
                });
                (
                    FailureKind::Stalled,
                    format!(
                        "no progress within the {:.3}s watchdog deadline \
                         (last seen at step {last_steps})",
                        spec.watchdog_secs
                    ),
                )
            }
        };

        if attempt >= spec.max_retries {
            return fail(error, reason);
        }
        attempt += 1;

        // Backoff, staying responsive to cancellation.
        let mut left = backoff_delay(spec.backoff_ms, attempt);
        while !left.is_zero() {
            if ctx.cancel.load(Ordering::SeqCst) {
                ctx.bus.emit(JobEvent::Cancelled {
                    job: ctx.id,
                    name: spec.name.clone(),
                    steps_done: last_steps,
                });
                return JobOutcome::Cancelled {
                    steps_done: last_steps,
                };
            }
            let slice = left.min(Duration::from_millis(10));
            std::thread::sleep(slice);
            left -= slice;
        }

        // Pick the newest checkpoint generation that still validates,
        // falling back (with a Degraded note) past damaged ones.
        let mut skipped: Vec<u64> = Vec::new();
        let mut chosen: Option<(u64, checkpoint::ValidCheckpoint, RunReport)> = None;
        if let Some(dir) = &ctx.checkpoint_dir {
            for (generation, path) in checkpoint::list_generations(dir, &spec.name)
                .into_iter()
                .rev()
            {
                // A file with no tracked report (e.g. written by an
                // abandoned attempt after its supervisor moved on) cannot
                // be merged into a coherent final report: skip it.
                let Some(report) = by_gen
                    .iter()
                    .find(|(g, _)| *g == generation)
                    .map(|(_, r)| r.clone())
                else {
                    skipped.push(generation);
                    continue;
                };
                match std::fs::read(&path)
                    .ok()
                    .and_then(|bytes| checkpoint::ValidCheckpoint::new(bytes).ok())
                {
                    Some(valid) => {
                        chosen = Some((generation, valid, report));
                        break;
                    }
                    None => skipped.push(generation),
                }
            }
            if !skipped.is_empty() {
                ctx.bus.emit(JobEvent::Degraded {
                    job: ctx.id,
                    name: spec.name.clone(),
                    generation: chosen.as_ref().map(|(g, ..)| *g),
                    skipped,
                });
            }
        }
        let resume_steps = match chosen {
            Some((_, valid, report)) => {
                let step_no = valid.info().step_no;
                resume = Some(valid);
                committed = Some(report);
                step_no
            }
            None => {
                resume = None;
                committed = None;
                0
            }
        };
        ctx.bus.emit(JobEvent::Retried {
            job: ctx.id,
            name: spec.name.clone(),
            attempt,
            resume_steps,
            cause: error,
        });
    }
}

/// One attempt: build or resume the simulation and run it chunk by chunk,
/// streaming progress, writing checkpoint generations, injecting scripted
/// faults and applying the health guard. Runs on its own thread; all
/// results flow back through `tx`. When `abandon` flips the attempt exits
/// silently — its supervisor has already moved on.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    id: JobId,
    spec: &JobSpec,
    resume: Option<checkpoint::ValidCheckpoint>,
    first_gen: u64,
    baseline: Option<f64>,
    cancel: &AtomicBool,
    abandon: &AtomicBool,
    dir: Option<&Path>,
    faults: Option<&FaultPlan>,
    tx: &Sender<AttemptMsg>,
) {
    let send = |msg: AttemptMsg| {
        let _ = tx.send(msg);
    };
    let errored = |error: String| send(AttemptMsg::Done(AttemptEnd::Errored { error }));

    let (mut sim, mut done) = match resume {
        None => match spec.to_builder().and_then(|b| b.build()) {
            Ok(sim) => (sim, 0usize),
            Err(e) => {
                send(AttemptMsg::Done(AttemptEnd::Config {
                    error: e.to_string(),
                }));
                return;
            }
        },
        Some(valid) => {
            let at = valid.info().step_no;
            match valid.resume() {
                Ok(sim) => {
                    let step = sim.steps_done();
                    if step != at {
                        errored(format!(
                            "resume checkpoint is at step {step}, expected {at}"
                        ));
                        return;
                    }
                    (sim, step as usize)
                }
                Err(e) => {
                    errored(format!("resume failed: {e}"));
                    return;
                }
            }
        }
    };

    // Health-guard baseline: the job's initial global mass. Taken once on
    // the first attempt and carried by the supervisor across retries.
    let mass0 = match baseline {
        Some(m) => m,
        None => match sim.probe() {
            Ok(p) => {
                send(AttemptMsg::Baseline(p.mass));
                p.mass
            }
            Err(e) => {
                errored(e.to_string());
                return;
            }
        },
    };

    let chunk_len = if spec.progress_every > 0 {
        spec.progress_every
    } else {
        spec.steps
    }
    .max(1);
    let ckpt_enabled = spec.checkpoint_every > 0 || spec.flush_secs > 0.0;
    let mut next_checkpoint = match done.checked_div(spec.checkpoint_every) {
        Some(q) => (q + 1) * spec.checkpoint_every,
        None => usize::MAX, // cadence 0: step-count checkpoints disarmed
    };
    let mut generation = first_gen;
    let mut last_flush = Instant::now();

    while done < spec.steps {
        if abandon.load(Ordering::SeqCst) {
            return;
        }
        if cancel.load(Ordering::SeqCst) {
            send(AttemptMsg::Done(AttemptEnd::Cancelled {
                steps_done: done as u64,
            }));
            return;
        }
        // Chunks align to absolute progress boundaries so a resumed
        // attempt reports at the same step numbers as an undisturbed run.
        let n = (chunk_len - done % chunk_len).min(spec.steps - done);
        let report = match sim.run(n) {
            Ok(r) => r,
            Err(e) => {
                errored(e.to_string());
                return;
            }
        };
        done += n;
        let mass = report.mass;
        send(AttemptMsg::Event(Box::new(JobEvent::Progress {
            job: id,
            name: spec.name.clone(),
            steps_done: done as u64,
            report,
        })));

        // Scripted faults fire at the chunk boundary they are armed for.
        if let Some(kind) = faults.and_then(|p| p.take_step_fault(done as u64)) {
            match kind {
                StepFaultKind::Panic => {
                    panic!("injected fault: worker panic at step {done}")
                }
                StepFaultKind::Stall(span) => {
                    std::thread::sleep(span);
                    if abandon.load(Ordering::SeqCst) {
                        return;
                    }
                }
                StepFaultKind::Nan => {
                    if let Err(e) = sim.fault_inject_nan() {
                        errored(e.to_string());
                        return;
                    }
                }
            }
        }

        // Numeric health guard — checked before the checkpoint write so a
        // diverged state is never persisted. `f64` comparisons with NaN
        // are always false, so non-finiteness is tested explicitly.
        if spec.mass_drift_tol > 0.0 {
            let finite = match sim.all_finite() {
                Ok(f) => f,
                Err(e) => {
                    errored(e.to_string());
                    return;
                }
            };
            let drift = ((mass - mass0) / mass0).abs();
            let diverged = !finite || !mass.is_finite() || drift > spec.mass_drift_tol;
            if diverged {
                let error = if !finite || !mass.is_finite() {
                    format!("non-finite populations at step {done}")
                } else {
                    format!(
                        "mass drift {drift:.3e} exceeds tolerance {:.3e} at step {done}",
                        spec.mass_drift_tol
                    )
                };
                send(AttemptMsg::Done(AttemptEnd::Diverged { error }));
                return;
            }
        }

        // Checkpoint on the step cadence, the wall-clock flush cadence, or
        // at the final state (so recovery can be verified bitwise).
        if ckpt_enabled {
            let due = done >= next_checkpoint
                || (spec.flush_secs > 0.0 && last_flush.elapsed().as_secs_f64() >= spec.flush_secs)
                || done == spec.steps;
            if due {
                while next_checkpoint != usize::MAX && next_checkpoint <= done {
                    next_checkpoint += spec.checkpoint_every;
                }
                if abandon.load(Ordering::SeqCst) {
                    return;
                }
                let dir = dir.expect("checkpoint dir checked at submit");
                let path = checkpoint::generation_path(dir, &spec.name, generation);
                if let Err(e) = sim.checkpoint_to(&path) {
                    errored(format!("checkpoint failed: {e}"));
                    return;
                }
                if let Some(plan) = faults {
                    plan.corrupt_written(generation, &path);
                }
                spec.retention.prune(dir, &spec.name, generation);
                send(AttemptMsg::Event(Box::new(JobEvent::Checkpointed {
                    job: id,
                    name: spec.name.clone(),
                    steps_done: done as u64,
                    generation,
                    path,
                })));
                generation += 1;
                last_flush = Instant::now();
            }
        }
    }
    send(AttemptMsg::Done(AttemptEnd::Finished));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(25, 1), Duration::from_millis(25));
        assert_eq!(backoff_delay(25, 2), Duration::from_millis(50));
        assert_eq!(backoff_delay(25, 4), Duration::from_millis(200));
        assert_eq!(backoff_delay(25, 40), Duration::from_millis(10_000));
        assert_eq!(backoff_delay(0, 3), Duration::ZERO);
    }
}
