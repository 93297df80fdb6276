//! Job-oriented ensemble runtime: submit scenarios as [`JobSpec`]s, run
//! them across a bounded worker pool under per-job supervision, stream
//! progress as sequence-numbered JSON lines, and checkpoint/restart
//! trajectories bitwise-exactly.
//!
//! The runtime is a thin orchestration layer over the same
//! [`Simulation`](crate::Simulation) API interactive callers use:
//!
//! - [`job`] — [`JobSpec`], the value-level (JSON-able) submission format,
//!   including the supervision policy (retry budget, watchdog, health
//!   guards, checkpoint retention);
//! - [`ensemble`] — [`EnsembleRunner`], the rank×thread-aware scheduler
//!   with per-job cancel and lifecycle events;
//! - [`event`] — the versioned [`EventRecord`] JSONL stream and its
//!   [`JobEvent`] vocabulary;
//! - [`checkpoint`] — the versioned on-disk format behind
//!   [`Simulation::checkpoint`](crate::Simulation::checkpoint) and
//!   [`Simulation::resume`](crate::Simulation::resume), plus generation
//!   rotation ([`RetentionPolicy`]), whole-container
//!   [`validate`](checkpoint::validate) and the validated container a
//!   supervised retry resumes from ([`checkpoint::ValidCheckpoint`]);
//! - [`fault`] — [`FaultPlan`], deterministic fault injection for the
//!   test/bench harness;
//! - `supervise` (private) — the watchdog/retry/health-guard loop wrapped
//!   around every running job.

pub mod checkpoint;
pub mod ensemble;
pub mod event;
pub mod fault;
pub mod job;
mod supervise;

pub use checkpoint::{RetentionPolicy, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use ensemble::{EnsembleRunner, JobId, JobOutcome};
pub use event::{EventRecord, FailureKind, JobEvent, EVENT_SCHEMA_VERSION};
pub use fault::{CorruptMode, FaultPlan};
pub use job::JobSpec;
