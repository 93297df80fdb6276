//! # lbm-sim
//!
//! Simulation drivers tying the core kernels ([`lbm_core`]) to the
//! message-passing substrate ([`lbm_comm`]): this is where the paper's
//! parallel machinery lives.
//!
//! * [`config`] — experiment configuration (lattice, domain, ladder level,
//!   ghost depth, ranks × threads, link-cost model).
//! * [`halo`] — border pack/unpack with the paper's *message aggregation*
//!   (one message per neighbour, §IV), carrying only the populations that
//!   stream across the cut ([`halo::HaloPlan`]).
//! * [`distributed`] — the per-rank solver implementing the paper's
//!   communication schedules: blocking (Orig), eager nonblocking (the
//!   no-ghost NB-C of Fig. 9), nonblocking with ghost cells (NB-C & GC),
//!   and the overlapped separate ghost-collide schedule of Fig. 7 (GC-C) —
//!   plus **deep halo** stepping (ghost depth d: exchange every d steps over
//!   `d·k`-wide halos with a shrinking valid region, §V-A).
//! * [`hybrid`] — rank-local rayon pools: the MPI/OpenMP hybrid of §VI-B.
//! * [`scenario`] — the pluggable [`Scenario`] trait (init/boundaries/
//!   forcing/observables) plus the shipped scenarios: [`TaylorGreen`],
//!   [`PoiseuilleChannel`], [`CouetteFlow`], [`LidDrivenCavity`],
//!   [`KnudsenMicrochannel`].
//! * [`simulation`] — the [`Simulation::builder`] fluent API (the single
//!   construction path): one handle for batch distributed runs and
//!   incremental step/probe use, with the population storage mode
//!   (`two-grid` double buffer vs AA-pattern in-place streaming) selected
//!   via [`SimulationBuilder::storage`].
//! * [`sparse`] — the sparse tiled-geometry rank solver: packed fluid-tile
//!   lists with indirect addressing, fluid-balanced tile-column
//!   decomposition and boundary-tile-frame halo exchange, selected by
//!   [`SimulationBuilder::geometry`].
//! * [`runtime`] — the job-oriented ensemble runtime: [`JobSpec`]
//!   submissions, the rank×thread-aware [`EnsembleRunner`] scheduler with
//!   JSONL progress streaming and per-job cancel, and versioned
//!   checkpoint/restart with bitwise-identical resumed trajectories.
//! * [`observables`], [`output`], [`report`] — measurement, file output
//!   and the run summaries consumed by `lbm-bench`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod distributed;
pub mod halo;
pub mod hybrid;
pub mod json;
pub mod observables;
pub mod output;
pub mod report;
pub mod runtime;
pub mod scenario;
pub mod simulation;
pub mod sparse;

pub use config::{CommStrategy, ConfigError, SimConfig};
pub use report::{RankReport, RunReport, REPORT_SCHEMA_VERSION};
pub use runtime::{
    CorruptMode, EnsembleRunner, EventRecord, FailureKind, FaultPlan, JobEvent, JobId, JobOutcome,
    JobSpec, RetentionPolicy, EVENT_SCHEMA_VERSION,
};
pub use scenario::{
    CouetteFlow, ForcedFlow, KnudsenMicrochannel, LidDrivenCavity, ObservableSpec,
    PoiseuilleChannel, Scenario, ScenarioHandle, ScenarioSpec, TaylorGreen,
};
pub use simulation::{Probe, Simulation, SimulationBuilder};
pub use sparse::GeometrySpec;
