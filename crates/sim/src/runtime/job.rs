//! Job specifications: the value-level submission format of the ensemble
//! runtime.
//!
//! A [`JobSpec`] is everything [`EnsembleRunner`](super::EnsembleRunner)
//! needs to run one scenario to completion — a plain-data mirror of the
//! [`SimulationBuilder`](crate::SimulationBuilder) fluent API that can
//! travel as JSON (sweep manifests, queue submissions) and be validated
//! without constructing anything.

use lbm_core::field::StorageMode;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::LatticeKind;

use crate::config::{ConfigError, SimConfig};
use crate::json::Json;
use crate::scenario::ScenarioSpec;
use crate::simulation::{Simulation, SimulationBuilder};
use crate::sparse::GeometrySpec;

use super::checkpoint::RetentionPolicy;

/// One ensemble job: a scenario configuration plus run length,
/// progress/checkpoint cadences, and supervision policy (retry budget,
/// watchdog, health guards, checkpoint retention).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (also the checkpoint file stem).
    pub name: String,
    /// Discrete velocity model.
    pub lattice: LatticeKind,
    /// Global periodic box.
    pub global: Dim3,
    /// Scenario parameters (`None` = the legacy Taylor–Green flow).
    pub scenario: Option<ScenarioSpec>,
    /// Analytic geometry selecting the sparse tiled path (`None` = dense).
    pub geometry: Option<GeometrySpec>,
    /// Explicit BGK relaxation time (`None` = the scenario's suggestion,
    /// falling back to the config default).
    pub tau: Option<f64>,
    /// Kernel optimization rung.
    pub level: OptLevel,
    /// Population storage mode.
    pub storage: StorageMode,
    /// Ranks (1-D decomposition along x).
    pub ranks: usize,
    /// Rayon threads per rank.
    pub threads_per_rank: usize,
    /// Ghost-cell depth d.
    pub ghost_depth: usize,
    /// Total time steps to run.
    pub steps: usize,
    /// Stream a progress report every this many steps (0 = only the final
    /// report).
    pub progress_every: usize,
    /// Write a checkpoint every this many steps (0 = never; requires the
    /// runner to have a checkpoint directory).
    pub checkpoint_every: usize,
    /// Background flush cadence in wall-clock seconds: also checkpoint
    /// whenever this much time has passed since the last write (0 =
    /// disabled; requires a checkpoint directory). Checks happen at chunk
    /// boundaries, so the effective period is at least one chunk.
    pub flush_secs: f64,
    /// Times a retryable failure (panic, runtime error, stall) may be
    /// re-dispatched from the last good checkpoint before the job is
    /// declared `Failed` (0 = fail-stop, the pre-supervision behaviour).
    pub max_retries: u32,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// retry (capped at ~10 s). 0 = retry immediately.
    pub backoff_ms: u64,
    /// Watchdog deadline in seconds: if a running attempt produces no
    /// progress event for this long it is declared stalled, abandoned and
    /// retried (0 = no watchdog). Must exceed the wall time of one
    /// progress chunk.
    pub watchdog_secs: f64,
    /// Health guard: maximum relative drift of global mass from the job's
    /// initial mass before the run is declared `Diverged` (terminal, never
    /// retried). The same guard scans for NaN/inf. 0 disables both.
    pub mass_drift_tol: f64,
    /// How many rotated checkpoint generations to keep on disk.
    pub retention: RetentionPolicy,
}

impl JobSpec {
    /// A job with the workspace's default solver settings: `Simd` rung,
    /// two-grid storage, 1 rank × 1 thread, ghost depth 1, final report
    /// only.
    pub fn new(name: impl Into<String>, lattice: LatticeKind, global: Dim3, steps: usize) -> Self {
        Self {
            name: name.into(),
            lattice,
            global,
            scenario: None,
            geometry: None,
            tau: None,
            level: OptLevel::Simd,
            storage: StorageMode::TwoGrid,
            ranks: 1,
            threads_per_rank: 1,
            ghost_depth: 1,
            steps,
            progress_every: 0,
            checkpoint_every: 0,
            flush_secs: 0.0,
            max_retries: 0,
            backoff_ms: 25,
            watchdog_secs: 0.0,
            mass_drift_tol: 1e-6,
            retention: RetentionPolicy::default(),
        }
    }

    /// Lattice cells in the global box (the packing heuristic's size
    /// signal).
    pub fn cells(&self) -> usize {
        self.global.nx * self.global.ny * self.global.nz
    }

    /// Worker slots this job occupies while running.
    pub fn slots(&self) -> usize {
        self.ranks * self.threads_per_rank
    }

    /// The equivalent fluent builder (shared with interactive use — the
    /// runtime drives exactly the API users drive). Fails only when an
    /// analytic geometry spec cannot be materialised for the global box.
    pub fn to_builder(&self) -> Result<SimulationBuilder, ConfigError> {
        let mut b = Simulation::builder(self.lattice, self.global)
            .ranks(self.ranks)
            .threads(self.threads_per_rank)
            .ghost_depth(self.ghost_depth)
            .level(self.level)
            .storage(self.storage);
        if let Some(tau) = self.tau {
            b = b.tau(tau);
        }
        if let Some(spec) = &self.scenario {
            b = b.scenario(spec.to_handle());
        }
        if let Some(geom) = &self.geometry {
            b = b.geometry(geom.build(self.global).map_err(ConfigError::Invalid)?);
        }
        Ok(b)
    }

    /// Validate without building an engine (what
    /// [`EnsembleRunner::submit`](super::EnsembleRunner::submit) calls
    /// before accepting a job).
    pub fn validate(&self) -> Result<SimConfig, ConfigError> {
        let bad = |msg: String| {
            ConfigError::Invalid(lbm_core::Error::BadParameter(format!(
                "job `{}`: {msg}",
                self.name
            )))
        };
        for (label, v) in [
            ("flush_secs", self.flush_secs),
            ("watchdog_secs", self.watchdog_secs),
            ("mass_drift_tol", self.mass_drift_tol),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(bad(format!("{label} must be finite and >= 0, got {v}")));
            }
        }
        if self.retention.keep == 0 {
            return Err(bad(
                "retention must keep at least one checkpoint generation".into(),
            ));
        }
        self.to_builder()?.build_config()
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("lattice".into(), Json::Str(self.lattice.name().into())),
            (
                "global".into(),
                Json::Arr(vec![
                    Json::Int(self.global.nx as i64),
                    Json::Int(self.global.ny as i64),
                    Json::Int(self.global.nz as i64),
                ]),
            ),
            (
                "scenario".into(),
                self.scenario
                    .as_ref()
                    .map_or(Json::Null, ScenarioSpec::to_json),
            ),
            (
                "geometry".into(),
                self.geometry
                    .as_ref()
                    .map_or(Json::Null, GeometrySpec::to_json),
            ),
            ("tau".into(), self.tau.map_or(Json::Null, Json::Num)),
            ("level".into(), Json::Str(self.level.name().into())),
            ("storage".into(), Json::Str(self.storage.name().into())),
            ("ranks".into(), Json::Int(self.ranks as i64)),
            (
                "threads_per_rank".into(),
                Json::Int(self.threads_per_rank as i64),
            ),
            ("ghost_depth".into(), Json::Int(self.ghost_depth as i64)),
            ("steps".into(), Json::Int(self.steps as i64)),
            (
                "progress_every".into(),
                Json::Int(self.progress_every as i64),
            ),
            (
                "checkpoint_every".into(),
                Json::Int(self.checkpoint_every as i64),
            ),
            ("flush_secs".into(), Json::Num(self.flush_secs)),
            ("max_retries".into(), Json::Int(self.max_retries as i64)),
            ("backoff_ms".into(), Json::Int(self.backoff_ms as i64)),
            ("watchdog_secs".into(), Json::Num(self.watchdog_secs)),
            ("mass_drift_tol".into(), Json::Num(self.mass_drift_tol)),
            ("retain".into(), Json::Int(self.retention.keep as i64)),
        ])
    }

    /// Inverse of [`JobSpec::to_json`], with typed label errors.
    pub fn from_json(v: &Json) -> Result<Self, ConfigError> {
        let bad = |field: &'static str, value: &Json| ConfigError::UnknownLabel {
            field,
            value: value.to_string(),
        };
        let int = |key: &'static str| -> Result<usize, ConfigError> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(|x| x as usize)
                .ok_or(ConfigError::UnknownLabel {
                    field: key,
                    value: "<missing>".into(),
                })
        };
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or(ConfigError::UnknownLabel {
                field: "name",
                value: "<missing>".into(),
            })?
            .to_owned();
        let lattice_v = v.get("lattice").cloned().unwrap_or(Json::Null);
        let lattice = lattice_v
            .as_str()
            .and_then(LatticeKind::parse)
            .ok_or_else(|| bad("lattice", &lattice_v))?;
        let global = v
            .get("global")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 3)
            .ok_or(ConfigError::UnknownLabel {
                field: "global",
                value: "<missing>".into(),
            })?;
        let dim = |i: usize| {
            global[i]
                .as_u64()
                .map(|x| x as usize)
                .ok_or_else(|| bad("global", &global[i]))
        };
        let global = Dim3::new(dim(0)?, dim(1)?, dim(2)?);
        let scenario = match v.get("scenario") {
            None | Some(Json::Null) => None,
            Some(spec) => Some(ScenarioSpec::from_json(spec).map_err(|_| bad("scenario", spec))?),
        };
        // Absent in pre-sparse manifests: dense.
        let geometry = match v.get("geometry") {
            None | Some(Json::Null) => None,
            Some(spec) => Some(GeometrySpec::from_json(spec).map_err(|_| bad("geometry", spec))?),
        };
        let tau = match v.get("tau") {
            None | Some(Json::Null) => None,
            Some(t) => Some(t.as_f64().ok_or_else(|| bad("tau", t))?),
        };
        let level_v = v.get("level").cloned().unwrap_or(Json::Null);
        let level = level_v
            .as_str()
            .and_then(OptLevel::parse)
            .ok_or_else(|| bad("level", &level_v))?;
        let storage_v = v.get("storage").cloned().unwrap_or(Json::Null);
        let storage = storage_v
            .as_str()
            .and_then(StorageMode::parse)
            .ok_or_else(|| bad("storage", &storage_v))?;
        // Supervision knobs default when absent, so pre-supervision (PR 6)
        // manifests keep parsing; present-but-malformed values stay typed
        // errors.
        let defaults = JobSpec::new("", lattice, global, 0);
        let opt_int = |key: &'static str, default: u64| -> Result<u64, ConfigError> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_u64().ok_or_else(|| bad(key, x)),
            }
        };
        let opt_num = |key: &'static str, default: f64| -> Result<f64, ConfigError> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_f64().ok_or_else(|| bad(key, x)),
            }
        };
        Ok(Self {
            name,
            lattice,
            global,
            scenario,
            geometry,
            tau,
            level,
            storage,
            ranks: int("ranks")?,
            threads_per_rank: int("threads_per_rank")?,
            ghost_depth: int("ghost_depth")?,
            steps: int("steps")?,
            progress_every: int("progress_every")?,
            checkpoint_every: int("checkpoint_every")?,
            flush_secs: opt_num("flush_secs", defaults.flush_secs)?,
            max_retries: opt_int("max_retries", defaults.max_retries as u64)? as u32,
            backoff_ms: opt_int("backoff_ms", defaults.backoff_ms)?,
            watchdog_secs: opt_num("watchdog_secs", defaults.watchdog_secs)?,
            mass_drift_tol: opt_num("mass_drift_tol", defaults.mass_drift_tol)?,
            retention: RetentionPolicy::keep(
                opt_int("retain", defaults.retention.keep as u64)? as usize
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut spec = JobSpec::new("sweep-03", LatticeKind::D3Q39, Dim3::new(16, 8, 8), 200);
        spec.scenario = Some(ScenarioSpec::KnudsenMicrochannel {
            kn: 0.05,
            g: 5e-6,
            layers: 3,
        });
        spec.level = OptLevel::Fused;
        spec.storage = StorageMode::InPlaceAa;
        spec.ranks = 2;
        spec.progress_every = 50;
        spec.checkpoint_every = 100;
        spec.flush_secs = 1.5;
        spec.max_retries = 3;
        spec.backoff_ms = 10;
        spec.watchdog_secs = 2.5;
        spec.mass_drift_tol = 1e-9;
        spec.retention = RetentionPolicy::keep(4);
        let text = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.slots(), 2);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn sparse_job_specs_round_trip_and_validate() {
        use crate::scenario::ScenarioSpec;

        let mut spec = JobSpec::new("pipe-01", LatticeKind::D3Q19, Dim3::new(16, 16, 16), 50);
        spec.scenario = Some(ScenarioSpec::ForcedFlow {
            g: 4e-6,
            pulse_amp: 0.0,
            pulse_period: 1,
        });
        spec.geometry = Some(GeometrySpec::Pipe { radius: 5.0 });
        spec.ranks = 2;
        let text = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert!(back.validate().is_ok());
        // An unbuildable analytic shape is a typed config error, not a
        // panic in the worker.
        spec.geometry = Some(GeometrySpec::Pipe { radius: -1.0 });
        assert!(spec.validate().is_err());
        // The other kinds travel too.
        for g in [
            GeometrySpec::Bifurcation {
                trunk_r: 4.0,
                branch_r: 2.5,
            },
            GeometrySpec::Porous {
                blob_r: 3.0,
                target_fluid: 0.3,
                seed: 11,
            },
            // Seeds of 2^63 and up travel as negative JSON integers.
            GeometrySpec::Porous {
                blob_r: 3.0,
                target_fluid: 0.3,
                seed: 1 << 63,
            },
            GeometrySpec::Porous {
                blob_r: 3.0,
                target_fluid: 0.3,
                seed: u64::MAX,
            },
            GeometrySpec::File {
                path: "assets/vessel_24x20x20.lbmgeo".into(),
            },
        ] {
            let j = g.to_json().to_string();
            assert_eq!(GeometrySpec::from_json(&Json::parse(&j).unwrap()), Ok(g));
        }
    }

    #[test]
    fn bad_labels_are_typed_errors() {
        let spec = JobSpec::new("x", LatticeKind::D3Q19, Dim3::cube(8), 10);
        let text = spec.to_json().to_string().replace("D3Q19", "D3Q99");
        let err = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::UnknownLabel {
                    field: "lattice",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_impossible_decompositions() {
        let mut spec = JobSpec::new("x", LatticeKind::D3Q39, Dim3::new(8, 8, 8), 10);
        spec.ranks = 4;
        spec.ghost_depth = 2;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn supervision_fields_default_for_old_manifests_and_are_validated() {
        // A PR 6 manifest has none of the supervision keys: they default.
        let mut old = JobSpec::new("legacy", LatticeKind::D3Q19, Dim3::cube(8), 10);
        let Json::Obj(members) = old.to_json() else {
            panic!("spec JSON is an object")
        };
        let trimmed = Json::Obj(
            members
                .into_iter()
                .filter(|(k, _)| {
                    ![
                        "flush_secs",
                        "max_retries",
                        "backoff_ms",
                        "watchdog_secs",
                        "mass_drift_tol",
                        "retain",
                    ]
                    .contains(&k.as_str())
                })
                .collect(),
        );
        let back = JobSpec::from_json(&trimmed).unwrap();
        assert_eq!(back, old);

        old.watchdog_secs = f64::NAN;
        assert!(old.validate().is_err(), "NaN watchdog rejected");
        old.watchdog_secs = 0.0;
        old.mass_drift_tol = -1.0;
        assert!(old.validate().is_err(), "negative tolerance rejected");
        old.mass_drift_tol = 0.0;
        old.retention = RetentionPolicy::keep(0);
        assert!(old.validate().is_err(), "zero retention rejected");
    }
}
