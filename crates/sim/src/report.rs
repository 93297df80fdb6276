//! Serializable run reports.

use serde::{Deserialize, Serialize};

use crate::json::Json;

/// Version of the report JSON schema. Streamed progress lines and
/// checkpoint headers embed this so readers can reject or migrate old
/// layouts; bump it on any field change.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Per-rank measurement summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankReport {
    /// Report schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Rank id.
    pub rank: usize,
    /// Owned lattice cells.
    pub owned_cells: u64,
    /// Owned-cell updates performed.
    pub updates: u64,
    /// Ghost-cell updates performed (deep-halo overhead).
    pub ghost_updates: u64,
    /// Resident population bytes held by this rank (both buffers in
    /// two-grid mode, one in AA mode).
    pub resident_bytes: u64,
    /// Compute seconds (including injected jitter).
    pub compute_secs: f64,
    /// Seconds blocked in point-to-point waits.
    pub wait_secs: f64,
    /// Seconds blocked in barriers.
    pub barrier_secs: f64,
    /// Seconds blocked in collectives.
    pub collective_secs: f64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Total wall seconds for the timed phase on this rank.
    pub wall_secs: f64,
}

impl RankReport {
    /// Total communication seconds (the paper's Fig. 9 quantity).
    pub fn comm_secs(&self) -> f64 {
        self.wait_secs + self.barrier_secs + self.collective_secs
    }

    /// JSON form (used for streamed progress lines and checkpoint headers;
    /// floats render shortest-roundtrip, so [`RankReport::from_json`] gives
    /// back a bitwise-equal report).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), ju(self.schema as u64)),
            ("rank".into(), ju(self.rank as u64)),
            ("owned_cells".into(), ju(self.owned_cells)),
            ("updates".into(), ju(self.updates)),
            ("ghost_updates".into(), ju(self.ghost_updates)),
            ("resident_bytes".into(), ju(self.resident_bytes)),
            ("compute_secs".into(), Json::Num(self.compute_secs)),
            ("wait_secs".into(), Json::Num(self.wait_secs)),
            ("barrier_secs".into(), Json::Num(self.barrier_secs)),
            ("collective_secs".into(), Json::Num(self.collective_secs)),
            ("messages".into(), ju(self.messages)),
            ("bytes".into(), ju(self.bytes)),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
        ])
    }

    /// Inverse of [`RankReport::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = gu(v, "schema")? as u32;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "rank report schema {schema} (supported: {REPORT_SCHEMA_VERSION})"
            ));
        }
        Ok(Self {
            schema,
            rank: gu(v, "rank")? as usize,
            owned_cells: gu(v, "owned_cells")?,
            updates: gu(v, "updates")?,
            ghost_updates: gu(v, "ghost_updates")?,
            resident_bytes: gu(v, "resident_bytes")?,
            compute_secs: gf(v, "compute_secs")?,
            wait_secs: gf(v, "wait_secs")?,
            barrier_secs: gf(v, "barrier_secs")?,
            collective_secs: gf(v, "collective_secs")?,
            messages: gu(v, "messages")?,
            bytes: gu(v, "bytes")?,
            wall_secs: gf(v, "wall_secs")?,
        })
    }
}

fn ju(v: u64) -> Json {
    Json::Int(v as i64)
}

pub(crate) fn gu(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

pub(crate) fn gf(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

pub(crate) fn gs(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// Whole-run summary (all ranks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Lattice name.
    pub lattice: String,
    /// Scenario name (`"taylor_green"` for the legacy default flow).
    pub scenario: String,
    /// Optimization rung label.
    pub level: String,
    /// Population storage-mode label (`"two_grid"` / `"aa"`).
    pub storage: String,
    /// Communication schedule label.
    pub strategy: String,
    /// Rank count.
    pub ranks: usize,
    /// Threads per rank.
    pub threads_per_rank: usize,
    /// Ghost depth d.
    pub ghost_depth: usize,
    /// Global domain (nx, ny, nz).
    pub global: (usize, usize, usize),
    /// Timed steps.
    pub steps: usize,
    /// Max per-rank wall seconds (the run's wall time).
    pub wall_secs: f64,
    /// MFlup/s by the paper's Eq. 4 (owned cells only).
    pub mflups: f64,
    /// MFlup/s counting ghost updates as work.
    pub mflups_with_ghost: f64,
    /// Min per-rank communication seconds.
    pub comm_min_secs: f64,
    /// Median per-rank communication seconds.
    pub comm_median_secs: f64,
    /// Max per-rank communication seconds.
    pub comm_max_secs: f64,
    /// Global mass after the run (conservation check): one streaming pass
    /// over each rank's owned populations, summed across ranks in rank
    /// order. Bitwise `Simulation::probe().mass` on the same state, at any
    /// rank and thread count.
    pub mass: f64,
    /// Fluid fraction of the global box: 1.0 for dense runs, the
    /// geometry's fluid-voxel fraction on the sparse tiled path (the
    /// denominator of the `sparse_resident_over_dense` memory win).
    #[serde(default = "default_fluid_fraction")]
    pub fluid_fraction: f64,
    /// Per-rank details.
    pub per_rank: Vec<RankReport>,
}

fn default_fluid_fraction() -> f64 {
    1.0
}

impl RunReport {
    /// Assemble from per-rank reports.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        lattice: String,
        scenario: String,
        level: String,
        storage: String,
        strategy: String,
        threads_per_rank: usize,
        ghost_depth: usize,
        global: (usize, usize, usize),
        steps: usize,
        mass: f64,
        per_rank: Vec<RankReport>,
    ) -> Self {
        let ranks = per_rank.len();
        let wall_secs = per_rank.iter().map(|r| r.wall_secs).fold(0.0, f64::max);
        let cells: u64 = per_rank.iter().map(|r| r.owned_cells).sum();
        let updates: u64 = per_rank.iter().map(|r| r.updates).sum();
        let ghost: u64 = per_rank.iter().map(|r| r.ghost_updates).sum();
        debug_assert_eq!(updates, steps as u64 * cells);
        let mflups = if wall_secs > 0.0 {
            updates as f64 / wall_secs / 1e6
        } else {
            0.0
        };
        let mflups_with_ghost = if wall_secs > 0.0 {
            (updates + ghost) as f64 / wall_secs / 1e6
        } else {
            0.0
        };
        let mut comms: Vec<f64> = per_rank.iter().map(|r| r.comm_secs()).collect();
        comms.sort_by(f64::total_cmp);
        Self {
            schema: REPORT_SCHEMA_VERSION,
            lattice,
            scenario,
            level,
            storage,
            strategy,
            ranks,
            threads_per_rank,
            ghost_depth,
            global,
            steps,
            wall_secs,
            mflups,
            mflups_with_ghost,
            comm_min_secs: comms[0],
            comm_median_secs: comms[comms.len() / 2],
            comm_max_secs: comms[comms.len() - 1],
            mass,
            fluid_fraction: 1.0,
            per_rank,
        }
    }

    /// Total resident population bytes across all ranks (the footprint the
    /// AA storage mode halves).
    pub fn resident_population_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.resident_bytes).sum()
    }

    /// Ghost overhead fraction of all updates.
    pub fn ghost_fraction(&self) -> f64 {
        let u: u64 = self.per_rank.iter().map(|r| r.updates).sum();
        let g: u64 = self.per_rank.iter().map(|r| r.ghost_updates).sum();
        if u + g == 0 {
            0.0
        } else {
            g as f64 / (u + g) as f64
        }
    }

    /// JSON form; [`RunReport::from_json`] restores a bitwise-equal report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), ju(self.schema as u64)),
            ("lattice".into(), Json::Str(self.lattice.clone())),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("level".into(), Json::Str(self.level.clone())),
            ("storage".into(), Json::Str(self.storage.clone())),
            ("strategy".into(), Json::Str(self.strategy.clone())),
            ("ranks".into(), ju(self.ranks as u64)),
            ("threads_per_rank".into(), ju(self.threads_per_rank as u64)),
            ("ghost_depth".into(), ju(self.ghost_depth as u64)),
            (
                "global".into(),
                Json::Arr(vec![
                    ju(self.global.0 as u64),
                    ju(self.global.1 as u64),
                    ju(self.global.2 as u64),
                ]),
            ),
            ("steps".into(), ju(self.steps as u64)),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
            ("mflups".into(), Json::Num(self.mflups)),
            (
                "mflups_with_ghost".into(),
                Json::Num(self.mflups_with_ghost),
            ),
            ("comm_min_secs".into(), Json::Num(self.comm_min_secs)),
            ("comm_median_secs".into(), Json::Num(self.comm_median_secs)),
            ("comm_max_secs".into(), Json::Num(self.comm_max_secs)),
            ("mass".into(), Json::Num(self.mass)),
            ("fluid_fraction".into(), Json::Num(self.fluid_fraction)),
            (
                "per_rank".into(),
                Json::Arr(self.per_rank.iter().map(RankReport::to_json).collect()),
            ),
        ])
    }

    /// Inverse of [`RunReport::to_json`]; rejects unknown schema versions.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = gu(v, "schema")? as u32;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "run report schema {schema} (supported: {REPORT_SCHEMA_VERSION})"
            ));
        }
        let global = v
            .get("global")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 3)
            .ok_or("missing or malformed `global`")?;
        let dim = |i: usize| {
            global[i]
                .as_u64()
                .map(|x| x as usize)
                .ok_or("non-integer `global` entry".to_string())
        };
        let per_rank = v
            .get("per_rank")
            .and_then(Json::as_arr)
            .ok_or("missing `per_rank`")?
            .iter()
            .map(RankReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema,
            lattice: gs(v, "lattice")?,
            scenario: gs(v, "scenario")?,
            level: gs(v, "level")?,
            storage: gs(v, "storage")?,
            strategy: gs(v, "strategy")?,
            ranks: gu(v, "ranks")? as usize,
            threads_per_rank: gu(v, "threads_per_rank")? as usize,
            ghost_depth: gu(v, "ghost_depth")? as usize,
            global: (dim(0)?, dim(1)?, dim(2)?),
            steps: gu(v, "steps")? as usize,
            wall_secs: gf(v, "wall_secs")?,
            mflups: gf(v, "mflups")?,
            mflups_with_ghost: gf(v, "mflups_with_ghost")?,
            comm_min_secs: gf(v, "comm_min_secs")?,
            comm_median_secs: gf(v, "comm_median_secs")?,
            comm_max_secs: gf(v, "comm_max_secs")?,
            mass: gf(v, "mass")?,
            // Reports written before the sparse path are all-dense.
            fluid_fraction: gf(v, "fluid_fraction").unwrap_or_else(|_| default_fluid_fraction()),
            per_rank,
        })
    }

    /// Fold a later chunk of the *same* run into this report: counters and
    /// times accumulate, rates are recomputed over the combined span, and
    /// end-of-run state (mass) is taken from the newer chunk. The ensemble
    /// runner uses this to merge per-chunk progress reports into the final
    /// job report.
    pub fn accumulate(&mut self, later: &RunReport) {
        debug_assert_eq!(self.per_rank.len(), later.per_rank.len());
        self.steps += later.steps;
        self.wall_secs += later.wall_secs;
        self.mass = later.mass;
        for (a, b) in self.per_rank.iter_mut().zip(&later.per_rank) {
            a.updates += b.updates;
            a.ghost_updates += b.ghost_updates;
            a.compute_secs += b.compute_secs;
            a.wait_secs += b.wait_secs;
            a.barrier_secs += b.barrier_secs;
            a.collective_secs += b.collective_secs;
            a.messages += b.messages;
            a.bytes += b.bytes;
            a.wall_secs += b.wall_secs;
        }
        let updates: u64 = self.per_rank.iter().map(|r| r.updates).sum();
        let ghost: u64 = self.per_rank.iter().map(|r| r.ghost_updates).sum();
        let wall = self
            .per_rank
            .iter()
            .map(|r| r.wall_secs)
            .fold(0.0, f64::max);
        self.wall_secs = wall;
        (self.mflups, self.mflups_with_ghost) = if wall > 0.0 {
            (
                updates as f64 / wall / 1e6,
                (updates + ghost) as f64 / wall / 1e6,
            )
        } else {
            (0.0, 0.0)
        };
        let mut comms: Vec<f64> = self.per_rank.iter().map(|r| r.comm_secs()).collect();
        comms.sort_by(f64::total_cmp);
        self.comm_min_secs = comms[0];
        self.comm_median_secs = comms[comms.len() / 2];
        self.comm_max_secs = comms[comms.len() - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(rank: usize, wall: f64, wait: f64) -> RankReport {
        RankReport {
            schema: REPORT_SCHEMA_VERSION,
            rank,
            owned_cells: 1000,
            updates: 10_000,
            ghost_updates: 500,
            resident_bytes: 4096,
            compute_secs: wall - wait,
            wait_secs: wait,
            barrier_secs: 0.0,
            collective_secs: 0.0,
            messages: 20,
            bytes: 8000,
            wall_secs: wall,
        }
    }

    #[test]
    fn assemble_reduces_correctly() {
        let rep = RunReport::assemble(
            "D3Q19".into(),
            "taylor_green".into(),
            "SIMD".into(),
            "two_grid".into(),
            "GC-C".into(),
            1,
            2,
            (20, 10, 10),
            10,
            2000.0,
            vec![rr(0, 1.0, 0.1), rr(1, 2.0, 0.4)],
        );
        assert_eq!(rep.ranks, 2);
        assert_eq!(rep.storage, "two_grid");
        assert_eq!(rep.resident_population_bytes(), 8192);
        assert_eq!(rep.wall_secs, 2.0);
        // 20k updates in 2 s = 0.01 MFlup/s.
        assert!((rep.mflups - 0.01).abs() < 1e-12);
        assert!(rep.mflups_with_ghost > rep.mflups);
        assert_eq!(rep.comm_min_secs, 0.1);
        assert_eq!(rep.comm_max_secs, 0.4);
        let gf = rep.ghost_fraction();
        assert!((gf - 1000.0 / 21000.0).abs() < 1e-12);
        assert_eq!(rep.schema, REPORT_SCHEMA_VERSION);
    }

    fn sample_report() -> RunReport {
        RunReport::assemble(
            "D3Q19".into(),
            "taylor_green".into(),
            "SIMD".into(),
            "two_grid".into(),
            "GC-C".into(),
            1,
            2,
            (20, 10, 10),
            10,
            1999.9999999999998, // deliberately non-dyadic
            vec![rr(0, 1.0, 0.1), rr(1, 2.0 / 3.0, 0.4)],
        )
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rep = sample_report();
        let text = rep.to_json().to_string();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        // PartialEq compares the f64 fields by value; shortest-roundtrip
        // rendering makes this exact even for awkward decimals.
        assert_eq!(back, rep);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let rep = sample_report();
        let text = rep.to_json().to_string().replacen(
            &format!("\"schema\":{REPORT_SCHEMA_VERSION}"),
            "\"schema\":99",
            1,
        );
        let err = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
    }

    #[test]
    fn accumulate_merges_chunks_like_one_run() {
        let mut first = sample_report();
        let second = sample_report();
        let single_updates: u64 = first.per_rank.iter().map(|r| r.updates).sum();
        first.accumulate(&second);
        assert_eq!(first.steps, 20);
        let merged_updates: u64 = first.per_rank.iter().map(|r| r.updates).sum();
        assert_eq!(merged_updates, 2 * single_updates);
        // Twice the work in twice the wall time: same throughput.
        assert!((first.mflups - second.mflups).abs() < 1e-12);
        assert_eq!(first.wall_secs, 2.0);
        assert_eq!(first.comm_max_secs, 0.8);
    }
}
