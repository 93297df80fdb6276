//! The versioned checkpoint container: full-state serialization behind
//! [`Simulation::checkpoint`] / [`Simulation::resume`].
//!
//! Layout:
//!
//! ```text
//! 8 bytes  magic "LBMCKPT\0"
//! u32      container version (CHECKPOINT_VERSION)
//! u64      header length in bytes
//! …        JSON header: schema, step_no, cycle, full config (lattice,
//!          order, global, tau, ranks, threads, ghost depth, level,
//!          storage, strategy, jitter, skew, init amplitude, scenario spec)
//! u64      FNV-1a over the header bytes (v2+)
//! …        sparse runs only (header `config.geometry` is true): the
//!          voxel geometry as a self-checksummed RLE frame
//!          (lbm_core::geometry frame codec)
//! per rank a binary DistField snapshot of the owned planes
//!          (lbm_core::snapshot codec: versioned, FNV-1a checksummed)
//! ```
//!
//! Every region is tamper-evident: the magic/version/length fields are
//! structurally checked, the JSON header carries its own FNV-1a, and each
//! rank payload is checksummed by the field codec — so [`validate`] can
//! certify a container end to end without building an engine, and
//! [`decode`] refuses damaged bytes with [`Error::Corrupt`] instead of
//! resuming garbage.
//!
//! For supervised jobs checkpoints rotate through numbered *generations*
//! (`<name>.gen000007.ckpt`); the generation number lives only in the file
//! name, never in the bytes, so a job's final checkpoint stays bitwise
//! comparable with one taken by an uninterrupted serial run.
//!
//! The header is text so checkpoints stay inspectable (`head -c` shows the
//! whole config); the payload is raw `f64` bits so a resumed trajectory is
//! *bitwise* the uninterrupted one. Halos are deliberately absent: the
//! deep-halo invariant keeps ghost planes bitwise equal to the neighbour's
//! owned planes, so the first cycle after a resume re-derives them with a
//! just-in-time exchange (a self-fill on one rank). A resumed rank is
//! therefore never filled with the initial state: it is allocated and its
//! snapshot decoded and restored on its own construction thread. Scenario
//! state travels as a
//! [`ScenarioSpec`](crate::scenario::ScenarioSpec) — every shipped scenario
//! is RNG-free, so its parameters are its entire state. The link-cost model
//! shapes timings, never populations, and is not serialized.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lbm_core::equilibrium::EqOrder;
use lbm_core::error::{Error, Result};
use lbm_core::field::StorageMode;
use lbm_core::geometry::Geometry;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::LatticeKind;
use lbm_core::snapshot;

use crate::config::CommStrategy;
use crate::json::Json;
use crate::scenario::ScenarioSpec;
use crate::simulation::Simulation;
use crate::sparse::AnySolver;

/// File magic leading every checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"LBMCKPT\0";

/// Version of the checkpoint container layout (bump on any change).
/// v2 added the FNV-1a header checksum.
pub const CHECKPOINT_VERSION: u32 = 2;

fn corrupt(m: impl Into<String>) -> Error {
    Error::Corrupt(m.into())
}

/// Summary of a container that passed [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Trajectory step count at the checkpoint.
    pub step_no: u64,
    /// Kernel cycle counter (distinguishes AA-pair phases).
    pub cycle: u64,
    /// Number of rank snapshots in the payload.
    pub ranks: usize,
}

/// How many rotated checkpoint generations a supervised job keeps on disk.
/// Older generations are pruned after each successful write; keeping at
/// least two lets resume fall back a generation when the newest file is
/// damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Number of newest generations retained (must be ≥ 1).
    pub keep: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self { keep: 2 }
    }
}

impl RetentionPolicy {
    /// Policy retaining the newest `keep` generations.
    pub fn keep(keep: usize) -> Self {
        Self { keep }
    }

    /// Delete generations of `name` older than the newest `keep`, given the
    /// most recently written generation number. Best-effort: unlink errors
    /// are ignored (a leftover file only wastes space).
    pub fn prune(&self, dir: &Path, name: &str, newest: u64) {
        let cut = (newest + 1).saturating_sub(self.keep as u64);
        for (generation, path) in list_generations(dir, name) {
            if generation < cut {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Path of checkpoint generation `generation` for job `name` under `dir`.
pub fn generation_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    dir.join(format!("{name}.gen{generation:06}.ckpt"))
}

/// Every on-disk checkpoint generation for `name`, ascending by generation
/// number. A missing/unreadable directory yields an empty list.
pub fn list_generations(dir: &Path, name: &str) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let prefix = format!("{name}.gen");
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(file) = file.to_str() else { continue };
        let Some(digits) = file
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".ckpt"))
        else {
            continue;
        };
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(generation) = digits.parse::<u64>() {
                out.push((generation, entry.path()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Write `bytes` to `path` through a sibling temp file + rename, so a kill
/// mid-write can never leave a torn file at the target path. The rename is
/// atomic on POSIX filesystems; on failure the temp file is cleaned up.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file = path
        .file_name()
        .ok_or_else(|| {
            Error::Io(format!(
                "checkpoint path `{}` has no file name",
                path.display()
            ))
        })?
        .to_string_lossy();
    let tmp = path.with_file_name(format!(".{file}.tmp"));
    std::fs::write(&tmp, bytes).map_err(|e| Error::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        Error::Io(format!("{}: {e}", path.display()))
    })
}

/// Serialize `sim`'s live state (materialising the engine if needed).
pub(crate) fn encode(sim: &mut Simulation) -> Result<Vec<u8>> {
    let cfg = sim.config().clone();
    let scenario_spec = match &cfg.scenario {
        None => None,
        Some(h) => Some(h.spec().ok_or_else(|| {
            Error::BadParameter(format!(
                "scenario `{}` has no ScenarioSpec and cannot be checkpointed",
                h.name()
            ))
        })?),
    };
    let engine = sim.engine_mut()?;
    let step_no = engine.ranks[0].solver.steps_done();
    let cycle = engine.ranks[0].solver.cycle();
    for rs in &engine.ranks {
        if rs.solver.steps_done() != step_no || rs.solver.cycle() != cycle {
            return Err(Error::Mismatch(format!(
                "ranks out of lockstep at checkpoint: rank 0 at step {step_no}, \
                 rank {} at step {}",
                rs.comm.rank(),
                rs.solver.steps_done()
            )));
        }
    }

    let config = Json::Obj(vec![
        ("lattice".into(), Json::Str(cfg.lattice.name().into())),
        (
            "order".into(),
            match cfg.order {
                None => Json::Null,
                Some(EqOrder::Second) => Json::Str("second".into()),
                Some(EqOrder::Third) => Json::Str("third".into()),
            },
        ),
        (
            "global".into(),
            Json::Arr(vec![
                Json::Int(cfg.global.nx as i64),
                Json::Int(cfg.global.ny as i64),
                Json::Int(cfg.global.nz as i64),
            ]),
        ),
        ("tau".into(), Json::Num(cfg.tau)),
        ("ranks".into(), Json::Int(cfg.ranks as i64)),
        (
            "threads_per_rank".into(),
            Json::Int(cfg.threads_per_rank as i64),
        ),
        ("ghost_depth".into(), Json::Int(cfg.ghost_depth as i64)),
        ("level".into(), Json::Str(cfg.level.name().into())),
        ("storage".into(), Json::Str(cfg.storage.name().into())),
        (
            "strategy".into(),
            match cfg.strategy {
                None => Json::Null,
                Some(s) => Json::Str(s.label().into()),
            },
        ),
        ("compute_jitter".into(), Json::Num(cfg.compute_jitter)),
        ("compute_skew".into(), Json::Num(cfg.compute_skew)),
        ("init_u0".into(), Json::Num(cfg.init_u0)),
        (
            "scenario".into(),
            scenario_spec
                .as_ref()
                .map_or(Json::Null, ScenarioSpec::to_json),
        ),
        // Presence marker only: the voxels travel as a binary RLE frame
        // between the header checksum and the rank snapshots.
        ("geometry".into(), Json::Bool(cfg.geometry.is_some())),
    ]);
    let header = Json::Obj(vec![
        ("schema".into(), Json::Int(CHECKPOINT_VERSION as i64)),
        ("step_no".into(), Json::Int(step_no as i64)),
        ("cycle".into(), Json::Int(cycle as i64)),
        ("config".into(), config),
    ])
    .to_string();

    let mut out = Vec::new();
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header.len() as u64).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&snapshot::fnv1a(header.as_bytes()).to_le_bytes());
    if let Some(geom) = &cfg.geometry {
        geom.encode_frame(&mut out);
    }
    for rs in &engine.ranks {
        snapshot::encode_field(&rs.solver.owned_snapshot(), &mut out);
    }
    Ok(out)
}

/// Parse and integrity-check everything up to the first rank snapshot:
/// magic, version, header length, UTF-8/JSON header and its FNV-1a.
/// Returns the parsed header and the byte offset of the first snapshot.
fn parse_container(bytes: &[u8]) -> Result<(Json, usize)> {
    if bytes.len() < 20 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("not a checkpoint (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!(
            "checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
        )));
    }
    let header_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let header_end = 20usize
        .checked_add(header_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| corrupt("checkpoint truncated in header"))?;
    let body = header_end
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| corrupt("checkpoint truncated in header checksum"))?;
    let stored = u64::from_le_bytes(bytes[header_end..body].try_into().expect("8 bytes"));
    let computed = snapshot::fnv1a(&bytes[20..header_end]);
    if stored != computed {
        return Err(corrupt(format!(
            "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let header_text = std::str::from_utf8(&bytes[20..header_end])
        .map_err(|_| corrupt("checkpoint header is not UTF-8"))?;
    let header = Json::parse(header_text).map_err(corrupt)?;
    Ok((header, body))
}

/// Integrity-check a whole container — framing, header checksum, every
/// rank payload's FNV-1a — without allocating fields or building an
/// engine. This is the probe resume uses to pick the newest undamaged
/// generation, and the cheap half of "never resume silently wrong".
pub fn validate(bytes: &[u8]) -> Result<CheckpointInfo> {
    Ok(walk(bytes)?.info)
}

/// A checkpoint container that passed [`validate`]: its bytes, its parsed
/// header and every rank frame it checked. Only [`Self::new`] builds one,
/// so [`Self::resume`] decodes bytes that were hashed exactly once — the
/// form in which a supervisor hands the generation it picked to the
/// attempt that resumes it.
pub struct ValidCheckpoint(Walked<Arc<Vec<u8>>>);

impl ValidCheckpoint {
    /// Validate `bytes` as [`validate`] does, keeping them with what the
    /// walk learned.
    pub fn new(bytes: Vec<u8>) -> Result<Self> {
        Ok(Self(walk(Arc::new(bytes))?))
    }

    /// The container's step and cycle counters and rank count.
    pub fn info(&self) -> CheckpointInfo {
        self.0.info
    }

    /// Rebuild the simulation, as [`Simulation::resume_bytes`] does, from
    /// the frames checked in [`Self::new`], without hashing them again.
    pub fn resume(self) -> Result<Simulation> {
        restore(self.0)
    }
}

/// What [`walk`] learns of a container that passed validation, with the
/// handle `B` to its bytes.
struct Walked<B> {
    bytes: B,
    header: Json,
    info: CheckpointInfo,
    /// Offset of the geometry frame (sparse runs) or first rank snapshot.
    body: usize,
    /// Each rank's checked snapshot frame, in rank order.
    frames: Vec<snapshot::CheckedField<B>>,
}

/// [`validate`], keeping the parsed header and every checked frame.
fn walk<B>(buf: B) -> Result<Walked<B>>
where
    B: Clone + Deref,
    B::Target: AsRef<[u8]>,
{
    let bytes = (*buf).as_ref();
    let (header, body) = parse_container(bytes)?;
    let int = |key: &str| -> Result<u64> {
        header
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt(format!("header missing `{key}`")))
    };
    let schema = int("schema")? as u32;
    if schema != CHECKPOINT_VERSION {
        return Err(corrupt(format!("header schema {schema}")));
    }
    let step_no = int("step_no")?;
    let cycle = int("cycle")?;
    let ranks = header
        .get("config")
        .and_then(|c| c.get("ranks"))
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("header missing `config.ranks`"))? as usize;
    let has_geometry = header
        .get("config")
        .and_then(|c| c.get("geometry"))
        .and_then(Json::as_bool)
        // Pre-sparse containers have no key: all-dense.
        .unwrap_or(false);
    let mut pos = body;
    if has_geometry {
        Geometry::validate_frame(bytes, &mut pos)?;
    }
    let mut frames = Vec::new();
    while pos < bytes.len() {
        frames.push(snapshot::validate_field(buf.clone(), &mut pos)?);
    }
    if frames.len() != ranks {
        return Err(corrupt(format!(
            "container holds {} rank snapshots, header declares {ranks}",
            frames.len()
        )));
    }
    Ok(Walked {
        bytes: buf,
        header,
        info: CheckpointInfo {
            step_no,
            cycle,
            ranks,
        },
        body,
        frames,
    })
}

/// Rebuild a [`Simulation`] from checkpoint bytes. The whole container is
/// [`validate`]d up front, so no engine is ever built from damaged bytes.
/// Each rank's checked snapshot is then decoded, without hashing it again,
/// and restored on that rank's construction thread, into a rank that skips
/// the initial fill.
pub(crate) fn decode(bytes: &[u8]) -> Result<Simulation> {
    restore(walk(bytes)?)
}

/// The simulation of a walked container (see [`decode`]).
fn restore<B>(walked: Walked<B>) -> Result<Simulation>
where
    B: Deref + Sync,
    B::Target: AsRef<[u8]>,
{
    let Walked {
        bytes,
        header,
        info: CheckpointInfo { step_no, cycle, .. },
        body,
        frames,
    } = walked;
    let bytes = (*bytes).as_ref();

    let int = |v: &Json, key: &str| -> Result<u64> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt(format!("header missing `{key}`")))
    };
    let num = |v: &Json, key: &str| -> Result<f64> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| corrupt(format!("header missing `{key}`")))
    };
    let text = |v: &Json, key: &str| -> Result<String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| corrupt(format!("header missing `{key}`")))
    };

    let config = header
        .get("config")
        .ok_or_else(|| corrupt("header missing `config`"))?;

    let lattice_label = text(config, "lattice")?;
    let lattice = LatticeKind::parse(&lattice_label)
        .ok_or_else(|| corrupt(format!("unknown lattice `{lattice_label}`")))?;
    let global = config
        .get("global")
        .and_then(Json::as_arr)
        .filter(|a| a.len() == 3)
        .ok_or_else(|| corrupt("header missing `global`"))?;
    let dim = |i: usize| -> Result<usize> {
        global[i]
            .as_u64()
            .map(|x| x as usize)
            .ok_or_else(|| corrupt("non-integer `global` entry"))
    };
    let global = lbm_core::index::Dim3::new(dim(0)?, dim(1)?, dim(2)?);
    let level_label = text(config, "level")?;
    let level = OptLevel::parse(&level_label)
        .ok_or_else(|| corrupt(format!("unknown level `{level_label}`")))?;
    let storage_label = text(config, "storage")?;
    let storage = StorageMode::parse(&storage_label)
        .ok_or_else(|| corrupt(format!("unknown storage `{storage_label}`")))?;

    let mut b = Simulation::builder(lattice, global)
        .tau(num(config, "tau")?)
        .ranks(int(config, "ranks")? as usize)
        .threads(int(config, "threads_per_rank")? as usize)
        .ghost_depth(int(config, "ghost_depth")? as usize)
        .level(level)
        .storage(storage)
        .jitter(num(config, "compute_jitter")?)
        .compute_skew(num(config, "compute_skew")?)
        .init_amplitude(num(config, "init_u0")?);
    match config.get("order") {
        None | Some(Json::Null) => {}
        Some(Json::Str(s)) if s == "second" => b = b.order(EqOrder::Second),
        Some(Json::Str(s)) if s == "third" => b = b.order(EqOrder::Third),
        Some(other) => return Err(corrupt(format!("unknown order `{other}`"))),
    }
    match config.get("strategy") {
        None | Some(Json::Null) => {}
        Some(Json::Str(s)) => {
            b = b.strategy(
                parse_strategy(s).ok_or_else(|| corrupt(format!("unknown strategy `{s}`")))?,
            );
        }
        Some(other) => return Err(corrupt(format!("malformed strategy `{other}`"))),
    }
    match config.get("scenario") {
        None | Some(Json::Null) => {}
        Some(spec) => {
            let spec = ScenarioSpec::from_json(spec).map_err(corrupt)?;
            b = b.scenario(spec.to_handle());
        }
    }
    let mut pos = body;
    if let Some(Json::Bool(true)) = config.get("geometry") {
        b = b.geometry(Geometry::decode_frame(bytes, &mut pos)?);
    }

    let mut sim = b.build().map_err(Error::from)?;
    sim.build_engine(|cfg, rank| {
        let snap = frames[rank].decode()?;
        AnySolver::restored(cfg, rank, &snap, step_no, cycle)
    })?;
    Ok(sim)
}

/// Inverse of [`CommStrategy::label`].
fn parse_strategy(label: &str) -> Option<CommStrategy> {
    match label {
        "Blocking" => Some(CommStrategy::Blocking),
        "NB-C" => Some(CommStrategy::NonBlockingEager),
        "NB-C & GC" => Some(CommStrategy::NonBlockingGhost),
        "GC-C" => Some(CommStrategy::OverlapGhostCollide),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PoiseuilleChannel;
    use lbm_core::index::Dim3;

    #[test]
    fn checkpoint_bytes_are_stable_and_resumable() {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 11, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .tau(0.9)
            .ranks(2)
            .build()
            .unwrap();
        sim.run_local(5).unwrap();
        let bytes = sim.checkpoint().unwrap();
        assert_eq!(&bytes[..8], CHECKPOINT_MAGIC);
        // Checkpointing is a pure read: doing it again yields identical
        // bytes, and a resumed simulation checkpoints identically too.
        assert_eq!(sim.checkpoint().unwrap(), bytes);
        let mut resumed = Simulation::resume_bytes(&bytes).unwrap();
        assert_eq!(resumed.steps_done(), 5);
        assert_eq!(resumed.checkpoint().unwrap(), bytes);
    }

    #[test]
    fn a_valid_checkpoint_resumes_as_the_bytes_do() {
        // What the supervisor hands an attempt: the checked container
        // resumes to the state `resume_bytes` restores, and continues the
        // same trajectory; damaged bytes never make one.
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 11, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .tau(0.9)
            .ranks(2)
            .build()
            .unwrap();
        sim.run_local(5).unwrap();
        let bytes = sim.checkpoint().unwrap();
        let valid = ValidCheckpoint::new(bytes.clone()).unwrap();
        assert_eq!(valid.info(), validate(&bytes).unwrap());
        let mut resumed = valid.resume().unwrap();
        assert_eq!(resumed.steps_done(), 5);
        assert_eq!(resumed.checkpoint().unwrap(), bytes);
        let mut plain = Simulation::resume_bytes(&bytes).unwrap();
        resumed.run_local(3).unwrap();
        plain.run_local(3).unwrap();
        assert_eq!(resumed.checkpoint().unwrap(), plain.checkpoint().unwrap());

        let mut bad = bytes.clone();
        let last = bad.len() - 20;
        bad[last] ^= 1;
        assert!(ValidCheckpoint::new(bad).is_err(), "payload bit flip");
        assert!(
            ValidCheckpoint::new(bytes[..bytes.len() - 1].to_vec()).is_err(),
            "truncated"
        );
    }

    #[test]
    fn written_json_nests_far_below_the_parser_bound() {
        // The deepest documents the crate writes, a sparse checkpoint's
        // header and a run report, must parse back well inside
        // `json::MAX_DEPTH`.
        use crate::json::MAX_DEPTH;
        use crate::scenario::ForcedFlow;
        use lbm_core::geometry::Geometry;

        let global = Dim3::new(8, 12, 12);
        let mut sim = Simulation::builder(LatticeKind::D3Q19, global)
            .scenario(ForcedFlow::new(4e-6))
            .geometry(Geometry::pipe(global, 4.0).unwrap())
            .ranks(2)
            .build()
            .unwrap();
        let report = sim.run(1).unwrap().to_json().to_string();
        let (header, _) = parse_container(&sim.checkpoint().unwrap()).unwrap();
        for doc in [header, Json::parse(&report).unwrap()] {
            assert!(4 * doc.depth() <= MAX_DEPTH, "depth {}", doc.depth());
        }
    }

    #[test]
    fn sparse_checkpoints_carry_geometry_and_resume_bitwise() {
        use crate::scenario::ForcedFlow;
        use lbm_core::geometry::Geometry;

        let global = Dim3::new(16, 16, 16);
        let geom = Geometry::pipe(global, 5.0).unwrap();
        let build = || {
            Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(ForcedFlow::new(4e-6).with_pulse(0.5, 40))
                .geometry(geom.clone())
                .ranks(2)
                .build()
                .unwrap()
        };
        // Before the first step: the resumed ranks get no initial fill, so
        // their ghost frames come from the first exchange alone.
        let mut sim = build();
        let bytes = sim.checkpoint().unwrap();
        let mut resumed = Simulation::resume_bytes(&bytes).unwrap();
        sim.run_local(5).unwrap();
        resumed.run_local(5).unwrap();
        assert_eq!(resumed.checkpoint().unwrap(), sim.checkpoint().unwrap());

        let mut sim = build();
        sim.run_local(5).unwrap();
        let bytes = sim.checkpoint().unwrap();
        let info = validate(&bytes).unwrap();
        assert_eq!((info.step_no, info.ranks), (5, 2));

        // Resume rebuilds the geometry from the container alone and the
        // resumed trajectory is bitwise the uninterrupted one.
        let mut resumed = Simulation::resume_bytes(&bytes).unwrap();
        assert_eq!(resumed.steps_done(), 5);
        assert!(resumed.config().geometry.is_some());
        sim.run_local(5).unwrap();
        resumed.run_local(5).unwrap();
        assert_eq!(resumed.checkpoint().unwrap(), sim.checkpoint().unwrap());

        // Flipping a bit inside the geometry frame is Corrupt, not a
        // silently different pipe.
        let frame_at = 20 + {
            let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
            len + 8
        };
        assert_eq!(
            &bytes[frame_at..frame_at + 8],
            lbm_core::geometry::GEOMETRY_FRAME_MAGIC
        );
        let mut bad = bytes.clone();
        bad[frame_at + 40] ^= 1;
        assert!(matches!(
            Simulation::resume_bytes(&bad),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn sparse_aa_checkpoints_resume_bitwise_mid_pair() {
        use crate::scenario::ForcedFlow;
        use lbm_core::geometry::Geometry;

        let global = Dim3::new(16, 16, 16);
        let geom = Geometry::pipe(global, 5.0).unwrap();
        // 5 steps: an odd, slot-swapped mid-pair state — the checkpoint
        // stores the raw frames and the parity comes back from `step_no`.
        // 0 steps: ranks resumed before the first step, with no initial
        // fill behind them.
        for a in [0, 5] {
            let mut sim = Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(ForcedFlow::new(4e-6))
                .geometry(geom.clone())
                .storage(StorageMode::InPlaceAa)
                .ranks(2)
                .build()
                .unwrap();
            sim.run_local(a).unwrap();
            let bytes = sim.checkpoint().unwrap();
            let mut resumed = Simulation::resume_bytes(&bytes).unwrap();
            assert_eq!(resumed.steps_done(), a as u64);
            assert_eq!(resumed.config().storage, StorageMode::InPlaceAa);
            sim.run_local(5).unwrap();
            resumed.run_local(5).unwrap();
            assert_eq!(
                resumed.checkpoint().unwrap(),
                sim.checkpoint().unwrap(),
                "a = {a}"
            );
        }
    }

    #[test]
    fn tampered_checkpoints_are_rejected() {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 8, 8))
            .build()
            .unwrap();
        sim.run_local(2).unwrap();
        let bytes = sim.checkpoint().unwrap();
        assert!(Simulation::resume_bytes(&bytes[..40]).is_err(), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(Simulation::resume_bytes(&bad_magic).is_err());
        let mut bad_payload = bytes.clone();
        let n = bad_payload.len();
        bad_payload[n - 20] ^= 1;
        assert!(
            matches!(
                Simulation::resume_bytes(&bad_payload),
                Err(Error::Corrupt(_))
            ),
            "payload bit flip must fail the checksum"
        );
        // The JSON header is checksummed too (v2): flipping a bit inside
        // it — even one that keeps the JSON parseable — is Corrupt.
        let mut bad_header = bytes.clone();
        bad_header[24] ^= 1;
        assert!(matches!(
            Simulation::resume_bytes(&bad_header),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn validate_reports_info_without_an_engine() {
        let mut sim = Simulation::builder(LatticeKind::D3Q19, Dim3::new(8, 11, 8))
            .scenario(PoiseuilleChannel::new(1e-5))
            .ranks(2)
            .build()
            .unwrap();
        sim.run_local(3).unwrap();
        let bytes = sim.checkpoint().unwrap();
        let info = validate(&bytes).unwrap();
        assert_eq!(info.step_no, 3);
        assert_eq!(info.ranks, 2);
        // Dropping the last rank snapshot is caught by the frame count.
        let truncated = &bytes[..bytes.len() - 8];
        assert!(matches!(validate(truncated), Err(Error::Corrupt(_))));
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("lbm-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(leftovers.len(), 1, "no temp file survives a write");
        // A bad target directory is an Io error, not a panic.
        assert!(matches!(
            write_atomic(&dir.join("no-such-dir").join("x.ckpt"), b"x"),
            Err(Error::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_list_sorted_and_prune_respects_retention() {
        let dir = std::env::temp_dir().join(format!("lbm-gens-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for g in [2u64, 0, 1, 3] {
            std::fs::write(generation_path(&dir, "job-a", g), [g as u8]).unwrap();
        }
        // Foreign and malformed files are ignored.
        std::fs::write(dir.join("job-b.gen000000.ckpt"), b"x").unwrap();
        std::fs::write(dir.join("job-a.genXYZ.ckpt"), b"x").unwrap();
        let gens = list_generations(&dir, "job-a");
        assert_eq!(
            gens.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );

        RetentionPolicy::keep(2).prune(&dir, "job-a", 3);
        let gens = list_generations(&dir, "job-a");
        assert_eq!(gens.iter().map(|(g, _)| *g).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(list_generations(&dir, "job-b").len(), 1, "other jobs kept");
        assert!(list_generations(&dir.join("missing"), "job-a").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
