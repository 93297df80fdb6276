//! Binary codec for [`DistField`] snapshots — the payload layer of the
//! checkpoint/restart format.
//!
//! A snapshot must restore a trajectory *bitwise*, so the populations are
//! written as raw little-endian `f64` bits (no text round trip) behind a
//! fixed-layout header, and guarded by an FNV-1a checksum so a truncated or
//! bit-rotted file is rejected instead of silently resuming garbage:
//!
//! ```text
//! u32  codec version        (FIELD_CODEC_VERSION)
//! u32  q                    (velocity count)
//! u64  nx, ny, nz           (owned dims)
//! u64  halo                 (ghost planes per x side)
//! u64  n                    (f64 count = q · alloc_len)
//! n×f64 payload             (slab-major, the field's memory order)
//! u64  FNV-1a over the payload bytes
//! ```
//!
//! The container format (file magic, config header, per-rank framing) lives
//! with the simulation layer; this module only moves fields to and from
//! bytes.

use crate::error::{Error, Result};
use crate::field::DistField;
use crate::index::Dim3;

/// Version of the field byte layout (bump on any layout change).
pub const FIELD_CODEC_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte slice (the snapshot integrity check).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize, what: &str) -> Result<[u8; N]> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::Corrupt(format!("snapshot truncated reading {what}")))?;
    let mut a = [0u8; N];
    a.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(a)
}

fn take_u32(buf: &[u8], pos: &mut usize, what: &str) -> Result<u32> {
    Ok(u32::from_le_bytes(take::<4>(buf, pos, what)?))
}

fn take_u64(buf: &[u8], pos: &mut usize, what: &str) -> Result<u64> {
    Ok(u64::from_le_bytes(take::<8>(buf, pos, what)?))
}

/// Append the binary encoding of `f` (header + raw payload + checksum).
pub fn encode_field(f: &DistField, out: &mut Vec<u8>) {
    let owned = f.owned_dims();
    put_u32(out, FIELD_CODEC_VERSION);
    put_u32(out, f.q() as u32);
    put_u64(out, owned.nx as u64);
    put_u64(out, owned.ny as u64);
    put_u64(out, owned.nz as u64);
    put_u64(out, f.halo() as u64);
    // Slab by slab: the in-memory anti-aliasing pad between slabs is a
    // layout detail, not state, so the payload stays `q · alloc_len`
    // points regardless of the stride the allocator chose.
    let n = f.q() * f.slab_len();
    put_u64(out, n as u64);
    let start = out.len();
    out.reserve(n * 8);
    for i in 0..f.q() {
        for v in f.slab(i) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let sum = fnv1a(&out[start..]);
    put_u64(out, sum);
}

/// One field's parsed frame header plus the byte range of its payload.
struct FieldFrame {
    q: usize,
    owned: Dim3,
    halo: usize,
    /// Payload byte range inside the buffer (`n` f64s, little-endian).
    payload: std::ops::Range<usize>,
}

/// Read and cross-check one frame header starting at `*pos*`, leaving
/// `*pos` at the first payload byte. Every declared size is validated with
/// checked arithmetic *and* bounded by the remaining buffer before anything
/// trusts it, so a bit-flipped dimension can never trigger a huge
/// allocation — it is [`Error::Corrupt`] like any other damage.
fn read_frame(buf: &[u8], pos: &mut usize) -> Result<FieldFrame> {
    let version = take_u32(buf, pos, "codec version")?;
    if version != FIELD_CODEC_VERSION {
        return Err(Error::Corrupt(format!(
            "field codec version {version} (supported: {FIELD_CODEC_VERSION})"
        )));
    }
    let q = take_u32(buf, pos, "q")? as usize;
    let nx = take_u64(buf, pos, "nx")? as usize;
    let ny = take_u64(buf, pos, "ny")? as usize;
    let nz = take_u64(buf, pos, "nz")? as usize;
    let halo = take_u64(buf, pos, "halo")? as usize;
    let n = take_u64(buf, pos, "payload length")? as usize;
    // Bound `n` by the buffer first: payload bytes plus trailing checksum
    // must fit in what is actually there.
    let bytes = n
        .checked_mul(8)
        .and_then(|b| b.checked_add(8))
        .and_then(|b| pos.checked_add(b))
        .filter(|&end| end <= buf.len())
        .map(|_| n * 8)
        .ok_or_else(|| Error::Corrupt("snapshot truncated reading payload".into()))?;
    // Then require the declared shape to reproduce exactly that length.
    let expected = halo
        .checked_mul(2)
        .and_then(|h2| nx.checked_add(h2))
        .and_then(|ax| q.checked_mul(ax))
        .and_then(|v| v.checked_mul(ny))
        .and_then(|v| v.checked_mul(nz));
    if expected != Some(n) {
        return Err(Error::Corrupt(format!(
            "payload length {n} does not match {q}×({nx}+2·{halo})×{ny}×{nz}"
        )));
    }
    let payload = *pos..*pos + bytes;
    *pos = payload.end;
    Ok(FieldFrame {
        q,
        owned: Dim3::new(nx, ny, nz),
        halo,
        payload,
    })
}

/// Verify the trailing checksum of a frame whose payload is `payload`.
fn check_sum(buf: &[u8], pos: &mut usize, payload: &std::ops::Range<usize>) -> Result<()> {
    let want = fnv1a(&buf[payload.clone()]);
    let got = take_u64(buf, pos, "checksum")?;
    if got != want {
        return Err(Error::Corrupt(format!(
            "payload checksum mismatch: stored {got:#018x}, computed {want:#018x}"
        )));
    }
    Ok(())
}

/// Decode one field starting at `*pos`, advancing `*pos` past it. The
/// payload is restored bit-for-bit; version, shape and checksum mismatches
/// are rejected as [`Error::Corrupt`].
pub fn decode_field(buf: &[u8], pos: &mut usize) -> Result<DistField> {
    validate_field(buf, pos)?.decode()
}

/// Walk one field frame starting at `*pos` and verify its framing and
/// FNV-1a checksum *without* allocating a [`DistField`]. This is the cheap
/// integrity probe behind checkpoint validation: callers can scan a whole
/// container for damage before committing to a resume, and then decode the
/// frames they kept without hashing them again.
pub fn validate_field<'a>(buf: &'a [u8], pos: &mut usize) -> Result<CheckedField<'a>> {
    let frame = read_frame(buf, pos)?;
    check_sum(buf, pos, &frame.payload)?;
    Ok(CheckedField { buf, frame })
}

/// A field frame whose framing and checksum [`validate_field`] verified.
pub struct CheckedField<'a> {
    buf: &'a [u8],
    frame: FieldFrame,
}

impl CheckedField<'_> {
    /// The field, restored bit-for-bit from the checked payload.
    pub fn decode(&self) -> Result<DistField> {
        let frame = &self.frame;
        let mut f = DistField::new(frame.q, frame.owned, frame.halo)?;
        debug_assert_eq!(f.q() * f.slab_len() * 8, frame.payload.len());
        let payload = &self.buf[frame.payload.clone()];
        let mut chunks = payload.chunks_exact(8);
        for i in 0..frame.q {
            for v in f.slab_mut(i) {
                let chunk = chunks.next().expect("payload length checked by frame");
                *v = f64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            }
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistField {
        let mut f = DistField::new(3, Dim3::new(4, 2, 2), 1).unwrap();
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            // Awkward bit patterns: subnormals, negatives, non-dyadic.
            *v = (i as f64 + 0.1) * if i % 2 == 0 { 1.0 } else { -1e-310 };
        }
        f
    }

    #[test]
    fn round_trip_is_bitwise() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        let mut pos = 0;
        let g = decode_field(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(g.q(), f.q());
        assert_eq!(g.owned_dims(), f.owned_dims());
        assert_eq!(g.halo(), f.halo());
        for i in 0..f.q() {
            for (a, b) in f.slab(i).iter().zip(g.slab(i)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn multiple_fields_concatenate() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        encode_field(&f, &mut buf);
        let mut pos = 0;
        let a = decode_field(&buf, &mut pos).unwrap();
        let b = decode_field(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(a.max_abs_diff_owned(&b), 0.0);
    }

    #[test]
    fn corruption_is_detected() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        // Flip one payload bit.
        let mid = buf.len() / 2;
        buf[mid] ^= 1;
        let mut pos = 0;
        assert!(matches!(
            decode_field(&buf, &mut pos),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        buf.truncate(buf.len() - 9);
        let mut pos = 0;
        assert!(matches!(
            decode_field(&buf, &mut pos),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn validate_walks_without_allocating() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        encode_field(&f, &mut buf);
        let mut pos = 0;
        validate_field(&buf, &mut pos).unwrap();
        validate_field(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        let mut pos = 0;
        let a = validate_field(&buf, &mut pos);
        let b = validate_field(&buf, &mut pos);
        assert!(
            a.is_err() || b.is_err(),
            "a flipped payload bit must fail validation"
        );
    }

    #[test]
    fn absurd_declared_dims_are_corrupt_not_fatal() {
        // A bit flip in a dimension field must be rejected *before* any
        // allocation is sized from it — no OOM, no abort, just Corrupt.
        let f = sample();
        let mut clean = Vec::new();
        encode_field(&f, &mut clean);
        for bit in [40usize, 62, 63] {
            let mut buf = clean.clone();
            // nx starts at byte 8 (version u32 + q u32).
            buf[8 + bit / 8] ^= 1 << (bit % 8);
            let mut pos = 0;
            assert!(
                matches!(decode_field(&buf, &mut pos), Err(Error::Corrupt(_))),
                "nx bit {bit}"
            );
            let mut pos = 0;
            assert!(matches!(
                validate_field(&buf, &mut pos),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let f = sample();
        let mut buf = Vec::new();
        encode_field(&f, &mut buf);
        buf[0] = 99;
        let mut pos = 0;
        assert!(matches!(
            decode_field(&buf, &mut pos),
            Err(Error::Corrupt(_))
        ));
    }
}
