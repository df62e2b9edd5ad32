//! Versioned little-endian binary (de)serialization for the cacheable
//! trace types.
//!
//! JSON ([`crate::jsonio`]) would be slow and bulky here: a Small-scale
//! SDM trace is tens of megabytes of ASCII digits that would be re-parsed
//! on every suite load. This codec stores the data as fixed-width
//! little-endian fields behind a 5-byte header — the magic
//! [`MAGIC`] (`"DITB"`) followed by the [`FORMAT_VERSION`] byte — so loads
//! are a single pass with no number parsing, and stale caches from a future
//! (or corrupted) format are rejected cleanly instead of misread. Every
//! decode error is recoverable: `bench::store` treats any [`BinError`] as a
//! cache miss, and the artifact is recomputed.
//!
//! Wire format (all multi-byte values little-endian):
//!
//! | type        | encoding                                     |
//! |-------------|----------------------------------------------|
//! | `u64`       | 8 bytes                                      |
//! | `f32`       | 4 bytes (IEEE-754 bits, exact round-trip)    |
//! | `f64`       | 8 bytes (IEEE-754 bits, exact round-trip)    |
//! | `bool`      | 1 byte, `0`/`1`                              |
//! | `String`    | `u32` byte length + UTF-8 bytes              |
//! | `Vec<T>`    | `u32` element count + elements               |
//! | `Option<T>` | 1 tag byte (`0` none / `1` some) + payload   |
//! | enums       | 1 discriminant byte                          |

use crate::similarity::SimilarityReport;
use crate::trace::{LayerMeta, LinearKind, StepStats, SubOp, WorkloadTrace};
use quant::BitWidthHistogram;

/// File magic identifying a Ditto binary cache artifact.
pub const MAGIC: [u8; 4] = *b"DITB";

/// Current wire-format version. Bump on any layout change; readers reject
/// other versions so stale caches regenerate instead of decoding garbage.
pub const FORMAT_VERSION: u8 = 1;

/// Decode failure: what was expected and where it went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError(pub String);

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary codec error: {}", self.0)
    }
}

impl std::error::Error for BinError {}

fn err<T>(msg: impl Into<String>) -> Result<T, BinError> {
    Err(BinError(msg.into()))
}

/// Cursor over an encoded byte buffer.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload (header already stripped by [`from_slice`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        match self.bytes.get(self.pos..self.pos + n) {
            Some(chunk) => {
                self.pos += n;
                Ok(chunk)
            }
            None => err(format!(
                "truncated: wanted {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )),
        }
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte chunk")))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte chunk")))
    }

    /// Reads a length prefix, sanity-capped against the bytes actually left
    /// so a corrupt count cannot trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, BinError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return err(format!("corrupt length {n} exceeds remaining {} bytes", self.remaining()));
        }
        Ok(n)
    }
}

/// Types encodable to the binary wire format.
pub trait ToBin {
    /// Appends the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);
}

/// Types decodable from the binary wire format.
pub trait FromBin: Sized {
    /// Decodes a value of `Self`, advancing the reader.
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError>;
}

/// Serializes `value` with the magic + version header.
pub fn to_vec<T: ToBin>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(FORMAT_VERSION);
    value.write(&mut out);
    out
}

/// Deserializes a buffer produced by [`to_vec`], checking the header and
/// that the payload is fully consumed.
pub fn from_slice<T: FromBin>(bytes: &[u8]) -> Result<T, BinError> {
    if bytes.len() < MAGIC.len() + 1 {
        return err("shorter than the magic + version header");
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return err("bad magic (not a Ditto binary cache file)");
    }
    let version = bytes[MAGIC.len()];
    if version != FORMAT_VERSION {
        return err(format!("format version {version}, expected {FORMAT_VERSION}"));
    }
    let mut r = Reader::new(&bytes[MAGIC.len() + 1..]);
    let value = T::read(&mut r)?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after payload", r.remaining()));
    }
    Ok(value)
}

impl ToBin for u64 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromBin for u64 {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        r.u64()
    }
}

impl ToBin for usize {
    fn write(&self, out: &mut Vec<u8>) {
        (*self as u64).write(out);
    }
}

impl FromBin for usize {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        usize::try_from(r.u64()?).map_err(|_| BinError("u64 out of usize range".into()))
    }
}

impl ToBin for f32 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromBin for f32 {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(f32::from_le_bytes(r.take(4)?.try_into().expect("4-byte chunk")))
    }
}

impl ToBin for f64 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromBin for f64 {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(f64::from_le_bytes(r.take(8)?.try_into().expect("8-byte chunk")))
    }
}

impl ToBin for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl FromBin for bool {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => err(format!("invalid bool byte {other}")),
        }
    }
}

impl ToBin for String {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
}

impl FromBin for String {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        let n = r.len(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinError("invalid UTF-8 string".into()))
    }
}

impl<T: ToBin> ToBin for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.write(out);
        }
    }
}

impl<T: FromBin> FromBin for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        // Elements are at least one byte on the wire, which bounds the
        // pre-allocation for corrupt counts.
        let n = r.len(1)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl<T: ToBin> ToBin for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
}

impl<T: FromBin> FromBin for Option<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            other => err(format!("invalid Option tag {other}")),
        }
    }
}

impl ToBin for BitWidthHistogram {
    fn write(&self, out: &mut Vec<u8>) {
        self.zero.write(out);
        self.low4.write(out);
        self.full8.write(out);
        self.over8.write(out);
    }
}

impl FromBin for BitWidthHistogram {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(BitWidthHistogram {
            zero: u64::read(r)?,
            low4: u64::read(r)?,
            full8: u64::read(r)?,
            over8: u64::read(r)?,
        })
    }
}

impl ToBin for LinearKind {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LinearKind::Conv => 0,
            LinearKind::Fc => 1,
            LinearKind::MatmulQk => 2,
            LinearKind::MatmulPv => 3,
        });
    }
}

impl FromBin for LinearKind {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        match r.u8()? {
            0 => Ok(LinearKind::Conv),
            1 => Ok(LinearKind::Fc),
            2 => Ok(LinearKind::MatmulQk),
            3 => Ok(LinearKind::MatmulPv),
            other => err(format!("unknown LinearKind discriminant {other}")),
        }
    }
}

impl ToBin for SubOp {
    fn write(&self, out: &mut Vec<u8>) {
        self.label.write(out);
        self.elems.write(out);
        self.reuse.write(out);
    }
}

impl FromBin for SubOp {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(SubOp { label: String::read(r)?, elems: u64::read(r)?, reuse: u64::read(r)? })
    }
}

impl ToBin for LayerMeta {
    fn write(&self, out: &mut Vec<u8>) {
        self.node.write(out);
        self.name.write(out);
        self.kind.write(out);
        self.macs.write(out);
        self.elems.write(out);
        self.reuse.write(out);
        self.subops.write(out);
        self.in_bytes.write(out);
        self.weight_bytes.write(out);
        self.out_bytes.write(out);
        self.needs_diff_calc.write(out);
        self.needs_summation.write(out);
        self.in_boundary.write(out);
        self.out_boundary.write(out);
    }
}

impl FromBin for LayerMeta {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(LayerMeta {
            node: FromBin::read(r)?,
            name: FromBin::read(r)?,
            kind: FromBin::read(r)?,
            macs: FromBin::read(r)?,
            elems: FromBin::read(r)?,
            reuse: FromBin::read(r)?,
            subops: FromBin::read(r)?,
            in_bytes: FromBin::read(r)?,
            weight_bytes: FromBin::read(r)?,
            out_bytes: FromBin::read(r)?,
            needs_diff_calc: FromBin::read(r)?,
            needs_summation: FromBin::read(r)?,
            in_boundary: FromBin::read(r)?,
            out_boundary: FromBin::read(r)?,
        })
    }
}

impl ToBin for StepStats {
    fn write(&self, out: &mut Vec<u8>) {
        self.act.write(out);
        self.spa.write(out);
        self.temporal.write(out);
    }
}

impl FromBin for StepStats {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(StepStats {
            act: FromBin::read(r)?,
            spa: FromBin::read(r)?,
            temporal: FromBin::read(r)?,
        })
    }
}

impl ToBin for WorkloadTrace {
    fn write(&self, out: &mut Vec<u8>) {
        self.model.write(out);
        self.layers.write(out);
        self.steps.write(out);
    }
}

impl FromBin for WorkloadTrace {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(WorkloadTrace {
            model: FromBin::read(r)?,
            layers: FromBin::read(r)?,
            steps: FromBin::read(r)?,
        })
    }
}

impl ToBin for SimilarityReport {
    fn write(&self, out: &mut Vec<u8>) {
        self.names.write(out);
        self.temporal_cosine.write(out);
        self.spatial_cosine.write(out);
        self.act_range.write(out);
        self.diff_range.write(out);
    }
}

impl FromBin for SimilarityReport {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(SimilarityReport {
            names: FromBin::read(r)?,
            temporal_cosine: FromBin::read(r)?,
            spatial_cosine: FromBin::read(r)?,
            act_range: FromBin::read(r)?,
            diff_range: FromBin::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LayerMeta, LinearKind, StepStats, SubOp, WorkloadTrace};

    fn sample_trace() -> WorkloadTrace {
        let meta = LayerMeta {
            node: 3,
            name: "conv \"quoted\"\nname — utf8 ✓".into(),
            kind: LinearKind::MatmulQk,
            macs: 1 << 60,
            elems: 128,
            reuse: 1 << 53,
            subops: vec![SubOp { label: "dk".into(), elems: 7, reuse: 2 }],
            in_bytes: 11,
            weight_bytes: 0,
            out_bytes: 13,
            needs_diff_calc: true,
            needs_summation: false,
            in_boundary: vec!["silu".into()],
            out_boundary: vec![],
        };
        let st = StepStats {
            act: BitWidthHistogram { zero: 1, low4: 2, full8: 3, over8: 4 },
            spa: BitWidthHistogram::default(),
            temporal: Some(vec![BitWidthHistogram { zero: 9, low4: 0, full8: 0, over8: 0 }]),
        };
        WorkloadTrace {
            model: "SDM".into(),
            layers: vec![meta],
            steps: vec![vec![StepStats::default()], vec![st]],
        }
    }

    #[test]
    fn trace_roundtrips_exactly() {
        let t = sample_trace();
        let bytes = to_vec(&t);
        assert_eq!(&bytes[..4], &MAGIC);
        assert_eq!(bytes[4], FORMAT_VERSION);
        let back: WorkloadTrace = from_slice(&bytes).unwrap();
        assert_eq!(back.model, t.model);
        assert_eq!(back.layers.len(), 1);
        let (a, b) = (&back.layers[0], &t.layers[0]);
        assert_eq!(a.node, b.node);
        assert_eq!(a.name, b.name);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.macs, b.macs);
        assert_eq!(a.reuse, b.reuse);
        assert_eq!(a.subops, b.subops);
        assert_eq!(a.in_boundary, b.in_boundary);
        assert!(back.steps[0][0].temporal.is_none());
        assert_eq!(back.steps[1][0].temporal.as_ref().unwrap()[0].zero, 9);
        assert_eq!(back.steps[1][0].act.over8, 4);
    }

    #[test]
    fn similarity_report_roundtrips_float_bits() {
        let r = SimilarityReport {
            names: vec!["conv-in".into()],
            temporal_cosine: vec![vec![0.999_7, -1.0, 0.0, f32::NAN]],
            spatial_cosine: vec![vec![0.31]],
            act_range: vec![vec![21.88, f32::MIN_POSITIVE]],
            diff_range: vec![vec![4.83e-12, f32::INFINITY]],
        };
        let back: SimilarityReport = from_slice(&to_vec(&r)).unwrap();
        assert_eq!(back.names, r.names);
        // Bit-level round-trip, including non-finite values JSON cannot keep.
        for (a, b) in back.temporal_cosine[0].iter().zip(&r.temporal_cosine[0]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.diff_range[0][1], f32::INFINITY);
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let bytes = to_vec(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                from_slice::<WorkloadTrace>(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let mut bytes = to_vec(&sample_trace());
        // Trailing garbage.
        bytes.push(0);
        assert!(from_slice::<WorkloadTrace>(&bytes).is_err());
        bytes.pop();
        // Future format version.
        bytes[4] = FORMAT_VERSION + 1;
        assert!(from_slice::<WorkloadTrace>(&bytes)
            .unwrap_err()
            .to_string()
            .contains("format version"));
        bytes[4] = FORMAT_VERSION;
        // Wrong magic (a JSON cache file, say).
        bytes[0] = b'{';
        assert!(from_slice::<WorkloadTrace>(&bytes).unwrap_err().to_string().contains("magic"));
    }

    #[test]
    fn corrupt_interior_bytes_error_cleanly() {
        let bytes = to_vec(&sample_trace());
        // Flip every byte in turn; decoding must never panic, and any
        // successful decode must at least be internally consistent (most
        // flips hit counts/discriminants and error out).
        for i in 5..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            let _ = from_slice::<WorkloadTrace>(&corrupt);
        }
        // A specifically poisoned enum discriminant errors.
        let mut corrupt = bytes.clone();
        // model "SDM" = 4-byte len + 3 bytes; first layer begins at 5+7=12
        // with node u64, then name len... easier: corrupt the last byte,
        // which sits inside the final histogram payload and breaks the
        // trailing-bytes/underrun invariant when lengths shift.
        let last = corrupt.len() - 1;
        corrupt.truncate(last);
        assert!(from_slice::<WorkloadTrace>(&corrupt).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        // A Vec<String> claiming u32::MAX entries in a tiny buffer must be
        // caught by the length sanity check, not attempt the allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = from_slice::<Vec<String>>(&bytes).unwrap_err();
        assert!(e.to_string().contains("corrupt length"), "{e}");
    }

    #[test]
    fn binary_is_denser_than_json() {
        // Per-step cosines of a similarity report: four bytes each here,
        // ten to twenty ASCII digits in JSON.
        let series: Vec<Vec<f32>> =
            (0..4).map(|l| (0..50).map(|s| 1.0 - (l * 50 + s) as f32 * 1e-4).collect()).collect();
        let bin = to_vec(&series);
        let json = crate::jsonio::to_vec(&series);
        assert!(
            bin.len() < json.len(),
            "binary ({}) should undercut JSON ({})",
            bin.len(),
            json.len()
        );
    }
}
