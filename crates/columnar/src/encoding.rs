//! Column-chunk encodings: plain, dictionary, and run-length.
//!
//! The writer encodes each chunk with every applicable encoding and keeps
//! the smallest — the same adaptive choice Parquet/ORC writers make, which
//! is what produces the variably-sized, small column chunks that fragment
//! read traffic (§2.2).

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use edgecache_common::error::{Error, Result};

use crate::types::{ColumnData, ColumnType};

/// Encoding identifiers stored in chunk metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain,
    Dictionary,
    RunLength,
}

impl Encoding {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dictionary => 1,
            Encoding::RunLength => 2,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Dictionary,
            2 => Encoding::RunLength,
            _ => return None,
        })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Decode("chunk truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Decode("invalid utf8".into()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes a column with the plain encoding.
pub fn encode_plain(col: &ColumnData) -> Bytes {
    let mut buf = BytesMut::new();
    match col {
        ColumnData::Int64(v) => {
            for &x in v {
                buf.put_i64_le(x);
            }
        }
        ColumnData::Float64(v) => {
            for &x in v {
                buf.put_f64_le(x);
            }
        }
        ColumnData::Utf8 { codes, dict } => {
            for &c in codes {
                put_str(&mut buf, &dict[c as usize]);
            }
        }
        ColumnData::Bool(v) => {
            for &b in v {
                buf.put_u8(b as u8);
            }
        }
    }
    buf.freeze()
}

/// Encodes with a dictionary (strings and int64 only): distinct values in
/// first-seen order followed by u32 indices. A `Utf8` column's codes are
/// renumbered so, whatever its in-memory dictionary, the bytes are those of
/// its values: each used entry's text is looked up once, not once per row.
pub fn encode_dictionary(col: &ColumnData) -> Option<Bytes> {
    let mut buf = BytesMut::new();
    match col {
        ColumnData::Utf8 { codes, dict } => {
            let mut entries: Vec<&str> = Vec::new();
            let mut index_of = std::collections::HashMap::new();
            let mut renumbered = vec![u32::MAX; dict.len()];
            let mut indices = Vec::with_capacity(codes.len());
            for &c in codes {
                let slot = &mut renumbered[c as usize];
                if *slot == u32::MAX {
                    let s = dict[c as usize].as_str();
                    *slot = *index_of.entry(s).or_insert_with(|| {
                        entries.push(s);
                        entries.len() as u32 - 1
                    });
                }
                indices.push(*slot);
            }
            buf.put_u32_le(entries.len() as u32);
            for s in entries {
                put_str(&mut buf, s);
            }
            for i in indices {
                buf.put_u32_le(i);
            }
        }
        ColumnData::Int64(v) => {
            let mut dict: Vec<i64> = Vec::new();
            let mut index_of = std::collections::HashMap::new();
            let mut indices = Vec::with_capacity(v.len());
            for &x in v {
                let idx = *index_of.entry(x).or_insert_with(|| {
                    dict.push(x);
                    dict.len() - 1
                });
                indices.push(idx as u32);
            }
            buf.put_u32_le(dict.len() as u32);
            for x in dict {
                buf.put_i64_le(x);
            }
            for i in indices {
                buf.put_u32_le(i);
            }
        }
        _ => return None,
    }
    Some(buf.freeze())
}

/// Run-length encodes int64 and bool columns: `(u32 run, value)` pairs.
pub fn encode_run_length(col: &ColumnData) -> Option<Bytes> {
    let mut buf = BytesMut::new();
    match col {
        ColumnData::Int64(v) => {
            let mut i = 0;
            while i < v.len() {
                let mut run = 1usize;
                while i + run < v.len() && v[i + run] == v[i] {
                    run += 1;
                }
                buf.put_u32_le(run as u32);
                buf.put_i64_le(v[i]);
                i += run;
            }
        }
        ColumnData::Bool(v) => {
            let mut i = 0;
            while i < v.len() {
                let mut run = 1usize;
                while i + run < v.len() && v[i + run] == v[i] {
                    run += 1;
                }
                buf.put_u32_le(run as u32);
                buf.put_u8(v[i] as u8);
                i += run;
            }
        }
        _ => return None,
    }
    Some(buf.freeze())
}

/// Encodes `col`, choosing the smallest applicable encoding. Returns the
/// encoding used and the bytes.
pub fn encode_best(col: &ColumnData) -> (Encoding, Bytes) {
    let plain = encode_plain(col);
    let mut best = (Encoding::Plain, plain);
    if let Some(dict) = encode_dictionary(col) {
        if dict.len() < best.1.len() {
            best = (Encoding::Dictionary, dict);
        }
    }
    if let Some(rle) = encode_run_length(col) {
        if rle.len() < best.1.len() {
            best = (Encoding::RunLength, rle);
        }
    }
    best
}

/// Exact-length check for plain fixed-width chunks, with the same error
/// texts the cursor path produces.
fn expect_plain_len(rows: usize, width: usize, data: &[u8]) -> Result<()> {
    // A row count whose byte length overflows is more than any chunk holds.
    let want = rows.checked_mul(width);
    match want.map_or(std::cmp::Ordering::Less, |want| data.len().cmp(&want)) {
        std::cmp::Ordering::Less => Err(Error::Decode("chunk truncated".into())),
        std::cmp::Ordering::Greater => {
            Err(Error::Decode("trailing bytes after plain chunk".into()))
        }
        std::cmp::Ordering::Equal => Ok(()),
    }
}

/// Decodes a plain `i64` chunk. When the buffer is machine-aligned on a
/// little-endian target the words are reinterpreted in bulk (no per-value
/// copying — the `Bytes` slice handed up by the cache is consumed as-is);
/// otherwise values are re-materialized one by one and the chunk length is
/// reported as copied.
fn plain_i64(rows: usize, data: &[u8]) -> Result<(Vec<i64>, u64)> {
    expect_plain_len(rows, 8, data)?;
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid i64; `align_to` only splits
        // at alignment boundaries.
        let (prefix, mid, _) = unsafe { data.align_to::<i64>() };
        if prefix.is_empty() && mid.len() == rows {
            return Ok((mid.to_vec(), 0));
        }
    }
    let v = data
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    Ok((v, data.len() as u64))
}

/// Decodes a plain `f64` chunk (see [`plain_i64`] for the fast path).
fn plain_f64(rows: usize, data: &[u8]) -> Result<(Vec<f64>, u64)> {
    expect_plain_len(rows, 8, data)?;
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid f64.
        let (prefix, mid, _) = unsafe { data.align_to::<f64>() };
        if prefix.is_empty() && mid.len() == rows {
            return Ok((mid.to_vec(), 0));
        }
    }
    let v = data
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    Ok((v, data.len() as u64))
}

/// Decodes a chunk of `rows` values of type `ty` encoded with `encoding`.
pub fn decode(encoding: Encoding, ty: ColumnType, rows: usize, data: &[u8]) -> Result<ColumnData> {
    decode_with_stats(encoding, ty, rows, data).map(|(col, _)| col)
}

/// Decodes a chunk and reports how many of its bytes had to be
/// re-materialized value by value. Plain fixed-width chunks whose buffer is
/// machine-aligned decode by bulk word reinterpretation and report 0 —
/// the decoder consumed the cache's `Bytes` slice directly instead of
/// copying through a cursor. Every other shape (unaligned buffers, strings,
/// dictionary and run-length expansion) reports the chunk length. The sum
/// is the columnar layer's `bytes_copied`: the fraction of scanned chunk
/// bytes that alignment allowed to skip per-value copying is the win.
pub fn decode_with_stats(
    encoding: Encoding,
    ty: ColumnType,
    rows: usize,
    data: &[u8],
) -> Result<(ColumnData, u64)> {
    if encoding == Encoding::Plain {
        match ty {
            ColumnType::Int64 => {
                let (v, copied) = plain_i64(rows, data)?;
                return Ok((ColumnData::Int64(v), copied));
            }
            ColumnType::Float64 => {
                let (v, copied) = plain_f64(rows, data)?;
                return Ok((ColumnData::Float64(v), copied));
            }
            _ => {}
        }
    }
    decode_cursor(encoding, ty, rows, data).map(|col| (col, data.len() as u64))
}

/// A run length read from the chunk, checked against the rows still missing
/// *before* anything is expanded: a corrupt `u32::MAX` run must be an
/// error, not a 32 GiB allocation.
fn checked_run(run: u32, missing: usize) -> Result<usize> {
    match usize::try_from(run) {
        Ok(run) if run <= missing => Ok(run),
        _ => Err(Error::Decode("run-length overrun".into())),
    }
}

/// The `rows` u32 codes that follow a dictionary, taken as one slice whose
/// presence is checked before anything is allocated for them.
fn code_slice<'a>(cur: &mut Cursor<'a>, rows: usize) -> Result<impl Iterator<Item = usize> + 'a> {
    let len = rows.checked_mul(4);
    let bytes = cur.take(len.ok_or_else(|| Error::Decode("chunk truncated".into()))?)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize))
}

/// The cursor-driven decode paths: everything except aligned plain
/// fixed-width chunks.
fn decode_cursor(
    encoding: Encoding,
    ty: ColumnType,
    rows: usize,
    data: &[u8],
) -> Result<ColumnData> {
    let mut cur = Cursor::new(data);
    let out = match encoding {
        Encoding::Plain => match ty {
            ColumnType::Int64 => {
                ColumnData::Int64((0..rows).map(|_| cur.i64()).collect::<Result<_>>()?)
            }
            ColumnType::Float64 => {
                ColumnData::Float64((0..rows).map(|_| cur.f64()).collect::<Result<_>>()?)
            }
            ColumnType::Utf8 => {
                let strings = (0..rows).map(|_| cur.str()).collect::<Result<_>>()?;
                ColumnData::utf8(strings)
            }
            ColumnType::Bool => ColumnData::Bool(
                (0..rows)
                    .map(|_| Ok(cur.take(1)?[0] != 0))
                    .collect::<Result<_>>()?,
            ),
        },
        Encoding::Dictionary => {
            let dict_len = cur.u32()? as usize;
            match ty {
                ColumnType::Utf8 => {
                    let dict: Vec<String> =
                        (0..dict_len).map(|_| cur.str()).collect::<Result<_>>()?;
                    let mut bad = false;
                    let codes = code_slice(&mut cur, rows)?
                        .inspect(|&c| bad |= c >= dict.len())
                        .map(|c| c as u32)
                        .collect();
                    if bad {
                        return Err(Error::Decode("dict index out of range".into()));
                    }
                    ColumnData::Utf8 {
                        codes,
                        dict: Arc::new(dict),
                    }
                }
                ColumnType::Int64 => {
                    let dict: Vec<i64> = (0..dict_len).map(|_| cur.i64()).collect::<Result<_>>()?;
                    let mut bad = false;
                    let values = code_slice(&mut cur, rows)?
                        .map(|c| {
                            let v = dict.get(c).copied();
                            bad |= v.is_none();
                            v.unwrap_or_default()
                        })
                        .collect();
                    if bad {
                        return Err(Error::Decode("dict index out of range".into()));
                    }
                    ColumnData::Int64(values)
                }
                _ => return Err(Error::Decode(format!("dictionary not valid for {ty}"))),
            }
        }
        Encoding::RunLength => match ty {
            // No reservation from `rows`: a run holds any number of them,
            // so only what the runs expand to is allocated.
            ColumnType::Int64 => {
                let mut out = Vec::new();
                while out.len() < rows {
                    let run = checked_run(cur.u32()?, rows - out.len())?;
                    let v = cur.i64()?;
                    out.extend(std::iter::repeat_n(v, run));
                }
                ColumnData::Int64(out)
            }
            ColumnType::Bool => {
                let mut out = Vec::new();
                while out.len() < rows {
                    let run = checked_run(cur.u32()?, rows - out.len())?;
                    let v = cur.take(1)?[0] != 0;
                    out.extend(std::iter::repeat_n(v, run));
                }
                ColumnData::Bool(out)
            }
            _ => return Err(Error::Decode(format!("run-length not valid for {ty}"))),
        },
    };
    if !cur.done() && encoding == Encoding::Plain {
        return Err(Error::Decode("trailing bytes after plain chunk".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(col: ColumnData) {
        let rows = col.len();
        let ty = col.column_type();
        let (enc, bytes) = encode_best(&col);
        let back = decode(enc, ty, rows, &bytes).unwrap();
        assert_eq!(back, col, "round trip via {enc:?}");
        // Plain must always round-trip too.
        let plain = encode_plain(&col);
        assert_eq!(decode(Encoding::Plain, ty, rows, &plain).unwrap(), col);
    }

    #[test]
    fn round_trips_all_types() {
        round_trip(ColumnData::Int64(vec![1, -5, i64::MAX, 0, i64::MIN]));
        round_trip(ColumnData::Float64(vec![1.5, -0.0, f64::MAX, 3.25]));
        round_trip(ColumnData::utf8(vec![
            "a".into(),
            "".into(),
            "日本語".into(),
        ]));
        round_trip(ColumnData::Bool(vec![true, false, true, true]));
    }

    #[test]
    fn empty_columns_round_trip() {
        round_trip(ColumnData::Int64(vec![]));
        round_trip(ColumnData::utf8(vec![]));
    }

    #[test]
    fn dictionary_wins_on_repetitive_strings() {
        let col = ColumnData::utf8((0..1000).map(|i| format!("city_{}", i % 5)).collect());
        let (enc, bytes) = encode_best(&col);
        assert_eq!(enc, Encoding::Dictionary);
        assert!(bytes.len() < encode_plain(&col).len() / 2);
        round_trip(col);
    }

    #[test]
    fn rle_wins_on_runs() {
        let col = ColumnData::Int64((0..1000).map(|i| (i / 250) as i64).collect());
        let (enc, bytes) = encode_best(&col);
        assert_eq!(enc, Encoding::RunLength);
        assert!(bytes.len() < 100);
        round_trip(col);
    }

    #[test]
    fn plain_wins_on_high_cardinality() {
        let col = ColumnData::Int64((0..1000).map(|i| i * 7919).collect());
        let (enc, _) = encode_best(&col);
        assert_eq!(enc, Encoding::Plain);
    }

    #[test]
    fn truncated_data_is_a_decode_error() {
        let col = ColumnData::Int64(vec![1, 2, 3]);
        let bytes = encode_plain(&col);
        assert!(decode(Encoding::Plain, ColumnType::Int64, 3, &bytes[..10]).is_err());
    }

    #[test]
    fn corrupt_dictionary_index_is_rejected() {
        let col = ColumnData::utf8(vec!["a".into(), "a".into()]);
        let bytes = encode_dictionary(&col).unwrap();
        let mut broken = bytes.to_vec();
        // Point the last index far out of range.
        let n = broken.len();
        broken[n - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(decode(Encoding::Dictionary, ColumnType::Utf8, 2, &broken).is_err());
    }

    #[test]
    fn wrong_encoding_type_combination() {
        let col = ColumnData::Float64(vec![1.0]);
        assert!(encode_dictionary(&col).is_none());
        assert!(encode_run_length(&col).is_none());
        assert!(decode(Encoding::Dictionary, ColumnType::Float64, 1, &[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn encoding_tags_round_trip() {
        for e in [Encoding::Plain, Encoding::Dictionary, Encoding::RunLength] {
            assert_eq!(Encoding::from_tag(e.tag()), Some(e));
        }
        assert_eq!(Encoding::from_tag(9), None);
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn aligned_plain_fixed_width_decodes_without_copying() {
        let ints = ColumnData::Int64((0..257).map(|i| i * 31 - 4000).collect());
        let floats = ColumnData::Float64((0..129).map(|i| i as f64 * 0.75 - 17.0).collect());
        for col in [ints, floats] {
            let bytes = encode_plain(&col);
            // A freshly allocated buffer starts machine-aligned.
            assert_eq!(bytes.as_ptr() as usize % 8, 0, "test premise: aligned");
            let (back, copied) =
                decode_with_stats(Encoding::Plain, col.column_type(), col.len(), &bytes).unwrap();
            assert_eq!(back, col);
            assert_eq!(copied, 0, "aligned bulk path must not count copies");
        }
    }

    #[test]
    fn unaligned_plain_fixed_width_still_decodes_and_counts() {
        let col = ColumnData::Int64((0..64).map(|i| i * 131).collect());
        let bytes = encode_plain(&col);
        // Shift by one byte to defeat alignment.
        let mut padded = vec![0u8];
        padded.extend_from_slice(&bytes);
        let data = &padded[1..];
        let (back, copied) =
            decode_with_stats(Encoding::Plain, ColumnType::Int64, col.len(), data).unwrap();
        assert_eq!(back, col);
        assert_eq!(copied, data.len() as u64, "unaligned path counts the chunk");
    }

    #[test]
    fn cursor_encodings_count_full_chunk_as_copied() {
        let col = ColumnData::utf8((0..100).map(|i| format!("v{}", i % 4)).collect());
        let (enc, bytes) = encode_best(&col);
        let (back, copied) = decode_with_stats(enc, ColumnType::Utf8, 100, &bytes).unwrap();
        assert_eq!(back, col);
        assert_eq!(copied, bytes.len() as u64);
        let bools = ColumnData::Bool(vec![true; 9]);
        let plain = encode_plain(&bools);
        let (back, copied) =
            decode_with_stats(Encoding::Plain, ColumnType::Bool, 9, &plain).unwrap();
        assert_eq!(back, bools);
        assert_eq!(copied, plain.len() as u64);
    }

    #[test]
    fn plain_fixed_width_length_checks_hold_on_both_paths() {
        let col = ColumnData::Int64(vec![1, 2, 3, 4]);
        let bytes = encode_plain(&col);
        // Truncated and trailing forms fail identically regardless of alignment.
        assert!(decode(
            Encoding::Plain,
            ColumnType::Int64,
            4,
            &bytes[..bytes.len() - 3]
        )
        .is_err());
        let mut extra = bytes.to_vec();
        extra.push(7);
        assert!(decode(Encoding::Plain, ColumnType::Int64, 4, &extra).is_err());
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&bytes);
        assert!(decode(Encoding::Plain, ColumnType::Int64, 4, &shifted[..12]).is_err());
    }
}
