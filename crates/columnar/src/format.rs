//! File metadata: schema, row-group layout, chunk statistics, and the
//! binary footer encoding.
//!
//! Layout of a `colf` file:
//!
//! ```text
//! [4  bytes] magic "COLF"
//! [...     ] column chunks, row group by row group
//! [...     ] footer (this module's binary encoding of FileMetadata)
//! [8  bytes] footer length (LE)
//! [4  bytes] magic "COLF"
//! ```
//!
//! Like Parquet, a reader must fetch the tail, then the footer, before it
//! can locate any data — the two-round-trip metadata cost that §7's
//! metadata caching eliminates.

use bytes::{BufMut, BytesMut};
use edgecache_common::error::{Error, Result};

use crate::encoding::Encoding;
use crate::types::{ColumnType, Value};

/// File magic.
pub const MAGIC: &[u8; 4] = b"COLF";
/// Length of the fixed tail (footer length + magic).
pub const TAIL_LEN: u64 = 12;
/// The most rows one row group may declare (decode sizes its output by it).
pub(crate) const MAX_GROUP_ROWS: u64 = 1 << 24;

/// One column's name and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSchema {
    pub name: String,
    pub ty: ColumnType,
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<ColumnSchema>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Self {
            columns: columns
                .into_iter()
                .map(|(name, ty)| ColumnSchema {
                    name: name.to_string(),
                    ty,
                })
                .collect(),
        }
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Location, encoding, and statistics of one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Absolute file offset of the chunk.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    pub encoding: Encoding,
    /// Minimum value in the chunk (None for empty chunks).
    pub min: Option<Value>,
    /// Maximum value in the chunk.
    pub max: Option<Value>,
}

/// One row group: a row count plus one chunk per column.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    pub rows: u64,
    pub chunks: Vec<ChunkMeta>,
}

/// The deserialized footer.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetadata {
    pub schema: Schema,
    pub row_groups: Vec<RowGroupMeta>,
    /// Total rows across row groups.
    pub total_rows: u64,
    /// Size of the serialized footer (set on parse; used for CPU-cost
    /// accounting in the metadata-cache ablation).
    pub footer_len: u64,
}

impl FileMetadata {
    /// Serializes the footer body.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u32_le(self.schema.columns.len() as u32);
        for col in &self.schema.columns {
            buf.put_u32_le(col.name.len() as u32);
            buf.put_slice(col.name.as_bytes());
            buf.put_u8(col.ty.tag());
        }
        buf.put_u32_le(self.row_groups.len() as u32);
        for rg in &self.row_groups {
            buf.put_u64_le(rg.rows);
            buf.put_u32_le(rg.chunks.len() as u32);
            for (chunk, col) in rg.chunks.iter().zip(&self.schema.columns) {
                buf.put_u64_le(chunk.offset);
                buf.put_u64_le(chunk.len);
                buf.put_u8(chunk.encoding.tag());
                encode_stat(&mut buf, col.ty, &chunk.min);
                encode_stat(&mut buf, col.ty, &chunk.max);
            }
        }
        buf
    }

    /// Parses a footer body.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut cur = Cursor { buf: data, pos: 0 };
        let n_cols = cur.u32()? as usize;
        if n_cols > 1 << 20 {
            return Err(Error::Decode("absurd column count".into()));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = cur.str()?;
            let ty = ColumnType::from_tag(cur.u8()?)
                .ok_or_else(|| Error::Decode("bad column type tag".into()))?;
            columns.push(ColumnSchema { name, ty });
        }
        let schema = Schema { columns };
        let n_rgs = cur.u32()? as usize;
        if n_rgs > 1 << 24 {
            return Err(Error::Decode("absurd row-group count".into()));
        }
        let mut row_groups = Vec::with_capacity(n_rgs);
        let mut total_rows = 0u64;
        for _ in 0..n_rgs {
            let rows = cur.u64()?;
            if rows > MAX_GROUP_ROWS {
                return Err(Error::Decode("absurd row count".into()));
            }
            total_rows += rows;
            let n_chunks = cur.u32()? as usize;
            if n_chunks != schema.len() {
                return Err(Error::Decode("chunk count != column count".into()));
            }
            let mut chunks = Vec::with_capacity(n_chunks);
            for col in &schema.columns {
                let offset = cur.u64()?;
                let len = cur.u64()?;
                let encoding = Encoding::from_tag(cur.u8()?)
                    .ok_or_else(|| Error::Decode("bad encoding tag".into()))?;
                let min = decode_stat(&mut cur, col.ty)?;
                let max = decode_stat(&mut cur, col.ty)?;
                chunks.push(ChunkMeta {
                    offset,
                    len,
                    encoding,
                    min,
                    max,
                });
            }
            row_groups.push(RowGroupMeta { rows, chunks });
        }
        Ok(Self {
            schema,
            row_groups,
            total_rows,
            footer_len: data.len() as u64,
        })
    }
}

fn encode_stat(buf: &mut BytesMut, ty: ColumnType, v: &Option<Value>) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            match (ty, v) {
                (ColumnType::Int64, Value::Int64(x)) => buf.put_i64_le(*x),
                (ColumnType::Float64, Value::Float64(x)) => buf.put_f64_le(*x),
                (ColumnType::Utf8, Value::Utf8(s)) => {
                    buf.put_u32_le(s.len() as u32);
                    buf.put_slice(s.as_bytes());
                }
                (ColumnType::Bool, Value::Bool(b)) => buf.put_u8(*b as u8),
                _ => panic!("stat type mismatch for {ty}"),
            }
        }
    }
}

fn decode_stat(cur: &mut Cursor<'_>, ty: ColumnType) -> Result<Option<Value>> {
    if cur.u8()? == 0 {
        return Ok(None);
    }
    Ok(Some(match ty {
        ColumnType::Int64 => Value::Int64(cur.i64()?),
        ColumnType::Float64 => Value::Float64(cur.f64()?),
        ColumnType::Utf8 => Value::Utf8(cur.str()?),
        ColumnType::Bool => Value::Bool(cur.u8()? != 0),
    }))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Decode("footer truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| Error::Decode("invalid utf8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metadata() -> FileMetadata {
        FileMetadata {
            schema: Schema::new(vec![
                ("id", ColumnType::Int64),
                ("city", ColumnType::Utf8),
                ("price", ColumnType::Float64),
                ("flag", ColumnType::Bool),
            ]),
            row_groups: vec![RowGroupMeta {
                rows: 100,
                chunks: vec![
                    ChunkMeta {
                        offset: 4,
                        len: 800,
                        encoding: Encoding::Plain,
                        min: Some(Value::Int64(1)),
                        max: Some(Value::Int64(100)),
                    },
                    ChunkMeta {
                        offset: 804,
                        len: 300,
                        encoding: Encoding::Dictionary,
                        min: Some(Value::Utf8("amsterdam".into())),
                        max: Some(Value::Utf8("zagreb".into())),
                    },
                    ChunkMeta {
                        offset: 1104,
                        len: 800,
                        encoding: Encoding::Plain,
                        min: Some(Value::Float64(0.5)),
                        max: Some(Value::Float64(99.9)),
                    },
                    ChunkMeta {
                        offset: 1904,
                        len: 100,
                        encoding: Encoding::RunLength,
                        min: None,
                        max: None,
                    },
                ],
            }],
            total_rows: 100,
            footer_len: 0,
        }
    }

    #[test]
    fn footer_round_trip() {
        let meta = sample_metadata();
        let encoded = meta.encode();
        let decoded = FileMetadata::decode(&encoded).unwrap();
        assert_eq!(decoded.schema, meta.schema);
        assert_eq!(decoded.row_groups, meta.row_groups);
        assert_eq!(decoded.total_rows, 100);
        assert_eq!(decoded.footer_len, encoded.len() as u64);
    }

    #[test]
    fn schema_lookup() {
        let s = sample_metadata().schema;
        assert_eq!(s.index_of("city"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn truncated_footer_fails_cleanly() {
        let encoded = sample_metadata().encode();
        for cut in [0, 1, 5, encoded.len() / 2, encoded.len() - 1] {
            assert!(
                FileMetadata::decode(&encoded[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn garbage_footer_fails_cleanly() {
        let garbage = vec![0xffu8; 64];
        assert!(FileMetadata::decode(&garbage).is_err());
    }

    #[test]
    fn a_damaged_row_count_is_rejected() {
        let mut meta = sample_metadata();
        meta.row_groups[0].rows = MAX_GROUP_ROWS;
        assert!(FileMetadata::decode(&meta.encode()).is_ok());
        // `rows` follows the schema and the row-group count.
        let encoded = sample_metadata().encode();
        let names: usize = meta.schema.columns.iter().map(|c| 5 + c.name.len()).sum();
        let at = 4 + names + 4;
        assert_eq!(encoded[at..at + 8], 100u64.to_le_bytes(), "test premise");
        for rows in [MAX_GROUP_ROWS + 1, 1 << 36, u64::MAX] {
            let mut damaged = encoded.to_vec();
            damaged[at..at + 8].copy_from_slice(&rows.to_le_bytes());
            let err = FileMetadata::decode(&damaged).unwrap_err();
            assert!(err.to_string().contains("absurd row count"), "{err}");
        }
    }

    #[test]
    fn chunk_count_mismatch_rejected() {
        let mut meta = sample_metadata();
        meta.row_groups[0].chunks.pop();
        // Manually construct a corrupt footer via encode of a hacked struct:
        // encode writes the actual (now short) chunk count, which decode
        // rejects against the 4-column schema.
        let encoded = meta.encode();
        assert!(FileMetadata::decode(&encoded).is_err());
    }
}
