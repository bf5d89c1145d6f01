//! The `colf` writer: rows in, a columnar file out.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use edgecache_common::error::{Error, Result};

use crate::encoding::encode_best;
use crate::format::{ChunkMeta, FileMetadata, RowGroupMeta, Schema, MAGIC, MAX_GROUP_ROWS};
use crate::types::{ColumnData, Value};

/// Writes a `colf` file by accumulating rows into row groups.
///
/// # Examples
///
/// ```
/// use edgecache_columnar::{ColfWriter, ColumnType, Schema, Value};
///
/// let schema = Schema::new(vec![("id", ColumnType::Int64), ("name", ColumnType::Utf8)]);
/// let mut w = ColfWriter::new(schema, 1000);
/// w.push_row(vec![Value::Int64(1), Value::Utf8("a".into())]).unwrap();
/// w.push_row(vec![Value::Int64(2), Value::Utf8("b".into())]).unwrap();
/// let file = w.finish().unwrap();
/// assert!(file.len() > 20);
/// ```
pub struct ColfWriter {
    schema: Schema,
    rows_per_group: usize,
    /// The file body being built (starts with the magic).
    body: BytesMut,
    /// Current row group's column builders.
    current: Vec<ColumnData>,
    /// Per `Utf8` column, each string's code in the open row group.
    interned: Vec<HashMap<String, u32>>,
    current_rows: usize,
    row_groups: Vec<RowGroupMeta>,
    total_rows: u64,
}

impl ColfWriter {
    /// Creates a writer that closes a row group every `rows_per_group` rows.
    /// Panics on a row group the reader would reject.
    pub fn new(schema: Schema, rows_per_group: usize) -> Self {
        assert!(rows_per_group > 0, "row group must hold at least one row");
        assert!(
            rows_per_group as u64 <= MAX_GROUP_ROWS,
            "a reader rejects more than {MAX_GROUP_ROWS} rows per group"
        );
        let current = schema
            .columns
            .iter()
            .map(|c| ColumnData::empty(c.ty))
            .collect();
        let mut body = BytesMut::new();
        body.put_slice(MAGIC);
        Self {
            interned: vec![HashMap::new(); schema.len()],
            schema,
            rows_per_group,
            body,
            current,
            current_rows: 0,
            row_groups: Vec::new(),
            total_rows: 0,
        }
    }

    /// The writer's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends one row. Values must match the schema's arity and types.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::InvalidArgument(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for ((value, interned), (col, schema)) in row
            .into_iter()
            .zip(&mut self.interned)
            .zip(self.current.iter_mut().zip(&self.schema.columns))
        {
            if value.column_type() != schema.ty {
                return Err(Error::InvalidArgument(format!(
                    "column `{}` expects {}, got {}",
                    schema.name,
                    schema.ty,
                    value.column_type()
                )));
            }
            match (col, value) {
                (ColumnData::Utf8 { codes, dict }, Value::Utf8(s)) => {
                    let next = dict.len() as u32;
                    codes.push(*interned.entry(s).or_insert_with_key(|s| {
                        Arc::make_mut(dict).push(s.clone());
                        next
                    }));
                }
                (col, value) => col.push(value),
            }
        }
        self.current_rows += 1;
        self.total_rows += 1;
        if self.current_rows >= self.rows_per_group {
            self.flush_group();
        }
        Ok(())
    }

    fn flush_group(&mut self) {
        if self.current_rows == 0 {
            return;
        }
        let mut chunks = Vec::with_capacity(self.schema.len());
        for col in &self.current {
            let (min, max) = match col.min_max() {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };
            let (encoding, bytes) = encode_best(col);
            chunks.push(ChunkMeta {
                offset: self.body.len() as u64,
                len: bytes.len() as u64,
                encoding,
                min,
                max,
            });
            self.body.put_slice(&bytes);
        }
        self.row_groups.push(RowGroupMeta {
            rows: self.current_rows as u64,
            chunks,
        });
        for (col, schema) in self.current.iter_mut().zip(&self.schema.columns) {
            *col = ColumnData::empty(schema.ty);
        }
        self.interned.iter_mut().for_each(HashMap::clear);
        self.current_rows = 0;
    }

    /// Total rows pushed so far.
    pub fn rows(&self) -> u64 {
        self.total_rows
    }

    /// Finalizes the file: flushes the open row group, writes the footer and
    /// tail, and returns the complete file bytes.
    pub fn finish(mut self) -> Result<Bytes> {
        self.flush_group();
        let meta = FileMetadata {
            schema: self.schema,
            row_groups: self.row_groups,
            total_rows: self.total_rows,
            footer_len: 0,
        };
        let footer = meta.encode();
        let mut body = self.body;
        let footer_len = footer.len() as u64;
        body.put_slice(&footer);
        body.put_u64_le(footer_len);
        body.put_slice(MAGIC);
        Ok(body.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![("id", ColumnType::Int64), ("tag", ColumnType::Utf8)])
    }

    #[test]
    fn file_structure_has_magic_head_and_tail() {
        let mut w = ColfWriter::new(schema(), 10);
        w.push_row(vec![Value::Int64(1), Value::Utf8("x".into())])
            .unwrap();
        let file = w.finish().unwrap();
        assert_eq!(&file[..4], MAGIC);
        assert_eq!(&file[file.len() - 4..], MAGIC);
        let footer_len =
            u64::from_le_bytes(file[file.len() - 12..file.len() - 4].try_into().unwrap());
        assert!(footer_len > 0 && (footer_len as usize) < file.len());
    }

    #[test]
    fn row_groups_split_at_boundary() {
        let mut w = ColfWriter::new(schema(), 3);
        for i in 0..7 {
            w.push_row(vec![Value::Int64(i), Value::Utf8(format!("r{i}"))])
                .unwrap();
        }
        assert_eq!(w.rows(), 7);
        let file = w.finish().unwrap();
        let footer_len =
            u64::from_le_bytes(file[file.len() - 12..file.len() - 4].try_into().unwrap());
        let footer_start = file.len() - 12 - footer_len as usize;
        let meta = FileMetadata::decode(&file[footer_start..file.len() - 12]).unwrap();
        assert_eq!(meta.row_groups.len(), 3); // 3 + 3 + 1
        assert_eq!(meta.row_groups[2].rows, 1);
        assert_eq!(meta.total_rows, 7);
    }

    #[test]
    fn arity_and_type_mismatches_fail() {
        let mut w = ColfWriter::new(schema(), 10);
        assert!(w.push_row(vec![Value::Int64(1)]).is_err());
        assert!(w
            .push_row(vec![Value::Utf8("x".into()), Value::Utf8("y".into())])
            .is_err());
        assert_eq!(w.rows(), 0);
    }

    #[test]
    fn empty_file_is_valid() {
        let w = ColfWriter::new(schema(), 10);
        let file = w.finish().unwrap();
        let footer_len =
            u64::from_le_bytes(file[file.len() - 12..file.len() - 4].try_into().unwrap());
        let footer_start = file.len() - 12 - footer_len as usize;
        let meta = FileMetadata::decode(&file[footer_start..file.len() - 12]).unwrap();
        assert!(meta.row_groups.is_empty());
        assert_eq!(meta.total_rows, 0);
    }

    #[test]
    #[should_panic(expected = "a reader rejects")]
    fn a_row_group_the_reader_rejects_is_refused() {
        ColfWriter::new(schema(), MAX_GROUP_ROWS as usize + 1);
    }

    #[test]
    fn chunk_stats_are_recorded() {
        let mut w = ColfWriter::new(schema(), 100);
        for i in [5i64, -3, 12] {
            w.push_row(vec![Value::Int64(i), Value::Utf8("t".into())])
                .unwrap();
        }
        let file = w.finish().unwrap();
        let footer_len =
            u64::from_le_bytes(file[file.len() - 12..file.len() - 4].try_into().unwrap());
        let footer_start = file.len() - 12 - footer_len as usize;
        let meta = FileMetadata::decode(&file[footer_start..file.len() - 12]).unwrap();
        let id_chunk = &meta.row_groups[0].chunks[0];
        assert_eq!(id_chunk.min, Some(Value::Int64(-3)));
        assert_eq!(id_chunk.max, Some(Value::Int64(12)));
    }
}
