//! The `colf` reader: footer discovery, ranged chunk reads, row-group
//! pruning.
//!
//! The reader performs exactly the access pattern that motivates the paper's
//! page cache: a small read at the tail, a footer read, then one small
//! ranged read per (row group × projected column) — fragmented I/O against
//! a large file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::{Error, Result};

use crate::encoding::decode_with_stats;
use crate::format::{ChunkMeta, FileMetadata, Schema, MAGIC, TAIL_LEN};
use crate::metacache::MetadataCache;
use crate::predicate::Predicate;
use crate::types::ColumnData;

/// How much of the file tail `ColfReader::open` reads in its one
/// speculative request; footers are almost always smaller than this.
const TAIL_OVERREAD: u64 = 64 * 1024;

/// Abstract ranged access to one file. The local cache, a raw byte buffer,
/// or a remote store can all sit behind this.
pub trait RangeReader {
    /// Reads `len` bytes at `offset` (clamped at end of file).
    fn read(&self, offset: u64, len: u64) -> Result<Bytes>;

    /// Reads many `(offset, len)` fragments as one batch, returning one
    /// buffer per fragment. The default falls back to sequential `read`
    /// calls; cache-backed readers override this to classify and fetch all
    /// fragments at once.
    fn read_vectored(&self, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        ranges
            .iter()
            .map(|&(off, len)| self.read(off, len))
            .collect()
    }

    /// Total file length.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<R: RangeReader + ?Sized> RangeReader for &R {
    fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
        (**self).read(offset, len)
    }

    fn read_vectored(&self, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        (**self).read_vectored(ranges)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }
}

/// In-memory files are range-readable (tests, small tables).
impl RangeReader for Bytes {
    fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
        let total = Bytes::len(self) as u64;
        let start = offset.min(total);
        let end = offset.saturating_add(len).min(total);
        Ok(self.slice(start as usize..end as usize))
    }

    fn len(&self) -> u64 {
        Bytes::len(self) as u64
    }
}

/// A reader over one `colf` file.
pub struct ColfReader<R: RangeReader> {
    reader: R,
    meta: Arc<FileMetadata>,
    decode_copied: AtomicU64,
}

impl<R: RangeReader> ColfReader<R> {
    /// Opens the file: validates the magic, reads and parses the footer.
    pub fn open(reader: R) -> Result<Self> {
        let meta = Arc::new(Self::parse_footer(&reader)?);
        Ok(Self {
            reader,
            meta,
            decode_copied: AtomicU64::new(0),
        })
    }

    /// Opens the file, consulting (and populating) a shared metadata cache
    /// keyed by `cache_key` (conventionally `path@version`).
    pub fn open_with_cache(reader: R, cache: &MetadataCache, cache_key: &str) -> Result<Self> {
        let meta = cache.get_or_parse(cache_key, || Self::parse_footer(&reader))?;
        Ok(Self {
            reader,
            meta,
            decode_copied: AtomicU64::new(0),
        })
    }

    /// Reads the tail and footer and deserializes the metadata.
    ///
    /// The tail is over-read speculatively: one ranged request for the last
    /// `TAIL_OVERREAD` bytes usually captures both the fixed tail and the
    /// footer, the way production Parquet/ORC readers avoid paying a second
    /// metadata round trip per file open. Only a footer larger than the
    /// over-read costs a second request.
    fn parse_footer(reader: &R) -> Result<FileMetadata> {
        let total = reader.len();
        if total < TAIL_LEN + MAGIC.len() as u64 {
            return Err(Error::Decode("file too short for colf".into()));
        }
        let spec_len = TAIL_OVERREAD.min(total);
        let spec = reader.read(total - spec_len, spec_len)?;
        if (spec.len() as u64) < TAIL_LEN {
            return Err(Error::Decode("short tail read".into()));
        }
        let tail = &spec[spec.len() - TAIL_LEN as usize..];
        if &tail[8..12] != MAGIC {
            return Err(Error::Decode("missing colf tail magic".into()));
        }
        let footer_len = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
        if footer_len > total - TAIL_LEN {
            return Err(Error::Decode("footer length exceeds file".into()));
        }
        let footer = if footer_len + TAIL_LEN <= spec.len() as u64 {
            let end = spec.len() - TAIL_LEN as usize;
            spec.slice(end - footer_len as usize..end)
        } else {
            let f = reader.read(total - TAIL_LEN - footer_len, footer_len)?;
            if (f.len() as u64) < footer_len {
                return Err(Error::Decode("short footer read".into()));
            }
            f
        };
        FileMetadata::decode(&footer)
    }

    /// The parsed metadata.
    pub fn metadata(&self) -> &Arc<FileMetadata> {
        &self.meta
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Number of row groups.
    pub fn row_groups(&self) -> usize {
        self.meta.row_groups.len()
    }

    /// Chunk metadata for a named column within a row group.
    pub fn chunk(&self, row_group: usize, column: &str) -> Option<ChunkMeta> {
        let idx = self.meta.schema.index_of(column)?;
        self.meta
            .row_groups
            .get(row_group)
            .map(|rg| rg.chunks[idx].clone())
    }

    /// Reads and decodes one column of one row group (one fragmented ranged
    /// read).
    pub fn read_column(&self, row_group: usize, column_index: usize) -> Result<ColumnData> {
        let rg = self
            .meta
            .row_groups
            .get(row_group)
            .ok_or_else(|| Error::InvalidArgument(format!("row group {row_group}")))?;
        let col = self
            .meta
            .schema
            .columns
            .get(column_index)
            .ok_or_else(|| Error::InvalidArgument(format!("column {column_index}")))?;
        let chunk = &rg.chunks[column_index];
        let raw = self.reader.read(chunk.offset, chunk.len)?;
        if (raw.len() as u64) < chunk.len {
            return Err(Error::Decode("short chunk read".into()));
        }
        let (col, copied) = decode_with_stats(chunk.encoding, col.ty, rg.rows as usize, &raw)?;
        self.decode_copied.fetch_add(copied, Ordering::Relaxed);
        Ok(col)
    }

    /// The `(offset, len)` ranges of the projected chunks of one row group —
    /// the fragment batch a vectored read (or a prefetch of this row group)
    /// issues.
    pub fn chunk_ranges(&self, row_group: usize, projection: &[usize]) -> Result<Vec<(u64, u64)>> {
        let rg = self
            .meta
            .row_groups
            .get(row_group)
            .ok_or_else(|| Error::InvalidArgument(format!("row group {row_group}")))?;
        projection
            .iter()
            .map(|&c| {
                if self.meta.schema.columns.get(c).is_none() {
                    return Err(Error::InvalidArgument(format!("column {c}")));
                }
                let chunk = &rg.chunks[c];
                Ok((chunk.offset, chunk.len))
            })
            .collect()
    }

    /// Reads a projection of one row group: plans every projected chunk
    /// range up front, issues them as one vectored read, then decodes each
    /// buffer. Against a cache-backed reader this lets misses on different
    /// columns coalesce and fetch concurrently.
    pub fn read_row_group(
        &self,
        row_group: usize,
        projection: &[usize],
    ) -> Result<Vec<ColumnData>> {
        let ranges = self.chunk_ranges(row_group, projection)?;
        let raws = self.reader.read_vectored(&ranges)?;
        self.decode_chunks(row_group, projection, raws)
    }

    /// Decodes already-fetched chunk buffers for a projection of one row
    /// group (`raws` in projection order, as returned by a vectored read of
    /// [`ColfReader::chunk_ranges`]). Split out from [`read_row_group`] so a
    /// prefetch pipeline can fetch row group N+1 while N decodes.
    pub fn decode_chunks(
        &self,
        row_group: usize,
        projection: &[usize],
        raws: Vec<Bytes>,
    ) -> Result<Vec<ColumnData>> {
        if raws.len() != projection.len() {
            return Err(Error::Decode("vectored read returned wrong arity".into()));
        }
        let rg = self
            .meta
            .row_groups
            .get(row_group)
            .ok_or_else(|| Error::InvalidArgument(format!("row group {row_group}")))?;
        projection
            .iter()
            .zip(raws)
            .map(|(&c, raw)| {
                if self.meta.schema.columns.get(c).is_none() {
                    return Err(Error::InvalidArgument(format!("column {c}")));
                }
                let chunk = &rg.chunks[c];
                if (raw.len() as u64) < chunk.len {
                    return Err(Error::Decode("short chunk read".into()));
                }
                let (col, copied) = decode_with_stats(
                    chunk.encoding,
                    self.meta.schema.columns[c].ty,
                    rg.rows as usize,
                    &raw,
                )?;
                self.decode_copied.fetch_add(copied, Ordering::Relaxed);
                Ok(col)
            })
            .collect()
    }

    /// The underlying range reader.
    pub fn reader(&self) -> &R {
        &self.reader
    }

    /// Chunk bytes this reader re-materialized value by value while
    /// decoding. Aligned plain fixed-width chunks decode by bulk word
    /// reinterpretation and don't count — see
    /// [`crate::encoding::decode_with_stats`].
    pub fn decode_bytes_copied(&self) -> u64 {
        self.decode_copied.load(Ordering::Relaxed)
    }

    /// Row groups that may contain rows matching `predicate` (statistics
    /// pruning). With no predicate, all row groups survive.
    pub fn prune(&self, predicate: Option<&Predicate>) -> Vec<usize> {
        match predicate {
            None => (0..self.row_groups()).collect(),
            Some(p) => (0..self.row_groups())
                .filter(|&rg| p.may_match(&|name| self.chunk(rg, name)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ColumnType, Value};
    use crate::writer::ColfWriter;

    fn sample_file(rows: i64, per_group: usize) -> Bytes {
        let schema = Schema::new(vec![
            ("id", ColumnType::Int64),
            ("city", ColumnType::Utf8),
            ("price", ColumnType::Float64),
        ]);
        let mut w = ColfWriter::new(schema, per_group);
        for i in 0..rows {
            w.push_row(vec![
                Value::Int64(i),
                Value::Utf8(format!("city_{}", i % 3)),
                Value::Float64(i as f64 * 1.5),
            ])
            .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn open_and_read_round_trip() {
        let file = sample_file(10, 4);
        let r = ColfReader::open(file).unwrap();
        assert_eq!(r.row_groups(), 3);
        assert_eq!(r.metadata().total_rows, 10);
        let ids = r.read_column(0, 0).unwrap();
        assert_eq!(ids, ColumnData::Int64(vec![0, 1, 2, 3]));
        let cities = r.read_column(2, 1).unwrap();
        assert_eq!(
            cities,
            ColumnData::utf8(vec!["city_2".into(), "city_0".into()])
        );
    }

    #[test]
    fn projection_reads_selected_columns() {
        let file = sample_file(6, 10);
        let r = ColfReader::open(file).unwrap();
        let cols = r.read_row_group(0, &[0, 2]).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].len(), 6);
        assert_eq!(cols[1].column_type(), ColumnType::Float64);
    }

    #[test]
    fn pruning_skips_row_groups() {
        // 100 rows, 10 per group: id ranges [0..10), [10..20), ...
        let file = sample_file(100, 10);
        let r = ColfReader::open(file).unwrap();
        let p = Predicate::Between("id".into(), Value::Int64(35), Value::Int64(44));
        assert_eq!(r.prune(Some(&p)), vec![3, 4]);
        let p = Predicate::Eq("id".into(), Value::Int64(7));
        assert_eq!(r.prune(Some(&p)), vec![0]);
        assert_eq!(r.prune(None).len(), 10);
        let p = Predicate::Gt("id".into(), Value::Int64(1000));
        assert!(r.prune(Some(&p)).is_empty());
    }

    #[test]
    fn pruned_scan_matches_full_scan() {
        let file = sample_file(100, 7);
        let r = ColfReader::open(file).unwrap();
        let p = Predicate::Between("id".into(), Value::Int64(20), Value::Int64(60));
        // Full scan + row filter.
        let mut expect = Vec::new();
        for rg in 0..r.row_groups() {
            let cols = r.read_row_group(rg, &[0]).unwrap();
            let keep = p.matching_rows(&[("id", &cols[0])], cols[0].len());
            for k in keep {
                if let Value::Int64(v) = cols[0].value(k) {
                    expect.push(v);
                }
            }
        }
        // Pruned scan + row filter.
        let mut got = Vec::new();
        for rg in r.prune(Some(&p)) {
            let cols = r.read_row_group(rg, &[0]).unwrap();
            let keep = p.matching_rows(&[("id", &cols[0])], cols[0].len());
            for k in keep {
                if let Value::Int64(v) = cols[0].value(k) {
                    got.push(v);
                }
            }
        }
        assert_eq!(got, expect, "pruning must never change results");
        assert_eq!(got.len(), 41);
    }

    #[test]
    fn metadata_cache_avoids_reparse() {
        let file = sample_file(20, 5);
        let cache = MetadataCache::new();
        let r1 = ColfReader::open_with_cache(file.clone(), &cache, "f@1").unwrap();
        let r2 = ColfReader::open_with_cache(file, &cache, "f@1").unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(r1.metadata(), r2.metadata()));
    }

    #[test]
    fn corrupt_files_fail_to_open() {
        assert!(ColfReader::open(Bytes::from_static(b"short")).is_err());
        let mut file = sample_file(5, 5).to_vec();
        let n = file.len();
        // Break the footer length.
        file[n - 12..n - 4].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ColfReader::open(Bytes::from(file)).is_err());
    }

    #[test]
    fn out_of_range_access_errors() {
        let file = sample_file(5, 5);
        let r = ColfReader::open(file).unwrap();
        assert!(r.read_column(9, 0).is_err());
        assert!(r.read_column(0, 9).is_err());
        assert!(r.chunk(0, "nope").is_none());
        assert!(r.chunk_ranges(9, &[0]).is_err());
        assert!(r.chunk_ranges(0, &[9]).is_err());
    }

    /// Counts `read` vs `read_vectored` calls so tests can assert the scan
    /// path batches.
    struct CountingReader {
        inner: Bytes,
        reads: AtomicU64,
        vectored: AtomicU64,
    }

    impl CountingReader {
        fn new(inner: Bytes) -> Self {
            Self {
                inner,
                reads: AtomicU64::new(0),
                vectored: AtomicU64::new(0),
            }
        }
    }

    impl RangeReader for CountingReader {
        fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(offset, len)
        }

        fn read_vectored(&self, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
            self.vectored.fetch_add(1, Ordering::Relaxed);
            ranges
                .iter()
                .map(|&(off, len)| self.inner.read(off, len))
                .collect()
        }

        fn len(&self) -> u64 {
            RangeReader::len(&self.inner)
        }
    }

    #[test]
    fn row_group_read_is_one_vectored_call() {
        let file = sample_file(30, 10);
        let counting = CountingReader::new(file);
        let r = ColfReader::open(&counting).unwrap();
        let opens = counting.reads.load(Ordering::Relaxed);
        let cols = r.read_row_group(1, &[0, 1, 2]).unwrap();
        assert_eq!(cols.len(), 3);
        assert_eq!(counting.vectored.load(Ordering::Relaxed), 1);
        assert_eq!(
            counting.reads.load(Ordering::Relaxed),
            opens,
            "projected chunks must ride the vectored call, not per-column reads"
        );
    }

    #[test]
    fn vectored_row_group_matches_per_column_reads() {
        let file = sample_file(100, 7);
        let r = ColfReader::open(file).unwrap();
        for rg in 0..r.row_groups() {
            let batch = r.read_row_group(rg, &[2, 0, 1]).unwrap();
            let singles: Vec<_> = [2usize, 0, 1]
                .iter()
                .map(|&c| r.read_column(rg, c).unwrap())
                .collect();
            assert_eq!(batch, singles);
        }
    }

    #[test]
    fn decode_copy_counter_tracks_cursor_paths() {
        let file = sample_file(40, 10);
        let r = ColfReader::open(file).unwrap();
        // Utf8 always re-materializes, so copies must be visible; plain
        // aligned fixed-width columns may contribute nothing.
        let before = r.decode_bytes_copied();
        r.read_row_group(0, &[1]).unwrap();
        let after_str = r.decode_bytes_copied();
        assert!(after_str > before, "utf8 decode must count copied bytes");
        let chunk = r.chunk(1, "id").unwrap();
        r.read_row_group(1, &[0]).unwrap();
        let delta = r.decode_bytes_copied() - after_str;
        assert!(
            delta == 0 || delta == chunk.len,
            "int64 chunk counts all-or-nothing by alignment, got {delta}"
        );
    }
}
