//! The SSD-backed page store with the paper's on-disk layout (§4.3).
//!
//! ```text
//! <root>/
//!   page_size=1048576/            top-level folder: persistent global info
//!     bucket_00/ … bucket_3f/     hash fan-out bounding directory width
//!       <file-id, 16 hex chars>/  one directory per cached file
//!         .fileinfo               original path + version (shared file info)
//!         0, 1, 2, …              page files, named by page index
//! ```
//!
//! Page information is self-contained in page names and parent folders
//! (§4.3), so a cold restart can rebuild the in-memory index purely from a
//! directory scan ([`LocalPageStore::recover`]).
//!
//! Each page file is `payload ‖ checksum(8 bytes, XXH64 LE) ‖ magic(4 bytes, "ECP2")`.
//! The magic names the checksum algorithm: a page written before the bump
//! (`ECP1`, FNV-1a) fails the trailer check like any other corrupt page and
//! is evicted and refetched once (§8). Payload offsets did not move, so
//! ranged reads of such a page stay byte-correct.
//! Writes go to a temporary name and are published with an atomic `rename`,
//! so a concurrent reader sees the old state or the new state, never a torn
//! page. Full-page reads verify the checksum and surface
//! [`Error::Corrupted`](edgecache_common::error::Error) — the
//! signal that drives early eviction (§8, "Corrupted files").
//!
//! Page data is rebuildable from the remote source by definition, so files
//! are *not* fsynced; a crash can lose recently written pages but never
//! serves a torn one (the checksum catches partial writes that survived a
//! crash).

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use edgecache_metrics::Tracer;

use crate::crash::{CrashPlan, CrashSite};
use crate::page::{page_checksum, FileId, PageId};
use crate::store::PageStore;

/// Trailer magic marking a complete edgecache page file whose checksum is
/// XXH64.
const PAGE_MAGIC: &[u8; 4] = b"ECP2";
/// Trailer length: 8-byte checksum + 4-byte magic.
const TRAILER_LEN: u64 = 12;

/// The trailer that follows `payload` in a page file.
fn trailer(payload: &[u8]) -> [u8; TRAILER_LEN as usize] {
    let mut t = [0u8; TRAILER_LEN as usize];
    t[..8].copy_from_slice(&page_checksum(payload).to_le_bytes());
    t[8..].copy_from_slice(PAGE_MAGIC);
    t
}

/// Configuration for a [`LocalPageStore`].
#[derive(Debug, Clone)]
pub struct LocalStoreConfig {
    /// Nominal page size; recorded in the top-level directory name because
    /// it is "required to calculate the page index" during recovery (§4.3).
    pub page_size: u64,
    /// Number of hash buckets between the page-size directory and the
    /// per-file directories.
    pub buckets: usize,
    /// Verify page checksums during [`LocalPageStore::recover`]; corrupt
    /// pages are dropped instead of reported.
    pub verify_on_recovery: bool,
    /// Optional crash-point plan (test harnesses only): armed sites make the
    /// matching operation leave a realistic half-effect on disk and fail
    /// with a simulated-crash error. `None` in production.
    pub crash_plan: Option<Arc<CrashPlan>>,
}

impl Default for LocalStoreConfig {
    fn default() -> Self {
        Self {
            page_size: 1 << 20, // 1 MB, the paper's production default (§7).
            buckets: 64,
            verify_on_recovery: false,
            crash_plan: None,
        }
    }
}

/// A page store backed by one local directory (one cache directory of the
/// paper's page store; the allocator in `edgecache-core` spreads pages over
/// several of these).
#[derive(Debug)]
pub struct LocalPageStore {
    root: PathBuf,
    base: PathBuf,
    config: LocalStoreConfig,
    bytes_used: AtomicU64,
    tmp_seq: AtomicU64,
    tracer: Tracer,
}

impl LocalPageStore {
    /// Opens (or creates) a page store rooted at `root`.
    ///
    /// If `root` already holds a store with a *different* page size, the old
    /// contents are wiped: page indexes computed with another page size are
    /// meaningless, so the cache must restart cold (§4.3).
    pub fn open(root: impl Into<PathBuf>, config: LocalStoreConfig) -> Result<Self> {
        if config.page_size == 0 {
            return Err(Error::InvalidArgument("page_size must be positive".into()));
        }
        if config.buckets == 0 {
            return Err(Error::InvalidArgument("buckets must be positive".into()));
        }
        let root = root.into();
        fs::create_dir_all(&root)?;
        let expected = format!("page_size={}", config.page_size);
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("page_size=") && name != expected {
                fs::remove_dir_all(entry.path())?;
            }
        }
        let base = root.join(&expected);
        fs::create_dir_all(&base)?;
        let store = Self {
            root,
            base,
            config,
            bytes_used: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            tracer: Tracer::disabled(),
        };
        // Initialize the usage gauge from what is already on disk.
        let existing: u64 = store.recover()?.iter().map(|(_, s)| s).sum();
        store.bytes_used.store(existing, Ordering::SeqCst);
        Ok(store)
    }

    /// Attaches a tracer: full-page reads record `checksum_verify` spans so
    /// integrity work shows up in per-stage latency attribution. Use the same
    /// clock as the cache manager so spans share one timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Detects the page size of an existing store directory from its
    /// top-level `page_size=` folder (the §4.3 "persistent global
    /// information"), without opening the store.
    pub fn detect_page_size(root: impl AsRef<Path>) -> Option<u64> {
        for entry in fs::read_dir(root).ok()?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix("page_size=") {
                if let Ok(size) = rest.parse() {
                    return Some(size);
                }
            }
        }
        None
    }

    /// The configured nominal page size.
    pub fn page_size(&self) -> u64 {
        self.config.page_size
    }

    fn bucket_dir(&self, file: FileId) -> PathBuf {
        let bucket = (file.0 % self.config.buckets as u64) as usize;
        self.base.join(format!("bucket_{bucket:02x}"))
    }

    fn file_dir(&self, file: FileId) -> PathBuf {
        self.bucket_dir(file).join(file.as_hex())
    }

    fn page_path(&self, id: PageId) -> PathBuf {
        self.file_dir(id.file).join(id.index.to_string())
    }

    /// Records the original path and version of a cached file (the "shared
    /// file information … such as full paths, and file version information"
    /// of §4.3). Purely informational; recovery does not require it.
    pub fn set_file_info(&self, file: FileId, path: &str, version: u64) -> Result<()> {
        let dir = self.file_dir(file);
        fs::create_dir_all(&dir)?;
        let mut f = fs::File::create(dir.join(".fileinfo"))?;
        writeln!(f, "{path}")?;
        writeln!(f, "{version}")?;
        Ok(())
    }

    /// Reads back the file info recorded by [`Self::set_file_info`].
    pub fn file_info(&self, file: FileId) -> Option<(String, u64)> {
        let content = fs::read_to_string(self.file_dir(file).join(".fileinfo")).ok()?;
        let mut lines = content.lines();
        let path = lines.next()?.to_string();
        let version = lines.next()?.parse().ok()?;
        Some((path, version))
    }

    /// Whether an armed crash point at `site` fires now (consumes it).
    fn crash_armed(&self, site: CrashSite) -> bool {
        self.config
            .crash_plan
            .as_ref()
            .is_some_and(|p| p.should_crash(site))
    }

    /// Simulates data blocks that never reached the device: overwrites the
    /// tail of the file — always covering the checksum trailer — with a fill
    /// pattern, leaving a full-length but torn page.
    fn tear_tail(path: &Path) -> Result<()> {
        let len = fs::metadata(path)?.len();
        let torn_from = (len / 2).min(len.saturating_sub(TRAILER_LEN));
        let mut f = fs::OpenOptions::new().write(true).open(path)?;
        f.seek(SeekFrom::Start(torn_from))?;
        f.write_all(&vec![0xEE; (len - torn_from) as usize])?;
        Ok(())
    }

    /// Reads and verifies a whole page file, returning the payload.
    fn read_verified(&self, path: &Path, id: PageId) -> Result<Bytes> {
        let raw = match fs::read(path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::NotFound(format!("page {id}")))
            }
            Err(e) => return Err(e.into()),
        };
        if (raw.len() as u64) < TRAILER_LEN || &raw[raw.len() - 4..] != PAGE_MAGIC {
            return Err(Error::Corrupted(format!("page {id}: bad trailer")));
        }
        let payload_len = raw.len() - TRAILER_LEN as usize;
        let stored = u64::from_le_bytes(
            raw[payload_len..payload_len + 8]
                .try_into()
                .expect("8-byte checksum slice"),
        );
        if page_checksum(&raw[..payload_len]) != stored {
            return Err(Error::Corrupted(format!("page {id}: checksum mismatch")));
        }
        let mut payload = raw;
        payload.truncate(payload_len);
        Ok(Bytes::from(payload))
    }
}

impl PageStore for LocalPageStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        let dir = self.file_dir(id.file);
        fs::create_dir_all(&dir)?;
        let final_path = self.page_path(id);
        let tmp_path = dir.join(format!(
            ".{}.tmp{}",
            id.index,
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let old_size = fs::metadata(&final_path)
            .ok()
            .map(|m| m.len().saturating_sub(TRAILER_LEN));
        let write = (|| -> Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(data)?;
            f.write_all(&trailer(data))?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        if self.crash_armed(CrashSite::PutTmpWritten) {
            // Process dies with the tmp file orphaned; recovery discards it.
            return Err(CrashPlan::crash_error(CrashSite::PutTmpWritten));
        }
        fs::rename(&tmp_path, &final_path)?;
        if self.crash_armed(CrashSite::PutTornTail) {
            // The rename published the name, but the unsynced data blocks
            // never hit the device: full length, torn content.
            Self::tear_tail(&final_path)?;
            return Err(CrashPlan::crash_error(CrashSite::PutTornTail));
        }
        if let Some(old) = old_size {
            self.bytes_used.fetch_sub(old, Ordering::SeqCst);
        }
        self.bytes_used
            .fetch_add(data.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let path = self.page_path(id);
        let meta = match fs::metadata(&path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::NotFound(format!("page {id}")))
            }
            Err(e) => return Err(e.into()),
        };
        if meta.len() < TRAILER_LEN {
            return Err(Error::Corrupted(format!("page {id}: truncated file")));
        }
        let payload_len = meta.len() - TRAILER_LEN;
        if offset == 0 && len >= payload_len {
            // Full read: verify the checksum trailer.
            let mut span = self.tracer.span("checksum_verify");
            let got = self.read_verified(&path, id);
            if span.is_recording() {
                span.annotate("page", id);
                match &got {
                    Ok(bytes) => span.annotate("bytes", bytes.len()),
                    Err(e) => span.annotate("status", e.kind()),
                }
            }
            span.finish();
            return got;
        }
        if offset >= payload_len {
            return Ok(Bytes::new());
        }
        let take = len.min(payload_len - offset);
        let mut f = fs::File::open(&path)?;
        f.seek(SeekFrom::Start(offset))?;
        // Appending into reserved capacity skips the zero fill that
        // `vec![0; n]` + `read_exact` pays on every byte.
        let mut buf = Vec::with_capacity(take as usize);
        f.take(take).read_to_end(&mut buf)?;
        if (buf.len() as u64) < take {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        Ok(Bytes::from(buf))
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let path = self.page_path(id);
        let size = match fs::metadata(&path) {
            Ok(m) => m.len().saturating_sub(TRAILER_LEN),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        if self.crash_armed(CrashSite::DeleteTornTail) {
            // Interrupted mid-delete/compaction: the page is neither intact
            // nor gone — torn tail, unlink never happened.
            Self::tear_tail(&path)?;
            return Err(CrashPlan::crash_error(CrashSite::DeleteTornTail));
        }
        match fs::remove_file(&path) {
            Ok(()) => {
                self.bytes_used.fetch_sub(size, Ordering::SeqCst);
                // Opportunistically clean the per-file and bucket dirs; a
                // failure just means they are not empty.
                let _ = fs::remove_file(self.file_dir(id.file).join(".fileinfo"));
                let _ = fs::remove_dir(self.file_dir(id.file));
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.page_path(id).is_file()
    }

    fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::SeqCst)
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        let mut out = Vec::new();
        for bucket in fs::read_dir(&self.base)? {
            let bucket = bucket?.path();
            if !bucket.is_dir() {
                continue;
            }
            for file_dir in fs::read_dir(&bucket)? {
                let file_dir = file_dir?.path();
                let Some(file_id) = file_dir
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(FileId::from_hex)
                else {
                    continue;
                };
                for page in fs::read_dir(&file_dir)? {
                    let page = page?.path();
                    let Some(name) = page.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    if name.contains(".tmp") {
                        // Leftover in-flight write from a crash: discard.
                        let _ = fs::remove_file(&page);
                        continue;
                    }
                    let Ok(index) = name.parse::<u64>() else {
                        continue;
                    };
                    let id = PageId::new(file_id, index);
                    let len = fs::metadata(&page)?.len();
                    if len < TRAILER_LEN {
                        let _ = fs::remove_file(&page);
                        continue;
                    }
                    if self.config.verify_on_recovery && self.read_verified(&page, id).is_err() {
                        let _ = fs::remove_file(&page);
                        continue;
                    }
                    out.push((id, len - TRAILER_LEN));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::bit_flip_sites;
    use edgecache_common::hash::fnv1a64;
    use std::collections::HashSet;

    fn temp_store() -> (LocalPageStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "edgecache-test-{}-{}",
            std::process::id(),
            rand_suffix()
        ));
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        (store, dir)
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos() as u64
            ^ (std::thread::current().id().as_u64_hack())
    }

    // Stable-ish unique value per thread without unstable APIs.
    trait ThreadIdHack {
        fn as_u64_hack(&self) -> u64;
    }
    impl ThreadIdHack for std::thread::ThreadId {
        fn as_u64_hack(&self) -> u64 {
            edgecache_common::hash::hash_str(&format!("{self:?}"))
        }
    }

    fn pid(f: u64, i: u64) -> PageId {
        PageId::new(FileId(f), i)
    }

    #[test]
    fn put_get_round_trip() {
        let (store, dir) = temp_store();
        let data = vec![7u8; 1000];
        store.put(pid(1, 0), &data).unwrap();
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), &data[..]);
        assert_eq!(store.bytes_used(), 1000);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn partial_reads() {
        let (store, dir) = temp_store();
        let data: Vec<u8> = (0..=255u8).collect();
        store.put(pid(2, 3), &data).unwrap();
        assert_eq!(store.get(pid(2, 3), 10, 5).unwrap().as_ref(), &data[10..15]);
        assert_eq!(
            store.get(pid(2, 3), 250, 100).unwrap().as_ref(),
            &data[250..]
        );
        assert!(store.get(pid(2, 3), 300, 10).unwrap().is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_page_is_not_found() {
        let (store, dir) = temp_store();
        assert!(matches!(store.get_full(pid(9, 9)), Err(Error::NotFound(_))));
        assert!(!store.contains(pid(9, 9)));
        assert!(!store.delete(pid(9, 9)).unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn overwrite_replaces_and_accounts() {
        let (store, dir) = temp_store();
        store.put(pid(1, 0), &[1u8; 500]).unwrap();
        store.put(pid(1, 0), &[2u8; 200]).unwrap();
        assert_eq!(store.bytes_used(), 200);
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), &[2u8; 200][..]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn delete_frees_space() {
        let (store, dir) = temp_store();
        store.put(pid(1, 0), &[1u8; 500]).unwrap();
        store.put(pid(1, 1), &[1u8; 300]).unwrap();
        assert!(store.delete(pid(1, 0)).unwrap());
        assert_eq!(store.bytes_used(), 300);
        assert!(!store.contains(pid(1, 0)));
        assert!(store.contains(pid(1, 1)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corruption_is_detected_on_full_read() {
        let (store, dir) = temp_store();
        store.put(pid(4, 0), b"important payload").unwrap();
        // Flip a payload byte behind the store's back.
        let path = store.page_path(pid(4, 0));
        let mut raw = fs::read(&path).unwrap();
        raw[3] ^= 0xff;
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            store.get_full(pid(4, 0)),
            Err(Error::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn every_single_bit_flip_in_a_page_is_corrupted_on_full_read() {
        let (store, dir) = temp_store();
        let page: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        store.put(pid(4, 2), &page).unwrap();
        let path = store.page_path(pid(4, 2));
        let intact = fs::read(&path).unwrap();
        for (byte, mask) in bit_flip_sites(page.len()) {
            let mut raw = intact.clone();
            raw[byte] ^= mask;
            fs::write(&path, &raw).unwrap();
            assert!(
                matches!(store.get_full(pid(4, 2)), Err(Error::Corrupted(_))),
                "flip of bit {mask:#04x} in byte {byte} went undetected"
            );
        }
        fs::write(&path, &intact).unwrap();
        assert_eq!(store.get_full(pid(4, 2)).unwrap().as_ref(), &page[..]);
        let _ = fs::remove_dir_all(dir);
    }

    /// Writes `payload` as a pre-bump page file: FNV-1a checksum, `ECP1`.
    fn write_ecp1_page(store: &LocalPageStore, id: PageId, payload: &[u8]) {
        fs::create_dir_all(store.file_dir(id.file)).unwrap();
        let mut raw = payload.to_vec();
        raw.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        raw.extend_from_slice(b"ECP1");
        fs::write(store.page_path(id), raw).unwrap();
    }

    #[test]
    fn pre_bump_ecp1_page_is_corrupted_whole_but_ranged_reads_stay_correct() {
        let (store, dir) = temp_store();
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        write_ecp1_page(&store, pid(6, 0), &payload);
        assert!(matches!(
            store.get_full(pid(6, 0)),
            Err(Error::Corrupted(_))
        ));
        // Payload offsets and trailer length did not change with the bump.
        assert_eq!(
            store.get(pid(6, 0), 100, 900).unwrap().as_ref(),
            &payload[100..1000]
        );
        assert_eq!(
            store.get(pid(6, 0), 4990, 100).unwrap().as_ref(),
            &payload[4990..]
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_with_verification_drops_pre_bump_ecp1_pages() {
        let dir = std::env::temp_dir().join(format!("edgecache-ecp1-{}", rand_suffix()));
        let config = LocalStoreConfig {
            verify_on_recovery: true,
            ..Default::default()
        };
        let store = LocalPageStore::open(&dir, config).unwrap();
        store.put(pid(1, 0), b"current").unwrap();
        write_ecp1_page(&store, pid(1, 1), b"pre-bump");
        assert_eq!(store.recover().unwrap(), vec![(pid(1, 0), 7)]);
        assert!(!store.page_path(pid(1, 1)).exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_file_is_corrupted() {
        let (store, dir) = temp_store();
        store.put(pid(4, 1), b"0123456789").unwrap();
        let path = store.page_path(pid(4, 1));
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..5]).unwrap();
        assert!(matches!(
            store.get_full(pid(4, 1)),
            Err(Error::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_rebuilds_index() {
        let (store, dir) = temp_store();
        let pages: HashSet<(PageId, u64)> = [(pid(1, 0), 100u64), (pid(1, 1), 50), (pid(2, 0), 75)]
            .into_iter()
            .collect();
        for &(id, size) in &pages {
            store.put(id, &vec![0xabu8; size as usize]).unwrap();
        }
        drop(store);
        // Re-open: the constructor runs recovery for usage accounting.
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        let recovered: HashSet<(PageId, u64)> = store.recover().unwrap().into_iter().collect();
        assert_eq!(recovered, pages);
        assert_eq!(store.bytes_used(), 225);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_discards_tmp_files() {
        let (store, dir) = temp_store();
        store.put(pid(1, 0), &[1u8; 10]).unwrap();
        // Simulate a crash mid-write.
        let tmp = store.file_dir(FileId(1)).join(".7.tmp99");
        fs::write(&tmp, b"partial").unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(!tmp.exists(), "tmp file must be cleaned up");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_with_verification_drops_corrupt_pages() {
        let dir = std::env::temp_dir().join(format!("edgecache-verify-{}", rand_suffix()));
        let config = LocalStoreConfig {
            verify_on_recovery: true,
            ..Default::default()
        };
        let store = LocalPageStore::open(&dir, config.clone()).unwrap();
        store.put(pid(1, 0), b"good").unwrap();
        store.put(pid(1, 1), b"bad!").unwrap();
        let path = store.page_path(pid(1, 1));
        let mut raw = fs::read(&path).unwrap();
        raw[0] ^= 0x01;
        fs::write(&path, &raw).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered, vec![(pid(1, 0), 4)]);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn changed_page_size_wipes_old_cache() {
        let dir = std::env::temp_dir().join(format!("edgecache-resize-{}", rand_suffix()));
        let store = LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                page_size: 1 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        store.put(pid(1, 0), &[5u8; 64]).unwrap();
        drop(store);
        let store = LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                page_size: 1 << 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(store.bytes_used(), 0);
        assert!(store.recover().unwrap().is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn file_info_round_trip() {
        let (store, dir) = temp_store();
        store
            .set_file_info(FileId(42), "/warehouse/sales/part-0.colf", 1700000000)
            .unwrap();
        assert_eq!(
            store.file_info(FileId(42)),
            Some(("/warehouse/sales/part-0.colf".to_string(), 1700000000))
        );
        assert_eq!(store.file_info(FileId(43)), None);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_page_is_allowed() {
        let (store, dir) = temp_store();
        store.put(pid(8, 0), &[]).unwrap();
        assert!(store.get_full(pid(8, 0)).unwrap().is_empty());
        assert_eq!(store.bytes_used(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_put_get_different_pages() {
        let (store, dir) = temp_store();
        let store = std::sync::Arc::new(store);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = pid(t, i);
                    let payload = vec![(t as u8) ^ (i as u8); 128];
                    store.put(id, &payload).unwrap();
                    assert_eq!(store.get_full(id).unwrap().as_ref(), &payload[..]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.bytes_used(), 4 * 50 * 128);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let dir = std::env::temp_dir().join(format!("edgecache-bad-{}", rand_suffix()));
        assert!(LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                page_size: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                buckets: 0,
                ..Default::default()
            }
        )
        .is_err());
        let _ = fs::remove_dir_all(dir);
    }
}
