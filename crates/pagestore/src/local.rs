//! The SSD-backed page store with the paper's on-disk layout (§4.3).
//!
//! ```text
//! <root>/
//!   page_size=1048576/            top-level folder: persistent global info
//!     bucket_00/ … bucket_3f/     hash fan-out bounding directory width
//!       <file-id, 16 hex chars>/  one directory per cached file
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
//! Up to 512 page files stay open, so most hits are one `pread`; DESIGN.md §4
//! "Open page files" states the contract that keeps this correct.
//!
//! Page data is rebuildable from the remote source by definition, so files
//! are *not* fsynced; a crash can lose recently written pages but never
//! serves a torn one (the checksum catches partial writes that survived a
//! crash).

use std::fs::{self, File};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use edgecache_common::lru::LruMap;
use edgecache_metrics::Tracer;
use parking_lot::Mutex;

use crate::crash::{CrashPlan, CrashSite};
use crate::page::{page_checksum, FileId, PageId};
use crate::store::PageStore;

/// Trailer magic marking a complete edgecache page file whose checksum is
/// XXH64.
const PAGE_MAGIC: &[u8; 4] = b"ECP2";
/// Trailer length: 8-byte checksum + 4-byte magic.
const TRAILER_LEN: u64 = 12;
/// Descriptor cache shape: 16 shards of 32 open page files.
const FD_SHARDS: usize = 16;
const FD_PER_SHARD: usize = 32;
/// Largest payload a full read takes through its descriptor; a larger one is
/// `fs::read(path)`, which does not zero its buffer first (DESIGN.md §4).
const PREAD_FULL_MAX: u64 = 128 << 10;
/// An open page file and its payload length.
type Descriptor = (Arc<File>, u64);

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
    fds: [Mutex<LruMap<PageId, Descriptor>>; FD_SHARDS],
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
            fds: std::array::from_fn(|_| Mutex::default()),
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
        match fs::read(path) {
            Ok(raw) => Self::verified(raw, id),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(Error::NotFound(format!("page {id}")))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Checks a whole page file's trailer, returning the payload.
    fn verified(mut raw: Vec<u8>, id: PageId) -> Result<Bytes> {
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
        raw.truncate(payload_len);
        Ok(Bytes::from(raw))
    }

    fn fd_shard(&self, id: PageId) -> &Mutex<LruMap<PageId, Descriptor>> {
        &self.fds[(id.stable_hash() % FD_SHARDS as u64) as usize]
    }

    /// A page's open file and payload length; a miss opens it under the lock.
    fn descriptor(&self, id: PageId) -> Result<Descriptor> {
        let mut shard = self.fd_shard(id).lock();
        if let Some(hit) = shard.get(&id) {
            return Ok(hit.clone());
        }
        let file = File::open(self.page_path(id)).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Error::NotFound(format!("page {id}")),
            _ => e.into(),
        })?;
        let len = file.metadata()?.len();
        if len < TRAILER_LEN {
            return Err(Error::Corrupted(format!("page {id}: truncated file")));
        }
        let entry = (Arc::new(file), len - TRAILER_LEN);
        Self::admit(&mut shard, id, entry.clone());
        Ok(entry)
    }

    /// Caches a descriptor `id` lacks, closing the oldest if the shard is full.
    fn admit(shard: &mut LruMap<PageId, Descriptor>, id: PageId, entry: Descriptor) {
        if shard.len() >= FD_PER_SHARD {
            shard.pop_oldest();
        }
        shard.insert(id, entry);
    }

    /// Closes a page's cached descriptor, after its path was unlinked.
    fn forget(&self, id: PageId) {
        self.fd_shard(id).lock().remove(&id);
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
        let write = (|| -> Result<File> {
            let mut f = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(data)?;
            f.write_all(&trailer(data))?;
            Ok(f)
        })();
        let file = write.inspect_err(|_| _ = fs::remove_file(&tmp_path))?;
        if self.crash_armed(CrashSite::PutTmpWritten) {
            // Process dies with the tmp file orphaned; recovery discards it.
            return Err(CrashPlan::crash_error(CrashSite::PutTmpWritten));
        }
        let renamed = fs::rename(&tmp_path, &final_path);
        // After the rename; a small page's writer takes its place (DESIGN.md §4).
        let mut shard = self.fd_shard(id).lock();
        shard.remove(&id);
        renamed?;
        if data.len() as u64 <= PREAD_FULL_MAX {
            Self::admit(&mut shard, id, (Arc::new(file), data.len() as u64));
        }
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
        let (file, payload_len) = self.descriptor(id)?;
        if offset == 0 && len >= payload_len {
            // Full read: verify the checksum trailer.
            let mut span = self.tracer.span("checksum_verify");
            let got = if payload_len <= PREAD_FULL_MAX {
                // A short read fails the trailer check, as a shrunk file would.
                let mut raw = vec![0; (payload_len + TRAILER_LEN) as usize];
                file.read_at(&mut raw, 0)
                    .map_err(Error::from)
                    .and_then(|n| {
                        raw.truncate(n);
                        Self::verified(raw, id)
                    })
            } else {
                self.read_verified(&self.page_path(id), id)
            };
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
        // One positional read into a zeroed allocation, which the returned
        // `Bytes` takes over; a short read is an error.
        let mut buf = vec![0; len.min(payload_len - offset) as usize];
        file.read_exact_at(&mut buf, offset)?;
        Ok(Bytes::from(buf))
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let path = self.page_path(id);
        let deleted = (|| {
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
                    // Opportunistically clean the per-file dir; a failure
                    // just means it is not empty.
                    let _ = fs::remove_dir(self.file_dir(id.file));
                    Ok(true)
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
                Err(e) => Err(e.into()),
            }
        })();
        // On every outcome, `Ok(false)` included.
        self.forget(id);
        deleted
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
                    if len < TRAILER_LEN
                        || (self.config.verify_on_recovery
                            && self.read_verified(&page, id).is_err())
                    {
                        let _ = fs::remove_file(&page);
                        self.forget(id);
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

    /// This process's open descriptors whose target, a `(deleted)` one
    /// included, is `path` or lies under it.
    fn open_fds_under(path: &Path) -> usize {
        let path = fs::canonicalize(path).unwrap();
        fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|fd| fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| {
                let target = target.to_string_lossy();
                Path::new(target.trim_end_matches(" (deleted)")).starts_with(&path)
            })
            .count()
    }

    #[test]
    fn overwrite_after_a_read_serves_the_new_version() {
        let (store, dir) = temp_store();
        // A page whose writer `put` caches, and one it does not.
        for (i, big) in [0, PREAD_FULL_MAX as usize].into_iter().enumerate() {
            let id = pid(1, i as u64);
            store.put(id, &vec![1u8; big + 500]).unwrap();
            assert_eq!(store.get(id, 10, 20).unwrap().as_ref(), &[1u8; 20][..]);
            store.put(id, &vec![2u8; big + 200]).unwrap();
            let tail = store.get(id, big as u64 + 10, 400).unwrap();
            assert_eq!(tail.as_ref(), &[2u8; 190][..]);
            assert_eq!(
                store.get_full(id).unwrap().as_ref(),
                &vec![2u8; big + 200][..]
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn delete_after_a_read_closes_the_page_file() {
        let (store, dir) = temp_store();
        store.put(pid(1, 0), &[3u8; 100]).unwrap();
        let path = store.page_path(pid(1, 0));
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), &[3u8; 100][..]);
        assert_eq!(open_fds_under(&path), 1);
        assert!(store.delete(pid(1, 0)).unwrap());
        assert!(matches!(store.get_full(pid(1, 0)), Err(Error::NotFound(_))));
        assert_eq!(
            open_fds_under(&dir),
            0,
            "the deleted page's inode is still open"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_hit_walks_no_path_and_every_delete_outcome_drops_it() {
        let (store, dir) = temp_store();
        let data: Vec<u8> = (0..=255u8).collect();
        store.put(pid(3, 0), &data).unwrap();
        assert_eq!(store.get(pid(3, 0), 1, 8).unwrap().as_ref(), &data[1..9]);
        fs::rename(store.bucket_dir(FileId(3)), dir.join("moved")).unwrap();
        assert_eq!(
            store.get(pid(3, 0), 40, 60).unwrap().as_ref(),
            &data[40..100]
        );
        assert!(!store.delete(pid(3, 0)).unwrap());
        assert!(matches!(
            store.get(pid(3, 0), 40, 60),
            Err(Error::NotFound(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    /// Version `v` of the hammered page: `64 + v` bytes, all `v as u8`.
    fn version(v: usize) -> Vec<u8> {
        vec![v as u8; 64 + v]
    }

    /// Four readers and one writer on one page: every read is one whole
    /// version, neither full nor ranged reads go back to an older version
    /// (a full read of a page over 128 KiB goes by path, so between a put's
    /// rename and its drop it may run ahead of a ranged one), and the
    /// writer's ranged read of every eighth version it has just put returns
    /// that version. Between reads of the page the readers read twice a
    /// shard's worth of other pages in its shard, which keeps evicting its
    /// descriptor: its reads then miss, and open it while the writer renames.
    #[test]
    fn descriptor_hammer_reads_whole_versions() {
        const VERSIONS: usize = 1000;
        let (store, dir) = temp_store();
        let id = pid(5, 0);
        store.put(id, &version(0)).unwrap();
        let shard = |p: PageId| p.stable_hash() % FD_SHARDS as u64;
        let others: Vec<PageId> = (0..)
            .map(|i| pid(6, i))
            .filter(|&p| shard(p) == shard(id))
            .take(2 * FD_PER_SHARD)
            .collect();
        for &p in &others {
            store.put(p, b"other").unwrap();
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        // The version `bytes` is read `skipped` bytes into.
        let whole = |bytes: &[u8], skipped: usize| {
            let v = bytes.len() + skipped - 64;
            assert!(v <= VERSIONS, "{} bytes is no version", bytes.len());
            assert!(bytes.iter().all(|&b| b == v as u8), "version {v} is mixed");
            v
        };
        std::thread::scope(|s| {
            for skip in 1..=4 {
                let (store, done, others) = (&store, &done, &others);
                s.spawn(move || {
                    let mut last = [0; 2];
                    while !done.load(Ordering::Acquire) || last == [0; 2] {
                        let full = whole(&store.get_full(id).unwrap(), 0);
                        let ranged = store.get(id, skip, u64::MAX / 2).unwrap();
                        let ranged = whole(&ranged, skip as usize);
                        for (last, v) in last.iter_mut().zip([full, ranged]) {
                            assert!(v >= *last, "version {v} read after {last}");
                            *last = v;
                        }
                        for &p in others {
                            assert_eq!(store.get(p, 1, 3).unwrap().as_ref(), b"the");
                        }
                    }
                });
            }
            let writer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for v in 1..=VERSIONS {
                    store.put(id, &version(v)).unwrap();
                    if v % 8 == 0 {
                        assert_eq!(whole(&store.get(id, 1, u64::MAX / 2).unwrap(), 1), v);
                    }
                }
            }));
            done.store(true, Ordering::Release);
            if let Err(panic) = writer {
                std::panic::resume_unwind(panic);
            }
        });
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn open_page_files_stay_within_the_descriptor_budget() {
        let (store, dir) = temp_store();
        let budget = FD_SHARDS * FD_PER_SHARD;
        let ids: Vec<PageId> = (0..3 * budget as u64).map(|i| pid(i % 97, i)).collect();
        for &id in &ids {
            store.put(id, &[id.index as u8; 16]).unwrap();
        }
        let mut peak = 0;
        for &id in &ids {
            assert_eq!(
                store.get_full(id).unwrap().as_ref(),
                &[id.index as u8; 16][..]
            );
            peak = peak.max(open_fds_under(store.root()));
        }
        assert_eq!(peak, budget);
        let _ = fs::remove_dir_all(dir);
    }
}
