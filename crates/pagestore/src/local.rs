//! The SSD-backed page store: pages in fixed-size slots of a few class files.
//!
//! ```text
//! <root>/
//!   page_size=1048576/   top-level folder: persistent global info (§4.3)
//!     slots_1048576.0-3  four stripe files per size class, named by the
//!     slots_524288.0-3   payload a slot holds: halving from the page size
//!     …                  down to a 4 KiB floor (one class if the page size
//!     slots_4096.0-3     is 4 KiB or less)
//! ```
//!
//! The paper keeps one file per page (§4.3). Here a page lives in a slot of
//! the smallest class that fits it, so above the floor a slot's payload is
//! under twice the page's length. Slot `s` is in stripe `s % 4`, so puts of
//! one class rarely queue on one file's write lock. A slot is `header ‖
//! payload`; the header names its page, as the paper's file names did:
//!
//! ```text
//! "ECS1" ‖ check (4) ‖ file id (8) ‖ page index (8) ‖ length (8) ‖ seq (8) ‖ XXH64(payload) (8)
//! ```
//!
//! Fields are little-endian; `check` is the low half of XXH64 over the 40
//! bytes after it, so a header verifies on its own. A put writes the payload
//! into a free slot, then the header: the header write commits the page. A
//! delete clears the slot's magic (one 4-byte write), and so does a put for
//! the slot of the version it replaced. `seq` grows with every put, so a
//! crash between a put's commit and that clear leaves two records of one
//! page, and recovery keeps the newer.
//!
//! In memory each page is an `Arc<Slot>` (class, slot, length, checksum,
//! verified bit). A read clones it under a shard lock and reads outside the
//! lock. A full read `pread`s the payload and checks it against the
//! checksum, surfacing [`Error::Corrupted`](edgecache_common::error::Error)
//! — the signal that drives early eviction (§8, "Corrupted files"). A slot
//! is verified once this process wrote it or a full read checked it; a
//! ranged read of a verified slot is one `pread`, of any other a full read
//! it slices. A slot returns to its class's free list only when its last
//! `Arc` drops, so a reader that found a version of a page reads all of it,
//! never a later tenant of its slot.
//!
//! Page data is rebuildable from the remote source by definition, so nothing
//! is fsynced; a crash can lose recent pages but never serves a torn one.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use edgecache_common::hash::xxh64;
use edgecache_metrics::Tracer;
use parking_lot::Mutex;

use crate::crash::{CrashPlan, CrashSite};
use crate::page::{page_checksum, FileId, PageId};
use crate::store::{PageStore, VerifiedPage};

/// Magic opening a committed slot header.
const SLOT_MAGIC: &[u8; 4] = b"ECS1";
/// Header bytes in front of every slot's payload.
const HEADER: u64 = 48;
/// Offset of the payload checksum within a header.
const SUM_AT: u64 = 40;
/// Smallest class payload, unless the page size is smaller.
const CLASS_FLOOR: u64 = 4 << 10;
/// Files a class's slots are striped over.
const STRIPES: u64 = 4;
/// Shards of the in-memory page map.
const SHARDS: usize = 16;

/// What a committed header says.
#[derive(Debug, Clone, Copy)]
struct Record {
    id: PageId,
    len: u64,
    seq: u64,
    sum: u64,
}

impl Record {
    fn encode(&self) -> [u8; HEADER as usize] {
        let mut h = [0u8; HEADER as usize];
        h[..4].copy_from_slice(SLOT_MAGIC);
        let words = [self.id.file.0, self.id.index, self.len, self.seq, self.sum];
        for (at, word) in h[8..].chunks_exact_mut(8).zip(words) {
            at.copy_from_slice(&word.to_le_bytes());
        }
        let check = xxh64(&h[8..], 0) as u32;
        h[4..8].copy_from_slice(&check.to_le_bytes());
        h
    }

    /// The record of a committed header whose check holds.
    fn decode(h: &[u8; HEADER as usize]) -> Option<Self> {
        let check = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
        if &h[..4] != SLOT_MAGIC || check != xxh64(&h[8..], 0) as u32 {
            return None;
        }
        let word =
            |i: usize| u64::from_le_bytes(h[8 + 8 * i..16 + 8 * i].try_into().expect("8 bytes"));
        Some(Self {
            id: PageId::new(FileId(word(0)), word(1)),
            len: word(2),
            seq: word(3),
            sum: word(4),
        })
    }
}

/// One size class: equal slots, striped over `STRIPES` files.
#[derive(Debug)]
struct Class {
    files: Vec<File>,
    /// Payload bytes a slot holds.
    cap: u64,
    free: Mutex<FreeSlots>,
}

#[derive(Debug, Default)]
struct FreeSlots {
    /// Freed slots, reused last in, first out.
    slots: Vec<u64>,
    /// Slots the class spans: the number of the next new one.
    end: u64,
    /// Bumped by every recovery scan, which rebuilds `slots`: a slot handed
    /// out before it is not returned.
    epoch: u64,
}

impl Class {
    /// The file holding slot `slot` and the offset of its header there.
    fn locate(&self, slot: u64) -> (&File, u64) {
        let file = &self.files[(slot % STRIPES) as usize];
        (file, slot / STRIPES * (HEADER + self.cap))
    }
}

/// A page's slot. Dropping its last reference frees the slot.
#[derive(Debug)]
struct Slot {
    class: Arc<Class>,
    index: u64,
    len: u64,
    sum: u64,
    epoch: u64,
    /// The payload on disk is known to match `sum`: this process wrote it,
    /// or a full read checked it. Until then every read is a full read.
    /// `Relaxed`: the bit publishes no memory, and a reader that misses a
    /// set only verifies again.
    verified: AtomicBool,
}

impl Slot {
    fn alloc(class: &Arc<Class>, len: u64, sum: u64) -> Self {
        let mut free = class.free.lock();
        let index = free.slots.pop().unwrap_or_else(|| {
            free.end += 1;
            free.end - 1
        });
        Self {
            class: Arc::clone(class),
            index,
            len,
            sum,
            epoch: free.epoch,
            verified: AtomicBool::new(true),
        }
    }

    /// The slot's file and the offset of its header there.
    fn at(&self) -> (&File, u64) {
        self.class.locate(self.index)
    }

    /// Clears the slot's magic on disk: the page it held is gone.
    fn clear(&self) -> Result<()> {
        let (file, at) = self.at();
        Ok(file.write_all_at(&[0; 4], at)?)
    }

    /// Simulates data blocks that never reached the device: fills the second
    /// half of the payload (the header's checksum, for an empty page) with a
    /// pattern, leaving a committed but torn page.
    fn tear(&self) -> Result<()> {
        self.verified.store(false, Ordering::Relaxed);
        let (file, at) = self.at();
        let (from, to) = match self.len {
            0 => (at + SUM_AT, at + HEADER),
            n => (at + HEADER + n / 2, at + HEADER + n),
        };
        Ok(file.write_all_at(&vec![0xEE; (to - from) as usize], from)?)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut free = self.class.free.lock();
        if free.epoch == self.epoch {
            free.slots.push(self.index);
        }
    }
}

/// Configuration for a [`LocalPageStore`]. There is one recovery path:
/// [`LocalPageStore::recover`] reads headers only, and a recovered page's
/// payload is checked by its first read.
#[derive(Debug, Clone)]
pub struct LocalStoreConfig {
    /// Nominal page size; recorded in the top-level directory name because
    /// it is "required to calculate the page index" during recovery (§4.3).
    /// Also the largest page the store takes.
    pub page_size: u64,
    /// Optional crash-point plan (test harnesses only): armed sites make the
    /// matching operation leave a realistic half-effect on disk and fail
    /// with a simulated-crash error. `None` in production.
    pub crash_plan: Option<Arc<CrashPlan>>,
}

impl Default for LocalStoreConfig {
    fn default() -> Self {
        Self {
            page_size: 1 << 20, // 1 MB, the paper's production default (§7).
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
    config: LocalStoreConfig,
    /// Size classes, largest first.
    classes: Vec<Arc<Class>>,
    pages: [Mutex<HashMap<PageId, Arc<Slot>>>; SHARDS],
    bytes_used: AtomicU64,
    /// The next put's sequence number.
    seq: AtomicU64,
    tracer: Tracer,
}

impl LocalPageStore {
    /// Opens (or creates) a page store rooted at `root` and recovers its
    /// pages.
    ///
    /// If `root` already holds a store with a *different* page size, the old
    /// contents are wiped: page indexes computed with another page size are
    /// meaningless, so the cache must restart cold (§4.3). So is a
    /// `page_size=` folder holding anything but this store's class files,
    /// such as the page-per-file layout of earlier versions.
    pub fn open(root: impl Into<PathBuf>, config: LocalStoreConfig) -> Result<Self> {
        if config.page_size == 0 {
            return Err(Error::InvalidArgument("page_size must be positive".into()));
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
        let caps: Vec<u64> = std::iter::successors(Some(config.page_size), |&cap| {
            (cap / 2 >= CLASS_FLOOR).then_some(cap / 2)
        })
        .collect();
        let name = |cap: u64, stripe: u64| format!("slots_{cap}.{stripe}");
        let names: Vec<String> = (caps.iter())
            .flat_map(|&cap| (0..STRIPES).map(move |k| name(cap, k)))
            .collect();
        let stray = |e: std::io::Result<fs::DirEntry>| {
            e.map_or(true, |e| !names.iter().any(|n| e.file_name() == **n))
        };
        if fs::read_dir(&base).is_ok_and(|mut entries| entries.any(stray)) {
            fs::remove_dir_all(&base)?;
        }
        fs::create_dir_all(&base)?;
        let mut options = File::options();
        options.read(true).write(true).create(true).truncate(false);
        let classes = caps
            .into_iter()
            .map(|cap| {
                let files = (0..STRIPES).map(|k| options.open(base.join(name(cap, k))));
                Ok(Arc::new(Class {
                    files: files.collect::<std::io::Result<_>>()?,
                    cap,
                    free: Mutex::default(),
                }))
            })
            .collect::<Result<_>>()?;
        let store = Self {
            root,
            config,
            classes,
            pages: std::array::from_fn(|_| Mutex::default()),
            bytes_used: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            tracer: Tracer::disabled(),
        };
        store.recover()?;
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

    fn shard(&self, id: PageId) -> &Mutex<HashMap<PageId, Arc<Slot>>> {
        &self.pages[(id.stable_hash() % SHARDS as u64) as usize]
    }

    /// Whether an armed crash point at `site` fires now (consumes it).
    fn crash_armed(&self, site: CrashSite) -> bool {
        self.config
            .crash_plan
            .as_ref()
            .is_some_and(|p| p.should_crash(site))
    }

    /// The one put: writes `data`, whose checksum is `sum`, into a free slot
    /// and commits it.
    fn write(&self, id: PageId, data: &[u8], sum: u64) -> Result<()> {
        let len = data.len() as u64;
        let class = self.classes.iter().rev().find(|c| c.cap >= len);
        let class = class.ok_or_else(|| {
            Error::InvalidArgument(format!("page {id}: {len} bytes exceed the page size"))
        })?;
        let slot = Arc::new(Slot::alloc(class, len, sum));
        let (file, at) = slot.at();
        file.write_all_at(data, at + HEADER)?;
        if self.crash_armed(CrashSite::PutTmpWritten) {
            // Process dies before the commit: the slot is still free on disk.
            return Err(CrashPlan::crash_error(CrashSite::PutTmpWritten));
        }
        let record = Record {
            id,
            len,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            sum: slot.sum,
        };
        file.write_all_at(&record.encode(), at)?;
        let old = self.shard(id).lock().insert(id, Arc::clone(&slot));
        if let Some(old) = &old {
            old.clear()?;
        }
        if self.crash_armed(CrashSite::PutTornTail) {
            // The header landed, but the unsynced payload never reached the
            // device in full.
            slot.tear()?;
            return Err(CrashPlan::crash_error(CrashSite::PutTornTail));
        }
        let freed = old.map_or(0, |old| old.len);
        self.bytes_used.fetch_add(len, Ordering::SeqCst);
        self.bytes_used.fetch_sub(freed, Ordering::SeqCst);
        Ok(())
    }

    /// The one full read: `pread`s the payload and verifies it against the
    /// slot's checksum, which comes back with it. A match marks the slot
    /// verified.
    fn read_full(&self, id: PageId, slot: &Slot) -> Result<VerifiedPage> {
        let (file, at) = slot.at();
        let mut span = self.tracer.span("checksum_verify");
        let mut payload = vec![0; slot.len as usize];
        let got = match file.read_exact_at(&mut payload, at + HEADER) {
            Ok(()) if page_checksum(&payload) == slot.sum => {
                slot.verified.store(true, Ordering::Relaxed);
                Ok(Bytes::from(payload))
            }
            Ok(()) => Err(Error::Corrupted(format!("page {id}: checksum mismatch"))),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(Error::Corrupted(format!("page {id}: truncated")))
            }
            Err(e) => Err(e.into()),
        };
        if span.is_recording() {
            span.annotate("page", id);
            match &got {
                Ok(bytes) => span.annotate("bytes", bytes.len()),
                Err(e) => span.annotate("status", e.kind()),
            }
        }
        span.finish();
        got.map(|bytes| VerifiedPage {
            bytes,
            checksum: slot.sum,
        })
    }
}

impl PageStore for LocalPageStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.write(id, data, page_checksum(data))
    }

    /// Writes the carried checksum into the slot header; hashes nothing.
    fn put_verified(&self, id: PageId, page: VerifiedPage) -> Result<()> {
        debug_assert_eq!(page_checksum(&page.bytes), page.checksum);
        self.write(id, &page.bytes, page.checksum)
    }

    fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
        let slot = self.shard(id).lock().get(&id).cloned();
        let slot = slot.ok_or_else(|| Error::NotFound(format!("page {id}")))?;
        self.read_full(id, &slot)
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let slot = self.shard(id).lock().get(&id).cloned();
        let slot = slot.ok_or_else(|| Error::NotFound(format!("page {id}")))?;
        // A whole page, or any range of one not yet verified: the full read,
        // which checks it, and a zero-copy slice of its bytes.
        if (offset == 0 && len >= slot.len) || !slot.verified.load(Ordering::Relaxed) {
            let bytes = self.read_full(id, &slot)?.bytes;
            let end = offset.saturating_add(len).min(slot.len);
            return Ok(bytes.slice(offset.min(end) as usize..end as usize));
        }
        if offset >= slot.len {
            return Ok(Bytes::new());
        }
        // One positional read into a zeroed allocation, which the returned
        // `Bytes` takes over; a short read is an error.
        let (file, at) = slot.at();
        let mut buf = vec![0; len.min(slot.len - offset) as usize];
        file.read_exact_at(&mut buf, at + HEADER + offset)?;
        Ok(Bytes::from(buf))
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let slot = match self.shard(id).lock().entry(id) {
            Entry::Vacant(_) => return Ok(false),
            Entry::Occupied(page) if self.crash_armed(CrashSite::DeleteTornTail) => {
                // Interrupted mid-delete: the page is neither intact nor gone.
                page.get().tear()?;
                return Err(CrashPlan::crash_error(CrashSite::DeleteTornTail));
            }
            Entry::Occupied(page) => page.remove(),
        };
        self.bytes_used.fetch_sub(slot.len, Ordering::SeqCst);
        slot.clear()?;
        Ok(true)
    }

    fn contains(&self, id: PageId) -> bool {
        self.shard(id).lock().contains_key(&id)
    }

    fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::SeqCst)
    }

    fn put_is_file_io(&self) -> bool {
        true
    }

    /// Reads every slot header and rebuilds the page map and free lists from
    /// them: a committed header whose check holds is a page, the newest
    /// record of a page wins, and every other slot is free — cleared on disk
    /// if its magic was still set. No payload is read: every recovered page
    /// starts unverified, so its first read of any range checks it, and a
    /// torn or stale payload is `Corrupted` instead of served. Runs at
    /// [`LocalPageStore::open`]; call it again only while no read or write
    /// is in flight.
    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        // Each page's newest record: (class, slot, record).
        let mut newest: HashMap<PageId, (usize, u64, Record)> = HashMap::new();
        let mut stale = Vec::new();
        let mut ends = Vec::new();
        for (c, class) in self.classes.iter().enumerate() {
            let mut end = 0;
            for file in &class.files {
                end = end.max(file.metadata()?.len().div_ceil(HEADER + class.cap) * STRIPES);
            }
            ends.push(end);
            for slot in 0..end {
                let mut h = [0u8; HEADER as usize];
                // A slot cut short at the end of its file reads as free.
                let (file, at) = class.locate(slot);
                if file.read_exact_at(&mut h, at).is_err() || h[..4] == [0; 4] {
                    continue;
                }
                let Some(record) = Record::decode(&h).filter(|r| r.len <= class.cap) else {
                    stale.push((c, slot));
                    continue;
                };
                match newest.entry(record.id) {
                    Entry::Occupied(mut e) if e.get().2.seq < record.seq => {
                        let (c0, slot0, _) = e.insert((c, slot, record));
                        stale.push((c0, slot0));
                    }
                    Entry::Occupied(_) => stale.push((c, slot)),
                    Entry::Vacant(e) => _ = e.insert((c, slot, record)),
                }
            }
        }
        for &(c, slot) in &stale {
            let (file, at) = self.classes[c].locate(slot);
            file.write_all_at(&[0; 4], at)?;
        }
        // Rebuild: every slot no page holds is free, lowest reused first.
        let held: HashSet<(usize, u64)> = newest.values().map(|&(c, s, _)| (c, s)).collect();
        for (c, (class, end)) in self.classes.iter().zip(ends).enumerate() {
            let mut free = class.free.lock();
            free.epoch += 1;
            free.end = end;
            free.slots = (0..end)
                .rev()
                .filter(|&s| !held.contains(&(c, s)))
                .collect();
        }
        for shard in &self.pages {
            // The old slots drop after the lock, and outside any free list.
            let _old = std::mem::take(&mut *shard.lock());
        }
        let mut out = Vec::with_capacity(newest.len());
        for (id, (c, index, record)) in newest {
            out.push((id, record.len));
            self.seq.fetch_max(record.seq + 1, Ordering::SeqCst);
            let class = Arc::clone(&self.classes[c]);
            let epoch = class.free.lock().epoch;
            let slot = Slot {
                class,
                index,
                len: record.len,
                sum: record.sum,
                epoch,
                verified: AtomicBool::new(false),
            };
            self.shard(id).lock().insert(id, Arc::new(slot));
        }
        let used = out.iter().map(|&(_, len)| len).sum();
        self.bytes_used.store(used, Ordering::SeqCst);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::bit_flip_sites;
    use edgecache_common::hash::fnv1a64;

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

    /// Page `id`'s slot.
    fn slot_of(store: &LocalPageStore, id: PageId) -> Arc<Slot> {
        Arc::clone(&store.shard(id).lock()[&id])
    }

    /// XORs `mask` into byte `at` of page `id`'s payload on disk.
    fn flip(store: &LocalPageStore, id: PageId, at: u64, mask: u8) {
        let slot = slot_of(store, id);
        let mut byte = [0];
        let (file, header) = slot.at();
        let at = header + HEADER + at;
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ mask], at).unwrap();
    }

    /// Page `id`'s committed header on disk.
    fn header_of(store: &LocalPageStore, id: PageId) -> [u8; HEADER as usize] {
        let slot = slot_of(store, id);
        let mut h = [0; HEADER as usize];
        let (file, at) = slot.at();
        file.read_exact_at(&mut h, at).unwrap();
        h
    }

    /// The class files' lengths, largest class first.
    fn file_lens(store: &LocalPageStore) -> Vec<u64> {
        let classes = store.classes.iter();
        let files = classes.flat_map(|c| c.files.iter());
        files.map(|f| f.metadata().unwrap().len()).collect()
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
    fn get_verified_returns_the_checksum_of_its_bytes() {
        let (store, dir) = temp_store();
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 251) as u8).collect();
        store.put(pid(1, 0), &data).unwrap();
        let page = store.get_verified(pid(1, 0)).unwrap();
        assert_eq!(page.bytes().as_ref(), &data[..]);
        assert_eq!(page.checksum(), xxh64(&data, 0));
        flip(&store, pid(1, 0), 4999, 0x80);
        assert!(matches!(
            store.get_verified(pid(1, 0)),
            Err(Error::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_put_verified_record_verifies_after_recovery() {
        let dir = std::env::temp_dir().join(format!("edgecache-verified-{}", rand_suffix()));
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 13 % 241) as u8).collect();
        let page = VerifiedPage::new(Bytes::from(data.clone()));
        store.put_verified(pid(2, 0), page).unwrap();
        // A page moved on with the checksum its read checked.
        let moved = store.get_verified(pid(2, 0)).unwrap();
        store.put_verified(pid(2, 1), moved).unwrap();
        drop(store);
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        let recovered: HashSet<(PageId, u64)> = store.recover().unwrap().into_iter().collect();
        assert_eq!(
            recovered,
            HashSet::from([(pid(2, 0), 3000), (pid(2, 1), 3000)])
        );
        for index in 0..2 {
            // A ranged first read runs the verifying full read.
            let range = store.get(pid(2, index), 1000, 10).unwrap();
            assert_eq!(range.as_ref(), &data[1000..1010]);
            assert_eq!(store.get_full(pid(2, index)).unwrap().as_ref(), &data[..]);
        }
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
    fn oversized_page_is_rejected() {
        let (store, dir) = temp_store();
        let big = vec![0u8; (1 << 20) + 1];
        assert!(matches!(
            store.put(pid(1, 0), &big),
            Err(Error::InvalidArgument(_))
        ));
        assert!(!store.contains(pid(1, 0)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corruption_is_detected_on_full_read() {
        let (store, dir) = temp_store();
        store.put(pid(4, 0), b"important payload").unwrap();
        // Flip a payload byte behind the store's back.
        flip(&store, pid(4, 0), 3, 0xff);
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
        for (byte, mask) in bit_flip_sites(page.len()) {
            flip(&store, pid(4, 2), byte as u64, mask);
            assert!(
                matches!(store.get_full(pid(4, 2)), Err(Error::Corrupted(_))),
                "flip of bit {mask:#04x} in byte {byte} went undetected"
            );
            flip(&store, pid(4, 2), byte as u64, mask);
        }
        assert_eq!(store.get_full(pid(4, 2)).unwrap().as_ref(), &page[..]);
        let _ = fs::remove_dir_all(dir);
    }

    /// Every read of page `id` (`len` bytes), ranged or whole, is
    /// `Corrupted`: an unverified page serves no byte until it checks out.
    fn assert_corrupted(store: &LocalPageStore, id: PageId, len: u64) {
        let ranges = [
            (len / 2, 1),
            (0, len / 2 + 1),
            (len.saturating_sub(1), 100),
            (0, len),
        ];
        for (offset, n) in ranges {
            assert!(
                matches!(store.get(id, offset, n), Err(Error::Corrupted(_))),
                "page {id}: range {offset}+{n} was served"
            );
        }
        assert!(matches!(store.get_verified(id), Err(Error::Corrupted(_))));
    }

    /// Stores `payload` as page `id` under a valid header whose checksum is
    /// FNV-1a, the algorithm of pre-bump (`ECP1`) pages, and re-reads the
    /// headers as a restart would.
    fn write_pre_bump_page(store: &LocalPageStore, id: PageId, payload: &[u8]) {
        store.put(id, payload).unwrap();
        let slot = slot_of(store, id);
        let record = Record {
            sum: fnv1a64(payload),
            ..Record::decode(&header_of(store, id)).unwrap()
        };
        let (file, at) = slot.at();
        file.write_all_at(&record.encode(), at).unwrap();
        drop(slot);
        store.recover().unwrap();
    }

    #[test]
    fn a_pre_bump_page_is_corrupted_whole_and_ranged() {
        let (store, dir) = temp_store();
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        store.put(pid(6, 1), &payload).unwrap();
        write_pre_bump_page(&store, pid(6, 0), &payload);
        // The payload is intact, but its checksum is not this format's.
        assert_corrupted(&store, pid(6, 0), 5000);
        assert_eq!(
            store.get(pid(6, 1), 100, 900).unwrap().as_ref(),
            &payload[100..1000]
        );
        assert_eq!(store.get_full(pid(6, 1)).unwrap().as_ref(), &payload[..]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_pre_bump_page_is_recovered_and_corrupted_at_first_read() {
        let dir = std::env::temp_dir().join(format!("edgecache-ecp1-{}", rand_suffix()));
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        store.put(pid(1, 0), b"current").unwrap();
        write_pre_bump_page(&store, pid(1, 1), b"pre-bump");
        drop(store);
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        let recovered: HashSet<(PageId, u64)> = store.recover().unwrap().into_iter().collect();
        assert_eq!(recovered, HashSet::from([(pid(1, 0), 7), (pid(1, 1), 8)]));
        assert_corrupted(&store, pid(1, 1), 8);
        assert_eq!(store.get(pid(1, 0), 3, 4).unwrap().as_ref(), b"rent");
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), b"current");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_file_is_corrupted() {
        let (store, dir) = temp_store();
        store.put(pid(4, 1), b"0123456789").unwrap();
        let slot = slot_of(&store, pid(4, 1));
        let (file, at) = slot.at();
        file.set_len(at + HEADER + 5).unwrap();
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
        assert_eq!(store.get_full(pid(1, 1)).unwrap().as_ref(), &[0xab; 50][..]);
        let _ = fs::remove_dir_all(dir);
    }

    /// A store over `dir` with a crash plan.
    fn crash_store(dir: &Path, plan: &Arc<CrashPlan>) -> LocalPageStore {
        let config = LocalStoreConfig {
            crash_plan: Some(Arc::clone(plan)),
            ..Default::default()
        };
        LocalPageStore::open(dir, config).unwrap()
    }

    #[test]
    fn an_uncommitted_slot_is_free() {
        let dir = std::env::temp_dir().join(format!("edgecache-uncommitted-{}", rand_suffix()));
        let plan = CrashPlan::new();
        let store = crash_store(&dir, &plan);
        store.put(pid(1, 0), &[1u8; 10]).unwrap();
        // The payload lands, the process dies before the header.
        plan.arm(CrashSite::PutTmpWritten);
        assert!(store.put(pid(1, 1), &[2u8; 10]).is_err());
        let lens = file_lens(&store);
        drop(store);
        let store = crash_store(&dir, &plan);
        assert_eq!(store.recover().unwrap(), vec![(pid(1, 0), 10)]);
        store.put(pid(1, 2), &[3u8; 10]).unwrap();
        assert_eq!(file_lens(&store), lens, "the uncommitted slot is reused");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_torn_overwrite_is_corrupted_at_its_first_ranged_read() {
        let dir = std::env::temp_dir().join(format!("edgecache-torn-range-{}", rand_suffix()));
        let plan = CrashPlan::new();
        let config = LocalStoreConfig {
            page_size: 16 << 10,
            crash_plan: Some(Arc::clone(&plan)),
        };
        let store = LocalPageStore::open(&dir, config.clone()).unwrap();
        store.put(pid(1, 0), &[1u8; 8 << 10]).unwrap();
        plan.arm(CrashSite::PutTornTail);
        assert!(store.put(pid(1, 0), &[2u8; 8 << 10]).is_err());
        drop(store);
        let store = LocalPageStore::open(&dir, config).unwrap();
        assert!(store.contains(pid(1, 0)));
        // Bytes 4096.. of the new payload never reached the device.
        assert!(matches!(
            store.get(pid(1, 0), 6000, 100),
            Err(Error::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_puts_and_deletes_are_recovered_and_corrupted_at_first_read() {
        let dir = std::env::temp_dir().join(format!("edgecache-torn-{}", rand_suffix()));
        let plan = CrashPlan::new();
        let store = crash_store(&dir, &plan);
        for i in 0..3 {
            store.put(pid(1, i), &[i as u8 + 1; 100]).unwrap();
        }
        // Committed headers over torn payloads: a replaced page, an empty
        // one, and a page whose delete never cleared its magic.
        plan.arm(CrashSite::PutTornTail);
        assert!(store.put(pid(1, 0), &[9u8; 80]).is_err());
        plan.arm(CrashSite::PutTornTail);
        assert!(store.put(pid(1, 3), &[]).is_err());
        plan.arm(CrashSite::DeleteTornTail);
        assert!(store.delete(pid(1, 1)).is_err());
        assert!(matches!(
            store.get_full(pid(1, 1)),
            Err(Error::Corrupted(_))
        ));
        drop(store);
        let store = crash_store(&dir, &plan);
        // The empty page's tear hit its header's checksum field, so that
        // header fails its own check and recovery finds no page 3.
        let recovered: HashSet<(PageId, u64)> = store.recover().unwrap().into_iter().collect();
        let torn = [(pid(1, 0), 80), (pid(1, 1), 100)];
        assert_eq!(
            recovered,
            HashSet::from([torn[0], torn[1], (pid(1, 2), 100)])
        );
        for (id, len) in torn {
            assert_corrupted(&store, id, len);
        }
        assert_eq!(store.get(pid(1, 2), 10, 5).unwrap().as_ref(), &[3u8; 5]);
        assert_eq!(store.get_full(pid(1, 2)).unwrap().as_ref(), &[3u8; 100]);
        assert_eq!(plan.fired(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recovered_corrupt_pages_are_corrupted_at_first_read() {
        let dir = std::env::temp_dir().join(format!("edgecache-verify-{}", rand_suffix()));
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        store.put(pid(1, 0), b"good").unwrap();
        store.put(pid(1, 1), b"bad!").unwrap();
        flip(&store, pid(1, 1), 0, 0x01);
        drop(store);
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        let recovered: HashSet<(PageId, u64)> = store.recover().unwrap().into_iter().collect();
        assert_eq!(recovered, HashSet::from([(pid(1, 0), 4), (pid(1, 1), 4)]));
        assert_corrupted(&store, pid(1, 1), 4);
        assert_eq!(store.get(pid(1, 0), 1, 2).unwrap().as_ref(), b"oo");
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), b"good");
        let _ = fs::remove_dir_all(dir);
    }

    /// Leaves two committed records of page `id` on disk, as a crash between
    /// an overwrite's commit and its clear of the old slot would: `old`
    /// (seq 0, in the returned slot), then `new` (seq 1).
    fn two_records(store: &LocalPageStore, id: PageId, old: &[u8], new: &[u8]) -> u64 {
        store.put(id, old).unwrap();
        let (header, slot) = (header_of(store, id), slot_of(store, id));
        store.put(id, new).unwrap();
        let (file, at) = slot.at();
        file.write_all_at(&header, at).unwrap();
        slot.index
    }

    #[test]
    fn the_newer_of_two_records_wins_and_the_loser_is_reused() {
        let (store, dir) = temp_store();
        let loser = two_records(&store, pid(1, 0), b"old version", b"new version");
        drop(store);
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        assert_eq!(store.recover().unwrap(), vec![(pid(1, 0), 11)]);
        assert_eq!(store.get_full(pid(1, 0)).unwrap().as_ref(), b"new version");
        let lens = file_lens(&store);
        store.put(pid(2, 0), b"third").unwrap();
        assert_eq!(slot_of(&store, pid(2, 0)).index, loser);
        assert_eq!(file_lens(&store), lens);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_deleted_page_does_not_come_back() {
        let (store, dir) = temp_store();
        store.put(pid(1, 1), b"plain").unwrap();
        assert!(store.delete(pid(1, 1)).unwrap());
        two_records(&store, pid(1, 0), b"old version", b"new version");
        drop(store);
        // Recovery clears the losing record, so the winner's delete leaves
        // nothing behind.
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        assert!(store.delete(pid(1, 0)).unwrap());
        drop(store);
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        assert!(store.recover().unwrap().is_empty());
        assert_eq!(store.bytes_used(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn old_layout_directory_is_wiped() {
        let dir = std::env::temp_dir().join(format!("edgecache-old-layout-{}", rand_suffix()));
        let bucket = dir.join("page_size=1048576/bucket_01");
        fs::create_dir_all(bucket.join("0000000000000001")).unwrap();
        fs::write(bucket.join("0000000000000001/0"), b"pageECP2").unwrap();
        let store = LocalPageStore::open(&dir, LocalStoreConfig::default()).unwrap();
        assert!(store.recover().unwrap().is_empty());
        assert!(!bucket.exists());
        store.put(pid(1, 0), b"fresh").unwrap();
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
        assert!(!dir.join("page_size=1048576").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_refill_reuses_every_slot_and_pages_fit_their_class() {
        let (store, dir) = temp_store();
        let lens = [0, 1, 4096, 4097, 10_000, 65_536, 65_537, 200_000, 1 << 20];
        let ends = |s: &LocalPageStore| -> Vec<u64> {
            s.classes.iter().map(|c| c.free.lock().end).collect()
        };
        let mut filled = Vec::new();
        for round in 0..2 {
            for (i, &len) in lens.iter().enumerate() {
                store
                    .put(pid(round, i as u64), &vec![i as u8; len])
                    .unwrap();
            }
            filled.push(ends(&store));
            if round == 0 {
                for i in 0..lens.len() as u64 {
                    assert!(store.delete(pid(0, i)).unwrap());
                }
            }
        }
        assert_eq!(filled[0], filled[1], "the refill took a new slot");
        // No class file reaches past the slots its class has handed out.
        for (class, end) in store.classes.iter().zip(&filled[1]) {
            let span = end.div_ceil(STRIPES) * (HEADER + class.cap);
            assert!(class
                .files
                .iter()
                .all(|f| f.metadata().unwrap().len() <= span));
        }
        for (i, &len) in lens.iter().enumerate() {
            let cap = slot_of(&store, pid(1, i as u64)).class.cap;
            assert!(cap >= len as u64 && (cap == CLASS_FLOOR || cap < 2 * len as u64));
        }
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
        // A page of the floor class, and one of a larger class.
        for (i, big) in [0, 128 << 10].into_iter().enumerate() {
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
    fn open_files_are_four_per_class() {
        let (store, dir) = temp_store();
        assert_eq!(store.classes.len(), 9, "1 MiB down to 4 KiB");
        let ids: Vec<PageId> = (0..300).map(|i| pid(i % 97, i)).collect();
        for &id in &ids {
            store
                .put(id, &vec![id.index as u8; 1 << (id.index % 21)])
                .unwrap();
        }
        for &id in &ids {
            let page = store.get_full(id).unwrap();
            assert_eq!(
                page.as_ref(),
                &vec![id.index as u8; 1 << (id.index % 21)][..]
            );
        }
        let files = store.classes.len() * STRIPES as usize;
        assert_eq!(open_fds_under(store.root()), files);
        let _ = fs::remove_dir_all(dir);
    }

    /// Version `v` of hammered page `p`: every byte is `(v * 4 + p) as u8`,
    /// and that byte sets the length, so a read names the page and version
    /// it came from.
    fn version(p: u64, v: u64) -> Vec<u8> {
        let tag = (v * 4 + p) as u8;
        vec![tag; 1024 + 8 * tag as usize]
    }

    /// Four readers and one writer over four pages of the 4 KiB class: the
    /// writer overwrites and deletes them in turn, so the slot a reader holds
    /// is often freed under it and taken by the next put. Every full and
    /// ranged read must be one whole version of the page it asked for.
    #[test]
    fn slot_reuse_hammer_reads_whole_versions() {
        const ROUNDS: u64 = 20_000;
        let (store, dir) = temp_store();
        let done = std::sync::atomic::AtomicBool::new(false);
        // The page `bytes` is a version of, read `skipped` bytes in.
        let whole = |bytes: &[u8], skipped: usize, p: u64| {
            let tag = bytes[0];
            assert!(bytes.iter().all(|&b| b == tag), "page {p} read mixed");
            assert_eq!(tag as u64 % 4, p, "page {p} read another page");
            assert_eq!(bytes.len() + skipped, 1024 + 8 * tag as usize);
        };
        std::thread::scope(|s| {
            for skip in 1..=4 {
                let (store, done) = (&store, &done);
                s.spawn(move || {
                    let mut reads = 0u64;
                    while !done.load(Ordering::Acquire) || reads == 0 {
                        let p = (reads + skip) % 4;
                        let full = store.get_full(pid(5, p));
                        let ranged = store.get(pid(5, p), skip, u64::MAX / 2);
                        for (got, skipped) in [(full, 0), (ranged, skip as usize)] {
                            match got {
                                Ok(bytes) => whole(&bytes, skipped, p),
                                Err(Error::NotFound(_)) => {}
                                Err(e) => panic!("page {p}: {e}"),
                            }
                        }
                        reads += 1;
                    }
                });
            }
            let writer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for v in 0..ROUNDS {
                    let p = v % 4;
                    if v % 3 == 2 {
                        store.delete(pid(5, p)).unwrap();
                    } else {
                        store.put(pid(5, p), &version(p, v)).unwrap();
                    }
                }
            }));
            done.store(true, Ordering::Release);
            if let Err(panic) = writer {
                std::panic::resume_unwind(panic);
            }
        });
        // Four pages, a put's new slot and a slot per reader at most.
        assert!(store.classes.last().unwrap().free.lock().end <= 4 + 1 + 4);
        let _ = fs::remove_dir_all(dir);
    }
}
