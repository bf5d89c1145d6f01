//! The read pipeline behind [`CacheManager::read`] and
//! [`CacheManager::read_multi`]: classify, fetch, publish, serve (with one
//! repair round for degraded hits), collect, assemble.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use edgecache_common::error::{Error, Result};
use edgecache_metrics::trace::SpanId;
use edgecache_pagestore::{PageId, PageStore};
use parking_lot::{Condvar, Mutex};

use super::write_behind::Deferred;
use super::{CacheState, PageLock, RemoteSource, SourceFile};

/// Latch for a page fetch in progress. The owning reader publishes the full
/// page (or an error — [`Error`] is not `Clone`, so failures travel as text)
/// exactly once; concurrent readers of the same cold page block here instead
/// of issuing duplicate remote reads.
#[derive(Default)]
pub(super) struct InflightFetch {
    state: Mutex<Option<std::result::Result<Bytes, String>>>,
    done: Condvar,
}

impl InflightFetch {
    /// Publishes the outcome and wakes every waiter.
    pub(super) fn publish(&self, outcome: std::result::Result<Bytes, String>) {
        *self.state.lock() = Some(outcome);
        self.done.notify_all();
    }

    /// The published page, if the owner has published one.
    pub(super) fn page(&self) -> Option<Bytes> {
        match &*self.state.lock() {
            Some(Ok(bytes)) => Some(bytes.clone()),
            _ => None,
        }
    }

    /// Blocks until the owner publishes, then returns the full page.
    fn wait(&self) -> std::result::Result<Bytes, String> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                Some(Ok(bytes)) => return Ok(bytes.clone()),
                Some(Err(msg)) => return Err(msg.clone()),
                None => self.done.wait(&mut state),
            }
        }
    }
}

/// Which SSD hit (counted since the page entered SSD) promotes a page into
/// the DRAM tier — the kernel's two-list rule, with SSD as the probation
/// list and DRAM as the second-touch list: a one-off hit is served ranged
/// and moves nothing.
const PROMOTE_ON_HIT: u64 = 2;

/// How one requested page will be served, decided during classification.
enum PageClass {
    /// Present in the index: read from the local store after the lock drops.
    /// `dir` and `hits` are what the classify-time touch saw — the page's
    /// directory and its hit count there, this hit included.
    Hit { dir: usize, hits: u64 },
    /// Missing and admitted, with this reader elected to fetch it.
    Owner { latch: Arc<InflightFetch> },
    /// Missing, but another reader is already fetching it.
    Waiter { latch: Arc<InflightFetch> },
    /// Published by its owner and queued for write-behind: a hit served
    /// from the bytes its in-flight entry holds.
    Pending { page: Bytes },
    /// Missing and rejected by admission, or a hit whose store read hung:
    /// remote-read the exact range only.
    Bypass,
}

/// One page of a (possibly multi-page) read.
struct PagePlan {
    id: PageId,
    /// Absolute offset of the page in the file.
    page_start: u64,
    /// Full (EOF-clamped) page length.
    page_len: u64,
    /// Requested sub-range within the page.
    within_off: u64,
    within_len: u64,
    class: PageClass,
    /// Remote request slot serving this page (owners and bypasses).
    slot: Option<usize>,
    /// Byte offset of this page inside its slot's response.
    off_in_slot: u64,
}

/// What stages 2–5 of the read pipeline produced: one chunk per plan
/// (covering its requested sub-range) plus the raw ranged responses, kept
/// so callers can hand out zero-copy slices of whole coalesced runs.
struct ServedPages {
    /// Per-plan chunk, indexed like the plan list.
    chunks: Vec<Bytes>,
    /// Per-slot remote responses.
    fetched: Vec<Result<Bytes>>,
    /// Per-slot `(offset, len)` ranges, indexed like `fetched`.
    fetches: Vec<(u64, u64)>,
}

/// Releases owned in-flight latches when a read unwinds before publishing
/// (panic or early error), so waiters are not stranded.
struct LatchCleanup<'a> {
    cache: &'a CacheState,
    file: &'a SourceFile,
    pending: Vec<(usize, PageId, Arc<InflightFetch>)>,
}

impl Drop for LatchCleanup<'_> {
    fn drop(&mut self) {
        for (_, id, latch) in self.pending.drain(..) {
            self.cache.finish_fetch(
                self.file,
                id,
                &latch,
                &Err("fetch abandoned".into()),
                SpanId::NONE,
            );
        }
    }
}

impl CacheState {
    /// Reads `len` bytes at `offset` from `file`, serving cached pages
    /// locally and fetching missing pages read-through from `source`. This
    /// is the one-fragment case of [`Self::read_multi`]; both run one
    /// pipeline:
    ///
    /// 1. **Classify** — each distinct page is classified once, under its
    ///    page lock only on a miss and never across I/O, as a local hit,
    ///    an in-flight fetch to join, a miss this reader owns, or an
    ///    admission bypass.
    /// 2. **Fetch** — owned misses are coalesced into runs of adjacent
    ///    pages, one ranged [`RemoteSource::read_ranges`] request per run,
    ///    executed concurrently up to
    ///    [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches).
    /// 3. **Publish** — fetched pages are released through per-page
    ///    single-flight latches, so N concurrent readers of one cold page
    ///    produce exactly one remote request, and cached: inline (re-taking
    ///    the page lock just for the insert), or for a file-backed store
    ///    behind the read on the write-behind writer, while its bounded
    ///    queue has room.
    /// 4. **Assemble** — a range inside one page or one coalesced run is a
    ///    zero-copy slice; only a range spanning several sources is
    ///    stitched (counted in `bytes_copied`).
    pub fn read(
        &self,
        file: &SourceFile,
        offset: u64,
        len: u64,
        source: &dyn RemoteSource,
    ) -> Result<Bytes> {
        if offset >= offset.saturating_add(len).min(file.length) {
            return Ok(Bytes::new());
        }
        let mut out = self.read_fragments("cache.read", file, &[(offset, len)], source)?;
        Ok(out.pop().expect("one buffer per fragment"))
    }

    /// Reads several `(offset, len)` fragments of `file` in one vectored
    /// operation, returning one buffer per fragment (each EOF-clamped like
    /// [`Self::read`]).
    ///
    /// Fragmented columnar scans — the paper's dominant workload (§5) — ask
    /// for many small ranges of one file at once: the projected column
    /// chunks of a row group. Issued through [`Self::read`] one at a time
    /// they classify, fetch, and publish per fragment, so misses on
    /// different fragments never share a wire round-trip. This entry point
    /// runs the same pipeline once over the union of all fragments:
    ///
    /// * every *distinct* page is classified exactly once, even when
    ///   fragments overlap, repeat, or arrive out of order (duplicates
    ///   share the page's chunk);
    /// * runs of file-adjacent owned pages coalesce **across fragment
    ///   boundaries** into single ranged remote requests, dispatched
    ///   concurrently on the persistent fetch pool;
    /// * per-page single-flight latches publish exactly as [`Self::read`]
    ///   does, so concurrent readers (vectored or not) interleave safely;
    /// * a fragment covered by one page chunk or one coalesced run is
    ///   returned as a zero-copy slice; only fragments spanning several
    ///   sources are stitched (counted in `bytes_copied`).
    ///
    /// Failures are all-or-nothing: the first error fails the whole call,
    /// after every owned latch has been published or released.
    pub fn read_multi(
        &self,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        if fragments.is_empty() {
            return Ok(Vec::new());
        }
        self.hot.vectored_reads.inc();
        self.metrics
            .histogram("vectored.fragments")
            .record(fragments.len() as u64);
        self.read_fragments("cache.read_multi", file, fragments, source)
    }

    /// The read pipeline behind [`Self::read`] and [`Self::read_multi`],
    /// traced under a root span named `root_name`: one EOF-clamped buffer
    /// per fragment.
    fn read_fragments(
        &self,
        root_name: &'static str,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        let ps = self.page_size();
        // Degenerate fragments (zero-length or past EOF) clamp to an empty
        // range and resolve to empty buffers.
        let clamped: Vec<(u64, u64)> = fragments
            .iter()
            .map(|&(off, len)| (off, off.saturating_add(len).min(file.length).max(off)))
            .collect();
        self.hot
            .bytes_requested
            .add(clamped.iter().map(|&(start, end)| end - start).sum());
        // Pages published ahead of their landing reach the writer when this
        // read returns, whatever way it returns — after its spans, declared
        // below and so dropped first, are recorded.
        let mut deferred = Deferred::new(self);
        let mut root = self.tracer.span(root_name);
        root.annotate("path", &file.path);
        if let [(offset, end)] = clamped[..] {
            root.annotate("offset", offset);
            root.annotate("len", end - offset);
        } else {
            root.annotate("fragments", fragments.len());
        }

        // Stage 1: classify every distinct page of the fragments' union
        // once. Its entries are `(page index, within start, within end)`,
        // ascending. One fragment's pages already are; several may overlap,
        // repeat or arrive out of order, so they are sorted and merged — a
        // page shared by two fragments must not wait on its own latch. A
        // merged range may over-read the gap between two fragments on one
        // page; it never crosses a page.
        let mut classify_span = self.tracer.child(root.id(), "classify");
        let mut pages: Vec<(u64, u64, u64)> = Vec::new();
        for &(start, end) in clamped.iter().filter(|(start, end)| start < end) {
            pages.extend((start / ps..=(end - 1) / ps).map(|idx| {
                let page_start = idx * ps;
                let a = start.max(page_start) - page_start;
                (idx, a, end.min(page_start + ps) - page_start)
            }));
        }
        if clamped.len() > 1 {
            pages.sort_unstable_by_key(|&(idx, ..)| idx);
            pages.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 = kept.1.min(next.1);
                    kept.2 = kept.2.max(next.2);
                }
                same
            });
        }
        let file_id = file.file_id();
        let now = self.now_ms();
        let mut plans: Vec<PagePlan> = pages
            .iter()
            .map(|&(idx, within_start, within_end)| {
                let page_start = idx * ps;
                let id = PageId::new(file_id, idx);
                PagePlan {
                    id,
                    page_start,
                    page_len: ps.min(file.length - page_start),
                    within_off: within_start,
                    within_len: within_end - within_start,
                    class: self.classify_page(file, id, now, classify_span.id()),
                    slot: None,
                    off_in_slot: 0,
                }
            })
            .collect();
        if classify_span.is_recording() {
            let count = |f: fn(&PageClass) -> bool| plans.iter().filter(|p| f(&p.class)).count();
            classify_span.annotate("hits", count(|c| matches!(c, PageClass::Hit { .. })));
            classify_span.annotate("waiters", count(|c| matches!(c, PageClass::Waiter { .. })));
            classify_span.annotate("owned", count(|c| matches!(c, PageClass::Owner { .. })));
            classify_span.annotate("bypass", count(|c| matches!(c, PageClass::Bypass)));
        }
        classify_span.finish();
        // Every page this read touches, hit or miss — the conservation
        // anchor: page_reads == hits + misses + fallbacks.timeout.
        self.hot.page_reads.add(plans.len() as u64);

        let served =
            self.fetch_publish_serve(file, &mut plans, source, &mut deferred, root.id())?;

        // Stage 6: assemble one buffer per fragment. Each plan's chunk
        // covers the page's *union* sub-range, so a fragment slices its own
        // bytes back out of its pages, which are contiguous in `plans`.
        let _assemble_span = self.tracer.child(root.id(), "assemble");
        let mut out = Vec::with_capacity(clamped.len());
        for &(start, end) in &clamped {
            if start >= end {
                out.push(Bytes::new());
                continue;
            }
            let first = plans.partition_point(|p| p.page_start + p.page_len <= start);
            let last = first + ((end - 1) / ps - start / ps) as usize;
            let (run, chunks) = (&plans[first..=last], &served.chunks[first..=last]);
            if let [plan] = run {
                let rel = (start - (plan.page_start + plan.within_off)) as usize;
                out.push(chunks[0].slice(rel..rel + (end - start) as usize));
                continue;
            }
            // Whole fragment inside one coalesced owner run: one slice of
            // the ranged response.
            if run
                .iter()
                .all(|p| matches!(p.class, PageClass::Owner { .. }) && p.slot == run[0].slot)
            {
                let slot = run[0].slot.expect("owner pages are planned a fetch slot");
                if let Ok(bytes) = &served.fetched[slot] {
                    let base = served.fetches[slot].0;
                    let a = ((start - base) as usize).min(bytes.len());
                    let b = ((end - base) as usize).min(bytes.len());
                    out.push(bytes.slice(a..b));
                    continue;
                }
            }
            self.hot.bytes_copied.add(end - start);
            let mut buf = BytesMut::with_capacity((end - start) as usize);
            for (plan, chunk) in run.iter().zip(chunks) {
                let a = start.max(plan.page_start);
                let b = end.min(plan.page_start + plan.page_len);
                let base = plan.page_start + plan.within_off;
                buf.extend_from_slice(&chunk[(a - base) as usize..(b - base) as usize]);
            }
            out.push(buf.freeze());
        }
        Ok(out)
    }

    /// Stages 2–5 of the read pipeline ([`Self::read_fragments`]): plan
    /// and execute remote fetches, publish owned pages, serve hits (and
    /// repair the ones that degrade), and collect waiter/bypass pages. On
    /// success every plan has produced a chunk covering exactly its
    /// requested sub-range (`within_off .. within_off + within_len`,
    /// page-relative). Stage spans are children of `parent`: the read's
    /// root, or the `repair` span of a repair round.
    fn fetch_publish_serve(
        &self,
        file: &SourceFile,
        plans: &mut [PagePlan],
        source: &dyn RemoteSource,
        deferred: &mut Deferred<'_>,
        parent: SpanId,
    ) -> Result<ServedPages> {
        // Owned latches must be released even if this read errors or
        // panics, or waiters would block forever.
        let mut cleanup = LatchCleanup {
            cache: self,
            file,
            pending: Vec::new(),
        };
        for (pos, plan) in plans.iter().enumerate() {
            if let PageClass::Owner { latch } = &plan.class {
                cleanup.pending.push((pos, plan.id, Arc::clone(latch)));
            }
        }

        // Stage 2: coalesce owned misses into runs and fetch them (plus any
        // admission bypasses) concurrently.
        let mut plan_span = self.tracer.child(parent, "plan_fetches");
        let fetches = self.plan_fetches(plans);
        plan_span.annotate("ranges", fetches.len());
        plan_span.finish();
        let mut fetch_span = self.tracer.child(parent, "remote_fetch");
        let mut fetched = self.execute_fetches(file, &fetches, source, fetch_span.id());
        if fetch_span.is_recording() {
            fetch_span.annotate("ranges", fetches.len());
            fetch_span.annotate(
                "bytes",
                fetched
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|b| b.len() as u64)
                    .sum::<u64>(),
            );
        }
        fetch_span.finish();

        // [`Error`] is not `Clone`: keep the first failure for the caller,
        // leaving a stringified copy in the slot for latch publication.
        let mut first_error: Option<Error> = None;
        for slot in fetched.iter_mut() {
            if first_error.is_some() {
                break;
            }
            if slot.is_ok() {
                continue;
            }
            let msg = slot
                .as_ref()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default();
            first_error = Some(std::mem::replace(slot, Err(Error::Other(msg))).unwrap_err());
        }

        // Stage 3: publish owned pages — release the latches before any
        // waiting below, so two readers that own pages of each other's
        // requests cannot deadlock. A page bound for a file-backed store is
        // published first and cached behind the read (write-behind) while
        // the queue has room; otherwise it is cached here, then published.
        let publish_span = self.tracer.child(parent, "publish");
        let mut chunks: Vec<Option<Bytes>> = plans.iter().map(|_| None).collect();
        // Publish in ascending page order (pending was built ascending, so
        // pop from a reversed list): insertion order is what recency-based
        // eviction policies see.
        cleanup.pending.reverse();
        while let Some(&(pos, id, ref latch)) = cleanup.pending.last() {
            let latch = Arc::clone(latch);
            let plan = &plans[pos];
            let slot = plan.slot.expect("owner pages are planned a fetch slot");
            let outcome = match &fetched[slot] {
                Ok(bytes) => {
                    let a = (plan.off_in_slot as usize).min(bytes.len());
                    let b = ((plan.off_in_slot + plan.page_len) as usize).min(bytes.len());
                    Ok(bytes.slice(a..b))
                }
                Err(e) => Err(e.to_string()),
            };
            let queued = match &outcome {
                Ok(page) => deferred.publish(file, id, &latch, page),
                Err(_) => false,
            };
            if !queued {
                self.finish_fetch(file, id, &latch, &outcome, publish_span.id());
            }
            if let Ok(page) = outcome {
                let a = (plan.within_off as usize).min(page.len());
                let b = ((plan.within_off + plan.within_len) as usize).min(page.len());
                chunks[pos] = Some(page.slice(a..b));
            }
            cleanup.pending.pop();
        }
        publish_span.finish();
        if let Some(e) = first_error {
            return Err(e);
        }

        // Stage 4: serve hits from the local store (I/O outside the locks).
        // A hit that degrades (§8) is re-planned — after a hang as an
        // exact-range bypass that keeps the page cached, otherwise as a miss
        // — and served by one repair round of stages 2–5. A repair plan is
        // never a hit, so the round cannot recurse.
        let serve_span = self.tracer.child(parent, "serve");
        let mut repairs: Vec<(usize, bool)> = Vec::new();
        for (pos, plan) in plans.iter().enumerate() {
            if matches!(plan.class, PageClass::Hit { .. }) {
                match self.serve_hit(plan, serve_span.id()) {
                    Ok(chunk) => chunks[pos] = Some(chunk),
                    Err(e) => repairs.push((pos, matches!(e, Error::Timeout { .. }))),
                }
            }
        }
        if !repairs.is_empty() {
            let mut repair_span = self.tracer.child(serve_span.id(), "repair");
            repair_span.annotate("pages", repairs.len());
            let now = self.now_ms();
            let mut replans: Vec<PagePlan> = repairs
                .iter()
                .map(|&(pos, timed_out)| {
                    let plan = &plans[pos];
                    let class = if timed_out {
                        PageClass::Bypass
                    } else {
                        let mut lock = self.lock_page(plan.id);
                        self.classify_miss(&mut lock, file, now, repair_span.id())
                    };
                    PagePlan {
                        class,
                        slot: None,
                        off_in_slot: 0,
                        ..*plan
                    }
                })
                .collect();
            let repaired =
                self.fetch_publish_serve(file, &mut replans, source, deferred, repair_span.id())?;
            for (&(pos, _), chunk) in repairs.iter().zip(repaired.chunks) {
                chunks[pos] = Some(chunk);
            }
        }
        serve_span.finish();

        // Stage 5: collect pages concurrent readers fetched for us, and the
        // bypass slots (those already hold exactly the requested ranges).
        let collect_span = self.tracer.child(parent, "collect");
        for (pos, plan) in plans.iter().enumerate() {
            match &plan.class {
                PageClass::Waiter { latch } => {
                    let mut wait_span = self.tracer.child(collect_span.id(), "singleflight_wait");
                    wait_span.annotate("page", plan.id);
                    let page = latch.wait().map_err(|msg| {
                        Error::Other(format!(
                            "concurrent fetch of page {} failed: {msg}",
                            plan.id
                        ))
                    })?;
                    wait_span.finish();
                    let a = (plan.within_off as usize).min(page.len());
                    let b = ((plan.within_off + plan.within_len) as usize).min(page.len());
                    chunks[pos] = Some(page.slice(a..b));
                }
                PageClass::Bypass => {
                    let slot = plan.slot.expect("bypass pages are planned a fetch slot");
                    if let Ok(bytes) = &fetched[slot] {
                        chunks[pos] = Some(bytes.clone());
                    }
                }
                PageClass::Pending { page } => {
                    let a = (plan.within_off as usize).min(page.len());
                    let b = ((plan.within_off + plan.within_len) as usize).min(page.len());
                    self.hot.bytes_from_cache.add((b - a) as u64);
                    chunks[pos] = Some(page.slice(a..b));
                }
                _ => {}
            }
        }
        collect_span.finish();

        let chunks = chunks
            .into_iter()
            .map(|c| c.expect("every classified page produced a chunk"))
            .collect();
        Ok(ServedPages {
            chunks,
            fetched,
            fetches,
        })
    }

    /// Stage 1 for one page, with no I/O while a lock is held.
    ///
    /// The hit path is lock-free in the write sense: an optimistic
    /// [`IndexManager::touch`] classifies a resident page under its index
    /// shard's *read* lock, records recency in per-entry atomics, and
    /// pushes the policy access event into the lock-free ring — no page
    /// lock, no policy mutex, no aggregates lock. Recording the access at
    /// classify (not serve) time means stage 3 of this very read drains the
    /// ring before choosing eviction victims, so recency-based eviction sees
    /// the page as just used. Safety of the optimism: a page evicted between
    /// classify and serve anyway (quota eviction ignores recency) makes
    /// [`Self::serve_hit`] fail, and the page is repaired like any other
    /// degraded hit.
    ///
    /// Only misses take the page lock, re-check the index (a concurrent
    /// publisher may have landed the page), and consult the page's
    /// single-flight entry, which that lock also guards. A concurrent
    /// publisher (which inserts the page and removes the in-flight entry
    /// under the same lock) is seen either entirely before or entirely
    /// after: a classifier finds the in-flight entry or the cached page,
    /// never neither.
    fn classify_page(&self, file: &SourceFile, id: PageId, now: u64, parent: SpanId) -> PageClass {
        if let Some((dir, hits)) = self.index.touch(&id, now) {
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, hits };
        }
        let mut lock = self.lock_page(id);
        if let Some((dir, hits)) = self.index.touch(&id, now) {
            // Double-check hit: published between the optimistic probe and
            // the lock. Counted separately — a pure-hit workload must never
            // land here (the hit hammer tests assert it stays 0).
            self.hot.hits_slow_path.inc();
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, hits };
        }
        self.classify_miss(&mut lock, file, now, parent)
    }

    /// The miss half of stage 1, under the page's lock. A repair classifies
    /// its pages here directly: it never probes the index for a hit, so one
    /// repair round is the most a read runs.
    fn classify_miss(
        &self,
        lock: &mut PageLock<'_>,
        file: &SourceFile,
        now: u64,
        parent: SpanId,
    ) -> PageClass {
        let id = lock.id;
        if let Some(page) = lock.inflight().and_then(|latch| latch.page()) {
            // Published and still queued for write-behind (an inline
            // publish removes the entry first): cached, not yet landed.
            self.hot.hits.inc();
            self.metrics.counter("hits.pending").inc();
            return PageClass::Pending { page };
        }
        self.hot.misses.inc();
        if let Some(latch) = lock.inflight() {
            // Join the in-flight fetch regardless of admission:
            // the owner is caching this page anyway.
            self.hot.inflight_waits.inc();
            PageClass::Waiter {
                latch: Arc::clone(latch),
            }
        } else {
            let mut admission_span = self.tracer.child(parent, "admission");
            let admitted = self.admission.admit(&file.path, &file.scope, now);
            admission_span.annotate("page", id);
            admission_span.annotate("admitted", admitted);
            admission_span.finish();
            if admitted {
                let latch = Arc::new(InflightFetch::default());
                lock.set_inflight(Arc::clone(&latch));
                PageClass::Owner { latch }
            } else {
                // Non-cache read path (Figure 3): read exactly
                // what was asked.
                self.hot.admission_rejected.inc();
                PageClass::Bypass
            }
        }
    }

    /// Stage 2 planning: assigns every owner and bypass page a remote
    /// request slot. Runs of *file-adjacent* owned pages coalesce into one
    /// ranged request each (when enabled); a bypass always gets its own
    /// exact-range slot. The page-vs-request delta of owner runs is the
    /// read amplification the §7 page-size trade-off discusses.
    ///
    /// Plans must be in ascending `page_start` order. One fragment produces
    /// consecutive pages, so every owner follows on the previous run's end;
    /// several may leave gaps between fragments, which close the open run —
    /// coalescing never bridges bytes nobody asked for.
    fn plan_fetches(&self, plans: &mut [PagePlan]) -> Vec<(u64, u64)> {
        let coalesce = self.config.coalesce_fetches;
        let mut fetches: Vec<(u64, u64)> = Vec::new();
        let mut run_pages = 0u64;
        // Absolute file offset where the open owner run ends.
        let mut run_end = 0u64;
        for plan in plans.iter_mut() {
            match plan.class {
                PageClass::Owner { .. } => {
                    if coalesce && run_pages > 0 && plan.page_start == run_end {
                        let slot = fetches.len() - 1;
                        plan.slot = Some(slot);
                        plan.off_in_slot = fetches[slot].1;
                        fetches[slot].1 += plan.page_len;
                        run_pages += 1;
                        run_end += plan.page_len;
                    } else {
                        self.close_run(&fetches, run_pages);
                        plan.slot = Some(fetches.len());
                        fetches.push((plan.page_start, plan.page_len));
                        run_pages = 1;
                        run_end = plan.page_start + plan.page_len;
                    }
                }
                PageClass::Bypass => {
                    self.close_run(&fetches, run_pages);
                    run_pages = 0;
                    plan.slot = Some(fetches.len());
                    fetches.push((plan.page_start + plan.within_off, plan.within_len));
                }
                PageClass::Hit { .. } | PageClass::Waiter { .. } | PageClass::Pending { .. } => {
                    self.close_run(&fetches, run_pages);
                    run_pages = 0;
                }
            }
        }
        self.close_run(&fetches, run_pages);
        fetches
    }

    /// Records the metrics of a completed owner run (the last slot pushed).
    fn close_run(&self, fetches: &[(u64, u64)], run_pages: u64) {
        if run_pages == 0 {
            return;
        }
        let (_, len) = fetches[fetches.len() - 1];
        self.hot.fetch_batch_bytes.record(len);
        if run_pages > 1 {
            self.hot.coalesced_pages.add(run_pages - 1);
        }
    }

    /// Stage 2 execution: issues the planned remote requests with at most
    /// [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches)
    /// workers, each batching a contiguous share of the slots into one
    /// [`RemoteSource::read_ranges`] call. Returns one result per slot.
    fn execute_fetches(
        &self,
        file: &SourceFile,
        fetches: &[(u64, u64)],
        source: &dyn RemoteSource,
        parent: SpanId,
    ) -> Vec<Result<Bytes>> {
        if fetches.is_empty() {
            return Vec::new();
        }
        let workers = self.config.max_concurrent_fetches.max(1).min(fetches.len());
        self.metrics.gauge("fetch.parallelism").set(workers as i64);
        let path = file.path.as_str();
        // Per-thread timestamps of concurrent chunks are only deterministic
        // when the tracer explicitly allows them (see the trace module's
        // determinism contract); otherwise every chunk reports the issuing
        // thread's fetch window.
        let per_thread = self.tracer.concurrent_timing();
        let now = || self.tracer.now_nanos().unwrap_or(0);
        let window_start = now();
        // Contiguous chunks, sized as evenly as possible, one per worker:
        // each is one `read_ranges` call, on the persistent fetch pool when
        // there are several, inline otherwise.
        let pool = self.fetch_pool.as_ref().filter(|_| workers > 1);
        let chunks = if pool.is_some() { workers } else { 1 };
        let (base, extra) = (fetches.len() / chunks, fetches.len() % chunks);
        let bounds: Vec<(usize, usize)> = (0..chunks)
            .scan(0, |start, w| {
                let a = *start;
                *start += base + usize::from(w < extra);
                Some((a, *start))
            })
            .collect();
        type ChunkSlot = Mutex<Option<(Result<Vec<Bytes>>, (u64, u64))>>;
        let results: Vec<ChunkSlot> = bounds.iter().map(|_| Mutex::new(None)).collect();
        let now = &now;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = bounds
            .iter()
            .zip(&results)
            .map(|(&(a, b), slot)| {
                Box::new(move || {
                    let t0 = if per_thread { now() } else { 0 };
                    let result = source.read_ranges(path, &fetches[a..b]);
                    let t1 = if per_thread { now() } else { 0 };
                    *slot.lock() = Some((result, (t0, t1)));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        match pool {
            Some(pool) => pool.run_scoped(jobs),
            None => jobs.into_iter().for_each(|job| job()),
        }
        let window = (window_start, now());
        // Slot count, fetch outcome, and timing interval of each chunk.
        let chunk_results = bounds.iter().zip(results).map(|(&(a, b), slot)| {
            let (result, interval) = slot
                .into_inner()
                .unwrap_or_else(|| (Err(Error::Other("fetch worker panicked".into())), (0, 0)));
            (b - a, result, if per_thread { interval } else { window })
        });
        // Flatten chunk responses into per-slot results; a failed chunk
        // fails each of its slots.
        let mut out: Vec<Result<Bytes>> = Vec::with_capacity(fetches.len());
        let mut slot_intervals: Vec<(u64, u64)> = Vec::new();
        for (want, result, interval) in chunk_results {
            for _ in 0..want {
                slot_intervals.push(interval);
            }
            match result {
                Ok(buffers) if buffers.len() == want => {
                    for bytes in buffers {
                        self.hot.remote_requests.inc();
                        self.hot.bytes_from_remote.add(bytes.len() as u64);
                        // Ranges are pre-clamped to the file length, so an
                        // honest remote returns exactly the bytes asked for.
                        // A short buffer must fail the slot here — cached
                        // truncated, it would be served as wrong data.
                        let expected = fetches[out.len()].1;
                        if bytes.len() as u64 != expected {
                            out.push(Err(Error::Decode(format!(
                                "remote returned {} bytes for a {expected}-byte range",
                                bytes.len()
                            ))));
                        } else {
                            out.push(Ok(bytes));
                        }
                    }
                }
                Ok(buffers) => {
                    for _ in 0..want {
                        out.push(Err(Error::Other(format!(
                            "read_ranges returned {} buffers for {want} ranges",
                            buffers.len()
                        ))));
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    out.push(Err(e));
                    for _ in 1..want {
                        out.push(Err(Error::Other(msg.clone())));
                    }
                }
            }
        }
        if self.tracer.is_enabled() {
            // One child span per coalesced range, timed by the chunk (the
            // `read_ranges` call on the wire) that carried it.
            for (slot, &(off, len)) in fetches.iter().enumerate() {
                let (t0, t1) = slot_intervals[slot];
                let status = match &out[slot] {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind().to_string(),
                };
                self.tracer.record_interval(
                    parent,
                    "fetch_range",
                    t0,
                    t1,
                    vec![
                        ("offset", off.to_string()),
                        ("len", len.to_string()),
                        ("status", status),
                    ],
                );
            }
        }
        out
    }

    /// Stage 3 for one owned page published inline: caches the fetched
    /// page (re-taking its page lock just for the insert), removes the
    /// in-flight entry while that lock is still held (see
    /// [`Self::classify_page`] for why), then releases the latch.
    fn finish_fetch(
        &self,
        file: &SourceFile,
        id: PageId,
        latch: &InflightFetch,
        outcome: &std::result::Result<Bytes, String>,
        parent: SpanId,
    ) {
        {
            let mut lock = self.lock_page(id);
            self.cache_fetched(&mut lock, file, outcome.as_ref().ok(), parent);
            lock.take_inflight();
        }
        latch.publish(outcome.clone());
    }

    /// Caches an owner's fetched page (`None`: the fetch failed), inline or
    /// on the write-behind writer.
    pub(super) fn cache_fetched(
        &self,
        lock: &mut PageLock<'_>,
        file: &SourceFile,
        page: Option<&Bytes>,
        parent: SpanId,
    ) {
        let cached = page.is_some_and(|page| {
            self.put_page_locked(lock, file, page, parent)
                // Caching failed (quota, space, store error): the read and
                // its waiters are still served from the fetched bytes.
                .map_err(|e| self.metrics.record_error("put", e.kind()))
                .is_ok()
        });
        if !cached {
            // Admission granted this owner a slot at classify time but no
            // page landed; return the slot if the scope stayed empty.
            self.release_admission_if_vacant(&file.scope);
        }
    }

    /// Serves a page classified as a hit, without the page lock. A hit
    /// that degrades returns the store's error after the §8 bookkeeping —
    /// a hang keeps the page, a lost page leaves the index, anything else
    /// evicts it — and the caller repairs it.
    fn serve_hit(&self, plan: &PagePlan, parent: SpanId) -> Result<Bytes> {
        let id = plan.id;
        let Some(info) = self.index.get(&id) else {
            return Err(Error::NotFound(format!("page {id} evicted since classify")));
        };
        let mem_hit = Some(info.dir) == self.mem_dir;
        // Second-touch promotion: a one-off SSD hit reads just the range it
        // asked for; the page's second hit since it entered SSD moves it up
        // into memory, which needs the whole page — read it once and serve
        // the requested slice from the same buffer (no second I/O, no extra
        // copy). A count the classify took in another directory (the page
        // moved since) is not this directory's count.
        let second_touch = match plan.class {
            PageClass::Hit { dir, hits } => dir == info.dir && hits >= PROMOTE_ON_HIT,
            _ => false,
        };
        let promote = second_touch
            && !mem_hit
            && self.mem_dir.is_some()
            && info.size <= self.memory_capacity();
        let (read_off, read_len) = if promote {
            (0, info.size)
        } else {
            (plan.within_off, plan.within_len)
        };
        let mut read_span = self
            .tracer
            .child(parent, if mem_hit { "mem_read" } else { "ssd_read" });
        read_span.annotate("page", id);
        // A promoting read is verified, and its checksum moves up with the
        // bytes; the tier takes over the buffer the slice below is cut from.
        let got = if promote {
            let page = self.store_read(info.dir, move |s| s.get_verified(id));
            page.map(|page| (page.bytes().clone(), Some(page)))
        } else {
            let bytes = self.store_read(info.dir, move |s| s.get(id, read_off, read_len));
            bytes.map(|bytes| (bytes, None))
        };
        if read_span.is_recording() {
            match &got {
                Ok((bytes, _)) => read_span.annotate("bytes", bytes.len()),
                Err(e) => read_span.annotate("status", e.kind()),
            }
        }
        read_span.finish();
        // A read that does not cover the requested range is a truncated
        // page: served, it would be wrong bytes, so it counts as corrupt.
        let covered = read_off + read_len >= plan.within_off + plan.within_len;
        let got = got.and_then(|read| {
            if read.0.len() as u64 == read_len && covered {
                Ok(read)
            } else {
                Err(Error::Corrupted(format!("page {id}: short store read")))
            }
        });
        match got {
            Ok((bytes, page)) => {
                // The policy access was recorded at classification time.
                self.hot.hits.inc();
                if mem_hit {
                    self.hot.mem_hits.inc();
                }
                let served = match page {
                    Some(page) => {
                        self.promote_to_mem(&info, page, parent);
                        let start = plan.within_off as usize;
                        bytes.slice(start..start + plan.within_len as usize)
                    }
                    None => bytes,
                };
                self.hot.bytes_from_cache.add(served.len() as u64);
                Ok(served)
            }
            // Either the store lost the page (external cleanup), or a
            // concurrent tier move relocated it since our index snapshot;
            // `drop_from_index` only drops it when the bytes are gone.
            Err(e @ Error::NotFound(_)) => {
                self.drop_from_index(&id);
                Err(e)
            }
            Err(e) => {
                self.metrics.record_error("get", e.kind());
                if matches!(e, Error::Timeout { .. }) {
                    // §8 "File read hanging": the page stays cached.
                    self.hot.fallbacks_timeout.inc();
                } else {
                    // §8 "Corrupted files" (and store errors): evict early.
                    let cause = if matches!(e, Error::Corrupted(_)) {
                        "corrupt"
                    } else {
                        "error"
                    };
                    self.evict_page(&id, cause);
                }
                Err(e)
            }
        }
    }

    /// Runs `read` on directory `dir`'s store, under the configured read
    /// timeout if one is set.
    fn store_read<T: Send + 'static>(
        &self,
        dir: usize,
        read: impl FnOnce(&dyn PageStore) -> Result<T> + Send + 'static,
    ) -> Result<T> {
        let store = &self.stores[dir];
        match (&self.io_pool, self.config.read_timeout) {
            // DRAM cannot hang like a failing disk: it slices the frame
            // inline (zero-copy) instead of paying an io-pool dispatch.
            (Some(pool), Some(deadline)) if Some(dir) != self.mem_dir => {
                let store = Arc::clone(store);
                pool.run_with_deadline(deadline, move || read(&*store))
            }
            _ => read(&**store),
        }
    }
}
