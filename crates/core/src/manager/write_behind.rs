//! Write-behind publish. A read-through miss into a file-backed store
//! returns its bytes first; the cache's own copy lands afterwards, on one
//! writer thread per manager, behind a queue bounded in bytes — the flush
//! queue of a page cache, kept beside the index and the eviction policy.
//!
//! Until a page lands, its in-flight entry stays in the single-flight
//! table holding the bytes, so a reader arriving meanwhile is served from
//! it as a hit (`hits.pending`) instead of refetching.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_pagestore::PageId;
use parking_lot::{Condvar, Mutex};

use super::read::InflightFetch;
use super::{CacheState, SourceFile};

/// Payload the queue holds at most, in configured pages. With one page the
/// next miss often finds the queue full and publishes inline; more than
/// two bought no throughput in `embed_churn`, only resident memory.
const QUEUE_PAGES: u64 = 2;

/// One published page waiting to land.
struct Landing {
    file: SourceFile,
    id: PageId,
    /// The page's in-flight entry, published with its bytes.
    latch: Arc<InflightFetch>,
    page: Bytes,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Landing>,
    /// Pages (and their payload, which the bound limits) counted as cached
    /// but not indexed: from reservation until the hand-over that moves
    /// them into the index under this lock, or until they fail.
    pages: usize,
    bytes: u64,
    /// Tickets. The one writer lands jobs in submission order, so
    /// `landed >= t` means every job submitted before ticket `t` is done.
    submitted: u64,
    landed: u64,
    closed: bool,
}

/// The queue and its two wake-ups.
pub(super) struct WriteBehind {
    queue: Mutex<Queue>,
    /// Wakes the writer: jobs were submitted, or the queue closed.
    work: Condvar,
    /// Wakes `quiesce`: a job is done.
    done: Condvar,
    bound: u64,
}

impl WriteBehind {
    pub(super) fn new(page_size: u64) -> Self {
        Self {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            bound: QUEUE_PAGES * page_size,
        }
    }

    /// Reserves room for a page of `len` bytes, counting it as cached;
    /// `false` when the queue is full and the page must publish inline.
    fn try_reserve(&self, len: u64) -> bool {
        let mut q = self.queue.lock();
        if q.bytes + len > self.bound {
            return false;
        }
        q.pages += 1;
        q.bytes += len;
        true
    }

    /// `indexed()` — the index's page count and payload — plus the queued
    /// pages', read under the lock every hand-over takes.
    pub(super) fn counted(&self, indexed: impl FnOnce() -> (usize, u64)) -> (usize, u64) {
        let q = self.queue.lock();
        let (pages, bytes) = indexed();
        (pages + q.pages, bytes + q.bytes)
    }

    /// Stops counting a queued page of `len` bytes as queued, and runs
    /// `insert` (its index insert, or nothing when it failed) in the same
    /// critical section.
    pub(super) fn hand_over<R>(&self, len: u64, insert: impl FnOnce() -> R) -> R {
        let mut q = self.queue.lock();
        q.pages -= 1;
        q.bytes -= len;
        insert()
    }

    /// Waits for every job submitted before the call.
    pub(super) fn quiesce(&self) {
        let mut q = self.queue.lock();
        let ticket = q.submitted;
        while q.landed < ticket {
            self.done.wait(&mut q);
        }
    }

    /// Lets the writer exit once the queue is empty.
    pub(super) fn close(&self) {
        self.queue.lock().closed = true;
        self.work.notify_all();
    }
}

/// The pages one read published ahead of their landing. Dropping it — on
/// every exit path of the read, an unwind included — hands them to the
/// writer in the order they were published, so a read never races its own
/// landings.
pub(super) struct Deferred<'a> {
    state: &'a CacheState,
    pages: Vec<Landing>,
}

impl<'a> Deferred<'a> {
    pub(super) fn new(state: &'a CacheState) -> Self {
        Self {
            state,
            pages: Vec::new(),
        }
    }

    /// Stage 3's write-behind path for one owned page: reserves queue room,
    /// publishes the latch with `page` and keeps the in-flight entry.
    /// Returns `false`, doing nothing, when the manager publishes inline,
    /// the queue is full, or the page is indexed already (a repair round
    /// owns pages without probing the index): that refresh stays inline,
    /// so a queued page is never also indexed — only its hand-over to the
    /// index (`index_insert`, under the queue lock) puts it there.
    pub(super) fn publish(
        &mut self,
        file: &SourceFile,
        id: PageId,
        latch: &Arc<InflightFetch>,
        page: &Bytes,
    ) -> bool {
        let Some(queue) = &self.state.write_behind else {
            return false;
        };
        let _guard = self.state.stripe(id).lock();
        if self.state.index.contains(&id) || !queue.try_reserve(page.len() as u64) {
            return false;
        }
        latch.publish(Ok(page.clone()));
        self.pages.push(Landing {
            file: file.clone(),
            id,
            latch: Arc::clone(latch),
            page: page.clone(),
        });
        true
    }
}

impl Drop for Deferred<'_> {
    fn drop(&mut self) {
        // A read with nothing queued (every hit) must not wake the writer.
        let Some(queue) = &self.state.write_behind else {
            return;
        };
        if self.pages.is_empty() {
            return;
        }
        let mut q = queue.queue.lock();
        q.submitted += self.pages.len() as u64;
        q.jobs.extend(self.pages.drain(..));
        queue.work.notify_one();
    }
}

/// The writer thread's loop: lands jobs in order until the queue is closed
/// and empty. A landing that panics is booked as a put error and its page
/// retired, so neither a reader nor `quiesce` can hang on it.
pub(super) fn run_writer(state: &CacheState) {
    let queue = state
        .write_behind
        .as_ref()
        .expect("a writer runs only beside a queue");
    loop {
        let job = {
            let mut q = queue.queue.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                queue.work.wait(&mut q);
            }
        };
        if catch_unwind(AssertUnwindSafe(|| state.land(&job))).is_err() {
            state.metrics.record_error("put", "panic");
            let _guard = state.stripe(job.id).lock();
            state.release_admission_if_vacant(&job.file.scope);
            state.retire(&job);
        }
        let mut q = queue.queue.lock();
        q.landed += 1;
        queue.done.notify_all();
    }
}

impl CacheState {
    /// Lands one queued page: the caching half of an inline publish, run
    /// on the writer. Skipped when a `put_page` of the same page took it
    /// over since: that later put won, and older bytes must not overwrite
    /// it.
    fn land(&self, job: &Landing) {
        let mut span = self.tracer.span("cache.land");
        span.annotate("page", job.id);
        let _guard = self.stripe(job.id).lock();
        if self.is_queued(job) {
            self.cache_fetched(&job.file, job.id, Some(&job.page), span.id());
        }
        self.retire(job);
    }

    /// Whether `job`'s entry is still the page's in-flight entry. Caller
    /// holds the page's stripe lock.
    fn is_queued(&self, job: &Landing) -> bool {
        self.inflight_shard(job.id)
            .lock()
            .get(&job.id)
            .is_some_and(|latch| Arc::ptr_eq(latch, &job.latch))
    }

    /// Removes a page that did not land (failed, skipped, or panicked)
    /// from the queue's count and the single-flight table. A page whose
    /// put handed it over is gone from both already. Caller holds the
    /// page's stripe lock.
    fn retire(&self, job: &Landing) {
        if !self.is_queued(job) {
            return;
        }
        self.inflight_shard(job.id).lock().remove(&job.id);
        if let Some(queue) = &self.write_behind {
            queue.hand_over(job.page.len() as u64, || ());
        }
    }
}
