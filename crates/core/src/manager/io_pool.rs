//! The I/O pool: deadline-bounded local reads (§8 read hang) and the
//! persistent workers behind concurrent remote fetches.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, SendError, Sender};
use edgecache_common::error::{Error, Result};
use parking_lot::{Condvar, Mutex};

/// A tiny I/O pool that runs closures with a deadline, implementing the §8
/// read-hang fallback without blocking request threads indefinitely.
pub(super) struct IoPool {
    /// `Some` for the pool's whole life; taken (closing the channel) by
    /// `Drop` so the workers' `recv` loops end and the joins below return.
    sender: Option<Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IoPool {
    pub(super) fn new(threads: usize) -> Self {
        let (sender, receiver) = unbounded::<Box<dyn FnOnce() + Send>>();
        let workers = (0..threads)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("edgecache-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn io worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    fn sender(&self) -> &Sender<Box<dyn FnOnce() + Send>> {
        self.sender.as_ref().expect("io pool alive")
    }

    /// Runs a batch of borrowed jobs on the pool and blocks until every one
    /// has finished (or unwound). The barrier is what makes lending stack
    /// borrows to pool workers sound: no job can outlive this call.
    pub(super) fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        let pending = Arc::new((Mutex::new(jobs.len()), Condvar::new()));
        for job in jobs {
            // SAFETY: both sides of the transmute are the same fat pointer;
            // only the lifetime bound is erased. The wait loop below does
            // not return until this job has run to completion, so every
            // borrow it captures strictly outlives its execution.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let pending = Arc::clone(&pending);
            let wrapped: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A panicking remote must not kill the pool worker or
                // strand the barrier; the caller sees the missing result.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                let (count, done) = &*pending;
                *count.lock() -= 1;
                done.notify_all();
                if let Err(payload) = outcome {
                    drop(payload);
                }
            });
            if let Err(SendError(job)) = self.sender().send(wrapped) {
                // Pool shut down: run the job inline.
                job();
            }
        }
        let (count, done) = &*pending;
        let mut left = count.lock();
        while *left > 0 {
            done.wait(&mut left);
        }
    }

    /// Runs `f` on the pool; errors with [`Error::Timeout`] if no result
    /// arrives within `deadline`. The abandoned job finishes in the
    /// background (its result is discarded), mirroring a hung `read_file`.
    pub(super) fn run_with_deadline<T: Send + 'static>(
        &self,
        deadline: Duration,
        f: impl FnOnce() -> Result<T> + Send + 'static,
    ) -> Result<T> {
        let (tx, rx) = bounded(1);
        self.sender()
            .send(Box::new(move || {
                let _ = tx.send(f());
            }))
            .map_err(|_| Error::Other("io pool shut down".into()))?;
        match rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout {
                op: "read_file",
                waited_ms: deadline.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Other("io worker dropped result".into()))
            }
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Close the channel so every worker's `recv` loop ends, then join.
        // Detaching here would leak `IO_THREADS` plus the fetch pool's
        // threads per dropped `CacheManager` — fatal for embedders that
        // restart caches in-process (the network server's start/stop path).
        // In-flight jobs run to completion before their worker exits, so a
        // drop during I/O waits for that I/O rather than abandoning it.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
