//! A small fixed-size thread pool for batched CPU solves.
//!
//! Purpose-built (rayon is not on the offline dependency allowlist):
//! workers pull chunk indices from a shared atomic counter, so load
//! balances even when per-chunk cost varies. Scoped via
//! `crossbeam::thread` so tasks may borrow stack data.

use crossbeam::thread as cb_thread;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A reusable description of a worker pool (threads are spawned per
/// call — batched solves are long enough that spawn cost is noise, and
/// it keeps the pool free of lifetime gymnastics).
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// One worker per available CPU (hyper-threads included — matching
    /// the paper's "8 threads" on the i7 975).
    pub fn per_cpu() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `task(i)` for every `i in 0..count`, work-stealing from a
    /// shared counter. `task` must be safe to call concurrently for
    /// distinct `i`.
    pub fn for_each_index<F>(&self, count: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        let workers = self.workers.min(count);
        if workers == 1 {
            for i in 0..count {
                task(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        cb_thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    task(i);
                });
            }
        })
        .expect("worker panicked");
    }

    /// Split `data` into `count` disjoint chunks of `chunk_len` and run
    /// `task(chunk_index, chunk)` in parallel with mutable access.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, task: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        type Slot<'a, T> = std::sync::Mutex<Option<(usize, &'a mut [T])>>;
        assert!(chunk_len > 0, "chunk_len must be positive");
        let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
        let slots: Vec<Slot<'_, T>> = chunks
            .into_iter()
            .map(|c| std::sync::Mutex::new(Some(c)))
            .collect();
        self.for_each_index(slots.len(), |i| {
            let (idx, chunk) = slots[i].lock().unwrap().take().expect("chunk taken once");
            task(idx, chunk);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_index(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_and_empty_cases() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU64::new(0);
        pool.for_each_index(10, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        pool.for_each_index(0, |_| panic!("must not run"));
        assert_eq!(ThreadPool::new(0).workers(), 1);
    }

    #[test]
    fn chunk_iteration_writes_disjointly() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 100];
        pool.for_each_chunk_mut(&mut data, 7, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 7 + 1);
        }
    }

    #[test]
    fn per_cpu_pool_has_workers() {
        assert!(ThreadPool::per_cpu().workers() >= 1);
    }
}
