//! Host threads for simulated work: one process-wide budget of helper
//! threads, and an ordered parallel loop over it.
//!
//! The budget holds `available_parallelism() − 1` helper permits (the
//! thread asking for helpers always works too). Whoever runs work on
//! extra threads — a launch's blocks ([`crate::exec::launch_with`]) or
//! a device group's per-device workers — first takes permits, without
//! blocking, and returns them when done. Nested parallel work therefore
//! never runs more threads than the host has cores: while every permit
//! is out, launches run their blocks on the calling thread.

use crate::error::Result;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::OnceLock;

/// The free helper permits (process-wide).
fn free() -> &'static AtomicUsize {
    static FREE: OnceLock<AtomicUsize> = OnceLock::new();
    FREE.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        AtomicUsize::new(cores - 1)
    })
}

/// Helper-thread permits taken from the process-wide budget and given
/// back when dropped.
#[derive(Debug)]
pub struct Permits(usize);

impl Permits {
    /// Take up to `max` permits — as many as are free, possibly none.
    /// Never blocks.
    pub fn take(max: usize) -> Self {
        let (Ok(prev) | Err(prev)) = free().fetch_update(SeqCst, SeqCst, |f| Some(f - f.min(max)));
        Permits(prev.min(max))
    }

    /// How many permits were taken.
    pub fn count(&self) -> usize {
        self.0
    }
}

impl Drop for Permits {
    fn drop(&mut self) {
        if self.0 > 0 {
            free().fetch_add(self.0, SeqCst);
        }
    }
}

/// Run `work(i)` for every `i` in `range` on the calling thread plus
/// `helpers` scoped threads, and hand each result to `sink` in index
/// order, stopping at the first error. Threads claim indices in
/// increasing order, so every index below a failing one has run and
/// the error returned is the lowest failing index's — the one a
/// sequential loop returns. After an error, indices above it may or
/// may not have run.
pub(crate) fn for_each_ordered<T: Send>(
    range: std::ops::Range<usize>,
    helpers: usize,
    work: impl Fn(usize) -> Result<T> + Sync,
    mut sink: impl FnMut(T),
) -> Result<()> {
    let next = AtomicUsize::new(range.start);
    // Claims and the stop flag publish no data: results come back
    // through the joins.
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !stop.load(Relaxed) {
            let i = next.fetch_add(1, Relaxed);
            if i >= range.end {
                break;
            }
            let r = work(i);
            if r.is_err() {
                stop.store(true, Relaxed);
            }
            done.push((i, r));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for h in handles {
            match h.join() {
                Ok(more) => done.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    for (_, r) in done {
        sink(r?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;

    #[test]
    fn permits_are_capped_by_the_request_and_the_budget() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Permits::take(0).count(), 0);
        let all = Permits::take(usize::MAX);
        assert!(all.count() < cores);
        assert!(Permits::take(1).count() <= cores - 1 - all.count());
    }

    #[test]
    fn results_arrive_in_index_order_when_two_threads_interleave() {
        use std::sync::atomic::AtomicBool;
        // Item 0 waits until item 1 has started and item 1 until item 2
        // has finished, so each of the two threads runs some items and
        // both threads' lists interleave in index order.
        let (one_started, two_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let wait = |flag: &AtomicBool| {
            while !flag.load(SeqCst) {
                std::thread::yield_now();
            }
        };
        let mut seen = Vec::new();
        let work = |i| {
            match i {
                0 => wait(&one_started),
                1 => {
                    one_started.store(true, SeqCst);
                    wait(&two_done);
                }
                2 => two_done.store(true, SeqCst),
                _ => {}
            }
            Ok(i)
        };
        for_each_ordered(0..20, 1, work, |i| seen.push(i)).unwrap();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn results_arrive_in_index_order_and_the_lowest_error_wins() {
        for helpers in [0, 1, 3] {
            let mut seen = Vec::new();
            for_each_ordered(0..50, helpers, Ok, |i| seen.push(i)).unwrap();
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "helpers {helpers}");
            let err = for_each_ordered(
                0..50,
                helpers,
                |i| match i {
                    13 | 31 => Err(SimError::KernelFault(format!("item {i}"))),
                    _ => Ok(i),
                },
                |_| {},
            )
            .unwrap_err();
            assert_eq!(
                err,
                SimError::KernelFault("item 13".into()),
                "helpers {helpers}"
            );
        }
    }
}
