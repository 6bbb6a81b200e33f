//! Kernel sanitizer: data-race, out-of-bounds, uninitialized-read and
//! barrier-divergence detection for simulated kernels.
//!
//! The simulator executes blocks (and the lanes within a block-wide
//! memory op) *sequentially*, so a kernel that would race on real
//! hardware still produces deterministic — and plausibly correct —
//! results here. This module closes that gap, playing the role
//! `compute-sanitizer` plays on real devices:
//!
//! - **racecheck** — per-word access history for shared memory between
//!   `__syncthreads()` epochs. Two distinct lanes touching the same
//!   word with at least one write and no intervening barrier is a
//!   hazard ([`SanitizerViolation::SharedRace`]).
//! - **memcheck** — out-of-bounds indices on block-wide loads/stores,
//!   attributed to the offending lane/warp
//!   ([`SanitizerViolation::OutOfBounds`]).
//! - **initcheck** — shadow bitmaps over shared and global words;
//!   reading a word that no store (or host upload) ever wrote is
//!   reported ([`SanitizerViolation::UninitRead`]).
//! - **synccheck** — a barrier reached by a strict subset of the
//!   block's lanes ([`SanitizerViolation::BarrierDivergence`], via
//!   [`crate::exec::BlockCtx::sync_arrive`]).
//!
//! ## The access-history model
//!
//! Each shared word carries `{epoch, first writer, up to two distinct
//! readers}`. Histories are reset *lazily*: the block-wide epoch
//! counter bumps at every barrier and a word whose stamped epoch is
//! stale counts as untouched, so a barrier costs O(1), not O(shared
//! size). Within an epoch the checks are the classic pairwise hazards:
//!
//! - write by lane `L`, previous writer `W != L` → write-after-write;
//! - write by lane `L`, previous reader `R != L` → write-after-read;
//! - read by lane `L`, previous writer `W != L` → read-after-write.
//!
//! Two reader slots suffice: a third distinct reader can only form the
//! same hazard pairs an existing recorded reader already forms.
//! A word reports at most one race per epoch to keep the output
//! readable; every hazard still increments the counters in
//! [`crate::counters::SanitizerCounts`].
//!
//! Lane attribution uses the block-wide op convention: position `i` in
//! an index slice is lane `i` (kernels chunk long index lists by
//! `ctx.threads`, so the position *is* the hardware lane).

use std::collections::HashSet;
use std::fmt;

use crate::counters::SanitizerCounts;
use crate::error::SimError;

/// Which address space an access touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Per-block shared memory.
    Shared,
    /// Device global memory.
    Global,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Shared => write!(f, "shared"),
            MemSpace::Global => write!(f, "global"),
        }
    }
}

/// Where a violating access happened: kernel, block, warp, lane and the
/// word address (element index) it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Kernel name (from the launch config).
    pub kernel: &'static str,
    /// Block index in the grid.
    pub block: usize,
    /// Warp within the block (`lane / warp_size`).
    pub warp: usize,
    /// Lane within the block-wide op (thread index in the block).
    pub lane: usize,
    /// Element index the access touched.
    pub addr: usize,
    /// Address space.
    pub space: MemSpace,
    /// Global buffer handle index (`None` for shared memory).
    pub buffer: Option<usize>,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel `{}` block {} warp {} lane {}, {} word {}",
            self.kernel, self.block, self.warp, self.lane, self.space, self.addr
        )?;
        if let Some(b) = self.buffer {
            write!(f, " (buffer {b})")?;
        }
        Ok(())
    }
}

/// The hazard ordering of a shared-memory race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two lanes wrote the word in one epoch.
    WriteAfterWrite,
    /// A lane read a word another lane wrote in the same epoch.
    ReadAfterWrite,
    /// A lane wrote a word another lane read in the same epoch.
    WriteAfterRead,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteAfterWrite => write!(f, "write-after-write"),
            RaceKind::ReadAfterWrite => write!(f, "read-after-write"),
            RaceKind::WriteAfterRead => write!(f, "write-after-read"),
        }
    }
}

/// One sanitizer finding, with full attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanitizerViolation {
    /// Shared-memory data race: two lanes touched the same word in the
    /// same barrier epoch, at least one of them writing.
    SharedRace {
        /// The second (reporting) access.
        site: AccessSite,
        /// Hazard ordering.
        kind: RaceKind,
        /// The lane of the first access.
        other_lane: usize,
    },
    /// An index past the end of the buffer / shared allocation.
    OutOfBounds {
        /// The offending access.
        site: AccessSite,
        /// Length of the addressed region.
        len: usize,
    },
    /// A read of a word no store ever initialized.
    UninitRead {
        /// The offending access.
        site: AccessSite,
    },
    /// A barrier reached by a strict subset of the block's lanes.
    BarrierDivergence {
        /// Kernel name.
        kernel: &'static str,
        /// Block index.
        block: usize,
        /// Which barrier (0-based count within the block).
        barrier_index: u64,
        /// Lowest lane that did not arrive.
        missing_lane: usize,
        /// Lanes that arrived.
        arrived: usize,
        /// Lanes the block has.
        expected: usize,
    },
}

impl fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizerViolation::SharedRace {
                site,
                kind,
                other_lane,
            } => write!(f, "{kind} race at {site}, conflicting lane {other_lane}"),
            SanitizerViolation::OutOfBounds { site, len } => {
                write!(f, "out-of-bounds access at {site}, region length {len}")
            }
            SanitizerViolation::UninitRead { site } => {
                write!(f, "read of uninitialized word at {site}")
            }
            SanitizerViolation::BarrierDivergence {
                kernel,
                block,
                barrier_index,
                missing_lane,
                arrived,
                expected,
            } => write!(
                f,
                "divergent barrier {barrier_index} in kernel `{kernel}` block {block}: \
                 {arrived}/{expected} lanes arrived, lane {missing_lane} missing"
            ),
        }
    }
}

/// Per-word shared-memory access history (lazy epoch reset).
#[derive(Debug, Clone, Copy, Default)]
struct WordHist {
    /// Epoch this history belongs to; stale = untouched this epoch.
    epoch: u64,
    /// First lane that wrote the word this epoch (+1; 0 = none).
    writer: u32,
    /// First lane that read the word this epoch (+1; 0 = none).
    reader: u32,
    /// First reader distinct from `reader` (+1; 0 = none).
    reader2: u32,
    /// A race on this word was already reported this epoch.
    reported: bool,
}

/// Cap on *recorded* violation reports per block; the tallies in
/// [`crate::counters::SanitizerCounts`] are never capped.
pub const MAX_VIOLATIONS: usize = 64;

/// Per-block sanitizer state, owned by [`crate::exec::BlockCtx`] when
/// the launch's [`crate::exec::ExecConfig::sanitize`] flag is set.
#[derive(Debug)]
pub struct Sanitizer {
    kernel: &'static str,
    block: usize,
    threads: usize,
    warp_size: usize,
    epoch: u64,
    barriers: u64,
    shared_hist: Vec<WordHist>,
    /// Init shadow for shared memory (one flag per word).
    shared_init: Vec<bool>,
    /// Global (buffer, word) pairs already reported uninitialized.
    global_uninit_seen: HashSet<(usize, usize)>,
    violations: Vec<SanitizerViolation>,
    counts: SanitizerCounts,
}

impl Sanitizer {
    /// Fresh state for one block of `kernel`.
    pub fn new(kernel: &'static str, block: usize, threads: usize, warp_size: usize) -> Self {
        Self {
            kernel,
            block,
            threads,
            warp_size,
            // Start at 1 so zero-initialized (stale) histories never
            // match the live epoch.
            epoch: 1,
            barriers: 0,
            shared_hist: Vec::new(),
            shared_init: Vec::new(),
            global_uninit_seen: HashSet::new(),
            violations: Vec::new(),
            counts: SanitizerCounts::default(),
        }
    }

    fn site(&self, lane: usize, addr: usize, space: MemSpace, buffer: Option<usize>) -> AccessSite {
        let lane = if self.threads > 0 { lane % self.threads } else { lane };
        AccessSite {
            kernel: self.kernel,
            block: self.block,
            warp: lane / self.warp_size.max(1),
            lane,
            addr,
            space,
            buffer,
        }
    }

    fn record(&mut self, v: SanitizerViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Grow the tracked shared region after a `shared_alloc`.
    pub fn on_shared_alloc(&mut self, new_len: usize) {
        self.shared_hist.resize(new_len, WordHist::default());
        self.shared_init.resize(new_len, false);
    }

    /// Build the error for an out-of-bounds access (shared or global);
    /// the caller returns it, aborting the launch like the unsanitized
    /// bounds check would.
    pub fn oob(
        &mut self,
        lane: usize,
        addr: usize,
        len: usize,
        space: MemSpace,
        buffer: Option<usize>,
    ) -> SimError {
        self.counts.out_of_bounds += 1;
        let site = self.site(lane, addr, space, buffer);
        let v = SanitizerViolation::OutOfBounds { site, len };
        self.record(v.clone());
        SimError::Sanitizer(v)
    }

    /// Check one block-wide shared access (position in `idx` = lane).
    /// Bounds must already have been validated.
    pub fn shared_access(&mut self, idx: &[usize], is_write: bool) {
        for (lane, &word) in idx.iter().enumerate() {
            let lane = lane % self.threads.max(1);
            let l = lane as u32 + 1;
            let epoch = self.epoch;
            let h = &mut self.shared_hist[word];
            if h.epoch != epoch {
                *h = WordHist {
                    epoch,
                    ..WordHist::default()
                };
            }
            // Hazard detection against the recorded first accessors.
            let mut hazard: Option<(RaceKind, u32)> = None;
            if is_write {
                if h.writer != 0 && h.writer != l {
                    hazard = Some((RaceKind::WriteAfterWrite, h.writer));
                } else if h.reader != 0 && h.reader != l {
                    hazard = Some((RaceKind::WriteAfterRead, h.reader));
                } else if h.reader2 != 0 && h.reader2 != l {
                    hazard = Some((RaceKind::WriteAfterRead, h.reader2));
                }
            } else if h.writer != 0 && h.writer != l {
                hazard = Some((RaceKind::ReadAfterWrite, h.writer));
            }
            if let Some((kind, other)) = hazard {
                self.counts.shared_races += 1;
                if !self.shared_hist[word].reported {
                    self.shared_hist[word].reported = true;
                    let site = self.site(lane, word, MemSpace::Shared, None);
                    self.record(SanitizerViolation::SharedRace {
                        site,
                        kind,
                        other_lane: other as usize - 1,
                    });
                }
            }
            // Update the history and the init shadow.
            let h = &mut self.shared_hist[word];
            if is_write {
                if h.writer == 0 {
                    h.writer = l;
                }
                self.shared_init[word] = true;
            } else {
                if h.reader == 0 {
                    h.reader = l;
                } else if h.reader2 == 0 && h.reader != l {
                    h.reader2 = l;
                }
                if !self.shared_init[word] {
                    // Report once, then treat as initialized so a toy
                    // kernel re-reading the word doesn't flood.
                    self.shared_init[word] = true;
                    self.counts.uninit_reads += 1;
                    let site = self.site(lane, word, MemSpace::Shared, None);
                    self.record(SanitizerViolation::UninitRead { site });
                }
            }
        }
    }

    /// Report a read of a never-written global word (deduplicated per
    /// `(buffer, word)` within the block).
    pub fn global_uninit_read(&mut self, lane: usize, buffer: usize, word: usize) {
        if !self.global_uninit_seen.insert((buffer, word)) {
            return;
        }
        self.counts.uninit_reads += 1;
        let site = self.site(lane, word, MemSpace::Global, Some(buffer));
        self.record(SanitizerViolation::UninitRead { site });
    }

    /// A full-block `__syncthreads()`: close the epoch.
    pub fn barrier(&mut self) {
        self.epoch += 1;
        self.barriers += 1;
    }

    /// A barrier that only `arrived` lanes reached. Any missing lane is
    /// divergence (the real-hardware behavior is a hang or undefined
    /// execution). The epoch still closes so later reports stay sane.
    pub fn barrier_arrive(&mut self, arrived: &[usize]) {
        let mut seen = vec![false; self.threads];
        let mut count = 0usize;
        for &l in arrived {
            if l < self.threads && !seen[l] {
                seen[l] = true;
                count += 1;
            }
        }
        if count < self.threads {
            let missing_lane = seen.iter().position(|&s| !s).unwrap_or(0);
            self.counts.barrier_divergence += 1;
            self.record(SanitizerViolation::BarrierDivergence {
                kernel: self.kernel,
                block: self.block,
                barrier_index: self.barriers,
                missing_lane,
                arrived: count,
                expected: self.threads,
            });
        }
        self.epoch += 1;
        self.barriers += 1;
    }

    /// Violation tallies so far.
    pub fn counts(&self) -> SanitizerCounts {
        self.counts
    }

    /// Drain the recorded violations (called once per block at launch
    /// teardown).
    pub fn take_violations(&mut self) -> Vec<SanitizerViolation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> Sanitizer {
        let mut s = Sanitizer::new("test", 0, 32, 32);
        s.on_shared_alloc(64);
        s
    }

    #[test]
    fn same_lane_rewrites_are_not_races() {
        let mut s = san();
        s.shared_access(&[5], true);
        s.shared_access(&[5], true); // lane 0 again
        s.shared_access(&[5], false);
        assert_eq!(s.counts().shared_races, 0);
    }

    #[test]
    fn write_write_race_detected_with_attribution() {
        let mut s = san();
        // One op, lanes 0 and 1 both write word 7.
        s.shared_access(&[7, 7], true);
        assert_eq!(s.counts().shared_races, 1);
        match &s.take_violations()[0] {
            SanitizerViolation::SharedRace { site, kind, other_lane } => {
                assert_eq!(*kind, RaceKind::WriteAfterWrite);
                assert_eq!(site.lane, 1);
                assert_eq!(*other_lane, 0);
                assert_eq!(site.addr, 7);
            }
            v => panic!("wrong violation {v:?}"),
        }
    }

    #[test]
    fn barrier_separates_epochs() {
        let mut s = san();
        s.shared_access(&[3], true); // lane 0 writes
        s.barrier();
        s.shared_access(&[9, 3], false); // lane 1 reads after the barrier
        assert_eq!(s.counts().shared_races, 0);
    }

    #[test]
    fn read_after_write_without_barrier_races() {
        let mut s = san();
        s.shared_access(&[3], true); // lane 0 writes
        s.shared_access(&[3, 3], false); // lane 1 reads, no barrier
        assert_eq!(s.counts().shared_races, 1);
        assert!(matches!(
            s.take_violations()[0],
            SanitizerViolation::SharedRace {
                kind: RaceKind::ReadAfterWrite,
                ..
            }
        ));
    }

    #[test]
    fn write_after_read_races_even_via_second_reader() {
        let mut s = san();
        s.shared_access(&[4], true); // lane 0 initializes word 4
        s.barrier();
        s.shared_access(&[4, 4], false); // lanes 0,1 read (broadcast, fine)
        assert_eq!(s.counts().shared_races, 0);
        // Lane 0 (the *first* reader itself) writes the word back: only
        // the second recorded reader (lane 1) makes this a hazard.
        s.shared_access(&[4], true);
        assert_eq!(s.counts().shared_races, 1);
        match &s.take_violations()[0] {
            SanitizerViolation::SharedRace {
                kind, other_lane, ..
            } => {
                assert_eq!(*kind, RaceKind::WriteAfterRead);
                assert_eq!(*other_lane, 1);
            }
            v => panic!("wrong violation {v:?}"),
        }
    }

    #[test]
    fn one_report_per_word_per_epoch_but_all_counted() {
        let mut s = san();
        s.shared_access(&[2, 2, 2, 2], true); // 3 racing writers after the first
        assert_eq!(s.counts().shared_races, 3);
        assert_eq!(s.take_violations().len(), 1);
    }

    #[test]
    fn uninit_shared_read_reported_once() {
        let mut s = san();
        s.shared_access(&[11], false);
        s.shared_access(&[11], false);
        assert_eq!(s.counts().uninit_reads, 1);
        assert!(matches!(
            s.take_violations()[0],
            SanitizerViolation::UninitRead { .. }
        ));
    }

    #[test]
    fn global_uninit_dedup() {
        let mut s = san();
        s.global_uninit_read(3, 9, 100);
        s.global_uninit_read(3, 9, 100);
        s.global_uninit_read(3, 9, 101);
        assert_eq!(s.counts().uninit_reads, 2);
    }

    #[test]
    fn divergent_barrier_names_missing_lane() {
        let mut s = Sanitizer::new("div", 2, 8, 4);
        s.barrier(); // full barrier 0
        s.barrier_arrive(&[0, 1, 2, 3, 5, 6, 7]); // lane 4 missing
        assert_eq!(s.counts().barrier_divergence, 1);
        match &s.take_violations()[0] {
            SanitizerViolation::BarrierDivergence {
                barrier_index,
                missing_lane,
                arrived,
                expected,
                block,
                ..
            } => {
                assert_eq!(*barrier_index, 1);
                assert_eq!(*missing_lane, 4);
                assert_eq!(*arrived, 7);
                assert_eq!(*expected, 8);
                assert_eq!(*block, 2);
            }
            v => panic!("wrong violation {v:?}"),
        }
    }

    #[test]
    fn oob_builds_attributed_error() {
        let mut s = san();
        let err = s.oob(33, 4096, 64, MemSpace::Global, Some(2));
        // lane wraps into the block (position 33 of a 32-thread block).
        match err {
            SimError::Sanitizer(SanitizerViolation::OutOfBounds { site, len }) => {
                assert_eq!(site.lane, 1);
                assert_eq!(site.warp, 0);
                assert_eq!(site.addr, 4096);
                assert_eq!(len, 64);
                assert_eq!(site.buffer, Some(2));
            }
            e => panic!("wrong error {e:?}"),
        }
        assert_eq!(s.counts().out_of_bounds, 1);
    }

    #[test]
    fn violation_cap_bounds_reports_not_counts() {
        let mut s = Sanitizer::new("cap", 0, 32, 32);
        let words = MAX_VIOLATIONS + 8;
        s.on_shared_alloc(words);
        for w in 0..words {
            s.shared_access(&[w, w], true);
        }
        assert_eq!(s.counts().shared_races, words as u64);
        assert_eq!(s.take_violations().len(), MAX_VIOLATIONS);
    }

    #[test]
    fn displays_are_informative() {
        let mut s = san();
        s.shared_access(&[7, 7], true);
        let text = s.take_violations()[0].to_string();
        assert!(text.contains("write-after-write"), "{text}");
        assert!(text.contains("kernel `test`"), "{text}");
        assert!(text.contains("word 7"), "{text}");
    }
}
