//! Instrumentation counters collected during functional execution,
//! and the performance findings read off them ([`KernelStats::findings`]).

use std::fmt;

/// Sanitizer violation tallies (all zero when the sanitizer is off, or
/// when the kernel is clean). Unlike the capped violation *reports* in
/// [`crate::exec::LaunchResult::violations`], these count every hazard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerCounts {
    /// Shared-memory data races (two lanes, same word, ≥1 write, no
    /// intervening barrier).
    pub shared_races: u64,
    /// Out-of-bounds lanes in block-wide loads/stores.
    pub out_of_bounds: u64,
    /// Reads of never-written shared/global words.
    pub uninit_reads: u64,
    /// Barriers reached by a strict subset of the block's lanes.
    pub barrier_divergence: u64,
}

impl SanitizerCounts {
    /// Elementwise sum.
    pub fn merge(&mut self, o: &SanitizerCounts) {
        self.shared_races += o.shared_races;
        self.out_of_bounds += o.out_of_bounds;
        self.uninit_reads += o.uninit_reads;
        self.barrier_divergence += o.barrier_divergence;
    }

    /// Total violations of every class.
    pub fn total(&self) -> u64 {
        self.shared_races + self.out_of_bounds + self.uninit_reads + self.barrier_divergence
    }

    /// `true` when no violation of any class was counted.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Per-block execution counters, filled in by [`crate::exec::BlockCtx`]
/// as the kernel runs and consumed by the timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Arithmetic operations (FLOPs) performed by the block.
    pub flops: u64,
    /// Global-memory load transactions (128-byte segments touched).
    pub global_load_transactions: u64,
    /// Global-memory store transactions.
    pub global_store_transactions: u64,
    /// Useful bytes loaded from global memory (requested, not segment-
    /// padded — the ratio to transactions × segment measures coalescing
    /// efficiency).
    pub global_load_bytes: u64,
    /// Useful bytes stored to global memory.
    pub global_store_bytes: u64,
    /// Warp-wide global access *instructions* issued (dependent rounds
    /// for the latency model).
    pub global_access_rounds: u64,
    /// Shared-memory accesses (warp-wide instructions).
    pub shared_accesses: u64,
    /// Extra shared-memory cycles from bank conflicts (replays).
    pub bank_conflict_replays: u64,
    /// Worst bank-conflict degree of any warp of any shared access: the
    /// cycles it serialized into (1 = conflict-free, 0 = no shared
    /// access).
    pub bank_conflict_degree_peak: u64,
    /// Global access instructions with a lane run wider than unit
    /// stride ([`crate::memory::uncoalesced`]).
    pub uncoalesced_global_accesses: u64,
    /// `__syncthreads()` barriers executed.
    pub barriers: u64,
    /// Peak shared memory the block allocated, in bytes.
    pub shared_bytes_peak: u64,
    /// Sanitizer violation tallies (zero when the sanitizer is off).
    pub sanitizer: SanitizerCounts,
}

impl BlockStats {
    /// Elementwise sum (for aggregating a kernel's blocks); peak fields
    /// take the max.
    pub fn merge(&mut self, o: &BlockStats) {
        self.flops += o.flops;
        self.global_load_transactions += o.global_load_transactions;
        self.global_store_transactions += o.global_store_transactions;
        self.global_load_bytes += o.global_load_bytes;
        self.global_store_bytes += o.global_store_bytes;
        self.global_access_rounds += o.global_access_rounds;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflict_replays += o.bank_conflict_replays;
        self.bank_conflict_degree_peak = self
            .bank_conflict_degree_peak
            .max(o.bank_conflict_degree_peak);
        self.uncoalesced_global_accesses += o.uncoalesced_global_accesses;
        self.barriers += o.barriers;
        self.shared_bytes_peak = self.shared_bytes_peak.max(o.shared_bytes_peak);
        self.sanitizer.merge(&o.sanitizer);
    }

    /// What counting added since `before` (an earlier state of the same
    /// counters): the summable fields' differences, and the peaks as
    /// they are now.
    pub(crate) fn since(&self, before: &BlockStats) -> BlockStats {
        BlockStats {
            flops: self.flops - before.flops,
            global_load_transactions: self.global_load_transactions
                - before.global_load_transactions,
            global_store_transactions: self.global_store_transactions
                - before.global_store_transactions,
            global_load_bytes: self.global_load_bytes - before.global_load_bytes,
            global_store_bytes: self.global_store_bytes - before.global_store_bytes,
            global_access_rounds: self.global_access_rounds - before.global_access_rounds,
            shared_accesses: self.shared_accesses - before.shared_accesses,
            bank_conflict_replays: self.bank_conflict_replays - before.bank_conflict_replays,
            uncoalesced_global_accesses: self.uncoalesced_global_accesses
                - before.uncoalesced_global_accesses,
            barriers: self.barriers - before.barriers,
            ..*self
        }
    }

    /// Add `times` × the summable fields of `delta` (peaks: no change,
    /// as repeating a count cannot raise a maximum it already reached).
    pub(crate) fn add_times(&mut self, delta: &BlockStats, times: u64) {
        self.flops += times * delta.flops;
        self.global_load_transactions += times * delta.global_load_transactions;
        self.global_store_transactions += times * delta.global_store_transactions;
        self.global_load_bytes += times * delta.global_load_bytes;
        self.global_store_bytes += times * delta.global_store_bytes;
        self.global_access_rounds += times * delta.global_access_rounds;
        self.shared_accesses += times * delta.shared_accesses;
        self.bank_conflict_replays += times * delta.bank_conflict_replays;
        self.uncoalesced_global_accesses += times * delta.uncoalesced_global_accesses;
        self.barriers += times * delta.barriers;
    }

    /// Total global transactions (loads + stores).
    pub fn global_transactions(&self) -> u64 {
        self.global_load_transactions + self.global_store_transactions
    }

    /// Total useful global traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Fraction of transferred segment bytes that were actually
    /// requested: 1.0 = perfectly coalesced, → 1/warp_size for fully
    /// strided access.
    pub fn coalescing_efficiency(&self, segment_bytes: u64) -> f64 {
        let moved = self.global_transactions() * segment_bytes;
        if moved == 0 {
            1.0
        } else {
            (self.global_bytes() as f64 / moved as f64).min(1.0)
        }
    }
}

/// Counters of one named kernel phase, aggregated across blocks.
///
/// Phases are declared by [`crate::exec::BlockCtx::phase`]; activity
/// before the first explicit label lands in the reserved
/// [`PRELUDE_PHASE`]. The invariant that keeps the breakdown honest:
/// the summable fields of all phases add up *exactly* to
/// [`KernelStats::total`] (peaks take the max) — see
/// [`KernelStats::phase_sum_mismatches`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase label (first [`crate::exec::BlockCtx::phase`] argument, or
    /// [`PRELUDE_PHASE`]).
    pub label: &'static str,
    /// Counters accumulated while this phase was current, summed over
    /// blocks. `sanitizer` tallies are whole-block and stay zero here.
    pub stats: BlockStats,
}

/// Reserved label for counters accumulated before the first explicit
/// [`crate::exec::BlockCtx::phase`] call (shared-memory carving,
/// address setup, …).
pub const PRELUDE_PHASE: &str = "prelude";

/// Whole-kernel statistics: aggregate counters plus per-block summaries
/// the wave scheduler needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Sum over all blocks.
    pub total: BlockStats,
    /// Per-phase breakdown of `total`, in first-encounter order across
    /// the launch (re-entering a label merges into its entry).
    pub phases: Vec<PhaseStats>,
    /// Per-block dependent-round counts (index = block id).
    pub rounds_per_block: Vec<u64>,
    /// Per-block flop counts.
    pub flops_per_block: Vec<u64>,
    /// Per-block global bytes.
    pub bytes_per_block: Vec<u64>,
    /// Blocks launched.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl KernelStats {
    /// Merge one block's per-phase counters into the kernel-level
    /// breakdown (label-keyed, first-encounter order).
    pub fn merge_block_phases(&mut self, block_phases: &[PhaseStats]) {
        for ph in block_phases {
            match self.phases.iter_mut().find(|p| p.label == ph.label) {
                Some(p) => p.stats.merge(&ph.stats),
                None => self.phases.push(ph.clone()),
            }
        }
    }

    /// Cross-check the phase attribution invariant: every summable
    /// counter summed over `phases` must equal its value in `total`
    /// exactly, and the per-phase peaks (shared bytes, bank-conflict
    /// degree) must max to the total peaks. Returns one human-readable
    /// line per violated counter (empty = exact). Sanitizer tallies are
    /// whole-block (set after the block ran) and are excluded.
    pub fn phase_sum_mismatches(&self) -> Vec<String> {
        let mut sum = BlockStats::default();
        for ph in &self.phases {
            sum.merge(&ph.stats);
        }
        let mut out = Vec::new();
        let mut chk = |name: &str, got: u64, want: u64| {
            if got != want {
                out.push(format!("{name}: phases sum to {got}, total is {want}"));
            }
        };
        chk("flops", sum.flops, self.total.flops);
        chk(
            "global_load_transactions",
            sum.global_load_transactions,
            self.total.global_load_transactions,
        );
        chk(
            "global_store_transactions",
            sum.global_store_transactions,
            self.total.global_store_transactions,
        );
        chk(
            "global_load_bytes",
            sum.global_load_bytes,
            self.total.global_load_bytes,
        );
        chk(
            "global_store_bytes",
            sum.global_store_bytes,
            self.total.global_store_bytes,
        );
        chk(
            "global_access_rounds",
            sum.global_access_rounds,
            self.total.global_access_rounds,
        );
        chk(
            "shared_accesses",
            sum.shared_accesses,
            self.total.shared_accesses,
        );
        chk(
            "bank_conflict_replays",
            sum.bank_conflict_replays,
            self.total.bank_conflict_replays,
        );
        chk(
            "uncoalesced_global_accesses",
            sum.uncoalesced_global_accesses,
            self.total.uncoalesced_global_accesses,
        );
        chk("barriers", sum.barriers, self.total.barriers);
        for (name, got, want) in [
            (
                "shared_bytes_peak",
                sum.shared_bytes_peak,
                self.total.shared_bytes_peak,
            ),
            (
                "bank_conflict_degree_peak",
                sum.bank_conflict_degree_peak,
                self.total.bank_conflict_degree_peak,
            ),
        ] {
            if got != want {
                out.push(format!("{name}: phases max to {got}, total is {want}"));
            }
        }
        out
    }

    /// The launch's performance findings, phase by phase in phase
    /// order: uncoalesced global accesses, and shared accesses
    /// serialized by a bank conflict of [`BANK_CONFLICT_THRESHOLD`] or
    /// more ways. Empty for a kernel that is coalesced and free of full
    /// serialization.
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for ph in &self.phases {
            let (phase, s) = (ph.label, &ph.stats);
            if s.uncoalesced_global_accesses > 0 {
                out.push(Finding::UncoalescedGlobal {
                    phase,
                    accesses: s.uncoalesced_global_accesses,
                });
            }
            if s.bank_conflict_degree_peak >= BANK_CONFLICT_THRESHOLD {
                out.push(Finding::BankConflict {
                    phase,
                    degree: s.bank_conflict_degree_peak,
                });
            }
        }
        out
    }
}

/// Bank-conflict degree at which a shared access is a finding: only
/// full serialization. The shipped f64 kernels carry benign 2-way
/// conflicts (8-byte elements on 4-byte banks), which
/// [`BlockStats::bank_conflict_replays`] still counts.
pub const BANK_CONFLICT_THRESHOLD: u64 = 32;

/// A performance finding of one kernel phase ([`KernelStats::findings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// Global accesses with a lane run wider than unit stride.
    UncoalescedGlobal {
        /// Phase label.
        phase: &'static str,
        /// Such accesses in the phase, summed over blocks.
        accesses: u64,
    },
    /// A shared access serialized by an n-way bank conflict.
    BankConflict {
        /// Phase label.
        phase: &'static str,
        /// The worst conflict degree in the phase.
        degree: u64,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::UncoalescedGlobal { phase, accesses } => write!(
                f,
                "uncoalesced-global in phase `{phase}`: {accesses} global access(es) \
                 with a lane run wider than unit stride"
            ),
            Finding::BankConflict { phase, degree } => write!(
                f,
                "bank-conflict in phase `{phase}`: a shared access serializes \
                 {degree}-way"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = BlockStats {
            flops: 10,
            global_load_transactions: 2,
            global_store_transactions: 1,
            global_load_bytes: 100,
            global_store_bytes: 50,
            global_access_rounds: 3,
            shared_accesses: 4,
            bank_conflict_replays: 1,
            bank_conflict_degree_peak: 4,
            uncoalesced_global_accesses: 1,
            barriers: 2,
            shared_bytes_peak: 1024,
            sanitizer: SanitizerCounts::default(),
        };
        let b = BlockStats {
            flops: 5,
            shared_bytes_peak: 2048,
            bank_conflict_degree_peak: 2,
            uncoalesced_global_accesses: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 15);
        assert_eq!(a.shared_bytes_peak, 2048);
        assert_eq!(a.bank_conflict_degree_peak, 4);
        assert_eq!(a.uncoalesced_global_accesses, 3);
        assert_eq!(a.global_transactions(), 3);
        assert_eq!(a.global_bytes(), 150);
    }

    #[test]
    fn sanitizer_counts_merge_and_total() {
        let mut a = SanitizerCounts {
            shared_races: 1,
            out_of_bounds: 2,
            uninit_reads: 3,
            barrier_divergence: 4,
        };
        assert!(!a.is_clean());
        assert_eq!(a.total(), 10);
        a.merge(&a.clone());
        assert_eq!(a.total(), 20);
        assert!(SanitizerCounts::default().is_clean());
    }

    #[test]
    fn phase_merge_and_sum_check() {
        let mut ks = KernelStats {
            total: BlockStats {
                flops: 30,
                barriers: 3,
                shared_bytes_peak: 512,
                ..Default::default()
            },
            ..Default::default()
        };
        let block = [
            PhaseStats {
                label: PRELUDE_PHASE,
                stats: BlockStats {
                    shared_bytes_peak: 512,
                    ..Default::default()
                },
            },
            PhaseStats {
                label: "forward",
                stats: BlockStats {
                    flops: 10,
                    barriers: 1,
                    shared_bytes_peak: 512,
                    ..Default::default()
                },
            },
        ];
        ks.merge_block_phases(&block);
        ks.merge_block_phases(&[PhaseStats {
            label: "forward",
            stats: BlockStats {
                flops: 20,
                barriers: 2,
                shared_bytes_peak: 512,
                ..Default::default()
            },
        }]);
        assert_eq!(ks.phases.len(), 2);
        assert_eq!(ks.phases[1].stats.flops, 30);
        assert_eq!(ks.phase_sum_mismatches(), Vec::<String>::new());
        ks.total.flops += 1;
        let bad = ks.phase_sum_mismatches();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("flops"), "{bad:?}");
    }

    #[test]
    fn coalescing_efficiency_bounds() {
        let s = BlockStats {
            global_load_transactions: 1,
            global_load_bytes: 128,
            ..Default::default()
        };
        assert_eq!(s.coalescing_efficiency(128), 1.0);
        let bad = BlockStats {
            global_load_transactions: 32,
            global_load_bytes: 128,
            ..Default::default()
        };
        assert!((bad.coalescing_efficiency(128) - 128.0 / 4096.0).abs() < 1e-12);
        assert_eq!(BlockStats::default().coalescing_efficiency(128), 1.0);
    }
}
