//! The plan cache: memoized [`ShardedPlan`]s keyed by geometry,
//! precision, device-group fingerprint and solver-config fingerprint.
//! The geometry of a ragged batch — one fused launch over members of
//! different row counts ([`ShardedPlan::build_ragged`]) — is its
//! per-system row counts; a batch whose systems share `n` keys on
//! `(m, n)` alone, whichever way it was built.
//!
//! PR 4 made [`tridiag_gpu::SolvePlan::build`] a pure function of
//! `(spec, config, m, n, elem_bytes)` — no device state, fully
//! deterministic — so a cached plan is *the* plan: a hit is
//! byte-identical (same `describe()`, same `to_json()`) to a fresh
//! build. The cache is a plain LRU over that pure function with
//! hit/miss/eviction counters; correctness never depends on the cache,
//! only the planning cost does.
//!
//! Ragged keys seldom repeat: a ragged batch keys on every member's
//! row count, which mixed traffic rarely reproduces, so the
//! repository benchmark's `service_stream` hits on only about 28 % of
//! lookups (≈ 42 misses per 96-request session). No per-decision
//! template cache is kept, though lookups are no longer a small share
//! of the session: on three service-shaped ragged batches (3–5 fused
//! block-per-system members of n ∈ {64, …, 512}, f32 and f64, GTX480
//! model, release build, one thread) [`ShardedPlan::build_ragged`]
//! took ≈ 2.3 µs and [`certify`] ≈ 2.1 µs per miss, and timers around
//! every lookup of one-thread `service_stream` sessions (release build,
//! one vCPU of a 2-vCPU VM) read 7.6–8.1 µs per lookup, hits included,
//! over ≈ 66 lookups per session: ≈ 0.5 ms of a 6.7–7.2 ms session,
//! about 7 % (it was 8.2–9.1 µs of an 8.9–9.9 ms session, about 6 %,
//! before a launch counted each distinct block once).

use std::sync::Arc;

use gpu_sim::{DeviceGroup, Result};
use tridiag_gpu::hash::{fnv1a_extend, FNV_OFFSET};
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::ShardedPlan;

/// Statically certify `plan` against `group` with the plan verifier
/// ([`tridiag_gpu::verify`]). `Ok(())` when clean; otherwise
/// [`gpu_sim::SimError::InvalidPlan`] listing every finding.
/// [`PlanCache::lookup`] runs this on every miss, so an ill-formed plan
/// can never be inserted and replayed to later requests.
pub fn certify(group: &DeviceGroup, plan: &ShardedPlan) -> Result<()> {
    tridiag_gpu::verify_sharded_plan(group, plan).into_result()
}

/// What a plan is keyed by: the fused-batch geometry, the scalar
/// width, and fingerprints of the device group composition and the
/// solver config. Two lookups with equal keys are guaranteed the same
/// plan because the planner is pure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Systems in the fused batch.
    pub m: usize,
    /// Rows per system (the longest system's, in a ragged batch).
    pub n: usize,
    /// Per-system row counts of a ragged batch, only when they differ.
    pub rows: Option<Vec<usize>>,
    /// Scalar width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// [`DeviceGroup::fingerprint`] of the group the plan shards over.
    pub group_fp: u64,
    /// [`config_fingerprint`] of the solver config the plan was built
    /// under (the service builds plans under *pinned* configs, which
    /// must not alias the base config's plans).
    pub config_fp: u64,
}

/// FNV-1a fingerprint of every config field that shapes a plan.
/// (`exec` is execution-time only — the sanitizer switch does not
/// change the planned step sequence — so it is deliberately excluded.)
pub fn config_fingerprint(config: &GpuSolverConfig) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}|{:?}",
        config.policy, config.mapping, config.fused, config.sub_tile_scale, config.layout
    );
    fnv1a_extend(FNV_OFFSET, text.bytes())
}

/// Cache effectiveness counters. Invariant: `lookups == hits + misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that built a fresh plan.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

/// LRU cache over the pure planner. Entries are `Arc`-shared so a hit
/// is a pointer clone, not a plan clone.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// LRU order: front = coldest, back = hottest.
    entries: Vec<(PlanKey, Arc<ShardedPlan>)>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`capacity == 0` caches
    /// nothing — every lookup is a miss that builds fresh).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached plans right now.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The key a lookup for this geometry/config would use.
    pub fn key_for(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> PlanKey {
        PlanKey {
            m,
            n,
            rows: None,
            elem_bytes,
            group_fp: group.fingerprint(),
            config_fp: config_fingerprint(config),
        }
    }

    /// The plan for `(group, config, m, n, elem_bytes)` and whether it
    /// was a cache hit. A miss builds via [`ShardedPlan::build`] and
    /// inserts, evicting the least-recently-used entry at capacity;
    /// build failures are returned as-is and cache nothing.
    pub fn lookup(
        &mut self,
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<(Arc<ShardedPlan>, bool)> {
        let key = Self::key_for(group, config, m, n, elem_bytes);
        self.fetch(
            key,
            || ShardedPlan::build(group, config, m, n, elem_bytes),
            group,
        )
    }

    /// [`PlanCache::lookup`] for systems of per-system row counts
    /// `rows` ([`ShardedPlan::build_ragged`]). Counts that are all
    /// equal look up the uniform `(m, n)` plan.
    pub fn lookup_ragged(
        &mut self,
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        rows: &[usize],
        elem_bytes: usize,
    ) -> Result<(Arc<ShardedPlan>, bool)> {
        let longest = rows.iter().copied().max().unwrap_or(0);
        let mut key = Self::key_for(group, config, rows.len(), longest, elem_bytes);
        key.rows = rows.iter().any(|&r| r != longest).then(|| rows.to_vec());
        self.fetch(
            key,
            || ShardedPlan::build_ragged(group, config, rows, elem_bytes),
            group,
        )
    }

    /// The cached plan for `key`, or a fresh certified `build()`.
    fn fetch(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> Result<ShardedPlan>,
        group: &DeviceGroup,
    ) -> Result<(Arc<ShardedPlan>, bool)> {
        self.stats.lookups += 1;
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.stats.hits += 1;
            // Refresh recency: move to the back.
            let entry = self.entries.remove(pos);
            let plan = Arc::clone(&entry.1);
            self.entries.push(entry);
            return Ok((plan, true));
        }
        self.stats.misses += 1;
        let plan = Arc::new(build()?);
        // Verification-on-insert: only certified plans are cached (and
        // only certified plans are returned at all).
        certify(group, &plan)?;
        if self.capacity > 0 {
            if self.entries.len() >= self.capacity {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
            self.entries.push((key, Arc::clone(&plan)));
        }
        Ok((plan, false))
    }
}
