//! Property tests of the plan cache over the pure planner.
//!
//! The contract: a hit returns a plan *byte-identical* (same
//! `describe()`, same `to_json()` text) to a fresh
//! `ShardedPlan::build`; distinct keys never collide; eviction at
//! capacity only costs recompute, never correctness; and the counters
//! obey `lookups == hits + misses` under any lookup sequence.

use gpu_sim::{DeviceGroup, DeviceSpec};
use proptest::prelude::*;
use tridiag_core::transition::TransitionPolicy;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::ShardedPlan;
use tridiag_service::{config_fingerprint, PlanCache};

fn gtx480_group() -> DeviceGroup {
    DeviceGroup::single(DeviceSpec::gtx480())
}

/// The geometry corpus: small enough to plan fast, varied enough to
/// hit p-Thomas-only, tiled-PCR and partitioned pipelines.
const NS: [usize; 5] = [32, 64, 128, 256, 513];
const BYTES: [usize; 2] = [4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A hit is byte-identical to a fresh build of the same key.
    #[test]
    fn cache_hit_is_byte_identical_to_fresh_build(
        m in 1usize..64,
        n_idx in 0usize..NS.len(),
        b_idx in 0usize..BYTES.len(),
    ) {
        let (group, config) = (gtx480_group(), GpuSolverConfig::default());
        let (n, bytes) = (NS[n_idx], BYTES[b_idx]);
        let mut cache = PlanCache::new(8);
        let (first, hit1) = cache.lookup(&group, &config, m, n, bytes).unwrap();
        let (second, hit2) = cache.lookup(&group, &config, m, n, bytes).unwrap();
        prop_assert!(!hit1, "first lookup must miss");
        prop_assert!(hit2, "second lookup must hit");
        let fresh = ShardedPlan::build(&group, &config, m, n, bytes).unwrap();
        prop_assert_eq!(first.describe(), fresh.describe());
        prop_assert_eq!(second.describe(), fresh.describe());
        prop_assert_eq!(first.to_json().to_string(), fresh.to_json().to_string());
        prop_assert_eq!(second.to_json().to_string(), fresh.to_json().to_string());
    }

    /// Distinct geometry/width keys never alias each other's plans.
    #[test]
    fn distinct_keys_never_collide(
        m1 in 1usize..64, m2 in 1usize..64,
        n1_idx in 0usize..NS.len(), n2_idx in 0usize..NS.len(),
        b1_idx in 0usize..BYTES.len(), b2_idx in 0usize..BYTES.len(),
    ) {
        let key1 = (m1, NS[n1_idx], BYTES[b1_idx]);
        let key2 = (m2, NS[n2_idx], BYTES[b2_idx]);
        prop_assume!(key1 != key2);
        let (group, config) = (gtx480_group(), GpuSolverConfig::default());
        let mut cache = PlanCache::new(8);
        let (p1, _) = cache.lookup(&group, &config, key1.0, key1.1, key1.2).unwrap();
        let (p2, _) = cache.lookup(&group, &config, key2.0, key2.1, key2.2).unwrap();
        prop_assert!(
            p1.m != p2.m || p1.n != p2.n || p1.elem_bytes != p2.elem_bytes,
            "two distinct keys returned one plan"
        );
        // And each matches its own fresh build.
        let f1 = ShardedPlan::build(&group, &config, key1.0, key1.1, key1.2).unwrap();
        prop_assert_eq!(p1.describe(), f1.describe());
        let stats = cache.stats();
        prop_assert_eq!(stats.lookups, 2);
        prop_assert_eq!(stats.misses, 2);
    }

    /// At capacity the LRU entry is evicted; a re-lookup of the victim
    /// misses but rebuilds the identical plan.
    #[test]
    fn eviction_keeps_correctness(
        capacity in 1usize..4,
        ms in proptest::collection::vec(1usize..32, 2..10),
    ) {
        let (group, config) = (gtx480_group(), GpuSolverConfig::default());
        let mut cache = PlanCache::new(capacity);
        for &m in &ms {
            let (plan, _) = cache.lookup(&group, &config, m, 128, 8).unwrap();
            prop_assert_eq!(plan.m, m);
        }
        prop_assert!(cache.len() <= capacity, "capacity must bound the cache");
        let distinct: std::collections::BTreeSet<_> = ms.iter().collect();
        let stats = cache.stats();
        if distinct.len() > capacity {
            prop_assert!(stats.evictions > 0, "over-capacity inserts must evict");
        }
        // Every key still answers correctly, evicted or not.
        for &m in &ms {
            let (plan, _) = cache.lookup(&group, &config, m, 128, 8).unwrap();
            let fresh = ShardedPlan::build(&group, &config, m, 128, 8).unwrap();
            prop_assert_eq!(plan.describe(), fresh.describe());
        }
    }

    /// `lookups == hits + misses` under any sequence.
    #[test]
    fn counters_sum_to_lookups(
        seq in proptest::collection::vec((1usize..16, 0usize..NS.len()), 1..24),
        capacity in 0usize..4,
    ) {
        let (group, config) = (gtx480_group(), GpuSolverConfig::default());
        let mut cache = PlanCache::new(capacity);
        for &(m, n_idx) in &seq {
            cache.lookup(&group, &config, m, NS[n_idx], 8).unwrap();
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.lookups, seq.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.lookups);
        if capacity == 0 {
            prop_assert_eq!(stats.hits, 0, "a zero-capacity cache can never hit");
        }
    }
}

/// Config fingerprints separate pinned configs from the base config —
/// the service caches plans under `TransitionPolicy::Fixed(k)` pins,
/// which must not alias plans built under the default policy.
#[test]
fn config_fingerprint_separates_pinned_configs() {
    let base = GpuSolverConfig::default();
    let pinned = GpuSolverConfig {
        policy: TransitionPolicy::Fixed(1),
        ..base
    };
    assert_ne!(config_fingerprint(&base), config_fingerprint(&pinned));

    let group = gtx480_group();
    let mut cache = PlanCache::new(8);
    let (p_base, _) = cache.lookup(&group, &base, 256, 64, 8).unwrap();
    let (p_pin, hit) = cache.lookup(&group, &pinned, 256, 64, 8).unwrap();
    assert!(!hit, "different configs must not share a cache entry");
    assert_ne!(
        p_base.reference.k, p_pin.reference.k,
        "the two configs plan different k at this geometry, so aliasing would be wrong"
    );
}

/// Group fingerprints separate device compositions.
#[test]
fn group_fingerprint_separates_compositions() {
    let single = DeviceGroup::single(DeviceSpec::gtx480());
    let dual = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let other = DeviceGroup::single(DeviceSpec::gtx280());
    assert_ne!(single.fingerprint(), dual.fingerprint());
    assert_ne!(single.fingerprint(), other.fingerprint());
    assert_eq!(
        single.fingerprint(),
        DeviceGroup::single(DeviceSpec::gtx480()).fingerprint()
    );

    let config = GpuSolverConfig::default();
    let mut cache = PlanCache::new(8);
    let (p1, _) = cache.lookup(&single, &config, 8, 128, 8).unwrap();
    let (p2, hit) = cache.lookup(&dual, &config, 8, 128, 8).unwrap();
    assert!(!hit, "different groups must not share a cache entry");
    assert_eq!(p1.num_devices(), 1);
    assert_eq!(p2.num_devices(), 2);
}

/// Verification-on-insert: [`tridiag_service::certify`] rejects a
/// corrupted sharded plan, so [`PlanCache::lookup`] can never cache or
/// return one. A shifted `sys_start` breaks partition contiguity.
#[test]
fn certify_rejects_a_corrupted_sharded_plan() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let config = GpuSolverConfig::default();
    let plan = ShardedPlan::build(&group, &config, 64, 512, 8).unwrap();
    assert!(tridiag_service::certify(&group, &plan).is_ok());

    let mut corrupted = plan.clone();
    corrupted.shards[1].sys_start += 1;
    let err = tridiag_service::certify(&group, &corrupted).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("shard-partition"),
        "expected a shard-partition finding, got: {msg}"
    );
}
