//! Algorithm transition from tiled PCR to p-Thomas (Section III-D).
//!
//! "One single algorithm cannot cope with all combinations of hardware
//! and input sizes" — the hybrid must decide *at runtime* how many PCR
//! steps `k` to run before handing the `2^k · M` subsystems to p-Thomas.
//! Too few steps starve the machine of parallelism; too many inflate the
//! `O(k·n)` PCR work term (Table II).
//!
//! The paper tunes this once per device (§III-D: "finding proper values
//! for different situations can be done only once and the effort can be
//! quickly amortized"). The default, [`TransitionPolicy::Tuned`], asks
//! for the device's autotuned decision table; the tables are device data
//! the GPU planner owns (`tridiag_gpu::plan::cost`), so this crate — and
//! any device without a table — answers it with the paper's empirical
//! Table III ([`TransitionPolicy::Gtx480Heuristic`], keyed on the number
//! of systems `M`), which also stays selectable on its own as the paper
//! replay. [`TransitionPolicy::Fixed`] pins `k`. The Table II cost
//! minimiser for a machine of parallelism `P` is
//! [`cost_model::optimal_k`].

use crate::cost_model;

/// How the hybrid picks its PCR step count `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransitionPolicy {
    /// The device's autotuned decision table where the GPU planner has
    /// one; Table III everywhere else (see the module docs).
    #[default]
    Tuned,
    /// Table III verbatim (tuned on an NVIDIA GTX480): the paper replay.
    Gtx480Heuristic,
    /// Always use exactly this `k` (clamped to the system size).
    Fixed(u32),
}

/// Pick the PCR step count for `m` systems of `n` unknowns each.
///
/// The returned `k` always satisfies `2^k <= n`, so the reduction is
/// valid regardless of policy. [`TransitionPolicy::Tuned`] is Table
/// III here: no table applies without a device.
pub fn choose_k(policy: TransitionPolicy, m: usize, n: usize) -> u32 {
    let k = match policy {
        TransitionPolicy::Tuned | TransitionPolicy::Gtx480Heuristic => {
            cost_model::gtx480_heuristic_k(m as u64)
        }
        TransitionPolicy::Fixed(k) => k,
    };
    k.min(max_k_for(n))
}

/// Largest valid `k` for an `n`-unknown system (`2^k <= n`).
pub fn max_k_for(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - 1 - n.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_k_bounds() {
        assert_eq!(max_k_for(0), 0);
        assert_eq!(max_k_for(1), 0);
        assert_eq!(max_k_for(2), 1);
        assert_eq!(max_k_for(255), 7);
        assert_eq!(max_k_for(256), 8);
        assert_eq!(max_k_for(257), 8);
    }

    #[test]
    fn heuristic_respects_system_size() {
        // Table III wants k=8 for M=1, but a 16-unknown system caps at 4.
        assert_eq!(choose_k(TransitionPolicy::Gtx480Heuristic, 1, 16), 4);
        assert_eq!(choose_k(TransitionPolicy::Gtx480Heuristic, 1, 1 << 20), 8);
        assert_eq!(choose_k(TransitionPolicy::Gtx480Heuristic, 4096, 512), 0);
    }

    #[test]
    fn fixed_policy_clamped() {
        assert_eq!(choose_k(TransitionPolicy::Fixed(10), 1, 64), 6);
        assert_eq!(choose_k(TransitionPolicy::Fixed(3), 1, 64), 3);
    }

    #[test]
    fn default_policy_is_tuned_and_deviceless_it_is_table_iii() {
        assert_eq!(TransitionPolicy::default(), TransitionPolicy::Tuned);
        for m in [1, 16, 32, 512, 1024] {
            assert_eq!(
                choose_k(TransitionPolicy::Tuned, m, 1 << 20),
                choose_k(TransitionPolicy::Gtx480Heuristic, m, 1 << 20),
                "m={m}"
            );
        }
    }
}
