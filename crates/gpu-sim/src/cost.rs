//! The cycle cost model.
//!
//! Kernels written against the simulator perform *real* data movement in
//! host memory and, alongside it, charge cycles to their
//! [`ThreadCtx`](crate::block::ThreadCtx)
//! (see [`crate::block`]). The charges use the constants here; the one
//! calibration a caller may set is the Thrust-era baseline's per-element
//! cost ([`THRUST_ELEM_CYCLES`]). What every modelled device shares (the
//! warp width, the PCIe link, the launch overhead) is constant here too.
//!
//! The model is a throughput model in the SIMT style:
//!
//! * every charge is per *thread*; the block executor folds threads into
//!   warps (lockstep: a warp costs as much as its slowest thread) and warps
//!   into SM issue slots;
//! * global memory cost is expressed per warp-level *transaction* (one
//!   128-byte segment fetch) and amortized back to the threads according to
//!   the declared [`AccessPattern`];
//! * latency hiding is implicit: costs are issue/throughput costs, and the
//!   [`GLOBAL_LATENCY`] term is only charged for serial, single-warp phases
//!   where nothing can hide it (e.g. the paper's one-thread-per-block
//!   splitter-selection kernel).

/// How a warp touches global memory in one access. The pattern determines
/// how many 128-byte transactions the warp issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive threads read consecutive elements: the warp's accesses
    /// land in `WARP_SIZE * elem_size / 128` segments (≥ 1).
    Coalesced,
    /// Consecutive threads are separated by `stride` elements; the warp
    /// spreads over proportionally more segments.
    Strided(u32),
    /// Every thread hits an unrelated address: one transaction per thread.
    Scattered,
    /// All threads of the warp read the same address (broadcast): a single
    /// transaction serves the warp regardless of element size.
    Broadcast,
    /// A single active lane walking consecutive addresses (the paper's
    /// one-thread-per-block Phase 1): each 128-byte line is fetched once
    /// and then served from L2 for the following elements, but the lone
    /// lane cannot pipeline fetches the way a full warp can — charged as a
    /// 4× serialization penalty over the segment count.
    SingleLaneSequential,
}

// Cycle costs of the primitive operations kernels charge. They approximate
// a Kepler-class part and were calibrated so that the end-to-end shapes of
// the paper's figures reproduce (see EXPERIMENTS.md); absolute
// milliseconds are not the target.

/// One arithmetic / compare / move instruction.
pub(crate) const ALU: f64 = 1.0;
/// One shared-memory access (bank-conflict-free).
pub(crate) const SHARED_ACCESS: f64 = 2.0;
/// Issue cost of one 128-byte global-memory transaction, per warp.
pub(crate) const GLOBAL_TXN: f64 = 32.0;
/// Exposed global-memory latency charged to serial code that cannot
/// hide it (used via [`crate::block::ThreadCtx::charge_global_serial`]).
pub(crate) const GLOBAL_LATENCY: f64 = 350.0;
/// One global atomic RMW (contended atomics cost more in reality; the
/// simulator charges a flat worst-ish case).
pub(crate) const ATOMIC_GLOBAL: f64 = 48.0;
/// One shared-memory atomic RMW.
pub(crate) const ATOMIC_SHARED: f64 = 8.0;
/// Cost of a `__syncthreads()` barrier, added to the block's bill once
/// per phase.
pub(crate) const SYNC: f64 = 8.0;
/// One warp-vote instruction (`__ballot_sync` / `__match_any_sync`
/// class). Votes move through the register file and the warp's vote
/// network — no shared-memory banks are touched, which is exactly why
/// warp-level multisplit beats a shared-histogram: 1 cycle undercuts
/// [`SHARED_ACCESS`] and [`ATOMIC_SHARED`] the way Kepler's
/// single-cycle-issue vote unit undercuts its 2-cycle shared pipe.
pub(crate) const WARP_VOTE: f64 = 1.0;
/// One warp-shuffle instruction (`__shfl_*_sync` class): a register
/// exchange across lanes, same issue cost as a vote. A warp-exclusive
/// prefix sum costs `⌈log₂ WARP_SIZE⌉` of these per lane
/// ([`crate::block::ThreadCtx::charge_warp_scan`]).
pub(crate) const WARP_SHUFFLE: f64 = 1.0;
/// Extra cycles charged per divergent-branch event (both sides of the
/// branch execute for the warp).
pub(crate) const DIVERGENCE: f64 = 4.0;
/// Size of a global-memory transaction segment in bytes.
pub(crate) const SEG_BYTES: u32 = 128;
/// Default empirical per-element, per-pass cycle cost of the 2016-era
/// Thrust stable radix sort on Kepler, charged by `thrust-sim`'s kernels
/// on top of the structural transaction model. Calibrated so the STA
/// baseline's end-to-end throughput matches what the paper *measured*
/// (§7.2 implies ≈25 M elements/s on the K40c — far below Thrust's
/// architectural peak, consistent with the paper's weak baseline usage).
/// The one cost a caller may set
/// ([`crate::Gpu::with_thrust_elem_cycles`]): sweeping it is the
/// "stronger baseline" ablation.
pub(crate) const THRUST_ELEM_CYCLES: f64 = 5_200.0;

/// Threads per warp, the lockstep fold width: 32 on every NVIDIA part.
pub const WARP_SIZE: u32 = 32;
/// Host↔device bandwidth in GB/s (a PCIe 3.0 x16 link in practice).
pub(crate) const PCIE_GB_PER_S: f64 = 12.0;
/// Fixed latency of one host↔device transfer, in microseconds.
pub(crate) const PCIE_LATENCY_US: f64 = 10.0;
/// Fixed kernel-launch overhead in microseconds (driver + dispatch).
pub(crate) const KERNEL_LAUNCH_US: f64 = 5.0;

// A thread's shared-access and shared-atomic totals bill exactly what one
// call per access would only while these costs are whole cycles (see
// `ThreadCtx::charge_shared_conflicted`).
const _: () = assert!(SHARED_ACCESS == SHARED_ACCESS as u64 as f64);
const _: () = assert!(ATOMIC_SHARED == ATOMIC_SHARED as u64 as f64);

impl AccessPattern {
    /// Number of 128-byte transactions a full warp of [`WARP_SIZE`]
    /// threads issues for one access of `elem_bytes`-sized elements under
    /// this pattern.
    pub fn warp_transactions(self, elem_bytes: u32) -> u32 {
        match self {
            AccessPattern::Coalesced => {
                // Contiguous span of WARP_SIZE * elem_bytes bytes.
                WARP_SIZE
                    .saturating_mul(elem_bytes)
                    .max(1)
                    .div_ceil(SEG_BYTES)
            }
            AccessPattern::Strided(stride) => {
                let stride = stride.max(1);
                let span = WARP_SIZE
                    .saturating_mul(elem_bytes)
                    .saturating_mul(stride)
                    .max(1);
                span.div_ceil(SEG_BYTES).min(WARP_SIZE)
            }
            AccessPattern::Scattered => WARP_SIZE,
            AccessPattern::Broadcast => 1,
            AccessPattern::SingleLaneSequential => WARP_SIZE
                .saturating_mul(elem_bytes)
                .max(1)
                .div_ceil(SEG_BYTES)
                .saturating_mul(4)
                .min(WARP_SIZE),
        }
    }

    /// Per-thread amortized cost (cycles) of one global access under this
    /// pattern: the warp's transaction bill divided across its threads.
    pub(crate) fn global_cost_per_elem(self, elem_bytes: u32) -> f64 {
        let txns = self.warp_transactions(elem_bytes);
        GLOBAL_TXN * txns as f64 / WARP_SIZE as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_f32_warp_is_one_transaction() {
        // 32 threads * 4 bytes = 128 bytes = exactly one segment.
        assert_eq!(AccessPattern::Coalesced.warp_transactions(4), 1);
    }

    #[test]
    fn coalesced_f64_warp_is_two_transactions() {
        assert_eq!(AccessPattern::Coalesced.warp_transactions(8), 2);
    }

    #[test]
    fn scattered_is_one_transaction_per_thread() {
        assert_eq!(AccessPattern::Scattered.warp_transactions(4), 32);
    }

    #[test]
    fn strided_interpolates_and_saturates() {
        let s2 = AccessPattern::Strided(2).warp_transactions(4);
        let s8 = AccessPattern::Strided(8).warp_transactions(4);
        let s64 = AccessPattern::Strided(64).warp_transactions(4);
        assert_eq!(s2, 2);
        assert_eq!(s8, 8);
        assert_eq!(s64, 32, "stride past segment size saturates at WARP_SIZE");
        assert!(s2 < s8 && s8 <= s64);
    }

    #[test]
    fn broadcast_is_single_transaction() {
        assert_eq!(AccessPattern::Broadcast.warp_transactions(4), 1);
        assert_eq!(AccessPattern::Broadcast.warp_transactions(8), 1);
    }

    #[test]
    fn per_elem_cost_orders_patterns() {
        let c = AccessPattern::Coalesced.global_cost_per_elem(4);
        let s = AccessPattern::Strided(4).global_cost_per_elem(4);
        let x = AccessPattern::Scattered.global_cost_per_elem(4);
        assert!(
            c < s && s < x,
            "coalesced {c} < strided {s} < scattered {x}"
        );
        assert!(
            (x - GLOBAL_TXN).abs() < 1e-12,
            "scattered pays a full txn per element"
        );
    }

    #[test]
    fn single_lane_sequential_sits_between_coalesced_and_scattered() {
        let c = AccessPattern::Coalesced.global_cost_per_elem(4);
        let l = AccessPattern::SingleLaneSequential.global_cost_per_elem(4);
        let x = AccessPattern::Scattered.global_cost_per_elem(4);
        assert!(c < l && l < x, "{c} < {l} < {x}");
        assert_eq!(AccessPattern::SingleLaneSequential.warp_transactions(4), 4);
        // Wide elements saturate at WARP_SIZE like everything else.
        assert!(AccessPattern::SingleLaneSequential.warp_transactions(256) <= WARP_SIZE);
    }

    #[test]
    fn warp_ops_undercut_the_shared_pipe() {
        // The premise of warp-level multisplit: votes and shuffles stay in
        // the register file, so they must be strictly cheaper than a
        // shared access and far cheaper than a shared atomic.
        const {
            assert!(WARP_VOTE < SHARED_ACCESS);
            assert!(WARP_SHUFFLE < SHARED_ACCESS);
            assert!(WARP_VOTE < ATOMIC_SHARED);
        }
    }

    #[test]
    fn stride_one_equals_coalesced() {
        assert_eq!(
            AccessPattern::Strided(1).warp_transactions(4),
            AccessPattern::Coalesced.warp_transactions(4)
        );
    }
}
