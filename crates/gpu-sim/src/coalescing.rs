//! Address-level coalescing analysis.
//!
//! The hot path charges global-memory cost from *declared*
//! [`crate::cost::AccessPattern`]s (keeping kernels fast). This module is
//! the ground truth those declarations are validated against: given the
//! byte addresses a warp touches in one access, it computes the exact
//! number of 128-byte transactions the hardware would issue. Tests record
//! small traces and assert the declared pattern's transaction count matches
//! (or conservatively over-estimates) the analyzed one.

use std::collections::BTreeSet;

/// Exact transaction count for one warp-wide access: the number of distinct
/// `seg_bytes`-aligned segments covered by `byte_addrs`.
pub fn warp_transactions(byte_addrs: &[u64], seg_bytes: u64) -> u32 {
    assert!(
        seg_bytes.is_power_of_two(),
        "segment size must be a power of two"
    );
    let segs: BTreeSet<u64> = byte_addrs.iter().map(|a| a / seg_bytes).collect();
    segs.len() as u32
}

/// Transaction count for a strided warp access starting at `base` with
/// `stride_bytes` between consecutive lanes — the pattern the
/// [`crate::cost::AccessPattern::Strided`] declaration approximates.
pub fn strided_transactions(base: u64, stride_bytes: u64, warp_size: u32, seg_bytes: u64) -> u32 {
    let addrs: Vec<u64> = (0..warp_size as u64)
        .map(|lane| base + lane * stride_bytes)
        .collect();
    warp_transactions(&addrs, seg_bytes)
}

/// A recorded warp access trace, accumulated by kernels running in
/// validation mode and replayed through the analyzer.
#[derive(Debug, Default, Clone)]
pub struct AccessTrace {
    warps: Vec<Vec<u64>>,
}

impl AccessTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the byte addresses one warp touched in one access.
    pub fn record_warp(&mut self, addrs: Vec<u64>) {
        self.warps.push(addrs);
    }

    /// Total transactions across every recorded warp access.
    pub fn total_transactions(&self, seg_bytes: u64) -> u64 {
        self.warps
            .iter()
            .map(|w| warp_transactions(w, seg_bytes) as u64)
            .sum()
    }

    /// Number of warp accesses recorded.
    pub fn len(&self) -> usize {
        self.warps.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// Average transactions per warp access; 32 means fully scattered
    /// f32 loads, 1 means perfectly coalesced.
    pub fn mean_transactions(&self, seg_bytes: u64) -> f64 {
        if self.warps.is_empty() {
            return 0.0;
        }
        self.total_transactions(seg_bytes) as f64 / self.warps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AccessPattern, WARP_SIZE};

    #[test]
    fn contiguous_f32_warp_is_one_transaction() {
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        assert_eq!(warp_transactions(&addrs, 128), 1);
    }

    #[test]
    fn misaligned_contiguous_warp_is_two_transactions() {
        // Starts 64 bytes into a segment: spills into the next one.
        let addrs: Vec<u64> = (0..32).map(|i| 64 + i * 4).collect();
        assert_eq!(warp_transactions(&addrs, 128), 2);
    }

    #[test]
    fn scattered_warp_is_32_transactions() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(warp_transactions(&addrs, 128), 32);
    }

    #[test]
    fn duplicate_addresses_coalesce_to_one() {
        let addrs = vec![512u64; 32];
        assert_eq!(
            warp_transactions(&addrs, 128),
            1,
            "broadcast reads are one transaction"
        );
    }

    #[test]
    fn declared_strided_pattern_matches_analyzer() {
        // The cost model's Strided estimate should match the analyzer for
        // aligned bases across a range of strides.
        for stride_elems in [1u32, 2, 4, 8, 16, 32, 64] {
            let declared = AccessPattern::Strided(stride_elems).warp_transactions(4);
            let exact = strided_transactions(0, stride_elems as u64 * 4, WARP_SIZE, 128);
            assert_eq!(
                declared, exact,
                "stride {stride_elems}: declared {declared} vs exact {exact}"
            );
        }
    }

    #[test]
    fn trace_accumulates_and_averages() {
        let mut t = AccessTrace::new();
        t.record_warp((0..32).map(|i| i * 4).collect()); // 1 txn
        t.record_warp((0..32).map(|i| i * 4096).collect()); // 32 txns
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_transactions(128), 33);
        assert!((t.mean_transactions(128) - 16.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn segment_size_must_be_pow2() {
        warp_transactions(&[0], 100);
    }
}
