//! Occupancy: how many blocks/warps of a kernel are concurrently resident
//! on one SM — the CUDA occupancy-calculator model.
//!
//! Residency is limited by four resources; the binding one is the
//! *limiter*. High occupancy is how GPUs hide memory latency, which is
//! why the paper cares about shared-memory footprints: Phase 1 holding a
//! whole 16 KB array in shared memory caps residency at 3 blocks/SM on
//! the K40c, while the bucketing phase's small footprint runs at full
//! residency.

use serde::{Deserialize, Serialize};

use crate::cost::WARP_SIZE;
use crate::spec::DeviceSpec;

/// Per-kernel resource usage the calculator prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelResources {
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory per block, bytes.
    pub shared_bytes_per_block: u32,
    /// Registers per thread (32 is a typical compiler default).
    pub registers_per_thread: u32,
}

impl KernelResources {
    /// Resources with the default register estimate.
    pub fn new(threads_per_block: u32, shared_bytes_per_block: u32) -> Self {
        Self {
            threads_per_block,
            shared_bytes_per_block,
            registers_per_thread: 32,
        }
    }
}

/// What capped residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// The device's max-blocks-per-SM limit.
    Blocks,
    /// Warp slots (max warps per SM).
    Warps,
    /// Shared memory per SM.
    SharedMemory,
    /// The register file.
    Registers,
}

/// Occupancy result for one kernel on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Blocks concurrently resident on one SM.
    pub resident_blocks: u32,
    /// Warps concurrently resident on one SM.
    pub resident_warps: u32,
    /// `resident_warps / max_warps_per_sm`, the usual headline number.
    pub fraction: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

/// Computes the occupancy of a kernel with `res` on `spec`.
pub fn occupancy(spec: &DeviceSpec, res: &KernelResources) -> Occupancy {
    let warps_per_block = res.threads_per_block.div_ceil(WARP_SIZE).max(1);

    let by_blocks = spec.max_blocks_per_sm;
    let by_warps = spec.max_warps_per_sm / warps_per_block;
    let by_shared = spec
        .shared_mem_per_sm
        .checked_div(res.shared_bytes_per_block)
        .unwrap_or(u32::MAX);
    let regs_per_block = res.registers_per_thread * res.threads_per_block;
    let by_regs = spec
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(u32::MAX);

    let resident_blocks = by_blocks.min(by_warps).min(by_shared).min(by_regs);
    let limiter = if resident_blocks == by_warps {
        Limiter::Warps
    } else if resident_blocks == by_shared {
        Limiter::SharedMemory
    } else if resident_blocks == by_regs {
        Limiter::Registers
    } else {
        Limiter::Blocks
    };
    let resident_warps = (resident_blocks * warps_per_block).min(spec.max_warps_per_sm);
    Occupancy {
        resident_blocks,
        resident_warps,
        fraction: resident_warps as f64 / spec.max_warps_per_sm as f64,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k40c() -> DeviceSpec {
        DeviceSpec::tesla_k40c()
    }

    #[test]
    fn small_blocks_hit_the_block_limit() {
        // 32-thread blocks, no shared memory: 16 blocks/SM (K40c limit).
        let o = occupancy(&k40c(), &KernelResources::new(32, 0));
        assert_eq!(o.resident_blocks, 16);
        assert_eq!(o.limiter, Limiter::Blocks);
        assert_eq!(o.resident_warps, 16);
        assert!((o.fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn big_blocks_hit_the_warp_limit() {
        // 1024-thread blocks = 32 warps: 2 blocks fill the 64 warp slots.
        let o = occupancy(&k40c(), &KernelResources::new(1024, 0));
        assert_eq!(o.resident_blocks, 2);
        assert_eq!(o.limiter, Limiter::Warps);
        assert!((o.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase1_shared_footprint_limits_residency() {
        // The paper's Phase 1 holds a 4000-float array (16 KB) + samples
        // (1.6 KB) in shared memory: 2 blocks/SM on the K40c.
        let o = occupancy(&k40c(), &KernelResources::new(1, 17_600));
        assert_eq!(o.limiter, Limiter::SharedMemory);
        assert_eq!(o.resident_blocks, 2);
        assert!(
            o.fraction < 0.05,
            "single-thread blocks barely occupy the SM"
        );
    }

    #[test]
    fn register_pressure_limits() {
        let res = KernelResources {
            threads_per_block: 256,
            shared_bytes_per_block: 0,
            registers_per_thread: 128,
        };
        // 128 regs × 256 thr = 32768 regs/block; 65536 regs/SM → 2 blocks.
        let o = occupancy(&k40c(), &res);
        assert_eq!(o.resident_blocks, 2);
        assert_eq!(o.limiter, Limiter::Registers);
    }

    #[test]
    fn zero_shared_zero_regs_do_not_divide_by_zero() {
        let res = KernelResources {
            threads_per_block: 64,
            shared_bytes_per_block: 0,
            registers_per_thread: 0,
        };
        let o = occupancy(&k40c(), &res);
        assert!(o.resident_blocks >= 1);
    }

    #[test]
    fn occupancy_fraction_never_exceeds_one() {
        for threads in [1u32, 32, 96, 256, 512, 1024] {
            for shared in [0u32, 1024, 16 * 1024, 48 * 1024] {
                let o = occupancy(&k40c(), &KernelResources::new(threads, shared));
                assert!(
                    o.fraction <= 1.0 + 1e-12,
                    "threads={threads} shared={shared}"
                );
            }
        }
    }
}
