//! Device specifications for the simulated GPUs.
//!
//! A [`DeviceSpec`] captures only what the modelled devices vary: SM/core
//! counts, clock, memory sizes and per-SM residency limits. What every
//! preset shares (the warp width [`WARP_SIZE`], the PCIe link and the
//! launch overhead) is a constant beside the cycle costs in `cost.rs`.
//! Presets are provided for the hardware used in the paper (Tesla K40c)
//! plus smaller devices that are convenient for tests.

use serde::{Deserialize, Serialize};

use crate::cost::{PCIE_GB_PER_S, PCIE_LATENCY_US, WARP_SIZE};

/// Architectural description of a simulated device.
///
/// All capacity checks (global memory ledger, shared memory per block,
/// threads per block) and all cycle→time conversions read from this struct,
/// so sweeping a `DeviceSpec` field is how experiments model different
/// hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM; `cores_per_sm / WARP_SIZE` warps issue per cycle.
    pub cores_per_sm: u32,
    /// Core clock in MHz; converts cycles to wall time.
    pub clock_mhz: u32,
    /// Total global memory in bytes.
    pub global_mem_bytes: u64,
    /// Bytes reserved by the runtime/context and never available to
    /// allocations (mirrors the CUDA context overhead).
    pub reserved_bytes: u64,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: u32,
    /// Upper bound on threads in a single block.
    pub max_threads_per_block: u32,
    /// Upper bound on blocks concurrently resident on one SM.
    pub max_blocks_per_sm: u32,
    /// Upper bound on warps concurrently resident on one SM.
    pub max_warps_per_sm: u32,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: u32,
    /// Shared memory per SM (on Kepler, equal to the per-block limit).
    pub shared_mem_per_sm: u32,
    /// Peak global-memory bandwidth in GB/s (datasheet figure); the
    /// denominator of per-kernel memory-utilization metrics.
    #[serde(default)]
    pub mem_gb_per_s: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla K40c — the device used for every experiment in the
    /// paper: 15 SMs × 192 cores = 2880 CUDA cores, 745 MHz, 11 520 MB of
    /// global memory and 48 KB shared memory per block.
    pub fn tesla_k40c() -> Self {
        Self {
            name: "Tesla K40c".to_string(),
            sm_count: 15,
            cores_per_sm: 192,
            clock_mhz: 745,
            global_mem_bytes: 11_520 * MIB,
            reserved_bytes: 256 * MIB,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 48 * 1024,
            mem_gb_per_s: 288.0,
        }
    }

    /// NVIDIA Tesla K20 — a smaller Kepler part, handy for showing how the
    /// capacity table (Table 1) scales down with device memory.
    pub fn tesla_k20() -> Self {
        Self {
            name: "Tesla K20".to_string(),
            sm_count: 13,
            cores_per_sm: 192,
            clock_mhz: 706,
            global_mem_bytes: 5_120 * MIB,
            reserved_bytes: 256 * MIB,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 48 * 1024,
            mem_gb_per_s: 208.0,
        }
    }

    /// One GK210 die of an NVIDIA Tesla K80 (the dual-die successor of
    /// the K40): 13 SMs, 12 GB per die, bigger register file.
    pub fn tesla_k80_die() -> Self {
        Self {
            name: "Tesla K80 (one die)".to_string(),
            sm_count: 13,
            cores_per_sm: 192,
            clock_mhz: 875,
            global_mem_bytes: 12_288 * MIB,
            reserved_bytes: 256 * MIB,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            registers_per_sm: 131_072,
            shared_mem_per_sm: 112 * 1024,
            mem_gb_per_s: 240.0,
        }
    }

    /// NVIDIA GeForce GTX 980 (Maxwell): fewer, leaner cores per SM but a
    /// higher clock and more shared memory per SM — a generational
    /// contrast for the device-sweep experiments.
    pub fn gtx_980() -> Self {
        Self {
            name: "GTX 980".to_string(),
            sm_count: 16,
            cores_per_sm: 128,
            clock_mhz: 1126,
            global_mem_bytes: 4_096 * MIB,
            reserved_bytes: 256 * MIB,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 96 * 1024,
            mem_gb_per_s: 224.0,
        }
    }

    /// A deliberately tiny device for unit tests: 2 SMs, 64 MB of memory,
    /// 16 KB shared. Exercises capacity errors without huge inputs.
    pub fn test_device() -> Self {
        Self {
            name: "SimTest-64M".to_string(),
            sm_count: 2,
            cores_per_sm: 64,
            clock_mhz: 1000,
            global_mem_bytes: 64 * MIB,
            reserved_bytes: 4 * MIB,
            shared_mem_per_block: 16 * 1024,
            max_threads_per_block: 256,
            max_blocks_per_sm: 8,
            max_warps_per_sm: 16,
            registers_per_sm: 16_384,
            shared_mem_per_sm: 16 * 1024,
            mem_gb_per_s: 100.0,
        }
    }

    /// Number of warps an SM can issue concurrently (`cores_per_sm /
    /// WARP_SIZE`); the makespan model schedules each block's warps over
    /// this many slots.
    pub fn warp_slots(&self) -> u32 {
        (self.cores_per_sm / WARP_SIZE).max(1)
    }

    /// Global memory usable by allocations (total minus runtime reserve).
    pub fn usable_mem_bytes(&self) -> u64 {
        self.global_mem_bytes.saturating_sub(self.reserved_bytes)
    }

    /// Converts device cycles to milliseconds using the core clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1_000.0)
    }

    /// Time to move `bytes` across PCIe, in milliseconds (latency + bandwidth).
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        PCIE_LATENCY_US / 1_000.0 + bytes as f64 / (PCIE_GB_PER_S * 1e9) * 1_000.0
    }
}

/// One mebibyte, the unit device datasheets quote memory in.
pub const MIB: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_matches_paper_datasheet() {
        let d = DeviceSpec::tesla_k40c();
        assert_eq!(d.sm_count * d.cores_per_sm, 2880);
        assert_eq!(d.global_mem_bytes, 11_520 * MIB);
        assert_eq!(d.shared_mem_per_block, 48 * 1024);
        assert_eq!(d.warp_slots(), 6);
    }

    #[test]
    fn usable_memory_subtracts_reserve() {
        let d = DeviceSpec::tesla_k40c();
        assert_eq!(d.usable_mem_bytes(), (11_520 - 256) * MIB);
    }

    #[test]
    fn cycles_to_ms_uses_clock() {
        let d = DeviceSpec::tesla_k40c();
        // 745 MHz => 745_000 cycles per millisecond.
        assert!((d.cycles_to_ms(745_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let d = DeviceSpec::tesla_k40c();
        let t0 = d.transfer_ms(0);
        assert!(
            (t0 - 0.01).abs() < 1e-9,
            "zero-byte transfer still pays latency"
        );
        let t1 = d.transfer_ms(12_000_000_000);
        assert!(
            t1 > 999.0 && t1 < 1001.0,
            "12 GB at 12 GB/s ≈ 1 s, got {t1}"
        );
    }

    #[test]
    fn preset_sanity() {
        for d in [
            DeviceSpec::tesla_k40c(),
            DeviceSpec::tesla_k20(),
            DeviceSpec::tesla_k80_die(),
            DeviceSpec::gtx_980(),
            DeviceSpec::test_device(),
        ] {
            assert!(d.sm_count > 0, "{}", d.name);
            assert!(d.usable_mem_bytes() > 0, "{}", d.name);
            assert!(d.shared_mem_per_sm >= d.shared_mem_per_block, "{}", d.name);
            assert!(d.mem_gb_per_s > PCIE_GB_PER_S, "{}", d.name);
            assert!(
                d.max_warps_per_sm * WARP_SIZE >= d.max_threads_per_block,
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn k80_die_outclocks_k40() {
        assert!(DeviceSpec::tesla_k80_die().clock_mhz > DeviceSpec::tesla_k40c().clock_mhz);
    }

    #[test]
    fn warp_slots_never_zero() {
        let mut d = DeviceSpec::test_device();
        d.cores_per_sm = 16; // fewer cores than a warp
        assert_eq!(d.warp_slots(), 1);
    }
}
