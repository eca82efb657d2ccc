//! # array-sort — GPU-ArraySort (Awan & Saeed, ICPP 2016) in Rust
//!
//! A parallel, **in-place** algorithm for sorting a large number of small
//! arrays on a GPU, reproduced on the [`gpu_sim`] simulated device. The
//! algorithm runs in three kernel launches, one block per array:
//!
//! 1. **[`splitters`]** — a single worker thread per block stages its
//!    array in shared memory, draws a 10 % regular sample, insertion-sorts
//!    it and emits `p − 1` splitters plus two sentinels (paper §5.1);
//! 2. **[`bucketing`]** — one thread per bucket scans the array with its
//!    splitter pair (branch-divergence-free), records bucket sizes in the
//!    global `Z` table, stages buckets in shared memory and writes them
//!    back **over the original array** (paper §5.2);
//! 3. **[`sorting`]** — one thread per bucket insertion-sorts its bucket
//!    in place; concatenation is the sorted array, no merge needed
//!    (paper §5.3).
//!
//! The crate also ships the paper's analytical complexity model
//! ([`complexity`], §6), CPU references ([`cpu_ref`]), and the §9
//! future-work extension: an out-of-core sorter ([`sort_out_of_core`])
//! that chunks datasets larger than device memory and hides transfer
//! latency by double buffering. [`recover_batch_with`] and
//! [`sort_out_of_core_recovering`] harden both entry points against
//! injected device faults ([`gpu_sim::FaultPlan`]) with bounded retry,
//! chunk checkpointing and graceful degradation to [`cpu_ref`].
//!
//! Beyond the paper, [`FusedSort`] collapses the three launches into a
//! **single kernel** (`gas-warp`, `FusedSort::warp`): shared-memory
//! staging, binary-search bucket indices over the splitters, warp-level
//! multisplit bucketing (ballot + peer-grouping + shuffle scan,
//! leader-only atomics), an in-shared scatter, the per-bucket sort, and
//! one coalesced write-back — ~3× fewer launches and ~1/30 the global
//! transactions on the paper's shapes. The kernel's shared-memory
//! histogram strategy ([`FusedStrategy::Histogram`]) is kept only as the
//! baseline of Ablations E and F; no service or CLI path selects it. The
//! three-kernel path remains the reproduction-faithful default.
//!
//! [`Variant`] names the three sorters the scheduler and the CLI serve
//! (three-kernel, warp and the STA baseline) with one capacity, sort and
//! label each.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu};
//! use array_sort::GpuArraySort;
//!
//! let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
//! let mut data: Vec<f32> = (0..4000).rev().map(|x| x as f32).collect(); // 4 arrays × 1000
//! let stats = GpuArraySort::new().sort(&mut gpu, &mut data, 1000).unwrap();
//! assert!(array_sort::cpu_ref::is_each_sorted(&data, 1000));
//! println!(
//!     "phase1 {:.3} ms, phase2 {:.3} ms, phase3 {:.3} ms, peak {} B",
//!     stats.phase1_ms, stats.phase2_ms, stats.phase3_ms, stats.peak_bytes
//! );
//! ```

#![warn(missing_docs)]

pub mod bucketing;
pub mod complexity;
mod config;
pub mod cpu_ref;
mod fused;
mod geometry;
mod insertion;
mod key;
mod merge_variant;
mod out_of_core;
mod pipeline;
mod recovery;
pub mod resplit;
pub mod sorting;
pub mod splitters;
#[cfg(test)]
mod testutil;
mod variant;

pub use config::{ArraySortConfig, ConfigError, SplitterPolicy};
pub use fused::{FusedBreakdown, FusedPath, FusedSort, FusedStats, FusedStrategy};
pub use geometry::{BatchGeometry, GasMemoryPlan};
pub use insertion::InsertionWork;
pub use key::SortKey;
pub use merge_variant::{merge_sort_arrays, MergeVariantStats};
pub use out_of_core::{
    sort_out_of_core, sort_out_of_core_streamed, ChunkStats, OocStats, StreamedOocStats,
};
pub use pipeline::{DeviceRunStats, GasStats, GpuArraySort};
pub use recovery::{
    checkpointed_attempt, recover_batch_with, sort_out_of_core_recovering, ChunkRecovery,
    FailedAttempt, RecoveryReport, RetryPolicy,
};
pub use resplit::OverflowReport;
pub use variant::{DeviceSort, Variant, VariantStats};
