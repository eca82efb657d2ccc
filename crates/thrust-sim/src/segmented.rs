//! A *modern* segmented-sort baseline (beyond the paper).
//!
//! The paper's comparison point is the tagged two-pass Thrust trick (STA)
//! because, in 2016, "no dedicated GPU algorithm for sorting large numbers
//! of arrays" shipped in the mainstream libraries. That changed: CUB's
//! `DeviceSegmentedSort`, moderngpu's segmented sort and bb_segsort all
//! solve exactly this problem. This module models the standard design for
//! the paper's segment sizes (arrays that fit in shared memory): **one
//! block per segment running a shared-memory block radix sort** — no
//! global temporaries at all, so its data-handling capacity is the full
//! device (even better than GPU-ArraySort's 1.1×).
//!
//! Cost anchor: `MODERN_SEGSORT_ELEM_CYCLES` (500 cycles/element/pass
//! before warp folding) calibrates end-to-end throughput to ≈1 G
//! elements/s on a Kepler part — the ballpark published for
//! CUB/bb_segsort on segments of ~10³ keys. The experiment
//! `repro beyond` uses this to show where the paper's contribution stands
//! against the technique that superseded it.

use gpu_sim::{AccessPattern, DeviceBuffer, DeviceSpec, Gpu, LaunchConfig, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::key::RadixKey;

/// Threads per segment block.
pub(crate) const SEG_THREADS: u32 = 256;
/// Radix passes for 32-bit keys (8 bits per pass, in shared memory).
const SEG_PASSES: u64 = 4;
/// Per-element, per-pass cycle cost of a *modern* shared-memory block
/// radix sort (CUB `DeviceSegmentedSort` / bb_segsort class), calibrated
/// to ≈1 G elements/s end-to-end on a Kepler part for ~10³ element
/// segments.
const MODERN_SEGSORT_ELEM_CYCLES: f64 = 500.0;

/// Report of one segmented-sort run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegSortStats {
    /// H2D upload.
    pub upload_ms: f64,
    /// The single kernel launch.
    pub kernel_ms: f64,
    /// D2H download.
    pub download_ms: f64,
    /// Peak device bytes (= the data; the sort is fully in-shared).
    pub peak_bytes: u64,
}

impl SegSortStats {
    /// Total simulated time.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms + self.download_ms
    }
}

/// Sorts every length-`array_len` segment of `data` ascending using the
/// block-radix segmented sort. Requires the segment to fit in a block's
/// shared memory (the paper's regime; 4000-float spectra fit easily).
pub fn segmented_sort<K: RadixKey>(
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
) -> SimResult<SegSortStats> {
    if array_len == 0 || data.is_empty() || !data.len().is_multiple_of(array_len) {
        return Err(SimError::InvalidLaunch {
            reason: format!("bad batch: len {} with array_len {array_len}", data.len()),
        });
    }
    // Shared footprint: ping-pong segment buffers + digit counters.
    let elem = std::mem::size_of::<K>();
    let shared_need = (2 * array_len * elem + 256 * 4) as u32;
    if shared_need > gpu.spec().shared_mem_per_block {
        return Err(SimError::SharedMemOverflow {
            requested: shared_need,
            available: gpu.spec().shared_mem_per_block,
        });
    }
    let num_arrays = data.len() / array_len;

    let t0 = gpu.elapsed_ms();
    let dbuf = gpu.htod_copy(data)?;
    let t1 = gpu.elapsed_ms();

    run_kernel(gpu, &dbuf, num_arrays, array_len, shared_need)?;
    let t2 = gpu.elapsed_ms();
    let peak_bytes = gpu.ledger().peak();

    let mut dbuf = dbuf;
    gpu.dtoh_into(&mut dbuf, data)?;
    let t3 = gpu.elapsed_ms();

    Ok(SegSortStats {
        upload_ms: t1 - t0,
        kernel_ms: t2 - t1,
        download_ms: t3 - t2,
        peak_bytes,
    })
}

fn run_kernel<K: RadixKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    num_arrays: usize,
    array_len: usize,
    shared_need: u32,
) -> SimResult<()> {
    let dv = data.view();
    let elem_bytes = std::mem::size_of::<K>() as u32;
    let cfg = LaunchConfig::grid(num_arrays as u32, SEG_THREADS).with_shared(shared_need);
    gpu.launch("modern_segmented_sort", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * array_len;
        let per_thread = (array_len as u64).div_ceil(SEG_THREADS as u64);
        // Real data movement once per block: sort the segment by the radix
        // key order (bit order == total order).
        // SAFETY: block-exclusive segment.
        let seg = unsafe { dv.slice_mut(base, array_len) };
        seg.sort_unstable_by_key(|k| k.to_radix_bits());
        block.uniform_threads(|t| {
            // Load segment coalesced into shared, run 4 radix passes of
            // shared-memory ranking + scatter, store back coalesced.
            t.charge_global(per_thread, elem_bytes, AccessPattern::Coalesced);
            t.charge_shared(per_thread);
            for _ in 0..SEG_PASSES {
                t.charge_shared(4 * per_thread);
                t.charge_alu(6 * per_thread);
                t.charge_atomic_shared(per_thread);
            }
            // Calibrated throughput anchor (see module docs).
            t.charge_baseline_cycles(
                MODERN_SEGSORT_ELEM_CYCLES * SEG_PASSES as f64 * per_thread as f64,
            );
            t.charge_shared(per_thread);
            t.charge_global(per_thread, elem_bytes, AccessPattern::Coalesced);
        });
    })?;
    Ok(())
}

/// Largest N of `array_len`-element f32 arrays the segmented sort handles
/// on `spec` — data only, no temporaries (its Table-1 column).
pub fn max_arrays(spec: &DeviceSpec, array_len: u64) -> u64 {
    spec.usable_mem_bytes() / (array_len * 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_bills, splitmix, Bill};
    use gpu_sim::{Counters, DeviceSpec};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    #[test]
    fn sorts_each_segment() {
        let mut g = gpu();
        let (num, n) = (50, 400);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut data: Vec<f32> = (0..num * n).map(|_| rng.gen_range(-1e6f32..1e6)).collect();
        let mut expect = data.clone();
        let stats = segmented_sort(&mut g, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert!(stats.kernel_ms > 0.0);
    }

    #[test]
    fn no_global_temporaries() {
        let mut g = gpu();
        let (num, n) = (200, 1000);
        let mut data = vec![1.0f32; num * n];
        let stats = segmented_sort(&mut g, &mut data, n).unwrap();
        assert_eq!(
            stats.peak_bytes,
            (num * n * 4) as u64,
            "fully in-shared: peak = the data itself"
        );
    }

    #[test]
    fn u32_and_i32_keys_work() {
        let mut g = gpu();
        let mut du: Vec<u32> = (0..256).rev().collect();
        segmented_sort(&mut g, &mut du, 64).unwrap();
        assert!(du.chunks(64).all(|s| s.windows(2).all(|w| w[0] <= w[1])));
        let mut di: Vec<i32> = (-128..128).rev().collect();
        segmented_sort(&mut g, &mut di, 32).unwrap();
        assert!(di.chunks(32).all(|s| s.windows(2).all(|w| w[0] <= w[1])));
    }

    #[test]
    fn oversized_segment_is_rejected() {
        let mut g = gpu();
        let n = 10_000; // 2 × 40 KB ping-pong > 48 KB shared
        let mut data = vec![0.0f32; n];
        let err = segmented_sort(&mut g, &mut data, n).unwrap_err();
        assert!(matches!(err, SimError::SharedMemOverflow { .. }));
    }

    #[test]
    fn capacity_is_the_full_device() {
        let spec = DeviceSpec::tesla_k40c();
        let m = max_arrays(&spec, 1000);
        assert_eq!(m, spec.usable_mem_bytes() / 4000);
        // Strictly above GPU-ArraySort's ≈1.1×-overhead capacity.
        assert!(m > 2_681_916);
    }

    #[test]
    fn bad_shapes_rejected() {
        let mut g = gpu();
        let mut data = vec![0.0f32; 10];
        assert!(segmented_sort(&mut g, &mut data, 0).is_err());
        assert!(segmented_sort(&mut g, &mut data, 3).is_err());
        let mut empty: Vec<f32> = vec![];
        assert!(segmented_sort(&mut g, &mut empty, 4).is_err());
    }

    #[test]
    fn segmented_bills_are_pinned() {
        let n = 1000;
        let mut data = splitmix(64 * n, 0x5E6);
        let mut expect = data.clone();
        let mut g = gpu();
        segmented_sort(&mut g, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_unstable();
        }
        assert_eq!(data, expect);
        let golden = [Bill {
            name: "modern_segmented_sort",
            grid_dim: 64,
            cycles: 55_880,
            time_ms_bits: 0x3fb47b51e0f6bfe9,
            counters: Counters {
                alu: 1_572_864,
                shared_accesses: 1_179_648,
                global_elems: 131_072,
                global_txn_micro: 4_096_000_000,
                atomics_global: 0,
                atomics_shared: 262_144,
                syncs: 64,
                divergence_events: 0,
                baseline_cycles: 131_072_000,
                shared_bank_passes: 1_179_648,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        }];
        assert_bills(
            &g.timeline().kernels,
            &[("modern_segmented_sort", 64)],
            &golden,
        );
    }
}
