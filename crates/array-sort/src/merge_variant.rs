//! The m-way-merge alternative the paper argues *against* (§2, §4.1):
//! skip splitter selection entirely, let each thread sort a fixed
//! equal-size chunk of its array, then merge the sorted runs.
//!
//! "Advantage of sample sort over m-way merge sort is that there is no
//! need of putting in extra effort for a merge stage" — this module makes
//! that claim measurable. The trade is explicit:
//!
//! * **wins**: no Phase 1 (no sampling, no sample sort, no splitter
//!   table), perfectly equal chunks (no balance risk, no adversarial
//!   splitter collapse);
//! * **loses**: ⌈log₂ p⌉ merge passes, each touching all n elements, and
//!   a ping-pong staging area (shared memory when the array fits — the
//!   same criterion as Phase 2's in-place staging — otherwise a bounded
//!   global scratch).
//!
//! The `merge_variant` row of `repro ablations` quantifies where each
//! side wins.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::config::ArraySortConfig;
use crate::insertion::charged_staged_insertion_sort;
use crate::key::SortKey;

/// Report of one merge-variant run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergeVariantStats {
    /// H2D upload.
    pub upload_ms: f64,
    /// Chunk-sort kernel (the analogue of Phase 3, without Phases 1–2).
    pub chunk_sort_ms: f64,
    /// Merge kernel (the "extra effort" the paper avoids).
    pub merge_ms: f64,
    /// D2H download.
    pub download_ms: f64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Merge passes executed (⌈log₂ p⌉).
    pub merge_passes: u32,
}

impl MergeVariantStats {
    /// Total simulated time.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms() + self.download_ms
    }

    /// Kernel time only.
    pub fn kernel_ms(&self) -> f64 {
        self.chunk_sort_ms + self.merge_ms
    }
}

/// Sorts every length-`array_len` segment by the chunk-sort + m-way-merge
/// strategy (same chunk count as GPU-ArraySort's bucket count, for an
/// apples-to-apples comparison).
pub fn merge_sort_arrays<K: SortKey>(
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
    config: &ArraySortConfig,
) -> SimResult<MergeVariantStats> {
    if array_len == 0 || data.is_empty() || !data.len().is_multiple_of(array_len) {
        return Err(SimError::InvalidLaunch {
            reason: format!("bad batch: len {} with array_len {array_len}", data.len()),
        });
    }
    let num_arrays = data.len() / array_len;
    let p = config.buckets_for(array_len);
    let threads = (p as u32).clamp(1, gpu.spec().max_threads_per_block);

    let t0 = gpu.elapsed_ms();
    let dbuf = gpu.htod_copy(data)?;
    let t1 = gpu.elapsed_ms();

    // Staging for the merge passes: shared when the array fits, else a
    // bounded global scratch (resident blocks × n) — accounted, like
    // Phase 2's fallback.
    let shared_fits =
        (array_len * K::ELEM_BYTES as usize) as u32 <= gpu.spec().shared_mem_per_block;
    let _scratch: Option<DeviceBuffer<K>> = if shared_fits {
        None
    } else {
        let resident = (gpu.spec().sm_count * gpu.spec().max_blocks_per_sm) as usize;
        Some(gpu.alloc(resident.min(num_arrays) * array_len)?)
    };

    chunk_sort_kernel::<K>(gpu, &dbuf, num_arrays, array_len, p, threads)?;
    let t2 = gpu.elapsed_ms();
    let merge_passes =
        merge_kernel::<K>(gpu, &dbuf, num_arrays, array_len, p, threads, shared_fits)?;
    let t3 = gpu.elapsed_ms();
    let peak_bytes = gpu.ledger().peak();

    let mut dbuf = dbuf;
    gpu.dtoh_into(&mut dbuf, data)?;
    let t4 = gpu.elapsed_ms();

    Ok(MergeVariantStats {
        upload_ms: t1 - t0,
        chunk_sort_ms: t2 - t1,
        merge_ms: t3 - t2,
        download_ms: t4 - t3,
        peak_bytes,
        merge_passes,
    })
}

/// Kernel 1: thread `j` insertion-sorts chunk `j` (contiguous n/p
/// elements) of its block's array.
fn chunk_sort_kernel<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    num_arrays: usize,
    n: usize,
    p: usize,
    threads: u32,
) -> SimResult<()> {
    let dv = data.view();
    let elem_bytes = K::ELEM_BYTES;
    let shared_want = (n * elem_bytes as usize).min(gpu.spec().shared_mem_per_block as usize);
    let cfg = LaunchConfig::grid(num_arrays as u32, threads).with_shared(shared_want as u32);
    gpu.launch("merge_variant_chunk_sort", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let t_count = threads as usize;
        let chunks_per_thread = p.div_ceil(t_count);
        block.threads(|t| {
            for s in 0..chunks_per_thread {
                let j = t.tid as usize + s * t_count;
                if j >= p {
                    break;
                }
                let start = j * n / p;
                let end = (j + 1) * n / p;
                let len = end - start;
                if len < 2 {
                    continue;
                }
                // SAFETY: disjoint chunk of a block-exclusive array.
                let chunk = unsafe { dv.slice_mut(base + start, len) };
                charged_staged_insertion_sort(t, chunk);
            }
        });
    })?;
    Ok(())
}

/// Kernel 2: ⌈log₂ p⌉ pairwise merge passes. Pass `k` merges runs of
/// `2ᵏ` chunks; each active thread owns one output run and walks both
/// inputs sequentially — the active thread count halves every pass, the
/// classic load-imbalance of the merge stage.
#[allow(clippy::too_many_arguments)]
fn merge_kernel<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    num_arrays: usize,
    n: usize,
    p: usize,
    threads: u32,
    shared_fits: bool,
) -> SimResult<u32> {
    let dv = data.view();
    let elem_bytes = K::ELEM_BYTES;
    let passes = usize::BITS - (p - 1).leading_zeros();
    if passes == 0 {
        return Ok(0);
    }
    let shared_want = (n * elem_bytes as usize).min(gpu.spec().shared_mem_per_block as usize);
    let cfg = LaunchConfig::grid(num_arrays as u32, threads).with_shared(shared_want as u32);
    gpu.launch("merge_variant_merge", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let t_count = threads as usize;

        // Real work once per block: perform the pairwise merge passes on
        // run boundaries identical to the charged schedule.
        // SAFETY: block-exclusive segment.
        let arr = unsafe { dv.slice_mut(base, n) };
        let mut boundaries: Vec<usize> = (0..=p).map(|j| j * n / p).collect();
        let mut scratch: Vec<K> = vec![K::default(); n];
        for _pass in 0..passes {
            let mut next = Vec::with_capacity(boundaries.len() / 2 + 1);
            next.push(0);
            let mut bi = 0;
            while bi + 2 < boundaries.len() {
                let (a, m, b) = (boundaries[bi], boundaries[bi + 1], boundaries[bi + 2]);
                merge_runs(&arr[a..m], &arr[m..b], &mut scratch[a..b]);
                arr[a..b].copy_from_slice(&scratch[a..b]);
                next.push(b);
                bi += 2;
            }
            if bi + 2 == boundaries.len() {
                next.push(boundaries[bi + 1]); // odd run carried over
            }
            boundaries = next;
        }

        // Charged schedule: per pass, each active thread reads both input
        // runs sequentially and writes the merged run.
        for pass in 0..passes {
            let run = (n / p).max(1) << (pass + 1); // output run length
            let active = n.div_ceil(run); // threads doing work this pass
            block.threads(|t| {
                if (t.tid as usize) < active.min(t_count) {
                    let len = run.min(n) as u64;
                    // Sequential reads of two runs + writes of one: via
                    // shared when the array fits, global otherwise.
                    if shared_fits {
                        t.charge_shared(3 * len);
                    } else {
                        t.charge_global(2 * len, elem_bytes, AccessPattern::SingleLaneSequential);
                        t.charge_global(len, elem_bytes, AccessPattern::SingleLaneSequential);
                    }
                    t.charge_alu(2 * len); // compare + advance per element
                }
            });
        }
    })?;
    Ok(passes)
}

/// Stable two-run merge into `out` (len = a.len() + b.len()).
fn merge_runs<K: SortKey>(a: &[K], b: &[K], out: &mut [K]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut ia, mut ib) = (0, 0);
    for slot in out.iter_mut() {
        if ia < a.len() && (ib >= b.len() || !b[ib].lt(a[ia])) {
            *slot = a[ia];
            ia += 1;
        } else {
            *slot = b[ib];
            ib += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    #[test]
    fn merge_variant_sorts_correctly() {
        let mut g = gpu();
        let (num, n) = (60, 500);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let mut data: Vec<f32> = (0..num * n).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let mut expect = data.clone();
        let stats = merge_sort_arrays(&mut g, &mut data, n, &ArraySortConfig::default()).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert_eq!(stats.merge_passes, 5, "p=25 chunks → ⌈log₂ 25⌉ = 5 passes");
        assert!(stats.merge_ms > 0.0);
    }

    #[test]
    fn merge_runs_is_stable_and_total() {
        let a = [1.0f32, 3.0, 3.0, 9.0];
        let b = [2.0f32, 3.0, 8.0];
        let mut out = [0.0f32; 7];
        merge_runs(&a, &b, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 3.0, 3.0, 8.0, 9.0]);
        // Empty sides.
        let mut out1 = [0.0f32; 4];
        merge_runs(&a, &[], &mut out1);
        assert_eq!(out1, a);
        let mut out2 = [0.0f32; 3];
        merge_runs(&[], &b, &mut out2);
        assert_eq!(out2, b);
    }

    #[test]
    fn single_chunk_arrays_skip_the_merge() {
        let mut g = gpu();
        let mut data = vec![3.0f32, 1.0, 2.0];
        let stats = merge_sort_arrays(&mut g, &mut data, 3, &ArraySortConfig::default()).unwrap();
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
        assert_eq!(stats.merge_passes, 0, "p = 1: nothing to merge");
        assert_eq!(stats.merge_ms, 0.0);
    }

    #[test]
    fn merge_stage_costs_what_the_paper_says_it_costs() {
        // The paper's §4.1 claim: sample sort avoids merge effort. The
        // merge variant must pay a nonzero, growing merge bill.
        let mut g = gpu();
        let n = 2000usize;
        let mut d1: Vec<f32> = (0..(n * 20) as u64)
            .map(|x| (x * 2654435761 % 1000) as f32)
            .collect();
        let s1 = merge_sort_arrays(&mut g, &mut d1, n, &ArraySortConfig::default()).unwrap();
        assert!(
            s1.merge_ms > 0.3 * s1.chunk_sort_ms,
            "the merge stage is substantial: merge {} vs chunks {}",
            s1.merge_ms,
            s1.chunk_sort_ms
        );
    }

    #[test]
    fn duplicates_and_presorted_inputs_work() {
        let mut g = gpu();
        let mut dups = vec![5.0f32; 300];
        merge_sort_arrays(&mut g, &mut dups, 100, &ArraySortConfig::default()).unwrap();
        assert!(dups.iter().all(|&x| x == 5.0));
        let mut sorted: Vec<f32> = (0..400).map(|x| x as f32).collect();
        let expect = sorted.clone();
        merge_sort_arrays(&mut g, &mut sorted, 400, &ArraySortConfig::default()).unwrap();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn bad_shapes_rejected() {
        let mut g = gpu();
        let mut d = vec![1.0f32; 10];
        assert!(merge_sort_arrays(&mut g, &mut d, 0, &ArraySortConfig::default()).is_err());
        assert!(merge_sort_arrays(&mut g, &mut d, 3, &ArraySortConfig::default()).is_err());
    }
}
