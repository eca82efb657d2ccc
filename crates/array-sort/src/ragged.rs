//! Ragged batches: sorting variable-length arrays (CSR layout).
//!
//! The paper evaluates on fixed-size arrays, but its motivating datasets
//! are not uniform — spectra have *up to* ~4000 peaks (§4). This module
//! generalizes the three phases to a CSR batch (`offsets[i]..offsets[i+1]`
//! is array `i`): every per-array quantity (n_i, bucket count p_i, sample
//! count s_i) is derived per block from the offset table, exactly like a
//! CUDA kernel would read its segment descriptor. Blocks with short
//! arrays finish early — the SM makespan model shows the resulting load
//! imbalance, which is itself an interesting measurement
//! (`repro ablations` does not cover it; see the `ragged_spectra`
//! example).

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::config::ArraySortConfig;
use crate::insertion::{
    charge_insertion_work, charged_staged_insertion_sort, simulated_insertion_sort,
};
use crate::key::SortKey;
use crate::pipeline::GpuArraySort;
use crate::splitters::bucket_ids;

/// Derived geometry for a CSR batch under one configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaggedGeometry {
    /// CSR element offsets; `offsets[i]..offsets[i+1]` is array `i`.
    pub offsets: Vec<usize>,
    /// Buckets per array (`max(1, n_i / target_bucket_size)`, 0 for empty).
    pub buckets: Vec<usize>,
    /// Samples per array.
    pub samples: Vec<usize>,
    /// Row starts into the splitter table (prefix of `p_i + 1`).
    pub splitter_rows: Vec<usize>,
    /// Row starts into the Z table (prefix of `p_i`).
    pub z_rows: Vec<usize>,
}

impl RaggedGeometry {
    /// Builds the geometry; `offsets` must be non-decreasing and start at 0.
    pub fn new(offsets: &[usize], config: &ArraySortConfig) -> SimResult<Self> {
        if offsets.len() < 2 || offsets[0] != 0 {
            return Err(SimError::InvalidLaunch {
                reason: "offsets must start at 0 and describe ≥1 array".into(),
            });
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(SimError::InvalidLaunch {
                reason: "offsets must be non-decreasing".into(),
            });
        }
        let num = offsets.len() - 1;
        let mut buckets = Vec::with_capacity(num);
        let mut samples = Vec::with_capacity(num);
        let mut splitter_rows = Vec::with_capacity(num + 1);
        let mut z_rows = Vec::with_capacity(num + 1);
        splitter_rows.push(0);
        z_rows.push(0);
        for i in 0..num {
            let n = offsets[i + 1] - offsets[i];
            let (p, s) = if n == 0 {
                (0, 0)
            } else {
                (config.buckets_for(n), config.samples_for(n))
            };
            buckets.push(p);
            samples.push(s);
            splitter_rows.push(splitter_rows[i] + if p == 0 { 0 } else { p + 1 });
            z_rows.push(z_rows[i] + p);
        }
        Ok(Self {
            offsets: offsets.to_vec(),
            buckets,
            samples,
            splitter_rows,
            z_rows,
        })
    }

    /// Number of arrays.
    pub fn num_arrays(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Length of array `i`.
    pub fn array_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Total elements in the batch.
    pub fn total_elems(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Splitter-table length (Σ pᵢ+1).
    pub fn splitter_table_len(&self) -> usize {
        *self.splitter_rows.last().unwrap()
    }

    /// Z-table length (Σ pᵢ).
    pub fn bucket_table_len(&self) -> usize {
        *self.z_rows.last().unwrap()
    }
}

/// Report of one ragged sort.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaggedStats {
    /// Phase times in ms (upload, p1, p2, p3, download).
    pub upload_ms: f64,
    /// Phase 1.
    pub phase1_ms: f64,
    /// Phase 2.
    pub phase2_ms: f64,
    /// Phase 3.
    pub phase3_ms: f64,
    /// Download.
    pub download_ms: f64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Worst SM load imbalance across the three launches (ragged batches
    /// make blocks uneven; 1.0 = perfectly balanced).
    pub worst_sm_imbalance: f64,
}

impl RaggedStats {
    /// Total simulated time.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.phase1_ms + self.phase2_ms + self.phase3_ms + self.download_ms
    }
}

/// Sorts every CSR segment of `data` ascending on `gpu`.
pub fn sort_ragged<K: SortKey>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    data: &mut [K],
    offsets: &[usize],
) -> SimResult<RaggedStats> {
    let config = sorter.config().clone();
    let geom = RaggedGeometry::new(offsets, &config)?;
    if geom.total_elems() != data.len() {
        return Err(SimError::InvalidLaunch {
            reason: format!(
                "offsets describe {} elements but data has {}",
                geom.total_elems(),
                data.len()
            ),
        });
    }
    if data.is_empty() {
        return Ok(RaggedStats {
            upload_ms: 0.0,
            phase1_ms: 0.0,
            phase2_ms: 0.0,
            phase3_ms: 0.0,
            download_ms: 0.0,
            peak_bytes: gpu.ledger().peak(),
            worst_sm_imbalance: 1.0,
        });
    }

    let t0 = gpu.elapsed_ms();
    let dbuf = gpu.htod_copy(data)?;
    // The offset/descriptor tables live on the device too.
    let _offs: DeviceBuffer<u32> = gpu.alloc(offsets.len())?;
    let upload_ms = gpu.elapsed_ms() - t0;
    let sbuf: DeviceBuffer<K> = gpu.alloc(geom.splitter_table_len().max(1))?;
    let zbuf: DeviceBuffer<u32> = gpu.alloc(geom.bucket_table_len().max(1))?;

    let kernels_before = gpu.timeline().kernels.len();
    let t1 = gpu.elapsed_ms();
    ragged_phase1(gpu, &dbuf, &sbuf, &geom)?;
    let t2 = gpu.elapsed_ms();
    ragged_phase2(gpu, &dbuf, &sbuf, &zbuf, &geom, &config)?;
    let t3 = gpu.elapsed_ms();
    ragged_phase3(gpu, &dbuf, &zbuf, &geom, &config)?;
    let t4 = gpu.elapsed_ms();
    let peak_bytes = gpu.ledger().peak();
    let worst_sm_imbalance = gpu.timeline().kernels[kernels_before..]
        .iter()
        .map(|k| k.sm_imbalance)
        .fold(1.0f64, f64::max);

    let mut dbuf = dbuf;
    gpu.dtoh_into(&mut dbuf, data)?;
    let download_ms = gpu.elapsed_ms() - t4;

    Ok(RaggedStats {
        upload_ms,
        phase1_ms: t2 - t1,
        phase2_ms: t3 - t2,
        phase3_ms: t4 - t3,
        download_ms,
        peak_bytes,
        worst_sm_imbalance,
    })
}

fn ragged_phase1<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    geom: &RaggedGeometry,
) -> SimResult<()> {
    let dv = data.view();
    let sv = splitters.view();
    let geom = geom.clone();
    let shared_cap = gpu.spec().shared_mem_per_block as u64;
    let cfg = LaunchConfig::grid(geom.num_arrays() as u32, 1)
        .with_shared(gpu.spec().shared_mem_per_block);
    gpu.launch("gas_ragged_phase1", cfg, move |block| {
        let i = block.block_idx() as usize;
        let n = geom.array_len(i);
        let p = geom.buckets[i];
        if p == 0 {
            return;
        }
        let s = geom.samples[i];
        let base = geom.offsets[i];
        let stride = (n / s).max(1);
        block.one_thread(|t| {
            // Read the segment descriptor, then sample (from shared if the
            // array fits, from global otherwise — decided per array here,
            // not per launch).
            t.charge_global(2, 4, AccessPattern::SingleLaneSequential);
            let fits = (n + s) as u64 * K::ELEM_BYTES as u64 <= shared_cap;
            if fits {
                t.charge_global(n as u64, K::ELEM_BYTES, AccessPattern::SingleLaneSequential);
                t.charge_shared((n + 2 * s) as u64);
            } else {
                t.charge_global(s as u64, K::ELEM_BYTES, AccessPattern::Scattered);
                t.charge_shared(s as u64);
            }
            t.charge_alu(2 * s as u64);
            let mut sample: Vec<K> = (0..s).map(|k| dv.get(base + k * stride)).collect();
            charge_insertion_work(t, simulated_insertion_sort(&mut sample));
            let row = geom.splitter_rows[i];
            sv.set(row, K::min_sentinel());
            for j in 1..p {
                sv.set(row + j, sample[j * s / p]);
            }
            sv.set(row + p, K::max_sentinel());
            t.charge_global((p + 1) as u64, K::ELEM_BYTES, AccessPattern::Scattered);
        });
    })?;
    Ok(())
}

fn ragged_phase2<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &RaggedGeometry,
    config: &ArraySortConfig,
) -> SimResult<()> {
    let dv = data.view();
    let sv = splitters.view();
    let zv = bucket_sizes.view();
    let max_p = geom.buckets.iter().copied().max().unwrap_or(1).max(1);
    let threads =
        ((max_p * config.threads_per_bucket) as u32).clamp(1, gpu.spec().max_threads_per_block);
    let shared_cap = gpu.spec().shared_mem_per_block as u64;
    let geom = geom.clone();
    let cfg = LaunchConfig::grid(geom.num_arrays() as u32, threads)
        .with_shared(gpu.spec().shared_mem_per_block);
    gpu.launch("gas_ragged_phase2", cfg, move |block| {
        let i = block.block_idx() as usize;
        let n = geom.array_len(i);
        let p = geom.buckets[i];
        if p == 0 {
            return;
        }
        let base = geom.offsets[i];
        let srow = geom.splitter_rows[i];
        let zrow = geom.z_rows[i];
        let t_count = threads as usize;
        let buckets_per_thread = p.div_ceil(t_count) as u64;
        let shared_fits = (n as u64 + p as u64 + 1) * K::ELEM_BYTES as u64 <= shared_cap;

        // Real partition, once per block.
        // SAFETY: block-exclusive segment and table rows.
        let bounds = unsafe { sv.slice(srow, p + 1) };
        let arr = unsafe { dv.slice_mut(base, n) };
        let (ids, counts) = bucket_ids(bounds, arr);
        let mut offsets_local = vec![0usize; p + 1];
        for j in 0..p {
            offsets_local[j + 1] = offsets_local[j] + counts[j] as usize;
            zv.set(zrow + j, counts[j]);
        }
        let mut staged: Vec<K> = vec![K::default(); n];
        let mut cursors = offsets_local;
        for (&x, &j) in arr.iter().zip(&ids) {
            staged[cursors[j as usize]] = x;
            cursors[j as usize] += 1;
        }
        arr.copy_from_slice(&staged);

        // Charges: count pass + stage pass + write-back; threads beyond
        // this array's p idle (ragged imbalance shows up here).
        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = (t.tid as u64 + s * t_count as u64) as usize;
                if j >= p {
                    break;
                }
                t.charge_global(n as u64, K::ELEM_BYTES, AccessPattern::Broadcast);
                t.charge_alu(3 * n as u64);
                t.charge_global(1, 4, AccessPattern::Coalesced);
            }
        });
        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = (t.tid as u64 + s * t_count as u64) as usize;
                if j >= p {
                    break;
                }
                t.charge_global(n as u64, K::ELEM_BYTES, AccessPattern::Broadcast);
                t.charge_alu(3 * n as u64);
                let matched = counts[j] as u64;
                if shared_fits {
                    t.charge_shared(matched);
                } else {
                    t.charge_global(matched, K::ELEM_BYTES, AccessPattern::Strided(4));
                }
            }
        });
        block.threads(|t| {
            let per = (n as u64).div_ceil(t_count as u64);
            if shared_fits {
                t.charge_shared(per);
            } else {
                t.charge_global(per, K::ELEM_BYTES, AccessPattern::Coalesced);
            }
            t.charge_global(per, K::ELEM_BYTES, AccessPattern::Coalesced);
        });
    })?;
    Ok(())
}

fn ragged_phase3<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &RaggedGeometry,
    config: &ArraySortConfig,
) -> SimResult<()> {
    let dv = data.view();
    let zv = bucket_sizes.view();
    let max_p = geom.buckets.iter().copied().max().unwrap_or(1).max(1);
    let threads =
        ((max_p * config.threads_per_bucket) as u32).clamp(1, gpu.spec().max_threads_per_block);
    let geom = geom.clone();
    let cfg = LaunchConfig::grid(geom.num_arrays() as u32, threads)
        .with_shared(gpu.spec().shared_mem_per_block);
    gpu.launch("gas_ragged_phase3", cfg, move |block| {
        let i = block.block_idx() as usize;
        let n = geom.array_len(i);
        let p = geom.buckets[i];
        if p == 0 {
            return;
        }
        let base = geom.offsets[i];
        let zrow = geom.z_rows[i];
        let t_count = threads as usize;
        let buckets_per_thread = p.div_ceil(t_count);

        let mut offs = vec![0usize; p + 1];
        for j in 0..p {
            offs[j + 1] = offs[j] + zv.get(zrow + j) as usize;
        }
        debug_assert_eq!(offs[p], n);

        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = t.tid as usize + s * t_count;
                if j >= p {
                    break;
                }
                let start = offs[j];
                let len = offs[j + 1] - offs[j];
                t.charge_global(1, 4, AccessPattern::Coalesced);
                t.charge_alu(4);
                if len < 2 {
                    continue;
                }
                // SAFETY: disjoint bucket range of a block-exclusive segment.
                let bucket = unsafe { dv.slice_mut(base + start, len) };
                charged_staged_insertion_sort(t, bucket);
            }
        });
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_bills, splitmix, Bill};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(gpu_sim::DeviceSpec::tesla_k40c())
    }

    fn random_ragged(seed: u64, num: usize, max_len: usize) -> (Vec<f32>, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut offsets = vec![0usize];
        for _ in 0..num {
            let len = rng.gen_range(0..=max_len);
            offsets.push(offsets.last().unwrap() + len);
        }
        let data: Vec<f32> = (0..*offsets.last().unwrap())
            .map(|_| rng.gen_range(0.0f32..1e9))
            .collect();
        (data, offsets)
    }

    fn check_sorted(data: &[f32], offsets: &[usize]) {
        for w in offsets.windows(2) {
            let seg = &data[w[0]..w[1]];
            assert!(
                seg.windows(2).all(|x| x[0] <= x[1]),
                "segment {w:?} unsorted"
            );
        }
    }

    #[test]
    fn ragged_batch_sorts_every_segment() {
        let (mut data, offsets) = random_ragged(1, 100, 800);
        let original = data.clone();
        let mut g = gpu();
        let stats = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &offsets).unwrap();
        check_sorted(&data, &offsets);
        // Multisets preserved per segment.
        for w in offsets.windows(2) {
            let mut a: Vec<u32> = original[w[0]..w[1]].iter().map(|x| x.to_bits()).collect();
            let mut b: Vec<u32> = data[w[0]..w[1]].iter().map(|x| x.to_bits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert!(stats.total_ms() > 0.0);
    }

    #[test]
    fn empty_and_tiny_segments_are_fine() {
        let data_in = vec![3.0f32, 1.0, 2.0, 9.0];
        // Segments: [], [3], [], [1,2,9], []
        let offsets = vec![0usize, 0, 1, 1, 4, 4];
        let mut data = data_in;
        let mut g = gpu();
        sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &offsets).unwrap();
        assert_eq!(data, vec![3.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn all_empty_batch() {
        let mut data: Vec<f32> = vec![];
        let offsets = vec![0usize, 0, 0];
        let mut g = gpu();
        let stats = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &offsets).unwrap();
        assert_eq!(stats.total_ms(), 0.0);
    }

    #[test]
    fn invalid_offsets_are_rejected() {
        let mut g = gpu();
        let mut data = vec![1.0f32; 4];
        let e = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &[1, 4]).unwrap_err();
        assert!(
            matches!(e, SimError::InvalidLaunch { .. }),
            "must start at 0: {e}"
        );
        let e = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &[0, 3, 2, 4]).unwrap_err();
        assert!(
            matches!(e, SimError::InvalidLaunch { .. }),
            "must be monotone: {e}"
        );
        let e = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &[0, 2]).unwrap_err();
        assert!(
            matches!(e, SimError::InvalidLaunch { .. }),
            "must cover data: {e}"
        );
        let e = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &[0]).unwrap_err();
        assert!(
            matches!(e, SimError::InvalidLaunch { .. }),
            "needs ≥1 array: {e}"
        );
    }

    #[test]
    fn skewed_lengths_show_sm_imbalance() {
        // One giant array among many tiny ones: the ragged batch's SM
        // imbalance must exceed a uniform batch's.
        let mut offsets = vec![0usize];
        for i in 0..64 {
            offsets.push(offsets.last().unwrap() + if i == 0 { 8000 } else { 50 });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut data: Vec<f32> = (0..*offsets.last().unwrap())
            .map(|_| rng.gen_range(0.0f32..1e9))
            .collect();
        let mut g = gpu();
        let ragged = sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &offsets).unwrap();
        check_sorted(&data, &offsets);

        let (mut udata, uoffsets) = {
            let mut o = vec![0usize];
            for _ in 0..64 {
                o.push(o.last().unwrap() + 170);
            }
            let d: Vec<f32> = (0..*o.last().unwrap())
                .map(|_| rng.gen_range(0.0f32..1e9))
                .collect();
            (d, o)
        };
        let mut g = gpu();
        let uniform = sort_ragged(&GpuArraySort::new(), &mut g, &mut udata, &uoffsets).unwrap();
        assert!(
            ragged.worst_sm_imbalance > uniform.worst_sm_imbalance,
            "skew {} should exceed uniform {}",
            ragged.worst_sm_imbalance,
            uniform.worst_sm_imbalance
        );
    }

    #[test]
    fn ragged_bills_are_pinned() {
        // Golden bills of one spectra-shaped batch (the `ragged_spectra`
        // example's lengths, 300–1499 peaks, m/z-like keys from a
        // SplitMix stream): any change that moves a simulated cycle,
        // millisecond or counter of a ragged launch fails here.
        let mut offsets = vec![0usize];
        for i in 0..40usize {
            offsets.push(offsets.last().unwrap() + 300 + i * 2_654_435_761 % 1200);
        }
        let total = *offsets.last().unwrap();
        let original: Vec<f32> = splitmix(total, 0xA77)
            .map(|z| 100.0 + (z >> 40) as f32 / 8192.0)
            .collect();
        let mut data = original.clone();
        let mut g = gpu();
        sort_ragged(&GpuArraySort::new(), &mut g, &mut data, &offsets).unwrap();
        for w in offsets.windows(2) {
            let mut expect = original[w[0]..w[1]].to_vec();
            expect.sort_by(f32::total_cmp);
            assert!(data[w[0]..w[1]]
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert_bills("spectra batch", &g.timeline().kernels, &SPECTRA);
    }

    #[rustfmt::skip]
    const SPECTRA: [Bill; 3] = [
        ("gas_ragged_phase1", 120609, 0x3fc55cb17c6aac04, [83422, 269367, 33680, 5627500000, 0, 0, 40, 0, 0, 269367, 0, 0, 0]),
        ("gas_ragged_phase2", 31461, 0x3fa82e780f3d8c16, [8962860, 65196, 3022416, 94450500000, 0, 0, 120, 0, 0, 65196, 0, 0, 0]),
        ("gas_ragged_phase3", 61315, 0x3fb6596cbc86a54c, [257029, 815775, 65540, 64009375000, 0, 0, 40, 0, 0, 815775, 0, 0, 0]),
    ];

    #[test]
    fn geometry_tables_are_consistent() {
        let cfg = ArraySortConfig::default();
        let g = RaggedGeometry::new(&[0, 100, 100, 500, 520], &cfg).unwrap();
        assert_eq!(g.num_arrays(), 4);
        assert_eq!(g.array_len(0), 100);
        assert_eq!(g.array_len(1), 0);
        assert_eq!(g.buckets, vec![5, 0, 20, 1]);
        assert_eq!(g.splitter_table_len(), 6 + 21 + 2);
        assert_eq!(g.bucket_table_len(), 5 + 20 + 1);
    }
}
