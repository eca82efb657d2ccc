//! The host-side pipeline: upload → Phase 1 → Phase 2 → Phase 3 →
//! download, with timing breakdown and memory accounting.
//!
//! This is the crate's main entry point. [`GpuArraySort::sort`] matches
//! the paper's end-to-end measurement (Figs. 4–7 time everything the
//! algorithm does on device-resident data); [`GpuArraySort::sort_device`]
//! exposes the device-to-device core for composition (the out-of-core
//! extension pipelines it against transfers).

use gpu_sim::{DeviceBuffer, Gpu, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::bucketing::{bucket_arrays, bucket_balance, BalanceStats, StagingStrategy};
use crate::config::{ArraySortConfig, ConfigError, SplitterPolicy};
use crate::geometry::{max_arrays, BatchGeometry, GasMemoryPlan};
use crate::key::SortKey;
use crate::resplit::{detect_overflow, resplit_overflowing, BucketSeg, OverflowReport};
use crate::sorting::sort_buckets_refined;
use crate::splitters::{select_splitters_with, Phase1Strategy};

/// The GPU-ArraySort algorithm, parameterized by an [`ArraySortConfig`].
///
/// ```
/// use gpu_sim::{DeviceSpec, Gpu};
/// use array_sort::GpuArraySort;
///
/// let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
/// // Three arrays of four floats, flattened.
/// let mut data = vec![4.0f32, 2.0, 3.0, 1.0, 9.0, 8.0, 7.0, 6.0, 0.5, 0.25, 1.0, 0.75];
/// let sorter = GpuArraySort::new();
/// let stats = sorter.sort(&mut gpu, &mut data, 4).unwrap();
/// assert_eq!(&data[..4], &[1.0, 2.0, 3.0, 4.0]);
/// assert!(stats.total_ms() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpuArraySort {
    config: ArraySortConfig,
}

/// Timing/footprint report of one [`GpuArraySort::sort`] run (simulated
/// milliseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GasStats {
    /// H2D upload of the batch.
    pub upload_ms: f64,
    /// Phase 1 (splitter selection).
    pub phase1_ms: f64,
    /// Phase 2 (bucketing + in-place write-back).
    pub phase2_ms: f64,
    /// Phase 3 (per-bucket insertion sort).
    pub phase3_ms: f64,
    /// D2H download of the sorted batch.
    pub download_ms: f64,
    /// Peak device memory over the run.
    pub peak_bytes: u64,
    /// Phase-1 strategy taken.
    pub phase1_strategy: Phase1Strategy,
    /// Phase-2 staging path taken.
    pub staging: StagingStrategy,
    /// Bucket-size distribution after Phase 2 (pre-recovery: the `Z`
    /// table's evidence, even when a re-split repaired it).
    pub balance: BalanceStats,
    /// Geometry the run used.
    pub geometry: BatchGeometry,
    /// Re-split pass between Phases 2 and 3; 0 unless the deterministic
    /// policy repaired an overflow.
    #[serde(default)]
    pub resplit_ms: f64,
    /// Bucket-overflow detection (always on) and recovery accounting.
    #[serde(default)]
    pub overflow: OverflowReport,
}

impl GasStats {
    /// Total simulated wall time, transfers included.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms() + self.download_ms
    }

    /// Device-side time only (the kernel phases, re-split included).
    pub fn kernel_ms(&self) -> f64 {
        self.phase1_ms + self.phase2_ms + self.resplit_ms + self.phase3_ms
    }
}

/// Device-side run report (no transfers), returned by
/// [`GpuArraySort::sort_device`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceRunStats {
    /// Phase 1 (splitter selection).
    pub phase1_ms: f64,
    /// Phase 2 (bucketing).
    pub phase2_ms: f64,
    /// Phase 3 (bucket sort).
    pub phase3_ms: f64,
    /// Phase-1 strategy taken.
    pub phase1_strategy: Phase1Strategy,
    /// Phase-2 staging path taken.
    pub staging: StagingStrategy,
    /// Bucket-size distribution after Phase 2 (pre-recovery).
    pub balance: BalanceStats,
    /// Re-split pass between Phases 2 and 3; 0 unless the deterministic
    /// policy repaired an overflow.
    #[serde(default)]
    pub resplit_ms: f64,
    /// Bucket-overflow detection (always on) and recovery accounting.
    #[serde(default)]
    pub overflow: OverflowReport,
}

impl DeviceRunStats {
    /// Total kernel time.
    pub fn kernel_ms(&self) -> f64 {
        self.phase1_ms + self.phase2_ms + self.resplit_ms + self.phase3_ms
    }
}

impl GpuArraySort {
    /// Sorter with the paper's default configuration (20-element buckets,
    /// 10 % sampling, one thread per bucket).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorter with an explicit configuration; validates the knobs.
    pub fn with_config(config: ArraySortConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &ArraySortConfig {
        &self.config
    }

    /// Geometry this sorter derives for a batch shape.
    pub fn geometry(&self, num_arrays: usize, array_len: usize) -> BatchGeometry {
        BatchGeometry::new(num_arrays, array_len, &self.config)
    }

    /// Memory plan for a batch shape on a device.
    pub fn memory_plan(&self, num_arrays: usize, array_len: usize, gpu: &Gpu) -> GasMemoryPlan {
        GasMemoryPlan::new(&self.geometry(num_arrays, array_len), 4, gpu.spec())
    }

    /// Largest N of `array_len`-float arrays this sorter can hold on
    /// `spec` — the GPU-ArraySort column of Table 1.
    pub fn max_arrays(&self, spec: &gpu_sim::DeviceSpec, array_len: usize) -> u64 {
        max_arrays(spec, array_len, &self.config)
    }

    /// Sorts every length-`array_len` segment of `data` ascending, end to
    /// end: upload, three kernel phases, download.
    pub fn sort<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &mut [K],
        array_len: usize,
    ) -> SimResult<GasStats> {
        if array_len == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "array_len must be positive".into(),
            });
        }
        if !data.len().is_multiple_of(array_len) {
            return Err(SimError::InvalidLaunch {
                reason: format!(
                    "data length {} is not a multiple of array_len {array_len}",
                    data.len()
                ),
            });
        }
        if data.is_empty() {
            return Err(SimError::InvalidLaunch {
                reason: "empty batch".into(),
            });
        }
        let geom = self.geometry(data.len() / array_len, array_len);
        let t0 = gpu.elapsed_ms();
        let up = gpu.begin_span("gas/upload");
        let mut dbuf = gpu.htod_copy(data)?;
        gpu.end_span(up);
        let upload_ms = gpu.elapsed_ms() - t0;

        let (dev, peak_bytes) = self.run_phases(gpu, &dbuf, &geom)?;

        let t3 = gpu.elapsed_ms();
        let down = gpu.begin_span("gas/download");
        gpu.dtoh_into(&mut dbuf, data)?;
        gpu.end_span(down);
        let download_ms = gpu.elapsed_ms() - t3;

        Ok(GasStats {
            upload_ms,
            phase1_ms: dev.phase1_ms,
            phase2_ms: dev.phase2_ms,
            phase3_ms: dev.phase3_ms,
            download_ms,
            peak_bytes,
            phase1_strategy: dev.phase1_strategy,
            staging: dev.staging,
            balance: dev.balance,
            geometry: geom,
            resplit_ms: dev.resplit_ms,
            overflow: dev.overflow,
        })
    }

    /// Sorts a batch already resident on the device (in place), returning
    /// the per-phase breakdown. `data.len()` must equal
    /// `geom.total_elems()`.
    pub fn sort_device<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<DeviceRunStats> {
        let (stats, _) = self.run_phases(gpu, data, geom)?;
        Ok(stats)
    }

    fn run_phases<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<(DeviceRunStats, u64)> {
        // Auxiliary tables: splitters S and bucket sizes Z — the only
        // allocations beyond the data itself (the in-place story).
        let sbuf: DeviceBuffer<K> = gpu.alloc(geom.splitter_table_len())?;
        let mut zbuf: DeviceBuffer<u32> = gpu.alloc(geom.bucket_table_len())?;

        let policy = self.config.splitter_policy;
        let t0 = gpu.elapsed_ms();
        let s1 = gpu.begin_span("gas/phase1-splitters");
        let (_, phase1_strategy) = select_splitters_with(gpu, data, &sbuf, geom, policy)?;
        gpu.end_span(s1);
        let t1 = gpu.elapsed_ms();
        let s2 = gpu.begin_span("gas/phase2-bucket-scatter");
        let outcome = bucket_arrays(gpu, data, &sbuf, &zbuf, geom, &self.config)?;
        gpu.end_span(s2);
        let t2 = gpu.elapsed_ms();

        // Overflow detection is always on; the deterministic policy also
        // arms the bounded recursive re-split of overflowing buckets, so
        // Phase 3 never receives an oversized non-tie segment.
        let zhost: Vec<u32> = zbuf.as_slice().to_vec();
        let mut overflow = detect_overflow(&zhost, geom);
        let mut refined: Vec<Option<Vec<BucketSeg>>> = Vec::new();
        if policy == SplitterPolicy::Deterministic && overflow.overflowed_buckets > 0 {
            let sr = gpu.begin_span("gas/resplit");
            let out = resplit_overflowing(gpu, data, &zhost, geom)?;
            gpu.end_span(sr);
            overflow = out.report;
            refined = out.segments;
        }
        let t2r = gpu.elapsed_ms();

        let s3 = gpu.begin_span("gas/phase3-bucket-sort");
        sort_buckets_refined(gpu, data, &zbuf, geom, &self.config, refined)?;
        gpu.end_span(s3);
        let t3 = gpu.elapsed_ms();

        let balance = bucket_balance(&mut zbuf, geom);
        let peak = gpu.ledger().peak();
        Ok((
            DeviceRunStats {
                phase1_ms: t1 - t0,
                phase2_ms: t2 - t1,
                phase3_ms: t3 - t2r,
                phase1_strategy,
                staging: outcome.staging,
                balance,
                resplit_ms: t2r - t2,
                overflow,
            },
            peak,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_bills, skew_batch, Bill};
    use gpu_sim::DeviceSpec;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    fn random(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n)
            .map(|_| rng.gen_range(0.0f32..2.147e9))
            .collect()
    }

    #[test]
    fn end_to_end_sorts_paper_shaped_batch() {
        let mut g = gpu();
        let (num, n) = (100, 1000);
        let mut data = random(num, n, 1);
        let mut expect = data.clone();
        let stats = GpuArraySort::new().sort(&mut g, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert_eq!(stats.geometry.buckets_per_array, 50);
        assert_eq!(stats.phase1_strategy, Phase1Strategy::SharedCopy);
        assert_eq!(stats.staging, StagingStrategy::Shared);
        assert!(stats.phase1_ms > 0.0 && stats.phase2_ms > 0.0 && stats.phase3_ms > 0.0);
        assert!(stats.total_ms() >= stats.kernel_ms());
    }

    #[test]
    fn memory_overhead_is_near_in_place() {
        let mut g = gpu();
        let (num, n) = (200, 1000);
        let mut data = random(num, n, 2);
        let stats = GpuArraySort::new().sort(&mut g, &mut data, n).unwrap();
        let data_bytes = (num * n * 4) as u64;
        let overhead = stats.peak_bytes as f64 / data_bytes as f64;
        assert!(
            (1.0..1.2).contains(&overhead),
            "GPU-ArraySort must stay near in-place, got {overhead}×"
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut g = gpu();
        let mut data = vec![1.0f32; 10];
        assert!(GpuArraySort::new().sort(&mut g, &mut data, 0).is_err());
        assert!(GpuArraySort::new().sort(&mut g, &mut data, 3).is_err());
        let mut empty: Vec<f32> = vec![];
        assert!(GpuArraySort::new().sort(&mut g, &mut empty, 4).is_err());
    }

    #[test]
    fn adversarial_distributions_still_sort() {
        let mut g = gpu();
        let n = 200;
        // Constant, few-distinct, already-sorted, reversed, with NaN/inf.
        let mut batches: Vec<Vec<f32>> = vec![
            vec![5.0; n * 3],
            (0..n * 3).map(|i| (i % 4) as f32).collect(),
            (0..n * 3).map(|i| i as f32).collect(),
            (0..n * 3).rev().map(|i| i as f32).collect(),
        ];
        let mut special: Vec<f32> = (0..n * 3).map(|i| i as f32).collect();
        special[7] = f32::NAN;
        special[100] = f32::INFINITY;
        special[333] = f32::NEG_INFINITY;
        batches.push(special);

        for mut data in batches.drain(..) {
            let mut expect = data.clone();
            GpuArraySort::new().sort(&mut g, &mut data, n).unwrap();
            for seg in expect.chunks_mut(n) {
                seg.sort_by(f32::total_cmp);
            }
            let a: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sort_device_composes_with_external_buffers() {
        let mut g = gpu();
        let (num, n) = (20, 256);
        let data = random(num, n, 3);
        let sorter = GpuArraySort::new();
        let geom = sorter.geometry(num, n);
        let dbuf = g.htod_copy(&data).unwrap();
        let dev = sorter.sort_device(&mut g, &dbuf, &geom).unwrap();
        assert!(dev.kernel_ms() > 0.0);
        let mut dbuf = dbuf;
        let out = dbuf.to_host_vec();
        for seg in out.chunks(n) {
            assert!(seg.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn custom_config_flows_through() {
        let cfg = ArraySortConfig {
            target_bucket_size: 40,
            ..Default::default()
        };
        let sorter = GpuArraySort::with_config(cfg).unwrap();
        let geom = sorter.geometry(10, 1000);
        assert_eq!(geom.buckets_per_array, 25);
        let bad = ArraySortConfig {
            sampling_rate: 0.0,
            ..Default::default()
        };
        assert!(GpuArraySort::with_config(bad).is_err());
    }

    #[test]
    fn bigger_batches_take_longer() {
        let mut g = gpu();
        let n = 500;
        let mut d1 = random(20, n, 4);
        let s1 = GpuArraySort::new().sort(&mut g, &mut d1, n).unwrap();
        let mut d2 = random(200, n, 4);
        let s2 = GpuArraySort::new().sort(&mut g, &mut d2, n).unwrap();
        assert!(s2.kernel_ms() > s1.kernel_ms());
    }

    #[test]
    fn sort_emits_contiguous_spans_summing_to_elapsed() {
        let mut g = gpu();
        let (num, n) = (50, 500);
        let mut data = random(num, n, 7);
        GpuArraySort::new().sort(&mut g, &mut data, n).unwrap();
        let spans = &g.timeline().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "gas/upload",
                "gas/phase1-splitters",
                "gas/phase2-bucket-scatter",
                "gas/phase3-bucket-sort",
                "gas/download"
            ]
        );
        for w in spans.windows(2) {
            assert!(
                (w[1].start_ms - w[0].end_ms).abs() < 1e-9,
                "spans must be contiguous: {} ends {} but {} starts {}",
                w[0].name,
                w[0].end_ms,
                w[1].name,
                w[1].start_ms
            );
        }
        let total: f64 = spans.iter().map(|s| s.duration_ms()).sum();
        assert!(
            (total - g.elapsed_ms()).abs() < 1e-6,
            "span durations {total} must sum to elapsed {}",
            g.elapsed_ms()
        );
    }

    /// Adversarial input for regular sampling: every sampled position
    /// (stride n/s = 10 with the defaults) holds the minimum value, so
    /// the splitters collapse and one bucket swallows ~90 % of the array.
    fn splitter_collapse(n: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect()
    }

    fn det_sorter() -> GpuArraySort {
        GpuArraySort::with_config(ArraySortConfig {
            splitter_policy: crate::config::SplitterPolicy::Deterministic,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn regular_sampling_detects_but_does_not_repair_overflow() {
        let mut g = gpu();
        let n = 1000;
        let mut data = splitter_collapse(n);
        let mut expect = data.clone();
        let stats = GpuArraySort::new().sort(&mut g, &mut data, n).unwrap();
        expect.sort_by(f32::total_cmp);
        assert_eq!(data, expect, "correctness never depends on balance");
        assert!(stats.overflow.overflowed_buckets >= 1);
        assert!(stats.overflow.pre_max > stats.overflow.limit);
        assert_eq!(
            stats.overflow.post_max_sortable, stats.overflow.pre_max,
            "detection only: the blown bucket reaches Phase 3 unrepaired"
        );
        assert_eq!(
            stats.resplit_ms, 0.0,
            "no re-split pass under the paper's policy"
        );
    }

    #[test]
    fn deterministic_policy_repairs_overflow_and_still_sorts() {
        let mut g = gpu();
        let n = 1000;
        let mut data = splitter_collapse(n);
        let mut expect = data.clone();
        let stats = det_sorter().sort(&mut g, &mut data, n).unwrap();
        expect.sort_by(f32::total_cmp);
        assert_eq!(data, expect);
        // The ~100 zeros form an all-equal run that no value-based
        // splitter can cut: it overflows the 2·⌈n/p⌉ = 40 limit, the
        // re-split quarantines it as a tie segment, and every non-tie
        // segment Phase 3 receives respects the bound.
        assert!(
            stats.overflow.post_max_sortable <= stats.overflow.limit,
            "non-tie segments must respect 2·⌈n/p⌉: {:?}",
            stats.overflow
        );
        if stats.overflow.overflowed_buckets > 0 {
            assert!(stats.resplit_ms > 0.0, "recovery work is on the bill");
            assert!(stats.overflow.resplit_segments > 0);
            assert!(stats.kernel_ms() >= stats.resplit_ms);
        }
    }

    #[test]
    fn deterministic_policy_has_no_overflow_on_uniform_data() {
        let mut g = gpu();
        let (num, n) = (30, 1000);
        let mut data = random(num, n, 21);
        let mut expect = data.clone();
        let stats = det_sorter().sort(&mut g, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert_eq!(
            stats.overflow.overflowed_buckets, 0,
            "deterministic selection bounds every bucket on distinct keys"
        );
        assert_eq!(stats.resplit_ms, 0.0);
        assert!(stats.overflow.post_max_sortable <= stats.overflow.limit);
    }

    #[test]
    fn deterministic_policy_handles_all_equal_and_adversarial_batches() {
        let mut g = gpu();
        let n = 200;
        let sorter = det_sorter();
        let mut batches: Vec<Vec<f32>> = vec![
            vec![5.0; n * 3],
            (0..n * 3).map(|i| (i % 4) as f32).collect(),
            (0..n * 3).map(|i| i as f32).collect(),
            (0..n * 3).rev().map(|i| i as f32).collect(),
        ];
        let mut special: Vec<f32> = (0..n * 3).map(|i| i as f32).collect();
        special[7] = f32::NAN;
        special[100] = f32::INFINITY;
        special[333] = f32::NEG_INFINITY;
        batches.push(special);

        for mut data in batches.drain(..) {
            let mut expect = data.clone();
            let stats = sorter.sort(&mut g, &mut data, n).unwrap();
            for seg in expect.chunks_mut(n) {
                seg.sort_by(f32::total_cmp);
            }
            let a: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b);
            assert!(
                stats.overflow.post_max_sortable <= stats.overflow.limit,
                "bound must hold on every adversarial batch: {:?}",
                stats.overflow
            );
        }
    }

    #[test]
    fn oom_propagates_from_auxiliary_tables() {
        // Batch data fits, but S and Z cannot be allocated on top.
        let mut g = Gpu::new(DeviceSpec::test_device()); // 60 MiB usable
        let n = 1000;
        let num = 15_000; // 60 MB data: fills the device
        let mut data = vec![0.0f32; n * num];
        let err = GpuArraySort::new().sort(&mut g, &mut data, n).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    /// The launches of one run on a fresh device, after checking that it
    /// sorted every array of `n` keys.
    fn launches_of(
        data: &[f32],
        n: usize,
        run: impl FnOnce(&mut Gpu, &mut Vec<f32>),
    ) -> Vec<gpu_sim::KernelStats> {
        let mut g = gpu();
        let mut out = data.to_vec();
        run(&mut g, &mut out);
        for (got, array) in out.chunks(n).zip(data.chunks(n)) {
            let mut expect = array.to_vec();
            expect.sort_by(f32::total_cmp);
            assert!(got
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        g.timeline().kernels.clone()
    }

    #[test]
    fn three_kernel_bills_are_pinned() {
        // Golden bills: any change that moves a simulated cycle,
        // millisecond or counter of a three-kernel launch fails here.
        // Input: uniform data and the five skew shapes, twice each.
        let n = 1000;
        let data = skew_batch(12, n, 0x3C0DE);
        let regular = launches_of(&data, n, |g, d| {
            GpuArraySort::new().sort(g, d, n).unwrap();
        });
        let det = launches_of(&data, n, |g, d| {
            det_sorter().sort(g, d, n).unwrap();
        });
        assert_bills("regular sampling", &regular, &REGULAR);
        assert_bills("deterministic", &det, &DET);
    }

    #[rustfmt::skip]
    const REGULAR: [Bill; 3] = [
        ("gas_phase1_splitters", 26732, 0x3fa4ee783c47a927, [19353, 61843, 12612, 2112000000, 0, 0, 12, 0, 0, 61843, 0, 0, 0]),
        ("gas_phase2_bucketing", 10137, 0x3f930da343f53684, [3603600, 32400, 1213800, 37931250000, 0, 0, 60, 0, 0, 32400, 0, 0, 32]),
        ("gas_phase3_bucket_sort", 80129, 0x3fbcd0735ea7f53f, [41115, 131861, 24600, 24018750000, 0, 0, 12, 0, 0, 131861, 0, 0, 0]),
    ];
    #[rustfmt::skip]
    const DET: [Bill; 4] = [
        ("gas_phase1_splitters_det", 85840, 0x3fbec6d5ade337d2, [136938, 307014, 12612, 2112000000, 0, 0, 12, 0, 0, 307014, 0, 0, 0]),
        ("gas_phase2_bucketing", 10137, 0x3f930da343f53684, [3603600, 32400, 1213800, 37931250000, 0, 0, 60, 0, 0, 32400, 0, 0, 18]),
        ("gas_resplit", 13003, 0x3f96fe19b6ce2873, [6768, 13536, 13572, 1696500000, 0, 0, 8, 0, 0, 13536, 0, 0, 0]),
        ("gas_phase3_bucket_sort", 2783, 0x3f81e3f46bd666f9, [19257, 60950, 10654, 10267125000, 0, 0, 12, 0, 0, 60950, 0, 0, 0]),
    ];
}
