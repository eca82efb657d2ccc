//! `gas-warp` — the single-kernel fusion of the paper's three-launch
//! pipeline (an optimisation *beyond* the paper; the three-kernel path in
//! [`crate::pipeline`] stays the faithful default).
//!
//! Motivation (see `gas profile` on the paper path): Phase 2 makes every
//! one of the `p` bucket-threads rescan the whole array — O(n·p) work per
//! array — and each array round-trips global memory three times across
//! three kernel launches. The fused kernel applies two standard
//! techniques from the literature:
//!
//! * **GPU Sample Sort** (Leischner, Osipov & Sanders): the bucket index
//!   of an element is a *binary search* over the sorted splitters —
//!   O(log p) per element instead of the p-way rescan;
//! * **GPU Multisplit** (Ashkiani et al.): bucketing is per-warp ballot
//!   histograms + shuffle scans + an in-shared scatter.
//!
//! One block still owns one array, but now the array is staged into
//! shared memory **once** (cooperative coalesced copy), everything —
//! sampling, splitter selection, bucket-index search, histogram, scan,
//! scatter, per-bucket sort — happens in shared memory, and one coalesced
//! write-back ends the kernel. Launches drop 3 → 1 and global traffic
//! drops from ≈6n warp-scattered/sequential touches per array to 2n
//! fully-coalesced ones, which the simulator's `global_txns` counter
//! makes quantitative (see `tests/fused.rs` and Ablation E).
//!
//! The price is shared-memory footprint: the scatter needs a second copy
//! of the array, so the fused layout is roughly double the staging
//! layout's. Arrays beyond [`BatchGeometry::fits_fused_in_shared`]
//! (n ≳ 5500 f32 elements on the K40c) transparently fall back to the
//! three-kernel pipeline — correctness never depends on the fast path.
//!
//! The kernel has two bucketing strategies ([`FusedStrategy`]). Warp
//! multisplit is the default and the served one (`FusedSort::warp`,
//! `FusedSort::with_config`). The shared-memory histogram is the baseline of
//! Ablations E and F only (`FusedSort::with_strategy`): the scheduler's
//! cost model never prefers it, so no service or CLI path selects it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpu_sim::{banks, AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::bucketing::{bucket_balance, BalanceStats};
use crate::config::{ArraySortConfig, ConfigError, SplitterPolicy};
use crate::geometry::BatchGeometry;
use crate::insertion::{charge_insertion_work, simulated_insertion_sort, InsertionWork};
use crate::key::SortKey;
use crate::pipeline::GpuArraySort;
use crate::resplit::{resplit_array, OverflowReport, ResplitWork};
use crate::sorting::bitonic_charge;
use crate::splitters::{bucket_ids, deterministic_splitters, overflow_limit, DeterministicWork};

/// Which bucketing + scatter machinery the fused kernel runs. Both
/// strategies produce bit-identical output (both call the shared
/// [`bucket_index`](crate::splitters::bucket_index) search); they differ
/// only in *how* the histogram, scan and scatter are executed — and
/// therefore in what they cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "kebab-case")]
pub enum FusedStrategy {
    /// The ablation baseline: a shared-memory histogram built with
    /// per-element shared atomics (billed with their honest same-counter
    /// contention), a shared-memory block scan, and a scatter that pays
    /// its measured bank-conflict degree.
    Histogram,
    /// Warp-level multisplit (Ashkiani et al.), the `gas-warp` algorithm:
    /// per-warp ballot histograms, shuffle-based exclusive scans and
    /// warp-aggregated (leader-only) atomics. The scatter writes the same
    /// data-chosen cursors as the histogram's and pays the same measured
    /// bank-conflict degree. The default.
    #[default]
    WarpMultisplit,
}

impl FusedStrategy {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FusedStrategy::Histogram => "histogram",
            FusedStrategy::WarpMultisplit => "warp-multisplit",
        }
    }

    /// Whether this strategy buckets with warp ballots/shuffles.
    pub fn uses_warp_multisplit(self) -> bool {
        !matches!(self, FusedStrategy::Histogram)
    }
}

/// Which path actually sorted the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum FusedPath {
    /// The single fused kernel ran (arrays fit the double-buffered
    /// shared-memory layout).
    Fused,
    /// Arrays were too large for the fused layout; the batch was sorted
    /// by the paper's three-kernel pipeline instead.
    ThreeKernelFallback,
}

/// Billed attribution of the one fused launch's time to its six
/// internal stages.
///
/// A single kernel cannot emit host-side spans from inside itself, so
/// `gas profile` would otherwise lose the phase breakdown the three-kernel
/// path gives for free. Each block therefore reads its billed cycles
/// ([`gpu_sim::BlockCtx::cycles`]) at the end of every stage; the host
/// scales the measured kernel time by each stage's share of those cycles,
/// summed over blocks. Nothing is estimated: the stages split exactly the
/// cycles the kernel bills, and the six fields sum to its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FusedBreakdown {
    /// Cooperative coalesced copy of the array into shared memory.
    pub stage_in_ms: f64,
    /// Regular sampling + one-thread sample sort + splitter emission.
    pub sample_sort_ms: f64,
    /// Per-element binary search over the splitters + shared histogram.
    pub bucket_index_ms: f64,
    /// Exclusive scan of the histogram + in-shared scatter.
    pub scatter_ms: f64,
    /// Per-bucket insertion sort (adaptive bitonic for oversized buckets).
    pub bucket_sort_ms: f64,
    /// Coalesced write-back of the sorted array + the `Z` table row.
    pub write_back_ms: f64,
}

impl FusedBreakdown {
    /// The stages as `(label, ms)` rows, in execution order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("stage-in", self.stage_in_ms),
            ("sample-sort", self.sample_sort_ms),
            ("bucket-index", self.bucket_index_ms),
            ("scatter", self.scatter_ms),
            ("bucket-sort", self.bucket_sort_ms),
            ("write-back", self.write_back_ms),
        ]
    }

    /// Sum of all stages (equals the fused kernel time).
    pub fn total_ms(&self) -> f64 {
        self.rows().iter().map(|(_, ms)| ms).sum()
    }
}

/// Report of one fused-pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusedStats {
    /// H2D upload time.
    pub upload_ms: f64,
    /// Kernel time: the single fused launch, or the three fallback
    /// launches when the batch didn't fit the fused layout.
    pub kernel_ms: f64,
    /// D2H download time.
    pub download_ms: f64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Which path ran.
    pub path: FusedPath,
    /// Billed per-stage attribution of `kernel_ms` (all zero on the
    /// fallback path — the three-kernel launches have real spans instead).
    pub breakdown: FusedBreakdown,
    /// Bucket-size distribution, from the `Z` table the kernel emits
    /// (pre-recovery evidence: re-splitting never rewrites `Z`).
    pub balance: BalanceStats,
    /// Bucket-overflow detection + recovery accounting. Detection is
    /// always on; repair runs only under
    /// [`SplitterPolicy::Deterministic`].
    #[serde(default)]
    pub overflow: OverflowReport,
    /// The geometry the run used.
    pub geometry: BatchGeometry,
}

impl FusedStats {
    /// Total simulated time (upload + kernel + download).
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms + self.download_ms
    }
}

/// The fused single-kernel batch sorter. Same contract as
/// [`GpuArraySort::sort`]: every `array_len` segment of `data` is sorted
/// ascending (by `total_order` for floats), in place.
#[derive(Debug, Clone)]
pub struct FusedSort {
    inner: GpuArraySort,
    strategy: FusedStrategy,
}

impl FusedSort {
    /// A fused sorter with the paper's default parameters and warp
    /// multisplit bucketing (`gas-warp`, the served variant). The
    /// histogram baseline is `with_strategy(FusedStrategy::Histogram)`.
    pub fn warp() -> Self {
        Self::with_strategy(FusedStrategy::WarpMultisplit)
    }

    /// A fused sorter with an explicit bucketing strategy.
    pub fn with_strategy(strategy: FusedStrategy) -> Self {
        Self {
            inner: GpuArraySort::default(),
            strategy,
        }
    }

    /// A fused sorter with explicit parameters (validated) and warp
    /// multisplit bucketing.
    pub fn with_config(config: ArraySortConfig) -> Result<Self, ConfigError> {
        Self::with_config_and_strategy(config, FusedStrategy::default())
    }

    /// Explicit parameters *and* strategy (validated).
    pub fn with_config_and_strategy(
        config: ArraySortConfig,
        strategy: FusedStrategy,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            inner: GpuArraySort::with_config(config)?,
            strategy,
        })
    }

    /// The active bucketing strategy.
    pub fn strategy(&self) -> FusedStrategy {
        self.strategy
    }

    /// The active configuration.
    pub fn config(&self) -> &ArraySortConfig {
        self.inner.config()
    }

    /// The three-kernel pipeline this sorter falls back to (same config).
    pub fn three_kernel(&self) -> &GpuArraySort {
        &self.inner
    }

    /// Geometry for a batch under this configuration.
    pub fn geometry(&self, num_arrays: usize, array_len: usize) -> BatchGeometry {
        self.inner.geometry(num_arrays, array_len)
    }

    /// Sorts every `array_len`-element segment of `data` on `gpu`,
    /// uploading, running the fused kernel (or the three-kernel fallback)
    /// and downloading. Under either strategy it emits the spans
    /// `gas-fused/upload`, `gas-fused/fused-kernel` and
    /// `gas-fused/download`, which tile the elapsed time exactly like the
    /// three-kernel path's five spans.
    pub fn sort<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &mut [K],
        array_len: usize,
    ) -> SimResult<FusedStats> {
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
        let span = gpu.begin_span("gas-fused/upload");
        let dbuf = gpu.htod_copy(data)?;
        gpu.end_span(span);
        let t1 = gpu.elapsed_ms();

        let (path, breakdown, balance, overflow) = self.run_device(gpu, &dbuf, &geom)?;
        let t2 = gpu.elapsed_ms();
        let peak_bytes = gpu.ledger().peak();

        let span = gpu.begin_span("gas-fused/download");
        let mut dbuf = dbuf;
        gpu.dtoh_into(&mut dbuf, data)?;
        gpu.end_span(span);
        let t3 = gpu.elapsed_ms();

        Ok(FusedStats {
            upload_ms: t1 - t0,
            kernel_ms: t2 - t1,
            download_ms: t3 - t2,
            peak_bytes,
            path,
            breakdown,
            balance,
            overflow,
            geometry: geom,
        })
    }

    /// Sorts a batch already resident on the device — the entry point
    /// for callers that manage their own uploads/downloads, like the
    /// scheduler's streamed overlap pipeline. Runs the fused kernel (or
    /// the three-kernel fallback when the geometry exceeds the shared
    /// layout) and reports which path ran plus the overflow accounting.
    pub fn sort_device<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<(FusedPath, OverflowReport)> {
        let (path, _, _, overflow) = self.run_device(gpu, data, geom)?;
        Ok((path, overflow))
    }

    /// Device-side portion for data already resident (the out-of-core
    /// chunk loop): runs the fused kernel, or the three-kernel phases
    /// when the arrays exceed the fused shared-memory layout.
    fn run_device<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<(FusedPath, FusedBreakdown, BalanceStats, OverflowReport)> {
        if !geom.fits_fused_in_shared(K::ELEM_BYTES, gpu.spec()) {
            let span = gpu.begin_span("gas-fused/fused-kernel");
            let run = self.inner.sort_device(gpu, data, geom);
            gpu.end_span(span);
            let run = run?;
            return Ok((
                FusedPath::ThreeKernelFallback,
                FusedBreakdown::default(),
                run.balance,
                run.overflow,
            ));
        }

        let mut zbuf = gpu.alloc::<u32>(geom.bucket_table_len())?;
        let span = gpu.begin_span("gas-fused/fused-kernel");
        let kernel = fused_kernel(gpu, data, &zbuf, geom, self.config(), self.strategy);
        gpu.end_span(span);
        let (kernel_ms, stage_cycles, overflow) = kernel?;
        let balance = bucket_balance(&mut zbuf, geom);

        let total: u64 = stage_cycles.iter().sum();
        let share = |c: u64| {
            if total > 0 {
                kernel_ms * c as f64 / total as f64
            } else {
                0.0
            }
        };
        let breakdown = FusedBreakdown {
            stage_in_ms: share(stage_cycles[0]),
            sample_sort_ms: share(stage_cycles[1]),
            bucket_index_ms: share(stage_cycles[2]),
            scatter_ms: share(stage_cycles[3]),
            bucket_sort_ms: share(stage_cycles[4]),
            write_back_ms: share(stage_cycles[5]),
        };
        Ok((FusedPath::Fused, breakdown, balance, overflow))
    }
}

/// Splits one array's element indices into the warp-sized groups the
/// lockstep execution actually forms: threads process elements in rounds
/// of `t_count` (element `k` belongs to lane `k % t_count` of round
/// `k / t_count`), and each round's lanes fold into warps of `ws`.
/// Returns `(start, len)` per group, in element order.
fn warp_groups(n: usize, t_count: usize, ws: usize) -> Vec<(usize, usize)> {
    let mut groups = Vec::with_capacity(n.div_ceil(ws.max(1)) + n.div_ceil(t_count.max(1)));
    let mut k0 = 0;
    while k0 < n {
        let round_end = (k0 + t_count).min(n);
        let mut g = k0;
        while g < round_end {
            let end = (g + ws).min(round_end);
            groups.push((g, end - g));
            g = end;
        }
        k0 = round_end;
    }
    groups
}

/// Per-thread totals (indexed by `tid`) of the warp-group measurement
/// that stages 3 and 4 bill.
#[derive(Debug, PartialEq, Eq)]
struct WarpTally {
    /// Elements on which the thread's lane led its bucket's warp peers.
    leaders: Vec<u64>,
    /// Σ same-bucket lanes in the element's warp group (itself included).
    contention: Vec<u64>,
    /// Σ bank-conflict degree of the element's warp-group scatter.
    bank_passes: Vec<u64>,
}

/// Scatters `arr` stably by bucket into `staged` (bucket `j` at
/// `offsets[j]`) and measures, per [`warp_groups`] group, what it costs:
/// lane `l` of the group at `g0` is thread `g0 % t_count + l`. The first
/// lane to stamp a bucket with the group's index leads it, and the
/// bucket's stamp count is each peer's contention (the lowest lane and
/// popcount of [`gpu_sim::warp::match_any`]'s masks). A group's slots are
/// distinct and each key spans a bank word, so no lane broadcasts and its
/// largest per-bank tally is [`banks::conflict_degree`] of its addresses.
fn scatter_tallied<K: SortKey>(
    arr: &[K],
    ids: &[u32],
    offsets: &[usize],
    t_count: usize,
    ws: usize,
    staged: &mut [K],
) -> WarpTally {
    // Distinct slots map to distinct bank words.
    const { assert!(K::ELEM_BYTES >= banks::BANK_WIDTH) };
    let mut cursors = offsets[..offsets.len() - 1].to_vec();
    // Per bucket: (stamp of the last group that hit it, its lanes there).
    let mut peers = vec![(0u32, 0u32); cursors.len()];
    let mut tally = WarpTally {
        leaders: vec![0; t_count],
        contention: vec![0; t_count],
        bank_passes: vec![0; t_count],
    };
    for (g, (g0, glen)) in warp_groups(arr.len(), t_count, ws).into_iter().enumerate() {
        let stamp = g as u32 + 1;
        let t0 = g0 % t_count;
        let ids = &ids[g0..g0 + glen];
        let mut per_bank = [0u32; banks::NUM_BANKS as usize];
        let leaders = &mut tally.leaders[t0..t0 + glen];
        for ((&j, &x), lead) in ids.iter().zip(&arr[g0..g0 + glen]).zip(leaders) {
            let j = j as usize;
            let dst = cursors[j];
            staged[dst] = x;
            cursors[j] = dst + 1;
            let word = dst as u64 * K::ELEM_BYTES as u64 / banks::BANK_WIDTH as u64;
            per_bank[(word % banks::NUM_BANKS as u64) as usize] += 1;
            let (last, count) = &mut peers[j];
            let leads = *last != stamp;
            // A select, not a branch: whether a lane leads is data-chosen.
            *count = std::hint::select_unpredictable(leads, 0, *count) + 1;
            *last = stamp;
            *lead += u64::from(leads);
        }
        for (&j, c) in ids.iter().zip(&mut tally.contention[t0..t0 + glen]) {
            *c += u64::from(peers[j as usize].1);
        }
        let degree = u64::from(per_bank.into_iter().max().unwrap_or(0).max(1));
        for passes in &mut tally.bank_passes[t0..t0 + glen] {
            *passes += degree;
        }
    }
    tally
}

/// Launches the fused kernel proper. Returns its wall time, the billed
/// cycles of its six stages summed over blocks (for [`FusedBreakdown`]),
/// and the aggregated overflow report (detection under every policy;
/// repair — an in-shared re-split between scatter and bucket sort — only
/// under [`SplitterPolicy::Deterministic`]).
///
/// Each block does its real work once at block scope (sample sort,
/// bucket search, [`scatter_tallied`]); the simulated threads only bill,
/// and stages 3 and 4 bill each thread once from its totals.
fn fused_kernel<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &BatchGeometry,
    config: &ArraySortConfig,
    strategy: FusedStrategy,
) -> SimResult<(f64, [u64; 6], OverflowReport)> {
    assert_eq!(data.len(), geom.total_elems(), "data/geometry mismatch");
    assert_eq!(
        bucket_sizes.len(),
        geom.bucket_table_len(),
        "Z table mismatch"
    );

    let n = geom.array_len;
    let p = geom.buckets_per_array;
    let s = geom.samples_per_array;
    let threads = geom.block_threads(config, gpu.spec());
    let t_count = threads as usize;
    let ws = gpu_sim::WARP_SIZE as usize;
    let dv = data.view();
    let zv = bucket_sizes.view();
    let geom = *geom;
    let elem_bytes = K::ELEM_BYTES;
    let stride = (n / s).max(1);
    // ⌈log₂⌉ of the boundary count: probes per binary search.
    let log_bounds = (usize::BITS - (p + 1).leading_zeros()) as u64;
    let log_p = (usize::BITS - p.leading_zeros()) as u64;
    let adaptive = config.adaptive_bucket_sort;
    let adaptive_cap = config.adaptive_cap();
    let policy = config.splitter_policy;
    let limit = overflow_limit(n, p) as u32;

    let kernel_name = match strategy {
        FusedStrategy::Histogram => "gas_fused",
        FusedStrategy::WarpMultisplit => "gas_warp",
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, threads)
        .with_shared(geom.fused_shared_bytes_needed(elem_bytes));

    // Billed cycles per stage, summed over blocks.
    let stages: [AtomicU64; 6] = Default::default();
    let report = Mutex::new(OverflowReport {
        limit,
        ..Default::default()
    });

    let stats = gpu.launch(kernel_name, cfg, |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let zrow = geom.bucket_offset(i);
        let per = (n as u64).div_ceil(t_count as u64);
        // The block's billed cycles at the end of each stage, rounded the
        // way the launcher rounds the block total, so the six deltas sum to
        // exactly the cycles the block bills.
        let mut stage_end = [0u64; 6];

        // ---- Real work, once per block (the simulated lanes below bill
        // the cycles). SAFETY: array i is block-exclusive.
        let arr = unsafe { dv.slice_mut(base, n) };

        // Stage 2: splitter selection on the *staged* array, per policy —
        // the paper's one-thread regular sample sort, or the Dehne–Zaboli
        // deterministic tile-sort + candidate-merge selection (the shared
        // [`deterministic_splitters`] the three-kernel Phase 1 also runs).
        // Either way the bounds carry the §5.2 sentinels.
        let mut bounds = Vec::with_capacity(p + 1);
        bounds.push(K::min_sentinel());
        let (sample_work, det_work): (InsertionWork, Option<DeterministicWork>) =
            if policy == SplitterPolicy::Deterministic {
                let (picks, det) = deterministic_splitters(arr, p, s);
                bounds.extend(picks);
                (InsertionWork::default(), Some(det))
            } else {
                let mut sample: Vec<K> = (0..s).map(|k| arr[k * stride]).collect();
                let w = simulated_insertion_sort(&mut sample);
                for j in 1..p {
                    bounds.push(sample[j * s / p]);
                }
                (w, None)
            };
        bounds.push(K::max_sentinel());

        // Stage 3: binary-search bucket index per element + histogram.
        let (ids, counts) = bucket_ids(&bounds, arr);
        // Overflow detection (always on): buckets beyond the Dehne–Zaboli
        // limit 2·⌈n/p⌉ are counted, never silent.
        let over_in_block = counts.iter().filter(|&&c| c > limit).count() as u64;

        // Stage 4: exclusive scan + stable in-shared scatter into the
        // second buffer, then adopt it as the working copy. The same pass
        // measures, from the real ids and destinations, what each thread's
        // warp groups cost (contention, leader lanes, bank conflicts).
        let mut offsets = vec![0usize; p + 1];
        for j in 0..p {
            offsets[j + 1] = offsets[j] + counts[j] as usize;
        }
        let mut staged = vec![K::default(); n];
        let tally = scatter_tallied(arr, &ids, &offsets, t_count, ws, &mut staged);
        arr.copy_from_slice(&staged);
        for (j, &c) in counts.iter().enumerate() {
            zv.set(zrow + j, c);
        }

        // ---- Cycle charges, stage by stage (each `threads`/`one_thread`
        // call is one barrier, mirroring the __syncthreads() the real
        // kernel would need between stages).

        // Stage 1: cooperative coalesced stage-in.
        block.threads(|t| {
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
            t.charge_shared(per);
        });
        stage_end[0] = block.cycles().round() as u64;

        // Stage 2: splitter selection, entirely in shared memory — the
        // fused win over Phase 1's single-lane global walk. The charges
        // follow the branch that actually ran.
        match det_work {
            None => {
                block.one_thread(|t| {
                    t.charge_shared(2 * s as u64);
                    t.charge_alu(2 * s as u64);
                    charge_insertion_work(t, sample_work);
                    t.charge_shared((p + 1) as u64);
                    t.charge_alu(2 * p as u64);
                });
            }
            Some(det) => {
                let c = det.candidates as u64;
                block.one_thread(|t| {
                    // p tile sorts, candidate gather, the p-way candidate
                    // merge (billed as InsertionWork), then the p−1 picks.
                    charge_insertion_work(t, det.tile_sort);
                    t.charge_shared(2 * c);
                    t.charge_alu(2 * c);
                    charge_insertion_work(t, det.candidate_sort);
                    t.charge_shared((p + 1) as u64);
                    t.charge_alu(2 * p as u64);
                });
            }
        }
        stage_end[1] = block.cycles().round() as u64;

        // A thread's elements in stages 3–4; whole-cycle addends make one
        // totals charge equal the per-element ones (DESIGN §6).
        let elems_of = |tid: usize| n.saturating_sub(tid).div_ceil(t_count) as u64;

        // Stage 3: per-element binary search over the p+1 bounds, then
        // the strategy's histogram machinery.
        block.threads(|t| {
            if t.tid == 0 && over_in_block > 0 {
                // The histogram is already in shared memory here; the
                // limit comparison rides the existing pass (zero cycles),
                // it only flips the observable counter.
                t.record_bucket_overflow(over_in_block);
            }
            let tid = t.tid as usize;
            let m = elems_of(tid);
            t.charge_shared(m * (1 + log_bounds));
            t.charge_alu(m * (log_bounds + 1));
            if strategy.uses_warp_multisplit() {
                // Multisplit ballot ladder: ⌈log₂ p⌉ ballots classify
                // the lane's bucket bits; the peer masks that fall out
                // give rank and count in registers, so only the lowest
                // peer of each bucket touches the shared histogram.
                t.charge_warp_vote(m * log_p.max(1));
                t.charge_alu(2 * m);
                t.charge_atomic_shared(tally.leaders[tid]);
            } else {
                // One RMW per element, serialized by the measured
                // number of same-bucket lanes in its warp, plus the
                // bucket-id record the scatter pass re-reads.
                t.charge_atomic_shared_contended(m, tally.contention[tid]);
                t.charge_shared(m);
            }
        });
        stage_end[2] = block.cycles().round() as u64;

        // Stage 4: exclusive scan + in-shared scatter, per strategy.
        block.threads(|t| {
            let tid = t.tid as usize;
            let m = elems_of(tid);
            if strategy.uses_warp_multisplit() {
                // Per-warp exclusive scan of the ballot histogram rides
                // the shuffle ladder; folding warp totals into block
                // offsets is one more add per bucket stripe.
                t.charge_warp_scan();
                t.charge_alu(log_p);
                // Per element: read it; destination = scanned base + the
                // shuffle-held rank (one shuffle + one add).
                t.charge_shared(m);
                t.charge_warp_shuffle(m);
                t.charge_alu(m);
            } else {
                // Cooperative block scan in shared memory.
                t.charge_shared(2 * log_p);
                t.charge_alu(log_p);
                // Per element: re-read id + element, bump the bucket
                // cursor (contended).
                t.charge_shared(2 * m);
                t.charge_atomic_shared_contended(m, tally.contention[tid]);
            }
            // The write lands at whatever bank the cursor picks.
            t.charge_shared_conflicted(m, tally.bank_passes[tid]);
        });

        // Re-split pass (Deterministic policy only): any bucket beyond
        // the limit is recursively cut in shared memory before the bucket
        // sort, so Phase-3-equivalent work stays bounded. The Z row above
        // was already written — it stays pre-recovery evidence. Its cost
        // is billed to the scatter stage (it is the same kind of in-shared
        // partitioning work).
        let mut rs_work = ResplitWork::default();
        let refined = if policy == SplitterPolicy::Deterministic && over_in_block > 0 {
            let segs = resplit_array(arr, &counts, limit as usize, &mut rs_work);
            block.one_thread(|t| {
                t.charge_shared(2 * rs_work.comparisons + rs_work.moves);
                t.charge_alu(rs_work.comparisons);
            });
            Some(segs)
        } else {
            None
        };
        stage_end[3] = block.cycles().round() as u64;
        let mut local = OverflowReport {
            limit,
            overflowed_buckets: over_in_block,
            overflowed_arrays: u64::from(over_in_block > 0),
            pre_max: counts.iter().copied().max().unwrap_or(0),
            ..Default::default()
        };
        match &refined {
            Some(segs) => {
                local.resplit_rounds = rs_work.rounds;
                local.resplit_segments = segs.len() as u64;
                local.tie_segments = segs.iter().filter(|sg| sg.all_equal).count() as u64;
                local.post_max_sortable = segs
                    .iter()
                    .filter(|sg| !sg.all_equal)
                    .map(|sg| sg.len as u32)
                    .max()
                    .unwrap_or(0);
            }
            None => local.post_max_sortable = local.pre_max,
        }
        report.lock().unwrap().merge(&local);

        // Stage 5: per-bucket sort, shared-memory only — no scattered
        // global round-trip, the other fused win over Phase 3. When a
        // re-split ran, its refined segments replace the Z-row buckets:
        // non-tie segments are ≤ limit by construction, and all-equal tie
        // segments need no sort at all (equal keys are bit-identical).
        let use_refined = refined.is_some();
        let segments: Vec<(usize, usize, bool)> = match &refined {
            Some(segs) => segs
                .iter()
                .map(|sg| (sg.start, sg.len, sg.all_equal))
                .collect(),
            None => (0..p)
                .map(|j| (offsets[j], offsets[j + 1] - offsets[j], false))
                .collect(),
        };
        let nseg = segments.len();
        let segs_per_thread = nseg.div_ceil(t_count);
        block.threads(|t| {
            for sidx in 0..segs_per_thread {
                let j = t.tid as usize + sidx * t_count;
                if j >= nseg {
                    break;
                }
                let (start, len, tie) = segments[j];
                t.charge_shared(2);
                t.charge_alu(4);
                if tie {
                    continue; // all-equal segment: nothing to sort
                }
                if adaptive && !use_refined && len > adaptive_cap {
                    continue; // deferred to the cooperative pass below
                }
                if len < 2 {
                    continue;
                }
                // SAFETY: disjoint bucket range of a block-exclusive array.
                let bucket = unsafe { dv.slice_mut(base + start, len) };
                charge_insertion_work(t, simulated_insertion_sort(bucket));
            }
        });
        if adaptive && !use_refined {
            let oversized: Vec<(usize, usize)> = (0..p)
                .map(|j| (offsets[j], offsets[j + 1] - offsets[j]))
                .filter(|&(_, len)| len > adaptive_cap)
                .collect();
            for &(start, len) in &oversized {
                // SAFETY: disjoint bucket range of a block-exclusive array.
                let bucket = unsafe { dv.slice_mut(base + start, len) };
                bucket.sort_unstable_by(|a, b| a.total_order(*b));
                block.threads(|t| {
                    bitonic_charge(t, len as u64, t_count as u64);
                });
            }
        }
        stage_end[4] = block.cycles().round() as u64;

        // Stage 6: coalesced write-back of the sorted array and the Z row.
        block.threads(|t| {
            t.charge_shared(per);
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
            let perz = (p as u64).div_ceil(t_count as u64);
            t.charge_shared(perz);
            t.charge_global(perz, 4, AccessPattern::Coalesced);
        });
        stage_end[5] = block.cycles().round() as u64;

        let mut prev = 0;
        for (stage, end) in stages.iter().zip(stage_end) {
            stage.fetch_add(end - prev, Ordering::Relaxed);
            prev = end;
        }
    })?;

    Ok((
        stats.time_ms,
        stages.map(AtomicU64::into_inner),
        report.into_inner().unwrap(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_ref;
    use crate::testutil::{skew_batch, splitmix, splitmix_batch};
    use gpu_sim::{warp, DeviceSpec};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_batch(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n).map(|_| rng.gen_range(0.0f32..1e9)).collect()
    }

    #[test]
    fn fused_sorts_every_array() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let (num, n) = (40, 500);
        let mut data = random_batch(num, n, 21);
        let mut expect = data.clone();
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert_eq!(stats.path, FusedPath::Fused);
    }

    #[test]
    fn fused_matches_three_kernel_output_bit_for_bit() {
        let (num, n) = (25, 1000);
        let data = random_batch(num, n, 22);
        let mut fused = data.clone();
        let mut paper = data;
        let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
        FusedSort::warp().sort(&mut g1, &mut fused, n).unwrap();
        let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
        GpuArraySort::new().sort(&mut g2, &mut paper, n).unwrap();
        assert_eq!(
            fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            paper.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fused_is_faster_and_moves_less_global_data() {
        for n in [1000usize, 2000, 3000, 4000] {
            let num = 30;
            let data = random_batch(num, n, 23);

            let mut d1 = data.clone();
            let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
            let fused = FusedSort::warp().sort(&mut g1, &mut d1, n).unwrap();
            let fused_txns: u64 = g1
                .timeline()
                .kernels
                .iter()
                .map(|k| k.counters.global_txns())
                .sum();

            let mut d2 = data;
            let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
            let paper = GpuArraySort::new().sort(&mut g2, &mut d2, n).unwrap();
            let paper_txns: u64 = g2
                .timeline()
                .kernels
                .iter()
                .map(|k| k.counters.global_txns())
                .sum();

            assert!(
                fused.kernel_ms < paper.kernel_ms(),
                "n={n}: fused {} ms vs paper {} ms",
                fused.kernel_ms,
                paper.kernel_ms()
            );
            assert!(
                fused_txns < paper_txns,
                "n={n}: fused {fused_txns} txns vs paper {paper_txns}"
            );
        }
    }

    #[test]
    fn spans_tile_the_elapsed_time() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut data = random_batch(20, 800, 24);
        FusedSort::warp().sort(&mut gpu, &mut data, 800).unwrap();
        let spans = &gpu.timeline().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "gas-fused/upload",
                "gas-fused/fused-kernel",
                "gas-fused/download"
            ]
        );
        let total: f64 = spans.iter().map(|s| s.end_ms - s.start_ms).sum();
        assert!((total - gpu.elapsed_ms()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_kernel_time() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut data = random_batch(10, 1500, 25);
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, 1500).unwrap();
        assert!((stats.breakdown.total_ms() - stats.kernel_ms).abs() < 1e-9);
        assert!(stats.breakdown.rows().iter().all(|&(_, ms)| ms > 0.0));
    }

    #[test]
    fn stage_cycles_sum_to_the_billed_cycles() {
        let n = 1000;
        let configs = [
            ArraySortConfig::default(),
            ArraySortConfig {
                splitter_policy: SplitterPolicy::Deterministic,
                ..Default::default()
            },
            ArraySortConfig {
                adaptive_bucket_sort: true,
                ..Default::default()
            },
        ];
        // Uniform keys, then each skew shape: all-equal, pre-sorted, Zipf,
        // single-heavy and three distinct values.
        let arrays = skew_batch(6, n, 0xB111);
        for strategy in [FusedStrategy::Histogram, FusedStrategy::WarpMultisplit] {
            for cfg in &configs {
                for arr in arrays.chunks(n) {
                    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
                    let geom = BatchGeometry::new(1, n, cfg);
                    let data = gpu.htod_copy(arr).unwrap();
                    let zbuf = gpu.alloc::<u32>(geom.bucket_table_len()).unwrap();
                    let (_, stages, _) =
                        fused_kernel(&mut gpu, &data, &zbuf, &geom, cfg, strategy).unwrap();
                    let billed = gpu.timeline().kernels[0].cycles;
                    let sum: u64 = stages.iter().sum();
                    assert!(
                        sum.abs_diff(billed) <= 1,
                        "{strategy:?} {cfg:?}: stages {stages:?} sum to {sum}, kernel billed {billed}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_sort_dominates_the_fig7_kernel() {
        // Fig. 7's shape: n = 4000 under regular sampling, where the
        // one-thread sample sort is quadratic in the sample.
        let n = 4000;
        let mut data = splitmix_batch(8, n, 0xF167);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::Fused);
        let share = stats.breakdown.sample_sort_ms / stats.kernel_ms;
        assert!(
            share >= 0.9,
            "sample-sort share {share}: {:?}",
            stats.breakdown
        );
    }

    #[test]
    fn oversized_arrays_fall_back_to_three_kernels() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let n = 8000; // fits staging (≤ ~12k) but not the fused double buffer
        let mut data = random_batch(4, n, 26);
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::ThreeKernelFallback);
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(stats.breakdown, FusedBreakdown::default());
    }

    #[test]
    fn shape_validation_matches_the_three_kernel_path() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let sorter = FusedSort::warp();
        let mut empty: Vec<f32> = vec![];
        assert!(sorter.sort(&mut gpu, &mut empty, 10).is_err());
        let mut data = vec![1.0f32; 7];
        assert!(sorter.sort(&mut gpu, &mut data, 3).is_err());
        assert!(sorter.sort(&mut gpu, &mut data, 0).is_err());
    }

    #[test]
    fn adaptive_policy_carries_over() {
        let n = 1000;
        // Adversarial collapse input (every sampled slot holds the min).
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let data: Vec<f32> = (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect();
        let run = |cfg: ArraySortConfig| {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            let stats = FusedSort::with_config(cfg)
                .unwrap()
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert!(cpu_ref::is_each_sorted(&d, n));
            stats.kernel_ms
        };
        let paper = run(ArraySortConfig::default());
        let adaptive = run(ArraySortConfig {
            adaptive_bucket_sort: true,
            ..Default::default()
        });
        assert!(
            adaptive * 5.0 < paper,
            "cooperative rescue must fix the quadratic blow-up: {adaptive} vs {paper}"
        );
    }

    #[test]
    fn u32_and_i32_keys_sort() {
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut du: Vec<u32> = (0..8 * 128).map(|_| rng.gen()).collect();
        FusedSort::warp().sort(&mut gpu, &mut du, 128).unwrap();
        assert!(cpu_ref::is_each_sorted(&du, 128));
        let mut di: Vec<i32> = (0..8 * 128).map(|_| rng.gen()).collect();
        FusedSort::warp().sort(&mut gpu, &mut di, 128).unwrap();
        assert!(cpu_ref::is_each_sorted(&di, 128));
    }

    /// Runs one strategy on a fresh device; returns (sorted bits,
    /// kernel_ms, bank passes, shared atomics, warp votes).
    fn strategy_run(
        strategy: FusedStrategy,
        data: &[f32],
        n: usize,
    ) -> (Vec<u32>, f64, u64, u64, u64) {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut d = data.to_vec();
        let stats = FusedSort::with_strategy(strategy)
            .sort(&mut gpu, &mut d, n)
            .unwrap();
        assert_eq!(stats.path, FusedPath::Fused, "{strategy:?} must fit");
        let (mut passes, mut atomics, mut votes) = (0u64, 0u64, 0u64);
        for k in &gpu.timeline().kernels {
            passes += k.counters.shared_bank_passes;
            atomics += k.counters.atomics_shared;
            votes += k.counters.warp_votes;
        }
        (
            d.iter().map(|x| x.to_bits()).collect(),
            stats.kernel_ms,
            passes,
            atomics,
            votes,
        )
    }

    #[test]
    fn both_strategies_agree_bit_for_bit() {
        let (num, n) = (20, 1000);
        let data = random_batch(num, n, 30);
        let (hist, ..) = strategy_run(FusedStrategy::Histogram, &data, n);
        let (ms, ..) = strategy_run(FusedStrategy::WarpMultisplit, &data, n);
        assert_eq!(hist, ms);
    }

    #[test]
    fn warp_variant_beats_the_histogram_on_fig2_shapes() {
        for n in [1000usize, 2000, 3000, 4000] {
            let data = random_batch(30, n, 31);
            let (_, hist_ms, hist_passes, hist_atomics, hist_votes) =
                strategy_run(FusedStrategy::Histogram, &data, n);
            let (_, warp_ms, warp_passes, warp_atomics, warp_votes) =
                strategy_run(FusedStrategy::WarpMultisplit, &data, n);
            assert!(
                warp_ms < hist_ms,
                "n={n}: gas-warp {warp_ms} ms vs histogram {hist_ms} ms"
            );
            assert!(
                warp_passes < hist_passes,
                "n={n}: bank passes {warp_passes} vs {hist_passes}"
            );
            assert!(
                warp_atomics < hist_atomics,
                "n={n}: warp aggregation must issue fewer RMWs"
            );
            assert_eq!(hist_votes, 0, "histogram path never votes");
            assert!(warp_votes > 0, "multisplit ballots must be billed");
        }
    }

    #[test]
    fn warp_variant_falls_back_like_the_histogram_one() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let n = 8000; // beyond the fused layout
        let mut data = random_batch(3, n, 33);
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::ThreeKernelFallback);
        assert!(cpu_ref::is_each_sorted(&data, n));
    }

    #[test]
    fn kernel_launch_is_named_for_its_strategy() {
        let n = 600;
        let data = random_batch(5, n, 34);
        for (s, name) in [
            (FusedStrategy::Histogram, "gas_fused"),
            (FusedStrategy::WarpMultisplit, "gas_warp"),
        ] {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            FusedSort::with_strategy(s)
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert_eq!(gpu.timeline().kernels[0].name, name);
        }
    }

    /// Adversarial batch: every sampled slot holds the minimum, so the
    /// paper's regular sample collapses while exact deterministic
    /// selection does not.
    fn collapse_batch(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect()
    }

    #[test]
    fn regular_policy_detects_fused_overflow_without_repair() {
        let n = 1000;
        let data = collapse_batch(8, n, 40);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut d = data.clone();
        let stats = FusedSort::warp().sort(&mut gpu, &mut d, n).unwrap();
        assert!(cpu_ref::is_each_sorted(&d, n));
        assert!(stats.overflow.overflowed_buckets >= 1);
        assert!(stats.overflow.pre_max > stats.overflow.limit);
        assert_eq!(stats.overflow.post_max_sortable, stats.overflow.pre_max);
        assert_eq!(stats.overflow.resplit_rounds, 0);
        let counted: u64 = gpu
            .timeline()
            .kernels
            .iter()
            .map(|k| k.counters.bucket_overflows)
            .sum();
        assert_eq!(counted, stats.overflow.overflowed_buckets);
    }

    #[test]
    fn deterministic_policy_bounds_fused_buckets_on_every_strategy() {
        let n = 1000;
        let data = collapse_batch(8, n, 41);
        let cfg = ArraySortConfig {
            splitter_policy: SplitterPolicy::Deterministic,
            ..Default::default()
        };
        for strategy in [FusedStrategy::Histogram, FusedStrategy::WarpMultisplit] {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            let stats = FusedSort::with_config_and_strategy(cfg.clone(), strategy)
                .unwrap()
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert!(cpu_ref::is_each_sorted(&d, n), "{strategy:?}");
            assert!(
                stats.overflow.post_max_sortable <= stats.overflow.limit,
                "{strategy:?}: non-tie bound must hold after re-split: {:?}",
                stats.overflow
            );
            if stats.overflow.overflowed_buckets > 0 {
                assert!(stats.overflow.resplit_segments > 0, "{strategy:?}");
            }
        }
    }

    #[test]
    fn deterministic_fused_matches_three_kernel_bit_for_bit() {
        let n = 1000;
        let data = collapse_batch(6, n, 42);
        let cfg = ArraySortConfig {
            splitter_policy: SplitterPolicy::Deterministic,
            ..Default::default()
        };
        let mut fused = data.clone();
        let mut paper = data;
        let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
        FusedSort::with_config(cfg.clone())
            .unwrap()
            .sort(&mut g1, &mut fused, n)
            .unwrap();
        let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
        GpuArraySort::with_config(cfg)
            .unwrap()
            .sort(&mut g2, &mut paper, n)
            .unwrap();
        assert_eq!(
            fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            paper.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// `[cycles, shared_bank_passes, atomics_shared, warp_votes]` of the
    /// one fused launch.
    fn pinned_bill(sorter: FusedSort) -> [u64; 4] {
        let n = 2000;
        let mut data = splitmix_batch(12, n, 0x5EED);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let stats = sorter.sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::Fused);
        assert!(cpu_ref::is_each_sorted(&data, n));
        let [k] = gpu.timeline().kernels.as_slice() else {
            panic!("the fused path launches exactly one kernel");
        };
        [
            k.cycles,
            k.counters.shared_bank_passes,
            k.counters.atomics_shared,
            k.counters.warp_votes,
        ]
    }

    #[test]
    fn fused_bills_are_pinned() {
        // Golden values: any change to the warp-group measurement (peer
        // tally, bank-conflict degree) that moves a bill fails here.
        assert_eq!(
            pinned_bill(FusedSort::warp()),
            [87528, 1282671, 19607, 168000],
            "gas-warp"
        );
        assert_eq!(
            pinned_bill(FusedSort::with_strategy(FusedStrategy::Histogram)),
            [87826, 1347471, 48000, 0],
            "histogram"
        );
    }

    /// Checks [`scatter_tallied`] on one block against the references,
    /// folded into per-thread totals: [`warp::match_any`] per warp group
    /// (leader = lowest set lane, contention = popcount) and
    /// [`banks::conflict_degree`] of the group's destination addresses;
    /// and the scatter against stable counting-sort destinations.
    fn assert_tally<K: SortKey>(arr: &[K], ids: &[u32], p: usize, t_count: usize, what: &str) {
        let ws = gpu_sim::WARP_SIZE as usize;
        let mut offsets = vec![0usize; p + 1];
        for &j in ids {
            offsets[j as usize + 1] += 1;
        }
        for j in 0..p {
            offsets[j + 1] += offsets[j];
        }
        let mut cursors = offsets.clone();
        let pos: Vec<usize> = ids
            .iter()
            .map(|&j| {
                cursors[j as usize] += 1;
                cursors[j as usize] - 1
            })
            .collect();
        let mut want = WarpTally {
            leaders: vec![0; t_count],
            contention: vec![0; t_count],
            bank_passes: vec![0; t_count],
        };
        for (g0, glen) in warp_groups(arr.len(), t_count, ws) {
            let t0 = g0 % t_count;
            let addrs: Vec<u64> = pos[g0..g0 + glen]
                .iter()
                .map(|&k| k as u64 * K::ELEM_BYTES as u64)
                .collect();
            let degree = u64::from(banks::conflict_degree(&addrs));
            for (l, m) in warp::match_any(&ids[g0..g0 + glen]).into_iter().enumerate() {
                want.leaders[t0 + l] += u64::from(m & ((1u64 << l) - 1) == 0);
                want.contention[t0 + l] += u64::from(m.count_ones());
                want.bank_passes[t0 + l] += degree;
            }
        }
        let mut staged = vec![K::default(); arr.len()];
        let got = scatter_tallied(arr, ids, &offsets, t_count, ws, &mut staged);
        assert_eq!(got, want, "{what}");
        assert!(
            pos.iter()
                .zip(arr)
                .all(|(&d, x)| staged[d].order_bits() == x.order_bits()),
            "{what}: scatter destinations"
        );
    }

    #[test]
    fn warp_tally_matches_match_any_and_conflict_degree() {
        // The fused block's own warp groups: fig7's n = 4000 runs rounds
        // of 200 threads, each ending in an 8-lane tail group.
        let cfg = ArraySortConfig::default();
        let spec = DeviceSpec::tesla_k40c();
        for n in [4000, 1000] {
            let geom = BatchGeometry::new(1, n, &cfg);
            let p = geom.buckets_per_array;
            let t_count = geom.block_threads(&cfg, &spec) as usize;
            if n == 4000 {
                assert_eq!(t_count, 200);
                assert!(warp_groups(n, t_count, 32).iter().any(|&(_, len)| len == 8));
            }
            let keys: Vec<u64> = splitmix(n, n as u64).collect();
            let floats: Vec<f32> = keys.iter().map(|&z| (z >> 40) as f32).collect();
            // From p distinct buckets down to a few and to one (every lane
            // a peer, the scatter the identity).
            for distinct in [p as u32, 40, 3, 1] {
                let ids: Vec<u32> = splitmix_batch(1, n, distinct as u64)
                    .iter()
                    .map(|&x| x as u32 % distinct)
                    .collect();
                let what = format!("n={n} distinct={distinct}");
                assert_tally(&floats, &ids, p, t_count, &what);
                assert_tally(&keys, &ids, p, t_count, &what);
            }
        }
    }
}
