//! Phase 1 — splitter selection (paper §5.1, Algorithm 1), plus the
//! splitter searches every Phase 2 shares.
//!
//! One block per array, **one worker thread per block** ("Per block,
//! single thread is used for performing all these operations; we tried
//! using more complex strategies but … overheads were too large", §5.1):
//!
//! 1. move the array into block shared memory (when it fits — the paper's
//!    assumption for spectra up to 4000 peaks; larger arrays fall back to
//!    sampling straight from global memory);
//! 2. draw `⌈r·n⌉` samples by regular sampling (default r = 10 %);
//! 3. insertion-sort the sample in shared memory;
//! 4. emit the `p − 1` interior splitters at regular intervals of the
//!    sorted sample, bracketed by the two sentinels of §5.2, into the
//!    global splitter table `S` (Definition 3).
//!
//! [`SplitterPolicy::Deterministic`] swaps steps 2–4 for the Dehne–Zaboli
//! selection of `deterministic_splitters`: tile-sort the whole array,
//! merge per-tile candidates, pick every `(c/p)`-th one.
//!
//! The kernels perform the real sampling and sorting on the actual data
//! and charge the exact work a device-side insertion sort would do. The
//! host pays for that knowledge in proportion to the data: short sorts
//! rank, long ones merge, both counting inversions
//! (`simulated_insertion_sort`); the deterministic tiles sort in place
//! in one scratch copy; and the duplicate-skipping pick scan never
//! revisits a candidate.
//!
//! [`bucket_index`] defines the one splitter search of every pipeline;
//! `bucket_ids` is its fast path, run once per element for the count
//! and scatter passes of the three-kernel Phase 2 and the fused kernel.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, KernelStats, LaunchConfig, SimResult};
use serde::{Deserialize, Serialize};

use crate::config::SplitterPolicy;
use crate::geometry::BatchGeometry;
use crate::insertion::{charge_insertion_work, simulated_insertion_sort, InsertionWork};
use crate::key::SortKey;

/// How Phase 1 reads its array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase1Strategy {
    /// Array copied to shared memory first, sampled from there (the
    /// paper's path; requires `n·elem + sample·elem` ≤ 48 KB).
    SharedCopy,
    /// Array sampled directly from global memory (fallback for arrays
    /// larger than shared memory); only the sample lives in shared.
    GlobalSample,
}

/// Returns the bucket index of `x` within ascending `bounds`
/// (`bounds[0] = -∞ sentinel … bounds[p] = +∞ sentinel`): the largest `j`
/// with `bounds[j] ≤ x`, capped at `p − 1`. Matches the per-thread pair
/// predicate `bounds[j] ≤ x < bounds[j+1]` (last bucket upper-inclusive;
/// NaN keys compare above the `+∞` sentinel under `le` and land in the
/// last bucket).
///
/// This is the **reference** definition of the splitter search every
/// variant shares — the three-kernel Phase 2 and the fused kernel both
/// bucket by it, so boundary and NaN tie-breaking can never drift
/// between pipelines. Their per-element fast path is
/// `bucket_ids`, which the tests hold to this function.
#[inline]
pub fn bucket_index<K: SortKey>(bounds: &[K], x: K) -> usize {
    let p = bounds.len() - 1;
    // partition_point: first index where bounds[idx] > x.
    let hi = bounds.partition_point(|&b| b.le(x));
    hi.saturating_sub(1).min(p - 1)
}

/// Elements searched in lockstep by `bucket_ids`.
const SEARCH_LANES: usize = 4;

/// The fast path of [`bucket_index`] over a whole array: returns each
/// element's bucket and the per-bucket counts (`bounds.len() − 1` of
/// them). A Phase 2 counts from these and scatters by the ids, so no
/// element is searched twice.
///
/// The bounds are mapped once to their [`SortKey::order_bits`], and
/// [`SEARCH_LANES`] elements run their binary searches side by side.
/// Every search takes the same number of steps and each step is a
/// conditional move, not a branch, so the lanes' loads overlap instead
/// of waiting on mispredicted comparisons. The result equals
/// [`bucket_index`] element for element.
pub(crate) fn bucket_ids<K: SortKey>(bounds: &[K], arr: &[K]) -> (Vec<u32>, Vec<u32>) {
    let last = bounds.len() - 2;
    let kb: Vec<u64> = bounds.iter().map(|b| b.order_bits()).collect();
    let mut counts = vec![0u32; last + 1];
    let mut ids = vec![0u32; arr.len()];
    let mut emit = |out: &mut [u32], js: &[usize]| {
        for (o, &j) in out.iter_mut().zip(js) {
            let j = j.min(last);
            counts[j] += 1;
            *o = j as u32;
        }
    };
    let mut xs = arr.chunks_exact(SEARCH_LANES);
    let mut outs = ids.chunks_exact_mut(SEARCH_LANES);
    for (x, out) in xs.by_ref().zip(outs.by_ref()) {
        let keys: [u64; SEARCH_LANES] = std::array::from_fn(|l| x[l].order_bits());
        emit(out, &search_lanes(&kb, keys));
    }
    for (x, out) in xs
        .remainder()
        .iter()
        .zip(outs.into_remainder().chunks_mut(1))
    {
        emit(out, &search_lanes(&kb, [x.order_bits()]));
    }
    (ids, counts)
}

/// `L` fixed-trip binary searches in lockstep: the largest `j` with
/// `kb[j] ≤ keys[l]` per lane, or 0 when there is none.
#[inline(always)]
fn search_lanes<const L: usize>(kb: &[u64], keys: [u64; L]) -> [usize; L] {
    let mut base = [0usize; L];
    let mut len = kb.len();
    while len > 1 {
        let half = len / 2;
        for (b, &k) in base.iter_mut().zip(&keys) {
            let probe = *b + half;
            *b = std::hint::select_unpredictable(kb[probe] <= k, probe, *b);
        }
        len -= half;
    }
    base
}

/// The Dehne–Zaboli bucket-size bound: with deterministic splitter
/// selection over `p` buckets, no bucket (up to duplicate runs of a
/// single value) holds more than `2·⌈n/p⌉` elements. Any bucket above
/// this limit is an **overflow** — always detected and counted,
/// regardless of policy ([`gpu_sim::Counters::bucket_overflows`]).
#[inline]
pub fn overflow_limit(array_len: usize, buckets: usize) -> usize {
    2 * array_len.div_ceil(buckets.max(1))
}

/// Exact device work of one deterministic splitter selection, for cycle
/// charging by the kernel hosting it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeterministicWork {
    /// Summed insertion work of the `p` per-tile sorts.
    pub tile_sort: InsertionWork,
    /// Work of merging the presorted per-tile candidate runs: `c·⌈log₂p⌉`
    /// comparisons (a `p`-way tournament merge) plus one move per
    /// candidate, expressed as [`InsertionWork`] so the standard charge
    /// helper applies.
    pub candidate_sort: InsertionWork,
    /// Candidates gathered across all tiles.
    pub candidates: usize,
}

/// Dehne–Zaboli deterministic splitter selection over one array: split
/// into `p` tiles of `⌈n/p⌉`, sort each tile, take `s/p` equidistant
/// candidates per sorted tile (the upper end of each equal-rank stripe),
/// merge and sort the candidate sets, then pick every `(c/p)`-th
/// candidate as a splitter, advancing past duplicates so no splitter
/// repeats while a strictly greater candidate remains.
///
/// Returns the `p − 1` interior splitter values (ascending) plus the
/// exact work done, so both the three-kernel Phase 1 and the fused
/// kernel's Stage 2 share one implementation and one set of charges.
pub(crate) fn deterministic_splitters<K: SortKey>(
    arr: &[K],
    p: usize,
    s: usize,
) -> (Vec<K>, DeterministicWork) {
    let n = arr.len();
    let mut work = DeterministicWork::default();
    if p <= 1 || n == 0 {
        return (Vec::new(), work);
    }
    let tile_len = n.div_ceil(p);
    // Candidates per tile: every (s/p)-th element, raised to min(m, p) so
    // the bound has full strength — the classical regular-sampling bound
    // needs ~p candidates per tile, and with the paper's 20-element
    // buckets (tile ≤ p) that means every tile element is a candidate and
    // the merged picks are exact order statistics of the array.
    let per_tile = (s / p).max(1).max(p.min(tile_len));
    let mut candidates: Vec<K> = Vec::with_capacity(per_tile * p);
    // One scratch copy holds every tile, each sorted in place.
    let mut scratch = arr.to_vec();
    for tile in scratch.chunks_mut(tile_len) {
        work.tile_sort.add(simulated_insertion_sort(tile));
        let m = tile.len();
        let q = per_tile.min(m);
        // Upper ends ⌊k·m/q⌋ − 1 of q equal-width rank stripes (the last is
        // the tile maximum), stepped by ⌊m/q⌋ with a carried remainder.
        let (step, carry) = (m / q, m % q);
        let (mut end, mut rem) = (0, 0);
        for _ in 0..q {
            end += step;
            rem += carry;
            if rem >= q {
                rem -= q;
                end += 1;
            }
            candidates.push(tile[end - 1]);
        }
    }
    let c = candidates.len();
    work.candidates = c;
    // The tiles emit their candidates already sorted, so the device runs
    // a p-way merge, not a comparison sort: c·⌈log₂p⌉ compares, one move
    // per candidate.
    let log_p = (usize::BITS - (p - 1).leading_zeros()).max(1) as u64;
    work.candidate_sort = InsertionWork {
        comparisons: c as u64 * log_p,
        moves: c as u64,
    };
    // Keys equal under the total order have identical bits, so an
    // unstable sort yields the same candidate sequence.
    candidates.sort_unstable_by(|a, b| a.total_order(*b));
    let mut picks: Vec<K> = Vec::with_capacity(p - 1);
    let mut idx = 0;
    for j in 1..p {
        // Candidates before the previous pick are no greater than it, so
        // the scan resumes there: O(c + p) over all picks, even when
        // duplicates fill the whole array.
        idx = idx.max((j * c / p).min(c - 1));
        if let Some(&prev) = picks.last() {
            // A splitter equal to its predecessor would cut nothing (the
            // shared bucket_index folds equal boundaries): advance to the
            // next strictly greater candidate when one exists.
            while idx < c && !prev.lt(candidates[idx]) {
                idx += 1;
            }
            if idx >= c {
                idx = c - 1; // no greater candidate: trailing buckets empty
            }
        }
        picks.push(candidates[idx]);
    }
    (picks, work)
}

/// Picks the strategy for `geom` on the current device.
pub fn phase1_strategy<K: SortKey>(geom: &BatchGeometry, gpu: &Gpu) -> Phase1Strategy {
    let sample_bytes = geom.samples_per_array as u64 * K::ELEM_BYTES as u64;
    let array_bytes = geom.array_len as u64 * K::ELEM_BYTES as u64;
    if array_bytes + sample_bytes <= gpu.spec().shared_mem_per_block as u64 {
        Phase1Strategy::SharedCopy
    } else {
        Phase1Strategy::GlobalSample
    }
}

/// Runs the splitter-selection kernel with the paper's regular-sampling
/// policy: fills `splitters` (layout per
/// [`BatchGeometry::splitter_offset`]) from `data`.
pub fn select_splitters<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    geom: &BatchGeometry,
) -> SimResult<(KernelStats, Phase1Strategy)> {
    select_splitters_with(gpu, data, splitters, geom, SplitterPolicy::RegularSample)
}

/// Runs the splitter-selection kernel for the requested policy. The
/// regular-sampling path is byte-identical to [`select_splitters`]; the
/// deterministic path launches `gas_phase1_splitters_det`, which stages
/// and tile-sorts the *whole* array (the price of the guarantee) before
/// merging candidates.
pub fn select_splitters_with<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    geom: &BatchGeometry,
    policy: SplitterPolicy,
) -> SimResult<(KernelStats, Phase1Strategy)> {
    if policy == SplitterPolicy::Deterministic {
        return select_splitters_det(gpu, data, splitters, geom);
    }
    assert_eq!(
        data.len(),
        geom.total_elems(),
        "data buffer does not match geometry"
    );
    assert_eq!(
        splitters.len(),
        geom.splitter_table_len(),
        "splitter buffer does not match geometry"
    );
    let strategy = phase1_strategy::<K>(geom, gpu);
    let n = geom.array_len;
    let s = geom.samples_per_array;
    let p = geom.buckets_per_array;
    let stride = (n / s).max(1);
    let dv = data.view();
    let sv = splitters.view();

    let shared_bytes = match strategy {
        Phase1Strategy::SharedCopy => ((n + s) * K::ELEM_BYTES as usize) as u32,
        Phase1Strategy::GlobalSample => (s * K::ELEM_BYTES as usize) as u32,
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, 1).with_shared(shared_bytes);
    let geom = *geom;

    let stats = gpu.launch("gas_phase1_splitters", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        block.one_thread(|t| {
            // 1) Stage the array (or just the sample) into shared memory.
            //    The lone worker lane walks the array sequentially — L2
            //    line reuse keeps this cheaper than scattered access but
            //    slower than a cooperative warp copy; the price the paper
            //    pays for the simple one-thread design.
            match strategy {
                Phase1Strategy::SharedCopy => {
                    t.charge_global(n as u64, K::ELEM_BYTES, AccessPattern::SingleLaneSequential);
                    t.charge_shared(n as u64);
                    // 2) Regular sampling out of shared memory.
                    t.charge_shared(s as u64);
                }
                Phase1Strategy::GlobalSample => {
                    // 2) Regular sampling straight from global memory:
                    // strided by ~10 elements, so effectively scattered.
                    t.charge_global(s as u64, K::ELEM_BYTES, AccessPattern::Scattered);
                }
            }
            t.charge_shared(s as u64); // store samples into the sample array
            t.charge_alu(2 * s as u64); // stride/index arithmetic

            // Real work: gather the regular sample…
            let mut sample: Vec<K> = (0..s).map(|k| dv.get(base + k * stride)).collect();
            // …3) and insertion-sort it, charging the exact device work
            // (2 shared accesses + 1 compare per probe, 1 shared per move).
            let work = simulated_insertion_sort(&mut sample);
            t.charge_shared(2 * work.comparisons + work.moves);
            t.charge_alu(work.comparisons);

            // 4) Pick interior splitters at regular intervals and write the
            // bracketed boundary row to global memory.
            let row = geom.splitter_offset(i);
            sv.set(row, K::min_sentinel());
            for j in 1..p {
                let pick = j * s / p;
                sv.set(row + j, sample[pick]);
            }
            sv.set(row + p, K::max_sentinel());
            t.charge_shared((p - 1) as u64);
            t.charge_alu(2 * (p - 1) as u64);
            t.charge_global((p + 1) as u64, K::ELEM_BYTES, AccessPattern::Scattered);
        });
    })?;
    Ok((stats, strategy))
}

/// The deterministic Phase-1 kernel. Same block geometry and S-table
/// layout as the sampling kernel; the lone worker thread per block
/// tile-sorts the staged array in shared scratch, gathers and sorts the
/// candidate set, and writes the bracketed boundary row.
fn select_splitters_det<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    geom: &BatchGeometry,
) -> SimResult<(KernelStats, Phase1Strategy)> {
    assert_eq!(
        data.len(),
        geom.total_elems(),
        "data buffer does not match geometry"
    );
    assert_eq!(
        splitters.len(),
        geom.splitter_table_len(),
        "splitter buffer does not match geometry"
    );
    let strategy = phase1_strategy::<K>(geom, gpu);
    let n = geom.array_len;
    let s = geom.samples_per_array;
    let p = geom.buckets_per_array;
    let tile_len = n.div_ceil(p);
    let dv = data.view();
    let sv = splitters.view();

    // SharedCopy: staged array doubles as tile scratch (tiles are sorted
    // in place in the copy) + candidate array. GlobalSample: one tile of
    // scratch + the candidate array live in shared; tiles stream through.
    let shared_bytes = match strategy {
        Phase1Strategy::SharedCopy => ((n + s) * K::ELEM_BYTES as usize) as u32,
        Phase1Strategy::GlobalSample => ((tile_len + s) * K::ELEM_BYTES as usize) as u32,
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, 1).with_shared(shared_bytes);
    let geom = *geom;

    let stats = gpu.launch("gas_phase1_splitters_det", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        block.one_thread(|t| {
            // 1) Every element participates in a tile sort, so the whole
            //    array streams through the lone lane exactly once —
            //    sequential either way; GlobalSample just keeps only one
            //    tile resident at a time.
            t.charge_global(n as u64, K::ELEM_BYTES, AccessPattern::SingleLaneSequential);
            t.charge_shared(n as u64);

            // Real work, shared with the fused kernel's Stage 2.
            // SAFETY: this block exclusively owns array i's row of data.
            let arr = unsafe { dv.slice(base, n) };
            let (picks, work) = deterministic_splitters(arr, p, s);

            // 2) Tile sorts in shared scratch.
            charge_insertion_work(t, work.tile_sort);
            // 3) Candidate gather (shared→shared) + merge sort.
            t.charge_shared(2 * work.candidates as u64);
            t.charge_alu(2 * work.candidates as u64);
            charge_insertion_work(t, work.candidate_sort);

            // 4) Pick every (c/p)-th candidate and write the bracketed
            //    boundary row, same layout as the sampling kernel.
            let row = geom.splitter_offset(i);
            sv.set(row, K::min_sentinel());
            for (j, &pick) in picks.iter().enumerate() {
                sv.set(row + 1 + j, pick);
            }
            sv.set(row + p, K::max_sentinel());
            if p > 1 {
                t.charge_shared((p - 1) as u64);
                t.charge_alu(2 * (p - 1) as u64);
            }
            t.charge_global((p + 1) as u64, K::ELEM_BYTES, AccessPattern::Scattered);
        });
    })?;
    Ok((stats, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArraySortConfig;
    use crate::testutil::{skew_batch, splitmix};
    use gpu_sim::DeviceSpec;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn setup(num: usize, n: usize) -> (Gpu, BatchGeometry, Vec<f32>) {
        let gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let geom = BatchGeometry::new(num, n, &ArraySortConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let data: Vec<f32> = (0..num * n).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        (gpu, geom, data)
    }

    fn run(gpu: &mut Gpu, geom: &BatchGeometry, data: &[f32]) -> (Vec<f32>, Phase1Strategy) {
        let dbuf = gpu.htod_copy(data).unwrap();
        let mut sbuf = gpu.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (_, strat) = select_splitters(gpu, &dbuf, &sbuf, geom).unwrap();
        (sbuf.to_host_vec(), strat)
    }

    #[test]
    fn bucket_index_pins_boundary_and_nan_tie_breaking() {
        // The shared helper is the single source of truth for every
        // variant's tie-breaking; these pins must never drift.
        let bounds = [f32::min_sentinel(), 10.0, 20.0, f32::max_sentinel()];
        assert_eq!(bucket_index(&bounds, 10.0), 1, "left-closed intervals");
        assert_eq!(bucket_index(&bounds, 20.0), 2);
        assert_eq!(bucket_index(&bounds, 1e30), 2, "last bucket inclusive");
        assert_eq!(bucket_index(&bounds, f32::NAN), 2, "NaN → last bucket");
        assert_eq!(bucket_index(&bounds, f32::NEG_INFINITY), 0);
    }

    #[test]
    fn boundaries_are_sorted_and_bracketed() {
        let (mut gpu, geom, data) = setup(20, 1000);
        let (table, strat) = run(&mut gpu, &geom, &data);
        assert_eq!(strat, Phase1Strategy::SharedCopy);
        for i in 0..geom.num_arrays {
            let row = &table
                [geom.splitter_offset(i)..geom.splitter_offset(i) + geom.boundaries_per_array];
            assert_eq!(row[0].to_bits(), f32::min_sentinel().to_bits());
            assert_eq!(row.last().unwrap().to_bits(), f32::max_sentinel().to_bits());
            assert!(
                row.windows(2).all(|w| w[0].le(w[1])),
                "array {i} boundaries must ascend"
            );
        }
    }

    #[test]
    fn interior_splitters_come_from_the_array() {
        let (mut gpu, geom, data) = setup(5, 200);
        let (table, _) = run(&mut gpu, &geom, &data);
        for i in 0..geom.num_arrays {
            let arr = &data[i * 200..(i + 1) * 200];
            let row = &table
                [geom.splitter_offset(i)..geom.splitter_offset(i) + geom.boundaries_per_array];
            for &sp in &row[1..row.len() - 1] {
                assert!(
                    arr.iter().any(|&x| x.to_bits() == sp.to_bits()),
                    "splitter {sp} of array {i} must be a sampled element"
                );
            }
        }
    }

    #[test]
    fn large_arrays_fall_back_to_global_sampling() {
        let (mut gpu, geom, data) = setup(2, 20_000); // 80 KB > 48 KB shared
        let (table, strat) = run(&mut gpu, &geom, &data);
        assert_eq!(strat, Phase1Strategy::GlobalSample);
        assert!(table.len() == geom.splitter_table_len());
    }

    #[test]
    fn single_bucket_arrays_get_only_sentinels() {
        let (mut gpu, geom, data) = setup(3, 10); // p = 1
        assert_eq!(geom.buckets_per_array, 1);
        let (table, _) = run(&mut gpu, &geom, &data);
        for i in 0..3 {
            let row = &table[geom.splitter_offset(i)..geom.splitter_offset(i) + 2];
            assert_eq!(row[0].to_bits(), f32::min_sentinel().to_bits());
            assert_eq!(row[1].to_bits(), f32::max_sentinel().to_bits());
        }
    }

    #[test]
    fn splitter_time_grows_with_array_size() {
        let (mut g1, geom1, d1) = setup(50, 500);
        let b1 = g1.htod_copy(&d1).unwrap();
        let s1 = g1.alloc::<f32>(geom1.splitter_table_len()).unwrap();
        let (k1, _) = select_splitters(&mut g1, &b1, &s1, &geom1).unwrap();

        let (mut g2, geom2, d2) = setup(50, 2000);
        let b2 = g2.htod_copy(&d2).unwrap();
        let s2 = g2.alloc::<f32>(geom2.splitter_table_len()).unwrap();
        let (k2, _) = select_splitters(&mut g2, &b2, &s2, &geom2).unwrap();

        assert!(k2.cycles > k1.cycles);
    }

    fn run_det(gpu: &mut Gpu, geom: &BatchGeometry, data: &[f32]) -> Vec<f32> {
        let dbuf = gpu.htod_copy(data).unwrap();
        let mut sbuf = gpu.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (_, _) =
            select_splitters_with(gpu, &dbuf, &sbuf, geom, SplitterPolicy::Deterministic).unwrap();
        sbuf.to_host_vec()
    }

    /// Max bucket count produced by `bounds` over `arr`.
    fn max_bucket(arr: &[f32], bounds: &[f32]) -> usize {
        let p = bounds.len() - 1;
        let mut counts = vec![0usize; p];
        for &x in arr {
            counts[bucket_index(bounds, x)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn overflow_limit_is_two_ceil_n_over_p() {
        assert_eq!(overflow_limit(1000, 50), 40);
        assert_eq!(overflow_limit(1001, 50), 42, "ceiling, not floor");
        assert_eq!(overflow_limit(10, 1), 20);
        assert_eq!(overflow_limit(10, 0), 20, "p floored at 1");
    }

    #[test]
    fn deterministic_splitters_bound_buckets_on_uniform_data() {
        let (mut gpu, geom, data) = setup(10, 1000);
        let table = run_det(&mut gpu, &geom, &data);
        let limit = overflow_limit(geom.array_len, geom.buckets_per_array);
        for i in 0..geom.num_arrays {
            let arr = &data[i * 1000..(i + 1) * 1000];
            let row = &table
                [geom.splitter_offset(i)..geom.splitter_offset(i) + geom.boundaries_per_array];
            assert!(
                row.windows(2).all(|w| w[0].le(w[1])),
                "array {i} boundaries must ascend"
            );
            assert!(
                max_bucket(arr, row) <= limit,
                "array {i}: deterministic max bucket exceeds 2·⌈n/p⌉ = {limit}"
            );
        }
    }

    #[test]
    fn deterministic_splitters_bound_buckets_on_presorted_and_reversed() {
        let n = 1000;
        let cfg = ArraySortConfig::default();
        let geom = BatchGeometry::new(1, n, &cfg);
        let limit = overflow_limit(n, geom.buckets_per_array);
        for data in [
            (0..n).map(|x| x as f32).collect::<Vec<_>>(),
            (0..n).rev().map(|x| x as f32).collect::<Vec<_>>(),
        ] {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let table = run_det(&mut gpu, &geom, &data);
            let row = &table[..geom.boundaries_per_array];
            assert!(max_bucket(&data, row) <= limit);
        }
    }

    #[test]
    fn deterministic_selection_dedups_duplicate_candidates() {
        // Heavily duplicated input: picks must still ascend, and equal
        // picks only appear when no greater candidate remains.
        let mut arr: Vec<f32> = vec![5.0; 900];
        arr.extend((0..100).map(|x| 1000.0 + x as f32));
        let (picks, _) = deterministic_splitters(&arr, 50, 100);
        assert_eq!(picks.len(), 49);
        assert!(picks.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The selection as it stood before its host-side rewrite (one tile
    /// copy each, stable candidate sort, a pick scan restarting at
    /// `j·c/p`), with the real insertion sort for the tiles.
    fn reference_deterministic_splitters(
        arr: &[f32],
        p: usize,
        s: usize,
    ) -> (Vec<f32>, DeterministicWork) {
        let n = arr.len();
        let mut work = DeterministicWork::default();
        if p <= 1 || n == 0 {
            return (Vec::new(), work);
        }
        let tile_len = n.div_ceil(p);
        let per_tile = (s / p).max(1).max(p.min(tile_len));
        let mut candidates = Vec::new();
        for tile in arr.chunks(tile_len) {
            let mut sorted = tile.to_vec();
            work.tile_sort
                .add(crate::insertion::insertion_sort(&mut sorted));
            let m = sorted.len();
            let q = per_tile.min(m);
            for k in 1..=q {
                candidates.push(sorted[k * m / q - 1]);
            }
        }
        let c = candidates.len();
        work.candidates = c;
        let log_p = (usize::BITS - (p - 1).leading_zeros()).max(1) as u64;
        work.candidate_sort = InsertionWork {
            comparisons: c as u64 * log_p,
            moves: c as u64,
        };
        candidates.sort_by(|a, b| a.total_order(*b));
        let mut picks: Vec<f32> = Vec::new();
        for j in 1..p {
            let mut idx = (j * c / p).min(c - 1);
            if let Some(&prev) = picks.last() {
                while idx < c && !prev.lt(candidates[idx]) {
                    idx += 1;
                }
                if idx >= c {
                    idx = c - 1;
                }
            }
            picks.push(candidates[idx]);
        }
        (picks, work)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn deterministic_splitters_match_the_reference_selection() {
        // Uniform data and the five skew shapes, at odd lengths, with the
        // pipeline's sample size and with the re-split's 2·p.
        for n in [1, 7, 63, 255, 999, 1001] {
            let batch = skew_batch(6, n, n as u64);
            for arr in batch.chunks(n) {
                for p in [1, 2, 3, 7, 50, 64] {
                    for s in [(n / 10).max(1), 2 * p] {
                        let (picks, work) = deterministic_splitters(arr, p, s);
                        let (want, want_work) = reference_deterministic_splitters(arr, p, s);
                        let at = format!("n={n} p={p} s={s} arr[0]={}", arr[0]);
                        assert_eq!(bits(&picks), bits(&want), "picks, {at}");
                        assert_eq!(work.tile_sort, want_work.tile_sort, "{at}");
                        assert_eq!(work.candidate_sort, want_work.candidate_sort, "{at}");
                        assert_eq!(work.candidates, want_work.candidates, "{at}");
                    }
                }
            }
        }
    }

    /// `bounds` for `p` buckets from the deterministic selection over
    /// `source`: skewed or few-valued sources repeat splitters.
    fn det_bounds<K: SortKey>(source: &[K], p: usize) -> Vec<K> {
        let mut bounds = vec![K::min_sentinel()];
        bounds.extend(deterministic_splitters(source, p, 2 * p).0);
        bounds.push(K::max_sentinel());
        bounds
    }

    /// `bucket_ids` must return, per element, exactly the ids and
    /// counts of one reference search each.
    fn assert_bucket_ids_match<K: SortKey>(bounds: &[K], arr: &[K], at: &str) {
        let (ids, counts) = bucket_ids(bounds, arr);
        let want_ids: Vec<u32> = arr
            .iter()
            .map(|&x| bucket_index(bounds, x) as u32)
            .collect();
        let mut want_counts = vec![0u32; bounds.len() - 1];
        for &j in &want_ids {
            want_counts[j as usize] += 1;
        }
        assert_eq!(ids, want_ids, "{at}");
        assert_eq!(counts, want_counts, "{at}");
    }

    #[test]
    fn bucket_ids_match_two_searches_per_element() {
        // Splitters from skewed data repeat values; NaN keys and ±0
        // exercise the sentinel ends.
        let n = 999;
        let mut batch = skew_batch(6, n, 5);
        batch[3] = f32::NAN;
        batch[4] = -f32::NAN;
        batch[5] = -0.0;
        for arr in batch.chunks(n) {
            for p in [1, 2, 7, 50, 200] {
                let at = format!("p={p} arr[0]={}", arr[0]);
                assert_bucket_ids_match(&det_bounds(arr, p), arr, &at);
            }
        }

        // Short arrays hit every tail length around the lockstep chunk,
        // for each key type. Sixteen small values plus the type's
        // extremes (equal to its sentinels) make keys land on splitters.
        let draws: Vec<u64> = splitmix(64, 0xB0C4).collect();
        let f: Vec<f32> = draws
            .iter()
            .map(|&z| match z % 8 {
                0 => f32::NAN,
                1 => -f32::NAN,
                2 => f32::INFINITY,
                3 => -0.0,
                _ => (z >> 60) as f32 - 8.0,
            })
            .collect();
        let u: Vec<u32> = draws
            .iter()
            .map(|&z| match z % 8 {
                0 => u32::MIN,
                1 => u32::MAX,
                _ => (z >> 60) as u32,
            })
            .collect();
        let i: Vec<i32> = draws
            .iter()
            .map(|&z| match z % 8 {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => (z >> 60) as i32 - 8,
            })
            .collect();
        let w: Vec<u64> = draws
            .iter()
            .map(|&z| match z % 8 {
                0 => u64::MIN,
                1 => u64::MAX,
                _ => z >> 60,
            })
            .collect();
        for p in [1, 2, 7, 200] {
            let (bf, bu, bi, bw) = (
                det_bounds(&f, p),
                det_bounds(&u, p),
                det_bounds(&i, p),
                det_bounds(&w, p),
            );
            for len in 0..=17 {
                let at = format!("p={p} len={len}");
                assert_bucket_ids_match(&bf, &f[..len], &format!("f32 {at}"));
                assert_bucket_ids_match(&bu, &u[..len], &format!("u32 {at}"));
                assert_bucket_ids_match(&bi, &i[..len], &format!("i32 {at}"));
                assert_bucket_ids_match(&bw, &w[..len], &format!("u64 {at}"));
            }
        }

        // Runs of equal splitters, one of them on the +∞ end.
        let bounds = [
            f32::min_sentinel(),
            3.0,
            3.0,
            3.0,
            7.0,
            f32::INFINITY,
            f32::INFINITY,
            f32::max_sentinel(),
        ];
        assert_bucket_ids_match(&bounds, &f, "duplicate splitters");
    }

    #[test]
    fn deterministic_work_is_charged() {
        // The deterministic kernel sorts all n elements in tiles, so it
        // must bill more cycles than the 10 % sampling kernel.
        let (mut g1, geom, data) = setup(10, 1000);
        let b = g1.htod_copy(&data).unwrap();
        let s = g1.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (kr, _) = select_splitters(&mut g1, &b, &s, &geom).unwrap();

        let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
        let b = g2.htod_copy(&data).unwrap();
        let s = g2.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (kd, _) =
            select_splitters_with(&mut g2, &b, &s, &geom, SplitterPolicy::Deterministic).unwrap();
        assert!(
            kd.cycles > kr.cycles,
            "deterministic {} !> regular {}",
            kd.cycles,
            kr.cycles
        );
    }

    #[test]
    fn sorted_sample_is_cheaper_than_random() {
        // Adaptive insertion sort: presorted arrays sample presorted.
        let n = 2000;
        let sorted: Vec<f32> = (0..n).map(|x| x as f32).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let random: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let cfg = ArraySortConfig::default();
        let geom = BatchGeometry::new(1, n, &cfg);

        let mut g = Gpu::new(DeviceSpec::tesla_k40c());
        let b = g.htod_copy(&sorted).unwrap();
        let s = g.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (ks, _) = select_splitters(&mut g, &b, &s, &geom).unwrap();

        let mut g = Gpu::new(DeviceSpec::tesla_k40c());
        let b = g.htod_copy(&random).unwrap();
        let s = g.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let (kr, _) = select_splitters(&mut g, &b, &s, &geom).unwrap();

        assert!(
            ks.cycles < kr.cycles,
            "sorted {} !< random {}",
            ks.cycles,
            kr.cycles
        );
    }
}
