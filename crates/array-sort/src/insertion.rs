//! Insertion sort — the paper's choice for both the Phase-1 sample sort
//! and the Phase-3 bucket sort ("insertion sort has proven to be the
//! fastest known sorting algorithm for very small number of elements",
//! §5.3, citing PetaBricks).
//!
//! The device kernels sort the staged data for real and charge the exact
//! comparison and move counts insertion sort would report, so adaptive
//! behaviour (nearly-sorted buckets finish early, reversed buckets pay
//! the full quadratic bill) shows up in the simulated timings, as it
//! would on hardware. The host gets the sorted output and those counts
//! from [`simulated_insertion_sort`], which never runs the branchy
//! quadratic loop: a branch-free rank sort for short inputs, a counted
//! merge sort for long ones. `insertion_sort` stays as the reference
//! definition the tests compare against.

use gpu_sim::AccessPattern;

use crate::key::SortKey;

/// Work performed by one insertion sort, for cycle charging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertionWork {
    /// Key comparisons executed.
    pub comparisons: u64,
    /// Element moves (shifts + final placements).
    pub moves: u64,
}

impl InsertionWork {
    /// Accumulates another sort's work.
    pub fn add(&mut self, other: InsertionWork) {
        self.comparisons += other.comparisons;
        self.moves += other.moves;
    }
}

/// Sorts `a` ascending in place; returns the exact work done. The
/// reference that the tests hold every faster sort to.
#[cfg(test)]
pub fn insertion_sort<K: SortKey>(a: &mut [K]) -> InsertionWork {
    let mut work = InsertionWork::default();
    for i in 1..a.len() {
        let x = a[i];
        let mut j = i;
        // Shift larger elements right until x's slot is found.
        while j > 0 {
            work.comparisons += 1;
            if x.lt(a[j - 1]) {
                a[j] = a[j - 1];
                work.moves += 1;
                j -= 1;
            } else {
                break;
            }
        }
        if j != i {
            a[j] = x;
            work.moves += 1;
        }
    }
    work
}

/// Inputs up to this length take the branch-free rank sort; longer ones
/// the counted merge sort (DESIGN §13 has the measured crossover). It
/// also sizes the rank sort's stack buffers.
const RANK_SORT_MAX: usize = 256;

/// The same crossover for 8-byte keys: comparing their `u64` images
/// costs the rank sort about twice as much per pair (DESIGN §13).
const RANK_SORT_MAX_WIDE: usize = 64;

/// Base-run length of the counted merge sort: runs this short are
/// insertion-sorted in place before the merge passes.
const MERGE_RUN: usize = 16;

/// Sorts `a` and returns the **exact** work a real `insertion_sort`
/// would have done, without running its branchy O(s²) loop.
///
/// Every kernel sort of staged keys bills through this function: the
/// Phase-1 samples, the deterministic selection's tiles, the re-split's
/// forced sorts and, through [`charged_staged_insertion_sort`] or
/// directly, every per-bucket sort. Insertion sort shifts each element
/// past every earlier, strictly greater one, so with `I` the inversion
/// count
///
/// * `comparisons = I + (s − 1) − #(strict new prefix minima)` — every
///   element but the first probes once more to stop, unless it falls
///   all the way to index 0;
/// * `moves = I + #(elements below the running prefix maximum)` — an
///   element that shifted anything pays one final placement.
///
/// One linear scan gives both prefix counts, and finds sorted input.
/// Up to 256 elements (64 for 8-byte keys) a stable rank sort gives `I`
/// and the output; above, a stable bottom-up merge sort does. Either way
/// the simulated cycles charged are those of the quadratic algorithm the
/// paper runs.
pub fn simulated_insertion_sort<K: SortKey>(a: &mut [K]) -> InsertionWork {
    let rank_sort_max = if K::ELEM_BYTES == 4 {
        RANK_SORT_MAX
    } else {
        RANK_SORT_MAX_WIDE
    };
    if a.len() > rank_sort_max {
        merge_sort_counted(a)
    } else if K::ELEM_BYTES == 4 {
        // Four-byte keys have 32-bit images (the `order_bits` contract).
        // On `u64` images the rank sort took 7–58 % longer at 8 to 24
        // keys and 3.7–3.8× as long at 256 (DESIGN §13).
        rank_sort(a, |x| {
            let bits = x.order_bits();
            debug_assert!(
                bits <= u64::from(u32::MAX),
                "a 4-byte key's image fits in u32"
            );
            bits as u32
        })
    } else {
        rank_sort(a, K::order_bits)
    }
}

/// Insertion sort's exact work on `n` keys from the inversion count and
/// the [`prefix_counts`] (see [`simulated_insertion_sort`]).
fn exact_work(n: usize, inversions: u64, (new_minima, below_max): (u64, u64)) -> InsertionWork {
    InsertionWork {
        comparisons: inversions + (n - 1) as u64 - new_minima,
        moves: inversions + below_max,
    }
}

/// `(#strict new prefix minima, #elements below the running prefix
/// maximum)` of a non-empty sequence, strict as insertion sort's `lt`.
/// The second is 0 exactly when the sequence is already sorted.
fn prefix_counts<B: Copy + Ord>(mut bits: impl Iterator<Item = B>) -> (u64, u64) {
    let first = bits.next().expect("a non-empty input");
    let (mut lo, mut hi) = (first, first);
    let (mut new_minima, mut below_max) = (0u64, 0u64);
    for b in bits {
        new_minima += u64::from(b < lo);
        below_max += u64::from(b < hi);
        lo = lo.min(b);
        hi = hi.max(b);
    }
    (new_minima, below_max)
}

/// Stable rank sort of at most [`RANK_SORT_MAX`] keys by their order
/// images, branch-free. Element `i` lands at
/// `le_before = #{j < i : b_j ≤ b_i}` plus `lt_after = #{j > i : b_j < b_i}`;
/// one comparison per pair feeds both, since `b_j ≤ b_i` fails exactly
/// when `i` is a later, strictly smaller element than `j`. The
/// inversions are `Σ (i − le_before)`.
fn rank_sort<K: SortKey, B: Copy + Ord + Default>(
    a: &mut [K],
    image: impl Fn(K) -> B,
) -> InsertionWork {
    let n = a.len();
    if n < 2 {
        return InsertionWork::default();
    }
    let mut staged = [B::default(); RANK_SORT_MAX];
    let bits = &mut staged[..n];
    for (b, &x) in bits.iter_mut().zip(a.iter()) {
        *b = image(x);
    }
    let prefix = prefix_counts(bits.iter().copied());
    if prefix.1 == 0 {
        // Already sorted: one probe per element past the first, no moves.
        return InsertionWork {
            comparisons: (n - 1) as u64,
            moves: 0,
        };
    }
    let mut slots = [0u32; RANK_SORT_MAX];
    let slots = &mut slots[..n];
    let mut inversions = 0u64;
    for i in 1..n {
        let bi = bits[i];
        let mut le_before = 0u32;
        for (slot, &bj) in slots[..i].iter_mut().zip(&bits[..i]) {
            let le = bj <= bi;
            le_before += u32::from(le);
            *slot += u32::from(!le);
        }
        slots[i] += le_before;
        inversions += u64::from(i as u32 - le_before);
    }
    let mut out = [K::default(); RANK_SORT_MAX];
    for (&slot, &x) in slots.iter().zip(a.iter()) {
        out[slot as usize] = x;
    }
    a.copy_from_slice(&out[..n]);
    exact_work(n, inversions, prefix)
}

/// The counted merge sort: a stable bottom-up merge sort on
/// `(order_bits, key)` pairs that counts `I` as it goes — shifts inside
/// the insertion-sorted base runs, then `mid − i` left elements each
/// time a right element is taken first.
fn merge_sort_counted<K: SortKey>(a: &mut [K]) -> InsertionWork {
    let n = a.len();
    let mut src: Vec<(u64, K)> = a.iter().map(|&x| (x.order_bits(), x)).collect();
    let prefix = prefix_counts(src.iter().map(|&(b, _)| b));

    let mut inversions = 0u64;
    for run in src.chunks_mut(MERGE_RUN) {
        for i in 1..run.len() {
            let x = run[i];
            let mut j = i;
            while j > 0 && x.0 < run[j - 1].0 {
                run[j] = run[j - 1];
                j -= 1;
            }
            run[j] = x;
            inversions += (i - j) as u64;
        }
    }
    let mut dst = src.clone();
    let mut width = MERGE_RUN;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let mid = (lo + width).min(n);
            let end = (lo + 2 * width).min(n);
            inversions += merge_counted(&src[lo..mid], &src[mid..end], &mut dst[lo..end]);
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    for (x, &(_, k)) in a.iter_mut().zip(&src) {
        *x = k;
    }
    exact_work(n, inversions, prefix)
}

/// Stable merge of two sorted runs into `out`, branch-free: the right
/// element goes first only when strictly smaller, and then every left
/// element still waiting forms an inversion with it. Returns the number
/// of those inversions.
fn merge_counted<K: Copy>(left: &[(u64, K)], right: &[(u64, K)], out: &mut [(u64, K)]) -> u64 {
    let (mut i, mut j, mut inversions) = (0, 0, 0u64);
    while i < left.len() && j < right.len() {
        let (l, r) = (left[i], right[j]);
        let take_right = r.0 < l.0;
        out[i + j] = std::hint::select_unpredictable(take_right, r, l);
        inversions += std::hint::select_unpredictable(take_right, (left.len() - i) as u64, 0);
        j += usize::from(take_right);
        i += usize::from(!take_right);
    }
    let k = i + j;
    out[k..k + left.len() - i].copy_from_slice(&left[i..]);
    out[k + left.len() - i..].copy_from_slice(&right[j..]);
    inversions
}

/// Charges the in-shared compare/shift traffic of an insertion sort whose
/// measured [`InsertionWork`] is `work`: two shared accesses per
/// comparison (read the probe, read the neighbour), one per element move,
/// and one ALU op per comparison. Every kernel that runs an insertion
/// sort on staged data bills it through this single function so the cost
/// model cannot drift between call sites.
pub fn charge_insertion_work(t: &mut gpu_sim::ThreadCtx, work: InsertionWork) {
    t.charge_shared(2 * work.comparisons + work.moves);
    t.charge_alu(work.comparisons);
}

/// The per-thread "stage, sort, write back" primitive of every bucket
/// sort that stages through shared memory — the three-kernel Phase 3
/// and the merge variant's chunk sort: loads a per-thread
/// contiguous (warp-scattered) segment into shared memory, insertion-sorts
/// it there, and stores it back, charging the exact traffic of each step.
/// Returns the sort's work, which [`simulated_insertion_sort`] computes
/// without running the quadratic sort.
///
/// The segment really is sorted in place (through the global view the
/// caller sliced), so the data effect and the cycle bill stay welded
/// together at one call site.
pub fn charged_staged_insertion_sort<K: SortKey>(
    t: &mut gpu_sim::ThreadCtx,
    segment: &mut [K],
) -> InsertionWork {
    let len = segment.len() as u64;
    t.charge_global(len, K::ELEM_BYTES, AccessPattern::Scattered);
    t.charge_shared(len);
    let work = simulated_insertion_sort(segment);
    charge_insertion_work(t, work);
    t.charge_shared(len);
    t.charge_global(len, K::ELEM_BYTES, AccessPattern::Scattered);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::splitmix;

    #[test]
    fn empty_and_singleton_do_no_work() {
        let mut a: [f32; 0] = [];
        assert_eq!(insertion_sort(&mut a), InsertionWork::default());
        let mut a = [3.0f32];
        assert_eq!(insertion_sort(&mut a), InsertionWork::default());
    }

    #[test]
    fn sorts_reverse_input_with_quadratic_work() {
        let mut a: Vec<u32> = (0..20).rev().collect();
        let w = insertion_sort(&mut a);
        assert!(a.windows(2).all(|x| x[0] <= x[1]));
        // Reverse input: every pair inverted => n(n-1)/2 = 190 comparisons.
        assert_eq!(w.comparisons, 190);
    }

    #[test]
    fn sorted_input_is_linear() {
        let mut a: Vec<u32> = (0..100).collect();
        let w = insertion_sort(&mut a);
        assert_eq!(w.comparisons, 99, "one comparison per element, no shifts");
        assert_eq!(w.moves, 0);
    }

    #[test]
    fn handles_duplicates_stably_by_value() {
        let mut a = vec![2.0f32, 1.0, 2.0, 1.0, 1.0];
        insertion_sort(&mut a);
        assert_eq!(a, vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn sorts_nan_via_total_order() {
        let mut a = vec![1.0f32, f32::NAN, -1.0, f32::NEG_INFINITY];
        insertion_sort(&mut a);
        assert_eq!(a[0], f32::NEG_INFINITY);
        assert_eq!(a[1], -1.0);
        assert_eq!(a[2], 1.0);
        assert!(a[3].is_nan());
    }

    #[test]
    fn simulated_work_matches_real_insertion_sort() {
        // Pseudo-random, duplicate-heavy, sorted and reversed inputs must
        // all report identical work to the quadratic reference.
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            (0..64).collect(),
            (0..64).rev().collect(),
            (0..257).map(|i| (i * 2654435761u64 % 97) as u32).collect(),
            vec![5; 40],
            (0..100).map(|i| (i * 31 % 7) as u32).collect(),
        ];
        for case in cases {
            let mut real = case.clone();
            let mut sim = case.clone();
            let wr = insertion_sort(&mut real);
            let ws = simulated_insertion_sort(&mut sim);
            assert_eq!(real, sim, "sorted outputs agree for {case:?}");
            assert_eq!(wr, ws, "work counts agree for {case:?}");
        }
    }

    #[test]
    fn simulated_work_matches_real_on_floats_with_nan() {
        let case = vec![3.0f32, f32::NAN, -1.0, 3.0, 0.0, f32::NAN, -0.0];
        let mut real = case.clone();
        let mut sim = case;
        let wr = insertion_sort(&mut real);
        let ws = simulated_insertion_sort(&mut sim);
        assert_eq!(wr, ws);
        assert_eq!(
            real.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            sim.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A key type the exact-work test draws inputs of.
    trait Drawn: SortKey {
        /// A key from one raw SplitMix draw.
        fn draw(z: u64) -> Self;
        /// The small value `k` (few-distinct and all-equal inputs).
        fn small(k: u64) -> Self;
        /// Edge values: NaNs of both signs and several payloads, ±0 and
        /// ±∞ for `f32`; the extremes, and for `u64` keys that agree in
        /// their low 32 bits, for the integers.
        fn edges() -> Vec<Self>;
    }

    impl Drawn for f32 {
        fn draw(z: u64) -> Self {
            (z >> 40) as f32
        }
        fn small(k: u64) -> Self {
            k as f32
        }
        fn edges() -> Vec<Self> {
            let payloads = [0x7FC0_0000, 0x7FC0_0001, 0x7F80_0001, 0x7FFF_FFFF];
            let nans = payloads
                .into_iter()
                .flat_map(|b: u32| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)]);
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]
                .into_iter()
                .chain(nans)
                .collect()
        }
    }

    impl Drawn for u32 {
        fn draw(z: u64) -> Self {
            z as u32
        }
        fn small(k: u64) -> Self {
            k as u32
        }
        fn edges() -> Vec<Self> {
            vec![0, 1, 7, 1 << 31, u32::MAX - 1, u32::MAX]
        }
    }

    impl Drawn for i32 {
        fn draw(z: u64) -> Self {
            z as i32
        }
        fn small(k: u64) -> Self {
            k as i32 - 1
        }
        fn edges() -> Vec<Self> {
            vec![i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX]
        }
    }

    impl Drawn for u64 {
        fn draw(z: u64) -> Self {
            z
        }
        fn small(k: u64) -> Self {
            k
        }
        fn edges() -> Vec<Self> {
            vec![
                0,
                1,
                1 << 32,
                (1 << 32) + 1,
                1 << 63,
                u64::from(u32::MAX),
                u64::MAX - 1,
                u64::MAX,
            ]
        }
    }

    /// Seven inputs of length `len` from a SplitMix stream: random,
    /// all-equal, presorted, reversed, three distinct values, small
    /// duplicates mixed with the type's edge values, and edge values
    /// only.
    fn cases<K: Drawn>(len: usize) -> Vec<Vec<K>> {
        let raw: Vec<u64> = splitmix(len, len as u64).collect();
        let random: Vec<K> = raw.iter().map(|&z| K::draw(z)).collect();
        let mut sorted = random.clone();
        sorted.sort_by(|x, y| x.total_order(*y));
        let reversed = sorted.iter().rev().copied().collect();
        let few = raw.iter().map(|&z| K::small(z % 3)).collect();
        let edges = K::edges();
        let mixed = raw
            .iter()
            .map(|&z| match z % 3 {
                0 => edges[(z / 3) as usize % edges.len()],
                _ => K::small(z % 17),
            })
            .collect();
        let extremes = raw
            .iter()
            .map(|&z| edges[z as usize % edges.len()])
            .collect();
        vec![
            random,
            vec![K::small(5); len],
            sorted,
            reversed,
            few,
            mixed,
            extremes,
        ]
    }

    /// Runs both sorts on every case at every length in `lens`; the work
    /// and the output bits must agree.
    fn assert_exact_work<K: Drawn>(lens: impl Iterator<Item = usize>) {
        let name = std::any::type_name::<K>();
        for len in lens {
            for (shape, case) in cases::<K>(len).into_iter().enumerate() {
                let mut real = case.clone();
                let mut sim = case;
                let wr = insertion_sort(&mut real);
                let ws = simulated_insertion_sort(&mut sim);
                assert_eq!(wr, ws, "{name} work, shape {shape} at length {len}");
                assert!(
                    real.iter()
                        .zip(&sim)
                        .all(|(a, b)| a.order_bits() == b.order_bits()),
                    "{name} output bits, shape {shape} at length {len}"
                );
            }
        }
    }

    #[test]
    fn simulated_sort_equals_insertion_sort_at_every_length() {
        // Every length through both tiers must report the real sort's
        // bits and work: the rank sort's trivial inputs (0, 1, 2), its
        // top length and the merge's first, ragged last runs, several
        // merge levels and the fig7 sample's 4000-element worst case.
        // `order_bits` is a bijection, so equal images are equal bits;
        // the 4-byte keys take the rank sort's 32-bit images, u64 keys
        // the full 64 bits. Past the first merge level the range runs
        // on to 600, where the width-512 merge meets a right run with
        // merge levels of its own.
        let lens = || (0..=600.max(2 * RANK_SORT_MAX + MERGE_RUN + 1)).chain([1000, 4000]);
        assert_exact_work::<f32>(lens());
        assert_exact_work::<u32>(lens());
        assert_exact_work::<i32>(lens());
        assert_exact_work::<u64>(lens());
    }

    #[test]
    fn work_counts_are_monotone_in_disorder() {
        let sorted: Vec<u32> = (0..50).collect();
        let mut nearly = sorted.clone();
        nearly.swap(10, 11);
        let mut reversed: Vec<u32> = (0..50).rev().collect();
        let mut s = sorted.clone();
        let ws = insertion_sort(&mut s);
        let wn = insertion_sort(&mut nearly);
        let wr = insertion_sort(&mut reversed);
        assert!(ws.comparisons <= wn.comparisons);
        assert!(wn.comparisons < wr.comparisons);
    }
}
