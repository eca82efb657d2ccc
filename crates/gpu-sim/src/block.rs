//! Block-level execution: [`BlockCtx`], [`ThreadCtx`] and block shared
//! memory.
//!
//! A kernel is a `Fn(&mut BlockCtx)` run once per block of the grid. Inside,
//! the kernel structures its work as *phases*: each call to
//! [`BlockCtx::threads`] runs a per-thread closure for every thread of the
//! block and ends with an implicit `__syncthreads()`. This is exactly the
//! barrier-separated structure CUDA kernels have, and it lets the simulator
//! execute a block's threads sequentially (no host synchronization) while
//! still modelling SIMT timing:
//!
//! * threads accumulate cycles through the `charge_*` API as they do real
//!   work;
//! * at the end of a phase, threads fold into warps — a warp costs as much
//!   as its slowest thread (lockstep), which is also how branch divergence
//!   manifests;
//! * warps fold into the SM's issue slots with the standard makespan lower
//!   bound `max(Σwarp / slots, max warp)`.

use crate::cost::{
    AccessPattern, ALU, ATOMIC_GLOBAL, ATOMIC_SHARED, DIVERGENCE, GLOBAL_LATENCY, SHARED_ACCESS,
    SYNC, WARP_SHUFFLE, WARP_SIZE, WARP_VOTE,
};
use crate::stats::Counters;

/// Execution context for one block of a launch. Created by the launcher;
/// kernels receive `&mut BlockCtx` and never construct one themselves.
pub struct BlockCtx {
    block_idx: u32,
    grid_dim: u32,
    block_dim: u32,
    warp_slots: u32,
    thrust_elem_cycles: f64,
    cycles: f64,
    counters: Counters,
    /// Per-thread cycles of the current [`BlockCtx::threads`] phase, sized
    /// by its first call: a block whose phases are all uniform never
    /// allocates it.
    thread_cycles: Vec<f64>,
}

impl BlockCtx {
    /// Internal constructor used by the launcher.
    pub(crate) fn new(
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        warp_slots: u32,
        thrust_elem_cycles: f64,
    ) -> Self {
        Self {
            block_idx,
            grid_dim,
            block_dim,
            warp_slots: warp_slots.max(1),
            thrust_elem_cycles,
            cycles: 0.0,
            counters: Counters::default(),
            thread_cycles: Vec::new(),
        }
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Runs one barrier-separated phase: `f` is invoked for every thread
    /// `tid ∈ [0, block_dim)` with a fresh [`ThreadCtx`], then the phase's
    /// cycle bill is folded warp-wise and added to the block total,
    /// including the barrier cost.
    pub fn threads<F: FnMut(&mut ThreadCtx)>(&mut self, mut f: F) {
        self.thread_cycles.resize(self.block_dim as usize, 0.0);
        for tid in 0..self.block_dim {
            let mut t = self.thread_ctx(tid);
            f(&mut t);
            self.thread_cycles[tid as usize] = t.cycles;
            self.counters.merge(&t.counters);
        }
        self.fold_phase();
    }

    /// Runs one barrier-separated phase in which every thread charges the
    /// same bill: `f` runs once and its cycles and counters are billed for
    /// each of the block's `block_dim` threads. Cycles, syncs and every
    /// counter come out bit-identical to [`BlockCtx::threads`] running the
    /// same closure, for one closure call instead of `block_dim`.
    ///
    /// It applies when the closure's charges do not depend on `tid`: the
    /// kernel does its real data movement at block scope, and `f` keeps
    /// only the `charge_*` calls. Debug builds replay `f` for every `tid`
    /// and panic if any thread's bill differs from thread 0's.
    ///
    /// The fold takes one addition per warp: every warp's slowest lane is
    /// thread 0's bill, so the warp sum is that bill added once per warp,
    /// in the order [`BlockCtx::threads`] adds them.
    pub fn uniform_threads<F: FnMut(&mut ThreadCtx)>(&mut self, mut f: F) {
        let mut one = self.thread_ctx(0);
        f(&mut one);
        #[cfg(debug_assertions)]
        for tid in 1..self.block_dim {
            let mut t = self.thread_ctx(tid);
            f(&mut t);
            assert!(
                t.cycles.to_bits() == one.cycles.to_bits() && t.counters == one.counters,
                "uniform_threads: thread {tid} billed {} cycles {:?}, thread 0 {} cycles {:?}",
                t.cycles,
                t.counters,
                one.cycles,
                one.counters
            );
        }
        self.counters
            .merge_scaled(&one.counters, self.block_dim as u64);
        // A warp bills the max of its lanes, folded up from 0. A launch
        // has at least one thread, so this is also the slowest warp.
        let warp = 0.0f64.max(one.cycles);
        let mut sum = 0.0f64;
        for _ in 0..self.block_dim.div_ceil(WARP_SIZE) {
            sum += warp;
        }
        self.close_phase(sum, warp);
    }

    /// Runs a phase where only one thread of the block does work — the
    /// paper's Phase 1 launches one worker thread per block. Cheaper than
    /// `threads` with an `if tid == 0` guard and models the same cost (the
    /// warp's other lanes idle at the worker's pace).
    pub fn one_thread<F: FnOnce(&mut ThreadCtx)>(&mut self, f: F) {
        let mut t = self.thread_ctx(0);
        f(&mut t);
        self.counters.merge(&t.counters);
        self.counters.syncs += 1;
        self.cycles += t.cycles + SYNC;
    }

    /// Records `n` bucket-overflow events for the block, as
    /// [`ThreadCtx::record_bucket_overflow`] does for one thread: zero
    /// cycles, so a phase that records one can still bill through
    /// [`BlockCtx::uniform_threads`].
    pub fn record_bucket_overflow(&mut self, n: u64) {
        self.counters.bucket_overflows += n;
    }

    /// A fresh [`ThreadCtx`] for thread `tid` of this block.
    #[inline]
    fn thread_ctx(&self, tid: u32) -> ThreadCtx {
        ThreadCtx {
            tid,
            block_idx: self.block_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
            thrust_elem_cycles: self.thrust_elem_cycles,
            cycles: 0.0,
            counters: Counters::default(),
        }
    }

    fn fold_phase(&mut self) {
        let mut sum = 0.0f64;
        let mut maxw = 0.0f64;
        for warp in self.thread_cycles.chunks(WARP_SIZE as usize) {
            let w = warp.iter().copied().fold(0.0f64, f64::max);
            sum += w;
            if w > maxw {
                maxw = w;
            }
        }
        self.close_phase(sum, maxw);
    }

    /// Bills one phase from its warp sum and slowest warp, plus the barrier.
    fn close_phase(&mut self, warp_sum: f64, warp_max: f64) {
        let phase = (warp_sum / self.warp_slots as f64).max(warp_max);
        self.counters.syncs += 1;
        self.cycles += phase + SYNC;
    }

    /// Cycles this block has billed so far: every phase folded up to the
    /// last barrier. Read it around a group of phases to attribute the
    /// block's bill to them.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Total cycles this block has accumulated, rounded to whole cycles.
    /// The launcher reads this once the kernel body returns.
    pub(crate) fn finish(self) -> (u64, Counters) {
        (self.cycles.round() as u64, self.counters)
    }
}

/// Per-thread execution context: identity plus the cycle-charging API.
///
/// The `charge_*` methods are how kernels attach the cost model to the real
/// work they do; the cycle constants live in `gpu-sim`'s `cost` module.
pub struct ThreadCtx {
    /// `threadIdx.x`.
    pub tid: u32,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    thrust_elem_cycles: f64,
    cycles: f64,
    counters: Counters,
}

impl ThreadCtx {
    /// `blockIdx.x * blockDim.x + threadIdx.x` — the canonical global id.
    pub fn global_idx(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.tid as usize
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Charges `n` ALU/compare/move instructions.
    #[inline]
    pub fn charge_alu(&mut self, n: u64) {
        self.cycles += ALU * n as f64;
        self.counters.alu += n;
    }

    /// Charges `n` shared-memory accesses (assumed conflict-free: one bank
    /// pass each).
    #[inline]
    pub fn charge_shared(&mut self, n: u64) {
        self.cycles += SHARED_ACCESS * n as f64;
        self.counters.shared_accesses += n;
        self.counters.shared_bank_passes += n;
    }

    /// Charges `accesses` shared-memory accesses that bank conflicts
    /// serialize into `bank_passes` passes in all: an access that suffers
    /// a `d`-way conflict takes `d` passes, so both the cycle bill and the
    /// bank-pass counter scale with the passes. Every access takes at
    /// least one pass, so a total below `accesses` is raised to it.
    ///
    /// One call with a thread's totals bills exactly what one call per
    /// access would, bit for bit: a shared access costs a whole number of
    /// cycles (checked at compile time), so each addend and partial sum
    /// is an integer an `f64` holds exactly.
    #[inline]
    pub fn charge_shared_conflicted(&mut self, accesses: u64, bank_passes: u64) {
        let passes = bank_passes.max(accesses);
        self.cycles += SHARED_ACCESS * passes as f64;
        self.counters.shared_accesses += accesses;
        self.counters.shared_bank_passes += passes;
    }

    /// Charges `elems` global-memory accesses of `elem_bytes`-sized values
    /// under `pattern`. Cost is the warp-amortized transaction bill.
    #[inline]
    pub fn charge_global(&mut self, elems: u64, elem_bytes: u32, pattern: AccessPattern) {
        let per = pattern.global_cost_per_elem(elem_bytes);
        self.cycles += per * elems as f64;
        self.counters.global_elems += elems;
        let txns_per_warp = pattern.warp_transactions(elem_bytes);
        self.counters.global_txn_micro +=
            (txns_per_warp as u64 * elems * 1_000_000) / WARP_SIZE as u64;
    }

    /// Charges `accesses` *latency-bound* global accesses: serial code (a
    /// single worker thread with no other warps to hide behind) pays the
    /// full exposed latency each time.
    #[inline]
    pub fn charge_global_serial(&mut self, accesses: u64) {
        self.cycles += GLOBAL_LATENCY * accesses as f64;
        self.counters.global_elems += accesses;
        self.counters.global_txn_micro += accesses * 1_000_000;
    }

    /// Charges `n` global atomic RMW operations.
    #[inline]
    pub fn charge_atomic_global(&mut self, n: u64) {
        self.cycles += ATOMIC_GLOBAL * n as f64;
        self.counters.atomics_global += n;
    }

    /// Charges `n` shared-memory atomic RMW operations.
    #[inline]
    pub fn charge_atomic_shared(&mut self, n: u64) {
        self.cycles += ATOMIC_SHARED * n as f64;
        self.counters.atomics_shared += n;
    }

    /// Charges `ops` shared-memory atomic RMWs that same-address
    /// contention serializes into `serialized` RMW slots in all: an RMW
    /// that `d` lanes of a warp aim at the **same word** waits for all `d`,
    /// so the cycle bill scales with `serialized` (at least one slot per
    /// op). The operation count does not — contention makes atomics
    /// slower, not more numerous.
    ///
    /// As with [`ThreadCtx::charge_shared_conflicted`], one call with a
    /// thread's totals bills exactly what one call per op would: a shared
    /// atomic costs a whole number of cycles.
    #[inline]
    pub fn charge_atomic_shared_contended(&mut self, ops: u64, serialized: u64) {
        self.cycles += ATOMIC_SHARED * serialized.max(ops) as f64;
        self.counters.atomics_shared += ops;
    }

    /// Charges the calibrated per-element overhead of the Thrust-era
    /// radix sort ([`crate::Gpu::with_thrust_elem_cycles`]) for `elems`
    /// elements of one pass, split by `fraction` between the pass's kernels.
    #[inline]
    pub fn charge_baseline_sort(&mut self, elems: u64, fraction: f64) {
        self.charge_baseline_cycles(self.thrust_elem_cycles * fraction * elems as f64);
    }

    /// Charges raw calibration cycles (tracked separately in the counters
    /// so reports can distinguish structural from calibrated cost). Used
    /// by baseline kernels whose end-to-end throughput is anchored to
    /// published/measured numbers rather than derived from first
    /// principles.
    #[inline]
    pub fn charge_baseline_cycles(&mut self, cycles: f64) {
        self.cycles += cycles;
        self.counters.baseline_cycles += cycles.round() as u64;
    }

    /// Records `events` divergent-branch events: the warp executes both
    /// sides, so each event costs extra cycles on top of whatever work the
    /// thread charged.
    #[inline]
    pub fn charge_divergence(&mut self, events: u64) {
        self.cycles += DIVERGENCE * events as f64;
        self.counters.divergence_events += events;
    }

    /// Charges `n` warp-vote instructions (`ballot`/`match_any` class).
    /// Votes ride the register file: no shared accesses, no bank passes.
    #[inline]
    pub fn charge_warp_vote(&mut self, n: u64) {
        self.cycles += WARP_VOTE * n as f64;
        self.counters.warp_votes += n;
    }

    /// Charges `n` warp-shuffle instructions (`shfl` class).
    #[inline]
    pub fn charge_warp_shuffle(&mut self, n: u64) {
        self.cycles += WARP_SHUFFLE * n as f64;
        self.counters.warp_shuffles += n;
    }

    /// Records `n` bucket-overflow events
    /// ([`crate::stats::Counters::bucket_overflows`]). Bookkeeping only —
    /// zero cycles — so detecting an overflow never changes a clean run's
    /// bill; the *recovery* work (re-split kernels) is charged by the
    /// kernels that perform it.
    #[inline]
    pub fn record_bucket_overflow(&mut self, n: u64) {
        self.counters.bucket_overflows += n;
    }

    /// Charges one warp-exclusive prefix scan done with shuffles: the
    /// Kogge–Stone ladder is `⌈log₂ WARP_SIZE⌉` shuffle + add steps per
    /// lane (see [`crate::block::warp::exclusive_sum`] for the value
    /// semantics this bill belongs to).
    #[inline]
    pub fn charge_warp_scan(&mut self) {
        let steps = warp::scan_steps() as u64;
        self.charge_warp_shuffle(steps);
        self.charge_alu(steps);
    }

    /// Cycles this thread has accumulated so far in the current phase.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }
}

/// Warp-level intrinsics with **honest value semantics**.
///
/// The simulator executes a block's threads sequentially, so warp-wide
/// collectives cannot be expressed inside a per-thread closure the way
/// CUDA writes them. Instead, kernels compute the collective's result
/// with these host-side reference functions (each takes the warp's lanes
/// as a slice, lane `i` at index `i`) and bill the cycles through
/// [`ThreadCtx::charge_warp_vote`] / [`ThreadCtx::charge_warp_shuffle`] /
/// [`ThreadCtx::charge_warp_scan`]. The functions are deliberately
/// scalar and obviously correct — `tests/warp.rs` property-checks the
/// kernels' uses against them.
pub mod warp {
    use crate::cost::WARP_SIZE;

    /// `__ballot_sync`: bitmask of lanes whose predicate holds. Lane `i`
    /// of `preds` maps to bit `i`. Panics past 64 lanes (no real part has
    /// them).
    pub fn ballot(preds: &[bool]) -> u64 {
        assert!(preds.len() <= 64, "ballot supports at most 64 lanes");
        preds
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| if p { m | (1u64 << i) } else { m })
    }

    /// `__match_any_sync`-style peer grouping: for each lane, the bitmask
    /// of lanes holding an **equal** value (always includes the lane
    /// itself).
    pub fn match_any(vals: &[u32]) -> Vec<u64> {
        assert!(vals.len() <= 64, "match_any supports at most 64 lanes");
        vals.iter()
            .map(|&v| ballot(&vals.iter().map(|&w| w == v).collect::<Vec<_>>()))
            .collect()
    }

    /// Warp-exclusive prefix sum (the shuffle-ladder scan): output lane
    /// `i` holds the sum of lanes `0..i`; lane 0 holds 0.
    pub fn exclusive_sum(vals: &[u32]) -> Vec<u32> {
        let mut acc = 0u32;
        vals.iter()
            .map(|&v| {
                let out = acc;
                acc += v;
                out
            })
            .collect()
    }

    /// Steps of the Kogge–Stone shuffle ladder for a warp of
    /// [`WARP_SIZE`] lanes: `⌈log₂ WARP_SIZE⌉`.
    pub const fn scan_steps() -> u32 {
        u32::BITS - (WARP_SIZE - 1).leading_zeros()
    }

    /// Number of *leader lanes* in a warp: lanes that are the lowest
    /// member of their [`match_any`] peer group. This is the atomic count
    /// a warp-aggregated atomic update issues (one RMW per distinct
    /// value) instead of one per lane.
    pub fn leader_count(vals: &[u32]) -> usize {
        vals.iter()
            .enumerate()
            .filter(|&(i, v)| !vals[..i].contains(v))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::THRUST_ELEM_CYCLES;

    fn block(block_dim: u32) -> BlockCtx {
        BlockCtx::new(0, 1, block_dim, 6, THRUST_ELEM_CYCLES)
    }

    #[test]
    fn single_warp_phase_costs_max_thread() {
        let mut b = block(32);
        b.threads(|t| {
            // Thread 5 does 100 ops, everyone else 10: lockstep bills 100.
            t.charge_alu(if t.tid == 5 { 100 } else { 10 });
        });
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, 100 + SYNC as u64);
        assert_eq!(counters.alu, 31 * 10 + 100);
        assert_eq!(counters.syncs, 1);
    }

    #[test]
    fn warp_slots_divide_uniform_work() {
        // 12 warps of equal work on 6 slots => 2 rounds.
        let mut b = block(12 * 32);
        b.threads(|t| t.charge_alu(60));
        let (cycles, _) = b.finish();
        assert_eq!(cycles, 120 + SYNC as u64);
    }

    #[test]
    fn skewed_warp_dominates_makespan() {
        let mut b = block(2 * 32);
        b.threads(|t| {
            // Warp 0 does 1000 cycles, warp 1 does 10: makespan = 1000.
            t.charge_alu(if t.tid < 32 { 1000 } else { 10 });
        });
        let (cycles, _) = b.finish();
        assert_eq!(cycles, 1000 + SYNC as u64);
    }

    #[test]
    fn phases_accumulate() {
        let mut b = block(32);
        b.threads(|t| t.charge_alu(10));
        assert_eq!(b.cycles(), 10.0 + SYNC);
        b.threads(|t| t.charge_alu(20));
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, 30 + 2 * SYNC as u64);
        assert_eq!(counters.syncs, 2);
    }

    #[test]
    fn one_thread_phase_charges_serial_cost() {
        let mut b = block(1);
        b.one_thread(|t| {
            t.charge_global_serial(3);
            t.charge_alu(5);
        });
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, (3.0 * GLOBAL_LATENCY + 5.0 + SYNC) as u64);
        assert_eq!(counters.global_elems, 3);
    }

    #[test]
    fn global_charge_counts_transactions() {
        let mut b = block(32);
        b.threads(|t| t.charge_global(4, 4, AccessPattern::Coalesced));
        let (_, counters) = b.finish();
        // 32 threads * 4 coalesced f32 accesses => 4 warp transactions.
        assert_eq!(counters.global_txns(), 4);
        assert_eq!(counters.global_elems, 128);
    }

    #[test]
    fn warp_charges_bill_register_ops_without_bank_passes() {
        let mut b = block(32);
        b.threads(|t| {
            t.charge_warp_vote(3);
            t.charge_warp_shuffle(2);
            t.charge_warp_scan();
        });
        let (cycles, counters) = b.finish();
        assert_eq!(counters.warp_votes, 32 * 3);
        // scan = 5 shuffle steps at WARP_SIZE 32, plus the 2 explicit ones.
        assert_eq!(counters.warp_shuffles, 32 * (2 + 5));
        assert_eq!(counters.shared_accesses, 0, "no shared traffic");
        assert_eq!(counters.shared_bank_passes, 0, "no bank passes");
        let per_thread = 3.0 * WARP_VOTE + 7.0 * WARP_SHUFFLE + 5.0 * ALU;
        assert_eq!(cycles, (per_thread + SYNC) as u64);
    }

    #[test]
    fn contended_atomics_cost_more_but_count_the_same() {
        let mut b = block(32);
        // Two RMWs, each 3-way contended: 6 serialized slots.
        b.threads(|t| t.charge_atomic_shared_contended(2, 6));
        let (cycles, counters) = b.finish();
        assert_eq!(counters.atomics_shared, 32 * 2, "ops, not passes");
        assert_eq!(cycles, (2.0 * 3.0 * ATOMIC_SHARED + SYNC) as u64);
        // Fewer slots than ops clamp to one each (an uncontended RMW).
        let mut b = block(1);
        b.threads(|t| t.charge_atomic_shared_contended(1, 0));
        let (cycles, _) = b.finish();
        assert_eq!(cycles, (ATOMIC_SHARED + SYNC) as u64);
    }

    #[test]
    fn one_totals_call_bills_like_one_call_per_element() {
        // A kernel may bill a thread's elements with one call per method,
        // passing the summed degrees. Under the whole-cycle constants that
        // must match one call per element bit for bit: cycles, the fold and
        // every counter.
        let mut rng = SplitMix(0x7074);
        for block_dim in [1u32, 32, 200, 256] {
            // Per element: (bank-conflict degree, same-address lanes),
            // degree 0 included to exercise the clamp.
            let elems: Vec<Vec<(u64, u64)>> = (0..block_dim)
                .map(|_| {
                    (0..rng.below(40))
                        .map(|_| (rng.below(33), rng.below(33)))
                        .collect()
                })
                .collect();
            let per_element = {
                let mut b = block(block_dim);
                b.threads(|t| {
                    for &(degree, lanes) in &elems[t.tid as usize] {
                        t.charge_shared(1);
                        t.charge_atomic_shared_contended(1, lanes);
                        t.charge_alu(1);
                        t.charge_shared_conflicted(1, degree);
                    }
                });
                (b.cycles.to_bits(), b.finish())
            };
            let totals = {
                let mut b = block(block_dim);
                b.threads(|t| {
                    let mine = &elems[t.tid as usize];
                    let m = mine.len() as u64;
                    let passes: u64 = mine.iter().map(|&(d, _)| d.max(1)).sum();
                    let slots: u64 = mine.iter().map(|&(_, c)| c.max(1)).sum();
                    t.charge_shared(m);
                    t.charge_atomic_shared_contended(m, slots);
                    t.charge_alu(m);
                    t.charge_shared_conflicted(m, passes);
                });
                (b.cycles.to_bits(), b.finish())
            };
            assert_eq!(per_element, totals, "block_dim {block_dim}");
        }
    }

    #[test]
    fn warp_ballot_matches_the_bit_definition() {
        let mut preds = [false; 32];
        preds[0] = true;
        preds[5] = true;
        preds[31] = true;
        assert_eq!(warp::ballot(&preds), 1 | (1 << 5) | (1 << 31));
        assert_eq!(warp::ballot(&[]), 0);
    }

    #[test]
    fn warp_match_any_groups_peers() {
        let masks = warp::match_any(&[7, 3, 7, 3, 9]);
        assert_eq!(masks[0], 0b00101);
        assert_eq!(masks[1], 0b01010);
        assert_eq!(masks[2], 0b00101);
        assert_eq!(masks[4], 0b10000);
    }

    #[test]
    fn warp_exclusive_sum_and_leaders() {
        assert_eq!(warp::exclusive_sum(&[3, 1, 4, 1]), vec![0, 3, 4, 8]);
        assert_eq!(warp::leader_count(&[7, 3, 7, 3, 9]), 3);
        assert_eq!(warp::scan_steps(), 5);
    }

    /// One `charge_*` call of a tid-independent test closure.
    #[derive(Clone, Copy, Debug)]
    enum Charge {
        Alu(u64),
        Shared(u64),
        SharedConflicted(u64, u64),
        Global(u64, u32, AccessPattern),
        GlobalSerial(u64),
        AtomicGlobal(u64),
        AtomicShared(u64),
        AtomicSharedContended(u64, u64),
        BaselineSort(u64, f64),
        BaselineCycles(f64),
        Divergence(u64),
        WarpVote(u64),
        WarpShuffle(u64),
        WarpScan,
        BucketOverflow(u64),
    }

    impl Charge {
        fn apply(self, t: &mut ThreadCtx) {
            match self {
                Charge::Alu(n) => t.charge_alu(n),
                Charge::Shared(n) => t.charge_shared(n),
                Charge::SharedConflicted(n, passes) => t.charge_shared_conflicted(n, passes),
                Charge::Global(n, bytes, p) => t.charge_global(n, bytes, p),
                Charge::GlobalSerial(n) => t.charge_global_serial(n),
                Charge::AtomicGlobal(n) => t.charge_atomic_global(n),
                Charge::AtomicShared(n) => t.charge_atomic_shared(n),
                Charge::AtomicSharedContended(n, slots) => {
                    t.charge_atomic_shared_contended(n, slots)
                }
                Charge::BaselineSort(n, fraction) => t.charge_baseline_sort(n, fraction),
                Charge::BaselineCycles(c) => t.charge_baseline_cycles(c),
                Charge::Divergence(n) => t.charge_divergence(n),
                Charge::WarpVote(n) => t.charge_warp_vote(n),
                Charge::WarpShuffle(n) => t.charge_warp_shuffle(n),
                Charge::WarpScan => t.charge_warp_scan(),
                Charge::BucketOverflow(n) => t.record_bucket_overflow(n),
            }
        }
    }

    /// A SplitMix64 stream: seeded draws with no `rand` dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A random charge of one of the fifteen kinds.
        fn charge(&mut self) -> Charge {
            let n = self.below(40);
            let degree = self.below(5) as u32;
            match self.below(15) {
                0 => Charge::Alu(n),
                1 => Charge::Shared(n),
                2 => Charge::SharedConflicted(n, n * degree as u64),
                3 => {
                    let pattern = match self.below(5) {
                        0 => AccessPattern::Coalesced,
                        1 => AccessPattern::Strided(1 + degree),
                        2 => AccessPattern::Scattered,
                        3 => AccessPattern::Broadcast,
                        _ => AccessPattern::SingleLaneSequential,
                    };
                    Charge::Global(n, [1, 4, 8][self.below(3) as usize], pattern)
                }
                4 => Charge::GlobalSerial(n),
                5 => Charge::AtomicGlobal(n),
                6 => Charge::AtomicShared(n),
                7 => Charge::AtomicSharedContended(n, n * degree as u64),
                8 => Charge::BaselineSort(n, self.below(1000) as f64 / 1000.0),
                9 => Charge::BaselineCycles(self.below(100_000) as f64 / 97.0),
                10 => Charge::Divergence(n),
                11 => Charge::WarpVote(n),
                12 => Charge::WarpShuffle(n),
                13 => Charge::WarpScan,
                _ => Charge::BucketOverflow(n),
            }
        }
    }

    #[test]
    fn uniform_threads_bills_exactly_like_threads() {
        let mut rng = SplitMix(0xB111);
        // Around and past the 32-lane warp: one partial warp, exactly one,
        // one plus a lane, and many.
        for block_dim in [1, 31, 32, 33, 256, 1000] {
            for case in 0..60 {
                // Two uniform phases, then a tid-dependent one (the first
                // phase that sizes the per-thread cycles), then a third
                // uniform phase. A phase of no charges, or of zero counts,
                // bills nothing but its barrier.
                let phases: Vec<Vec<Charge>> = (0..3)
                    .map(|_| (0..rng.below(6)).map(|_| rng.charge()).collect())
                    .collect();
                let skew = rng.below(50);
                let run = |uniform: bool| {
                    let mut b = block(block_dim);
                    for (i, phase) in phases.iter().enumerate() {
                        let f = |t: &mut ThreadCtx| phase.iter().for_each(|c| c.apply(t));
                        if uniform {
                            b.uniform_threads(f);
                        } else {
                            b.threads(f);
                        }
                        if i == 1 {
                            b.threads(|t| t.charge_alu(skew * (t.tid as u64 % 3)));
                        }
                    }
                    (b.cycles.to_bits(), b.finish())
                };
                assert_eq!(
                    run(true),
                    run(false),
                    "block_dim {block_dim}, case {case}: {phases:?}"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "uniform_threads: thread 1 billed")]
    fn uniform_threads_rejects_a_tid_dependent_bill_in_debug_builds() {
        let mut b = block(32);
        b.uniform_threads(|t| t.charge_alu(t.tid as u64));
    }

    #[test]
    fn thread_identity_helpers() {
        let mut b = BlockCtx::new(3, 8, 64, 6, THRUST_ELEM_CYCLES);
        let mut seen = Vec::new();
        b.threads(|t| {
            if t.tid == 1 {
                seen.push((t.global_idx(), t.block_idx(), t.block_dim(), t.grid_dim()));
            }
        });
        assert_eq!(seen, vec![(3 * 64 + 1, 3, 64, 8)]);
    }
}
