//! Property tests for the `gpu_sim::warp` intrinsics against scalar
//! references, plus determinism of the warp-instruction cycle bills:
//! the same seeded kernel launched twice must produce bit-identical
//! [`KernelStats`], and a different seed must produce a different bill.

use gpu_sim::{warp, DeviceSpec, Gpu, KernelStats, LaunchConfig, WARP_SIZE};
use proptest::prelude::*;

/// Lane predicates for a warp of 1..=64 lanes.
fn lanes_bool() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..=64)
}

/// Lane values from a small alphabet so peer groups actually form.
fn lanes_vals() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..8, 1..=64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `ballot` sets exactly bit `i` for each true predicate: popcount
    /// equals the number of true lanes, every bit matches the lane's
    /// predicate, and bits past the warp width stay clear.
    #[test]
    fn ballot_matches_the_scalar_reference(preds in lanes_bool()) {
        let mask = warp::ballot(&preds);
        prop_assert_eq!(
            mask.count_ones() as usize,
            preds.iter().filter(|p| **p).count()
        );
        for (i, &p) in preds.iter().enumerate() {
            prop_assert_eq!((mask >> i) & 1 == 1, p, "bit {} disagrees", i);
        }
        if preds.len() < 64 {
            prop_assert_eq!(mask >> preds.len(), 0, "bits past the warp width must be clear");
        }
    }

    /// `match_any` is per-lane equality ballots: reflexive, symmetric,
    /// and identical to a naive pairwise reference.
    #[test]
    fn match_any_matches_the_pairwise_reference(vals in lanes_vals()) {
        let masks = warp::match_any(&vals);
        prop_assert_eq!(masks.len(), vals.len());
        for (i, &mi) in masks.iter().enumerate() {
            // Reflexive: every lane is its own peer.
            prop_assert_eq!((mi >> i) & 1, 1, "lane {} missing from its own mask", i);
            for (j, &vj) in vals.iter().enumerate() {
                let expect = vals[i] == vj;
                prop_assert_eq!(
                    (mi >> j) & 1 == 1,
                    expect,
                    "mask[{}] bit {} disagrees with equality",
                    i,
                    j
                );
                // Symmetric: i in mask[j] iff j in mask[i].
                prop_assert_eq!((mi >> j) & 1, (masks[j] >> i) & 1);
            }
        }
        // Peer masks partition the warp: equal values share a mask,
        // different values have disjoint masks.
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                if vals[i] == vals[j] {
                    prop_assert_eq!(masks[i], masks[j]);
                } else {
                    prop_assert_eq!(masks[i] & masks[j], 0);
                }
            }
        }
    }

    /// `exclusive_sum` equals a running total with lane 0 at zero, and
    /// `last + vals.last == inclusive total`.
    #[test]
    fn exclusive_sum_matches_a_running_total(
        vals in proptest::collection::vec(0u32..1000, 1..=64),
    ) {
        let scan = warp::exclusive_sum(&vals);
        prop_assert_eq!(scan.len(), vals.len());
        let mut acc = 0u32;
        for (i, (&s, &v)) in scan.iter().zip(&vals).enumerate() {
            prop_assert_eq!(s, acc, "lane {} prefix disagrees", i);
            acc += v;
        }
        prop_assert_eq!(
            scan.last().unwrap() + vals.last().unwrap(),
            vals.iter().sum::<u32>()
        );
    }

    /// `leader_count` equals the number of distinct values, and equals
    /// the number of `match_any` masks whose lowest set bit is the
    /// lane's own bit — the warp-aggregated atomic count.
    #[test]
    fn leader_count_counts_distinct_peer_groups(vals in lanes_vals()) {
        let leaders = warp::leader_count(&vals);
        let mut distinct = vals.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(leaders, distinct.len());

        let masks = warp::match_any(&vals);
        let lowest_bit_leaders = masks
            .iter()
            .enumerate()
            .filter(|(i, m)| m.trailing_zeros() as usize == *i)
            .count();
        prop_assert_eq!(leaders, lowest_bit_leaders);
    }
}

/// `scan_steps` is `⌈log₂ WARP_SIZE⌉`: the shuffle ladder's rungs
/// 1, 2, 4, … stop at the first that reaches every lane.
#[test]
fn scan_steps_is_ceil_log2() {
    let expect = (WARP_SIZE as f64).log2().ceil() as u32;
    assert_eq!(warp::scan_steps(), expect);
    assert_eq!(warp::scan_steps(), 5);
    assert!(1u32 << warp::scan_steps() >= WARP_SIZE);
    assert!(1u32 << (warp::scan_steps() - 1) < WARP_SIZE);
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Launches one block of 64 threads whose warp-instruction mix is
/// derived from `seed`, returning the kernel's stats.
fn seeded_warp_kernel(seed: u64) -> KernelStats {
    let mut gpu = Gpu::new(DeviceSpec::test_device());
    gpu.launch("warp_bill_probe", LaunchConfig::grid(1, 64), |block| {
        block.threads(|t| {
            let r = xorshift(seed ^ (0x9E37_79B9 + t.tid as u64));
            t.charge_warp_vote(1 + r % 5);
            t.charge_warp_shuffle(1 + (r >> 8) % 7);
            if r & 1 == 0 {
                t.charge_warp_scan();
            }
            t.charge_alu((r >> 16) % 9);
        });
    })
    .expect("probe kernel launches clean")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The cycle bill of a seeded warp-instruction mix is deterministic:
    /// two launches with the same seed are bit-identical in cycles, time
    /// and every counter.
    #[test]
    fn warp_cycle_bills_are_deterministic_per_seed(seed in any::<u64>()) {
        let a = seeded_warp_kernel(seed);
        let b = seeded_warp_kernel(seed);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits());
        prop_assert_eq!(a.counters.warp_votes, b.counters.warp_votes);
        prop_assert_eq!(a.counters.warp_shuffles, b.counters.warp_shuffles);
        prop_assert_eq!(a.counters.alu, b.counters.alu);
        prop_assert!(a.counters.warp_votes > 0, "the probe must actually vote");
        prop_assert!(a.counters.warp_shuffles > 0, "the probe must actually shuffle");
    }
}

/// Different seeds change the bill: the counters come from the issued
/// instruction mix, not a constant.
#[test]
fn warp_cycle_bills_track_the_seed() {
    let a = seeded_warp_kernel(0xAB6);
    let b = seeded_warp_kernel(0xAB7);
    assert!(
        a.counters.warp_votes != b.counters.warp_votes
            || a.counters.warp_shuffles != b.counters.warp_shuffles
            || a.cycles != b.cycles,
        "two different seeds billed an identical kernel"
    );
}
