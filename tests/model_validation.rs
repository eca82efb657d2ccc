//! Model validation: the kernels *declare* access patterns (that's what
//! they're charged for); these tests replay the actual address patterns
//! each kernel performs through the exact analyzers
//! ([`gpu_sim::coalescing`], [`gpu_sim::banks`]) and assert the declared
//! transaction counts match (or conservatively over-estimate) reality.

use gpu_sim::coalescing::{strided_transactions, warp_transactions, AccessTrace};
use gpu_sim::{banks, occupancy, AccessPattern, DeviceSpec, KernelResources, WARP_SIZE};

const WARP: u32 = WARP_SIZE;
const SEG: u64 = 128;

fn declared(pattern: AccessPattern, elem_bytes: u32) -> u32 {
    pattern.warp_transactions(elem_bytes)
}

#[test]
fn phase2_broadcast_reads_are_one_transaction() {
    // All threads of the bucketing warp read A[i] in lockstep.
    for i in [0u64, 7, 999] {
        let addrs = vec![i * 4; WARP as usize];
        assert_eq!(warp_transactions(&addrs, SEG), 1);
    }
    assert_eq!(declared(AccessPattern::Broadcast, 4), 1);
}

#[test]
fn phase2_writeback_is_coalesced() {
    // Cooperative write-back: thread t writes element t, t+T, …
    let addrs: Vec<u64> = (0..WARP as u64).map(|t| t * 4).collect();
    assert_eq!(warp_transactions(&addrs, SEG), 1);
    assert_eq!(declared(AccessPattern::Coalesced, 4), 1);
}

#[test]
fn phase3_bucket_loads_are_scattered_and_declaration_is_conservative() {
    // Thread t loads the first element of its own ~20-element bucket:
    // addresses are t * bucket_size * 4 apart.
    for bucket_size in [20u64, 40, 80] {
        let addrs: Vec<u64> = (0..WARP as u64).map(|t| t * bucket_size * 4).collect();
        let exact = warp_transactions(&addrs, SEG);
        let decl = declared(AccessPattern::Scattered, 4);
        assert!(
            decl >= exact,
            "declared {decl} must not undercharge exact {exact} at bucket {bucket_size}"
        );
        // With ≥32 buckets of ≥20 floats the accesses genuinely scatter.
        assert!(exact >= WARP / 2, "bucket stride {bucket_size}: {exact}");
    }
}

#[test]
fn phase1_single_lane_sequential_matches_its_model() {
    // One active lane reading n consecutive floats touches n/32 segments;
    // the SingleLaneSequential pattern charges 4 segment-transactions per
    // 32 elements (a 4× serialization penalty), i.e. ≥ the exact count.
    let n = 1024u64;
    let mut trace = AccessTrace::new();
    for chunk in 0..(n / WARP as u64) {
        // Model granularity: one "warp access" batch of 32 sequential reads.
        let addrs: Vec<u64> = (0..WARP as u64).map(|i| (chunk * 32 + i) * 4).collect();
        trace.record_warp(addrs);
    }
    let exact = trace.total_transactions(SEG);
    let decl_per_batch = declared(AccessPattern::SingleLaneSequential, 4) as u64;
    let declared_total = decl_per_batch * (n / WARP as u64);
    assert!(declared_total >= exact, "{declared_total} >= {exact}");
    assert!(
        declared_total <= 8 * exact,
        "…but within one order of magnitude"
    );
}

#[test]
fn radix_scatter_strided2_brackets_reality() {
    // Scatter destinations of consecutive same-digit elements are
    // contiguous runs; across a warp the runs split over ~2–8 segments
    // depending on digit entropy. Strided(2) (= 2 txns) is the calibrated
    // effective figure; verify it sits between the best and worst case.
    let best: Vec<u64> = (0..WARP as u64).map(|i| i * 4).collect(); // one run
    let worst: Vec<u64> = (0..WARP as u64).map(|i| i * 4096).collect(); // all split
    let b = warp_transactions(&best, SEG);
    let w = warp_transactions(&worst, SEG);
    let decl = declared(AccessPattern::Strided(2), 4);
    assert!(b <= decl && decl <= w, "{b} <= {decl} <= {w}");
}

#[test]
fn shared_staging_writes_have_bounded_bank_conflicts() {
    // Phase-2 staging: thread j writes at its bucket cursor. Cursors start
    // at multiples of ~20 (bucket offsets); stride-20 words over 32 banks
    // conflicts 4-way at worst for f32.
    let degree = banks::strided_conflict_degree(0, 20 * 4, WARP);
    assert!(degree <= 8, "stride-20 staging conflicts {degree}-way");
    // The classic fix (pad to 21) would make it conflict-free:
    assert_eq!(banks::strided_conflict_degree(0, 21 * 4, WARP), 1);
}

#[test]
fn phase_occupancies_tell_the_papers_resource_story() {
    let spec = DeviceSpec::tesla_k40c();
    // Phase 1 at n = 4000: 1-thread blocks holding 16 KB + 1.6 KB shared.
    let p1 = occupancy(&spec, &KernelResources::new(1, 17_600));
    // Phase 2 at n = 1000: 50 threads, array + tables in shared (~4.4 KB).
    let p2 = occupancy(&spec, &KernelResources::new(50, 4_500));
    // Phase 3: 50 threads, bucket staging (~4 KB).
    let p3 = occupancy(&spec, &KernelResources::new(50, 4_000));
    assert!(
        p1.fraction < 0.05,
        "phase 1 occupancy is tiny: {}",
        p1.fraction
    );
    assert!(
        p2.fraction > 0.2,
        "phase 2 keeps the SM busy: {}",
        p2.fraction
    );
    assert!(p3.fraction >= p2.fraction * 0.9);
    // This is exactly why phase 1 dominates the measured kernel time even
    // though its per-element work is modest.
}

#[test]
fn strided_analyzer_agrees_with_declared_for_every_power_of_two() {
    for stride in [1u32, 2, 4, 8, 16, 32] {
        let exact = strided_transactions(0, stride as u64 * 4, WARP, SEG);
        let decl = AccessPattern::Strided(stride).warp_transactions(4);
        assert_eq!(decl, exact, "stride {stride}");
    }
}
