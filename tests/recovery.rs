//! Cross-crate chaos properties: for *any* seeded [`FaultPlan`], the
//! recovering out-of-core sorter must return exactly what the CPU
//! oracle returns, and the [`RecoveryReport`] must account for every
//! error-producing fault the device logged. This is the suite the CI
//! chaos matrix fans out across `CHAOS_SEED`s.

use array_sort::{cpu_ref, sort_out_of_core_recovering, GpuArraySort, RetryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use proptest::prelude::*;

fn xorshift_floats(seed: u64, count: usize) -> Vec<f32> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 16) as f32) / 1e4
        })
        .collect()
}

/// Runs the recovering sorter under `plan` and checks the two chaos
/// invariants; returns (retries, cpu_fallbacks, error_faults).
fn run_chaos(
    plan: FaultPlan,
    data_seed: u64,
    num_arrays: usize,
    array_len: usize,
) -> (u32, u32, usize) {
    let mut data = xorshift_floats(data_seed, num_arrays * array_len);
    let original = data.clone();
    let mut gpu = Gpu::new(DeviceSpec::test_device());
    gpu.set_fault_plan(Some(plan));
    let (_, report) = sort_out_of_core_recovering(
        &GpuArraySort::new(),
        &mut gpu,
        &mut data,
        array_len,
        &RetryPolicy::default(),
    )
    .expect("cpu fallback makes the recovering sorter infallible under injected faults");

    assert!(cpu_ref::is_each_sorted(&data, array_len));
    assert_eq!(
        cpu_ref::verify_against(&original, &data, array_len),
        None,
        "output must match the CPU oracle"
    );
    let error_faults = gpu
        .injected_faults()
        .iter()
        .filter(|f| f.kind.is_error())
        .count();
    assert_eq!(
        report.device_faults() as usize,
        error_faults,
        "every injected error fault must be accounted for"
    );
    if report.retries() > 0 || report.cpu_fallbacks() > 0 {
        assert!(
            gpu.timeline()
                .spans
                .iter()
                .any(|s| s.name.starts_with("recovery/")),
            "recovery work must be visible in the trace"
        );
    }
    (report.retries(), report.cpu_fallbacks(), error_faults)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn any_fault_plan_still_yields_the_oracle_answer(
        fault_seed in any::<u64>(),
        data_seed in any::<u64>(),
        launch in 0.0f64..0.30,
        abort in 0.0f64..0.20,
        corrupt in 0.0f64..0.20,
        oom in 0.0f64..0.15,
        stall in 0.0f64..0.30,
        num_arrays in 20usize..120,
        array_len in 4usize..64,
    ) {
        let plan = FaultPlan::seeded(fault_seed)
            .with_launch_failure(launch)
            .with_transfer_abort(abort)
            .with_transfer_corruption(corrupt)
            .with_alloc_oom(oom)
            .with_stream_stall(stall, 0.5);
        run_chaos(plan, data_seed, num_arrays, array_len);
    }

    #[test]
    fn retry_counts_match_injected_transients(
        fault_seed in any::<u64>(),
        data_seed in any::<u64>(),
        launch in 0.05f64..0.5,
        num_arrays in 10usize..60,
        array_len in 8usize..48,
    ) {
        // Every failed attempt fails fast on its first injected fault,
        // so failed attempts == injected error faults. A recovered
        // chunk's failed attempts are its retries; a fallback chunk
        // burns max_attempts = retries + 1.
        let plan = FaultPlan::seeded(fault_seed).with_launch_failure(launch);
        let (retries, fallbacks, error_faults) =
            run_chaos(plan, data_seed, num_arrays, array_len);
        prop_assert_eq!(
            retries + fallbacks,
            error_faults as u32,
            "attempts bookkeeping must match the fault log"
        );
    }
}

/// The deterministic leg the CI chaos matrix runs per `CHAOS_SEED`:
/// a fixed multi-chunk workload with every fault class enabled.
#[test]
fn chaos_matrix_seed_invariants_hold() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let plan = FaultPlan::seeded(seed)
        .with_launch_failure(0.05)
        .with_transfer_abort(0.04)
        .with_transfer_corruption(0.04)
        .with_alloc_oom(0.03)
        .with_stream_stall(0.05, 0.5);
    // 20k × 500 f32 does not fit the 64 MiB test device in one chunk,
    // so recovery has to checkpoint across multiple chunks.
    run_chaos(plan, seed.wrapping_mul(0x9E37_79B9), 20_000, 500);
}

/// Identical seeds must replay the identical campaign (fault log,
/// report and output all bit-equal) — the property CI relies on to
/// reproduce a red seed locally.
#[test]
fn chaos_runs_are_reproducible() {
    let run = || {
        let plan = FaultPlan::seeded(7)
            .with_launch_failure(0.15)
            .with_transfer_abort(0.10);
        let mut data = xorshift_floats(7, 600 * 32);
        let mut gpu = Gpu::new(DeviceSpec::test_device());
        gpu.set_fault_plan(Some(plan));
        let (_, report) = sort_out_of_core_recovering(
            &GpuArraySort::new(),
            &mut gpu,
            &mut data,
            32,
            &RetryPolicy::default(),
        )
        .unwrap();
        (data, gpu.injected_faults(), report, gpu.elapsed_ms())
    };
    let (d1, f1, r1, t1) = run();
    let (d2, f2, r2, t2) = run();
    assert_eq!(d1, d2);
    assert_eq!(f1, f2);
    assert_eq!(r1, r2);
    assert_eq!(t1, t2);
}
