//! Property-based tests (proptest) over the public APIs: whatever the
//! shape, distribution or special values, sorting must produce per-array
//! ascending permutations, and the substrates must match their reference
//! semantics.

use array_sort::{cpu_ref, ArraySortConfig, GpuArraySort};
use gpu_sim::{DeviceSpec, Gpu};
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

fn device() -> Gpu {
    Gpu::new(DeviceSpec::tesla_k40c())
}

/// f32 values including negatives, zeros, infinities and NaN.
fn any_f32_element() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -1e9f32..1e9f32,
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(f32::NAN),
        1 => Just(f32::MIN_POSITIVE),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn gas_sorts_any_batch(
        array_len in 1usize..300,
        num_arrays in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng_data: Vec<f32> = Vec::new();
        let mut x = seed | 1;
        for _ in 0..array_len * num_arrays {
            // xorshift for speed inside proptest
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            rng_data.push((x as f32) / 1e10);
        }
        let original = rng_data.clone();
        let mut gpu = device();
        GpuArraySort::new().sort(&mut gpu, &mut rng_data, array_len).unwrap();
        prop_assert!(cpu_ref::is_each_sorted(&rng_data, array_len));
        prop_assert_eq!(cpu_ref::verify_against(&original, &rng_data, array_len), None);
    }

    #[test]
    fn gas_handles_special_float_values(
        values in proptest::collection::vec(any_f32_element(), 1..400),
        array_len in 1usize..64,
    ) {
        // Trim to a whole number of arrays (≥1).
        let n = array_len.min(values.len());
        let usable = (values.len() / n) * n;
        let mut data = values[..usable].to_vec();
        let mut expect = data.clone();
        let mut gpu = device();
        GpuArraySort::new().sort(&mut gpu, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        let a: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sta_matches_cpu_on_any_batch(
        array_len in 1usize..128,
        num_arrays in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let mut data: Vec<f32> = Vec::new();
        for _ in 0..array_len * num_arrays {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            data.push(((x >> 8) as f32) / 1e8);
        }
        let mut cpu = data.clone();
        cpu_ref::sort_arrays_seq(&mut cpu, array_len);
        let mut gpu = device();
        thrust_sim::sta::sort_arrays(&mut gpu, &mut data, array_len).unwrap();
        prop_assert_eq!(data, cpu);
    }

    #[test]
    fn scan_matches_prefix_sum(input in proptest::collection::vec(0u32..1000, 0..3000)) {
        let mut gpu = device();
        let mut buf = gpu.htod_copy(&input).unwrap();
        let total = thrust_sim::exclusive_scan(&mut gpu, &mut buf).unwrap();
        let mut acc = 0u64;
        let mut expect = Vec::with_capacity(input.len());
        for &v in &input {
            expect.push(acc as u32);
            acc += v as u64;
        }
        prop_assert_eq!(buf.as_slice(), expect.as_slice());
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn radix_sort_is_stable_permutation(
        keys in proptest::collection::vec(0u32..64, 1..5000),
    ) {
        // Few distinct keys maximize stability pressure.
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut gpu = device();
        let mut k = gpu.htod_copy(&keys).unwrap();
        let mut v = gpu.htod_copy(&vals).unwrap();
        thrust_sim::stable_sort_by_key(&mut gpu, &mut k, &mut v).unwrap();
        let ks = k.to_host_vec();
        let vs = v.to_host_vec();
        prop_assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        for i in 1..ks.len() {
            if ks[i - 1] == ks[i] {
                prop_assert!(vs[i - 1] < vs[i], "stability at {i}");
            }
        }
        // vs is a permutation of 0..len.
        let mut seen = vs.clone();
        seen.sort_unstable();
        prop_assert!(seen.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn bucket_config_never_breaks_correctness(
        bucket_size in 1usize..200,
        rate_pct in 1u32..=100,
        seed in any::<u64>(),
    ) {
        let cfg = ArraySortConfig {
            target_bucket_size: bucket_size,
            sampling_rate: rate_pct as f64 / 100.0,
            ..Default::default()
        };
        let n = 150;
        let mut x = seed | 1;
        let mut data: Vec<f32> = Vec::new();
        for _ in 0..n * 8 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            data.push((x % 1000) as f32);
        }
        let mut gpu = device();
        GpuArraySort::with_config(cfg).unwrap().sort(&mut gpu, &mut data, n).unwrap();
        prop_assert!(cpu_ref::is_each_sorted(&data, n));
    }

    #[test]
    fn merge_variant_always_agrees_with_gas(
        array_len in 1usize..250,
        num_arrays in 1usize..10,
        seed in any::<u64>(),
    ) {
        let total = array_len * num_arrays;
        let mut a = xorshift_floats(seed, total);
        let mut b = a.clone();
        let mut gpu = device();
        GpuArraySort::new().sort(&mut gpu, &mut a, array_len).unwrap();
        let mut gpu = device();
        array_sort::merge_sort_arrays(&mut gpu, &mut b, array_len, &ArraySortConfig::default())
            .unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn adaptive_mode_never_changes_results(
        array_len in 1usize..300,
        seed in any::<u64>(),
    ) {
        let mut a = xorshift_floats(seed, array_len * 4);
        let mut b = a.clone();
        let mut gpu = device();
        GpuArraySort::new().sort(&mut gpu, &mut a, array_len).unwrap();
        let cfg = ArraySortConfig { adaptive_bucket_sort: true, ..Default::default() };
        let mut gpu = device();
        GpuArraySort::with_config(cfg).unwrap().sort(&mut gpu, &mut b, array_len).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn memory_ledger_is_exact_after_any_run(
        num_arrays in 1usize..30,
        array_len in 1usize..200,
    ) {
        let gpu = device();
        let before = gpu.ledger().used();
        {
            let buf = gpu.alloc::<f32>(num_arrays * array_len).unwrap();
            prop_assert_eq!(
                gpu.ledger().used(),
                before + buf.size_bytes()
            );
        }
        prop_assert_eq!(gpu.ledger().used(), before, "drop releases exactly");
    }
}
