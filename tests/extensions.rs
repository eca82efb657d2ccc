//! Cross-crate integration of the extension surfaces: generated spectra,
//! the modern segmented-sort baseline and streams — all against each
//! other and the CPU oracle.

use array_sort::GpuArraySort;
use datagen::{generate_spectra, spectra_to_batch, MassSpecConfig, SpectrumKey};
use gpu_sim::{DeviceSpec, Gpu};

#[test]
fn segmented_baseline_agrees_with_gas_everywhere() {
    for (num, n) in [(20usize, 64usize), (7, 1000), (3, 4000)] {
        let batch = datagen::ArrayBatch::paper_uniform(n as u64, num, n);
        let mut a = batch.clone().into_flat();
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        GpuArraySort::new().sort(&mut gpu, &mut a, n).unwrap();
        let mut b = batch.into_flat();
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        thrust_sim::segmented::segmented_sort(&mut gpu, &mut b, n).unwrap();
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "GAS vs segmented at {num}×{n}"
        );
    }
}

#[test]
fn real_spectra_pipeline_end_to_end() {
    // Generate spectra → fixed-size batch → sort by m/z → verify against CPU.
    let cfg = MassSpecConfig {
        peaks_per_spectrum: 600,
        ..Default::default()
    };
    let spectra = generate_spectra(0xE2E, 50, &cfg);
    let n = 600;
    let mut data = spectra_to_batch(&spectra, SpectrumKey::Mz, n).into_flat();
    let mut expect = data.clone();

    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
    GpuArraySort::new().sort(&mut gpu, &mut data, n).unwrap();

    for array in expect.chunks_mut(n) {
        array.sort_by(f32::total_cmp);
    }
    assert_eq!(data, expect);
}

#[test]
fn streams_do_not_change_any_result() {
    // Issue two independent batch sorts on two streams; results must be
    // bitwise identical to serial execution, and the async schedule must
    // finish no later than the serial one.
    let (num, n) = (50usize, 200usize);
    let b1 = datagen::ArrayBatch::paper_uniform(1, num, n);
    let b2 = datagen::ArrayBatch::paper_uniform(2, num, n);

    // Serial.
    let mut s1 = b1.clone().into_flat();
    let mut s2 = b2.clone().into_flat();
    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
    GpuArraySort::new().sort(&mut gpu, &mut s1, n).unwrap();
    GpuArraySort::new().sort(&mut gpu, &mut s2, n).unwrap();
    let serial_ms = gpu.elapsed_ms();

    // Two streams.
    let mut a1 = b1.into_flat();
    let mut a2 = b2.into_flat();
    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
    let st1 = gpu.create_stream();
    let st2 = gpu.create_stream();
    let sorter = GpuArraySort::new();

    gpu.set_stream(Some(st1));
    let buf1 = gpu.htod_copy(&a1).unwrap();
    let geom = sorter.geometry(num, n);
    sorter.sort_device(&mut gpu, &buf1, &geom).unwrap();

    gpu.set_stream(Some(st2));
    let buf2 = gpu.htod_copy(&a2).unwrap();
    sorter.sort_device(&mut gpu, &buf2, &geom).unwrap();

    gpu.set_stream(Some(st1));
    let mut buf1 = buf1;
    gpu.dtoh_into(&mut buf1, &mut a1).unwrap();
    gpu.set_stream(Some(st2));
    let mut buf2 = buf2;
    gpu.dtoh_into(&mut buf2, &mut a2).unwrap();
    gpu.set_stream(None);
    let streamed_ms = gpu.synchronize();

    assert_eq!(a1, s1);
    assert_eq!(a2, s2);
    assert!(
        streamed_ms <= serial_ms + 1e-9,
        "two streams must not be slower: {streamed_ms} vs {serial_ms}"
    );
}
