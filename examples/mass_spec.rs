//! The paper's motivating domain: proteomics. Generate a run of synthetic
//! mass spectra, sort every spectrum's peaks by intensity and by m/z on
//! the simulated GPU, and compare against the CPU.
//!
//! ```text
//! cargo run --release --example mass_spec
//! ```

use array_sort::{cpu_ref, GpuArraySort};
use datagen::{generate_spectra, spectra_to_batch, MassSpecConfig, SpectrumKey};
use gpu_sim::{DeviceSpec, Gpu};
use std::time::Instant;

fn main() {
    // A (small) mass-spectrometry run: the paper's datasets have up to
    // ~4000 peaks per spectrum including noise (§4).
    let cfg = MassSpecConfig {
        peaks_per_spectrum: 2000,
        ..Default::default()
    };
    let num_spectra = 5_000;
    let spectra = generate_spectra(0x50EC, num_spectra, &cfg);
    println!(
        "generated {} spectra × {} peaks (noise fraction {:.0}%)",
        spectra.len(),
        cfg.peaks_per_spectrum,
        cfg.noise_fraction * 100.0
    );

    for (key, label) in [
        (SpectrumKey::Intensity, "intensity"),
        (SpectrumKey::Mz, "m/z"),
    ] {
        // Pack the chosen peak attribute into the flat batch layout.
        let mut batch = spectra_to_batch(&spectra, key, cfg.peaks_per_spectrum);

        // GPU (simulated) sort.
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let stats = GpuArraySort::new()
            .sort(&mut gpu, batch.as_flat_mut(), cfg.peaks_per_spectrum)
            .expect("spectra fit on the K40c");
        assert!(batch.is_each_array_sorted());

        // CPU reference for a wall-clock comparison point.
        let mut cpu_batch = spectra_to_batch(&spectra, key, cfg.peaks_per_spectrum);
        let t = Instant::now();
        cpu_ref::sort_arrays_par(cpu_batch.as_flat_mut(), cfg.peaks_per_spectrum);
        let cpu_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(batch, cpu_batch, "GPU and CPU orders agree");

        println!(
            "\nsort by {label:9}: simulated GPU {:8.2} ms (kernels {:.2} ms) | host CPU (all cores) {:8.2} ms",
            stats.total_ms(),
            stats.kernel_ms(),
            cpu_ms
        );
        println!(
            "  buckets/spectrum {}, bucket imbalance {:.2} (skewed {} values vs. the paper's uniform floats)",
            stats.geometry.buckets_per_array, stats.balance.imbalance, label
        );
    }

    println!(
        "\nNote: MS intensities are long-tailed, so bucket balance is worse than on\n\
         the paper's uniform data — exactly the regime the 10% regular sampling\n\
         (ablation B, `repro ablations --sampling-sweep`) is about."
    );
}
