//! The subcommand implementations. Everything returns a plain `Result`
//! so `main` owns process exit codes and the functions stay testable.

use std::error::Error;
use std::path::PathBuf;

use array_sort::{
    cpu_ref, recover_batch_with, sort_out_of_core_recovering, ArraySortConfig, FusedSort,
    RecoveryReport, RetryPolicy, SplitterPolicy, Variant, VariantStats,
};
use datagen::{Arrangement, ArrayBatch, Distribution};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use scheduler::{SchedulerConfig, WorkloadConfig};

use crate::args::Args;
use crate::io::{read_batch, write_batch, Format};

type AnyError = Box<dyn Error>;

/// Rejects zero batch shapes before they can trip asserts deeper in the
/// stack (`datagen` and the sorters treat them as programmer errors).
fn require_positive_shape(num_arrays: usize, array_len: usize) -> Result<(), AnyError> {
    if num_arrays == 0 {
        return Err("--num-arrays must be positive".into());
    }
    if array_len == 0 {
        return Err("--array-len must be positive".into());
    }
    Ok(())
}

/// Resolves `--device` to a preset.
pub fn device_for(name: Option<&str>) -> Result<DeviceSpec, AnyError> {
    Ok(match name.unwrap_or("k40c") {
        "k40c" => DeviceSpec::tesla_k40c(),
        "k20" => DeviceSpec::tesla_k20(),
        "k80" => DeviceSpec::tesla_k80_die(),
        "gtx980" => DeviceSpec::gtx_980(),
        "test" => DeviceSpec::test_device(),
        other => return Err(format!("unknown device {other:?} (k40c|k20|k80|gtx980|test)").into()),
    })
}

/// Resolves `--dist` to a distribution.
pub fn dist_for(name: Option<&str>) -> Result<Distribution, AnyError> {
    Ok(match name.unwrap_or("uniform") {
        "uniform" | "paper" => Distribution::PaperUniform,
        "normal" => Distribution::Normal {
            mean: 0.0,
            std_dev: 1e6,
        },
        "exponential" => Distribution::Exponential { lambda: 1e-6 },
        "pareto" => Distribution::Pareto {
            scale: 1.0,
            alpha: 1.2,
        },
        "constant" => Distribution::Constant(42.0),
        "few-distinct" => Distribution::FewDistinct { k: 8 },
        "zipf" => Distribution::Zipf {
            exponent: 1.2,
            n: 1024,
        },
        "single-heavy" => Distribution::SingleHeavy {
            heavy_fraction: 0.6,
            center: 1.0e6,
        },
        other => {
            return Err(format!(
                "unknown distribution {other:?} \
                 (uniform|normal|exponential|pareto|constant|few-distinct|zipf|single-heavy)"
            )
            .into())
        }
    })
}

/// Resolves `--arrangement` to a post-sampling shape.
pub fn arrangement_for(name: Option<&str>) -> Result<Arrangement, AnyError> {
    Ok(match name.unwrap_or("shuffled") {
        "shuffled" => Arrangement::Shuffled,
        "sorted" => Arrangement::Sorted,
        "reversed" => Arrangement::Reversed,
        "nearly-sorted" => Arrangement::NearlySorted { swaps: 8 },
        other => {
            return Err(format!(
                "unknown arrangement {other:?} (shuffled|sorted|reversed|nearly-sorted)"
            )
            .into())
        }
    })
}

/// Resolves `--splitters` to a policy. `main` pre-validates this option
/// before dispatch (an unparsable value is an argument error, exit 2);
/// the commands re-resolve it here so they stay independently testable.
pub fn splitters_for(name: Option<&str>) -> Result<SplitterPolicy, AnyError> {
    match name {
        None => Ok(SplitterPolicy::default()),
        Some(v) => SplitterPolicy::parse(v).map_err(Into::into),
    }
}

/// Runs the subcommand `args` names and returns what it prints; `main`
/// owns the exit codes.
pub fn run_command(args: &Args) -> Result<String, AnyError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "sort" => cmd_sort(args),
        "serve" => cmd_serve(args),
        "soak" => cmd_soak(args),
        "chaos" => cmd_chaos(args),
        "metrics" => cmd_metrics(args),
        "profile" => cmd_profile(args),
        "devices" => cmd_devices(args),
        "capacity" => cmd_capacity(args),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage()).into()),
    }
}

/// The served sorter an `--algorithm` name runs: its variant, its
/// display name, and its display name under `--faults`. The name also
/// labels the first recovery span, `<name>/batch`.
fn served(algorithm: &str) -> Option<(Variant, &'static str, &'static str)> {
    Some(match algorithm {
        "gas" => (
            Variant::ThreeKernel,
            "GPU-ArraySort",
            "GPU-ArraySort (recovering)",
        ),
        "gas-warp" => (
            Variant::Warp,
            "GPU-ArraySort warp",
            "GPU-ArraySort warp (recovering)",
        ),
        "sta" => (Variant::Sta, "STA (Thrust tagged)", "STA (recovering)"),
        _ => return None,
    })
}

/// A sort's stats as JSON: `null` when the batch fell back to the host.
fn stats_json(stats: Option<&VariantStats>) -> serde_json::Result<serde_json::Value> {
    match stats {
        None => Ok(serde_json::Value::Null),
        Some(VariantStats::ThreeKernel(s)) => serde_json::to_value(s),
        Some(VariantStats::Warp(s)) => serde_json::to_value(s),
        Some(VariantStats::Sta(s)) => serde_json::to_value(s),
    }
}

/// `gas generate`: writes a seeded batch file.
pub fn cmd_generate(args: &Args) -> Result<String, AnyError> {
    let num: usize = args.require_parsed("num-arrays")?;
    let n: usize = args.require_parsed("array-len")?;
    require_positive_shape(num, n)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out = PathBuf::from(args.require("output")?);
    let format = Format::from_arg(args.get("format"), &out)?;
    let dist = dist_for(args.get("dist"))?;
    let arrangement = arrangement_for(args.get("arrangement"))?;
    let batch = ArrayBatch::generate(seed, num, n, dist, arrangement);
    write_batch(&out, batch.as_flat(), n, format)?;
    Ok(format!(
        "wrote {num} arrays × {n} ({} MB) to {}",
        batch.data_bytes() / 1_048_576,
        out.display()
    ))
}

/// `gas sort`: sorts a batch file with the chosen algorithm on the
/// chosen simulated device, printing a timing/memory report.
pub fn cmd_sort(args: &Args) -> Result<String, AnyError> {
    let input = PathBuf::from(args.require("input")?);
    let format = Format::from_arg(args.get("format"), &input)?;
    let (mut data, csv_lens) = read_batch(&input, format)?;
    if data.is_empty() {
        return Err("input batch is empty".into());
    }
    let array_len: usize = match (args.get("array-len"), &csv_lens) {
        (Some(v), _) => v.parse().map_err(|_| format!("bad --array-len {v:?}"))?,
        (None, Some(lens)) if lens.windows(2).all(|w| w[0] == w[1]) => lens[0],
        (None, _) => return Err("--array-len is required for this input".into()),
    };
    if array_len == 0 {
        return Err("--array-len must be positive".into());
    }
    if !data.len().is_multiple_of(array_len) {
        return Err(format!(
            "input holds {} values, which is not a multiple of --array-len {array_len}",
            data.len()
        )
        .into());
    }
    let algorithm = args.get("algorithm").unwrap_or("gas");
    if !matches!(algorithm, "gas" | "gas-warp" | "sta" | "segsort" | "merge") {
        return Err(
            format!("unknown algorithm {algorithm:?} (gas|gas-warp|sta|segsort|merge)").into(),
        );
    }
    let config = ArraySortConfig {
        adaptive_bucket_sort: args.flag("adaptive"),
        splitter_policy: splitters_for(args.get("splitters"))?,
        ..Default::default()
    };
    if config != ArraySortConfig::default() && !matches!(algorithm, "gas" | "gas-warp") {
        return Err(
            "--splitters and --adaptive are only supported with --algorithm gas or gas-warp".into(),
        );
    }
    if args.get("faults").is_some() && served(algorithm).is_none() {
        return Err("--faults is only supported with --algorithm gas or sta or gas-warp".into());
    }
    let faults = args.get("faults").map(FaultPlan::parse).transpose()?;
    let spec = device_for(args.get("device"))?;
    let mut gpu = Gpu::new(spec);
    let original = data.clone();
    let mut recovery: Option<RecoveryReport> = None;
    let stats = args.flag("stats");

    let (label, total_ms, kernel_ms, peak, stats_json) = match algorithm {
        "segsort" => {
            let s = thrust_sim::segmented::segmented_sort(&mut gpu, &mut data, array_len)?;
            let j = stats.then(|| serde_json::to_value(&s)).transpose()?;
            (
                "modern segmented sort",
                s.total_ms(),
                s.kernel_ms,
                s.peak_bytes,
                j,
            )
        }
        "merge" => {
            let s = array_sort::merge_sort_arrays(
                &mut gpu,
                &mut data,
                array_len,
                &ArraySortConfig::default(),
            )?;
            let j = stats.then(|| serde_json::to_value(&s)).transpose()?;
            (
                "m-way merge variant",
                s.total_ms(),
                s.kernel_ms(),
                s.peak_bytes,
                j,
            )
        }
        _ => {
            let (variant, name, recovering) = served(algorithm).expect("algorithm validated above");
            let sorter = FusedSort::with_config(config)?;
            if let Some(plan) = faults {
                let policy = RetryPolicy::default().with_max_attempts(args.get_or("retries", 3)?);
                gpu.set_fault_plan(Some(plan));
                let (s, report) = recover_batch_with(
                    &mut gpu,
                    &mut data,
                    array_len,
                    &policy,
                    &format!("{algorithm}/batch"),
                    |g, d| variant.sort(&sorter, g, d, array_len),
                )?;
                let (kernel_ms, peak) = match &s {
                    Some(s) => (s.kernel_ms(), s.peak_bytes()),
                    None => (0.0, gpu.ledger().peak()),
                };
                recovery = Some(report);
                let j = stats.then(|| stats_json(s.as_ref())).transpose()?;
                (recovering, gpu.elapsed_ms(), kernel_ms, peak, j)
            } else {
                let s = variant.sort(&sorter, &mut gpu, &mut data, array_len)?;
                let j = stats.then(|| stats_json(Some(&s))).transpose()?;
                (name, s.total_ms(), s.kernel_ms(), s.peak_bytes(), j)
            }
        }
    };

    if args.flag("verify") {
        if let Some(bad) = cpu_ref::verify_against(&original, &data, array_len) {
            return Err(format!("verification FAILED at array {bad}").into());
        }
    }
    if let Some(out) = args.get("output") {
        let out = PathBuf::from(out);
        let ofmt = Format::from_arg(args.get("format"), &out)?;
        write_batch(&out, &data, array_len, ofmt)?;
    }

    if let Some(path) = args.get("trace") {
        write_trace_file(&gpu, std::path::Path::new(path))?;
    }

    if args.flag("json") {
        let mut report = serde_json::json!({
            "algorithm": label,
            "device": gpu.spec().name,
            "num_arrays": data.len() / array_len,
            "array_len": array_len,
            "simulated_total_ms": total_ms,
            "simulated_kernel_ms": kernel_ms,
            "peak_device_bytes": peak,
            "verified": args.flag("verify"),
        });
        if let Some(rec) = &recovery {
            report["recovery"] = serde_json::to_value(rec)?;
            report["injected_faults"] = serde_json::to_value(gpu.injected_faults())?;
        }
        if let Some(stats) = stats_json {
            report["stats"] = stats;
        }
        Ok(serde_json::to_string_pretty(&report)?)
    } else {
        let mut out = format!(
            "{label} on {}: {} arrays × {array_len} sorted in {total_ms:.3} simulated ms \
             (kernels {kernel_ms:.3} ms), peak device memory {:.1} MB{}",
            gpu.spec().name,
            data.len() / array_len,
            peak as f64 / 1_048_576.0,
            if args.flag("verify") {
                " — verified ✓"
            } else {
                ""
            }
        );
        if let Some(rec) = &recovery {
            out.push_str(&format!(
                "\nrecovery: {} device faults, {} retries, {} cpu fallbacks, \
                 {:.3} simulated ms wasted ({} faults injected in total)",
                rec.device_faults(),
                rec.retries(),
                rec.cpu_fallbacks(),
                rec.wasted_ms(),
                gpu.injected_faults().len()
            ));
        }
        if let Some(stats) = stats_json {
            out.push('\n');
            out.push_str(&serde_json::to_string_pretty(&stats)?);
        }
        Ok(out)
    }
}

/// Serializes the device timeline as Chrome trace-event JSON to `path`.
fn write_trace_file(gpu: &Gpu, path: &std::path::Path) -> Result<(), AnyError> {
    let doc = gpu_sim::chrome_trace_json(gpu.timeline(), gpu.spec());
    std::fs::write(path, serde_json::to_string_pretty(&doc)?)
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    Ok(())
}

/// Renders the per-phase breakdown as an aligned text table. The three
/// trailing columns are per-engine occupancy (busy time ÷ span); under
/// stream overlap the compute column can exceed 100%.
fn phase_table(phases: &[gpu_sim::PhaseSummary], elapsed_ms: f64) -> String {
    let mut out = format!(
        "{:<28} {:>10} {:>8} {:>11} {:>10} {:>12} {:>10} {:>6} {:>6} {:>6}\n",
        "phase",
        "time ms",
        "kernels",
        "kernel ms",
        "transfers",
        "transfer ms",
        "MB moved",
        "comp%",
        "h2d%",
        "d2h%"
    );
    for p in phases {
        out.push_str(&format!(
            "{:<28} {:>10.3} {:>8} {:>11.3} {:>10} {:>12.3} {:>10.2} {:>6.1} {:>6.1} {:>6.1}\n",
            p.name,
            p.span_ms,
            p.kernels,
            p.kernel_ms,
            p.transfers,
            p.transfer_ms,
            p.bytes_moved as f64 / 1_048_576.0,
            p.compute_busy_pct,
            p.h2d_busy_pct,
            p.d2h_busy_pct
        ));
    }
    let span_total: f64 = phases.iter().map(|p| p.span_ms).sum();
    out.push_str(&format!(
        "{:<28} {:>10.3}   (run elapsed {:.3} ms)\n",
        "total", span_total, elapsed_ms
    ));
    out
}

/// `gas profile`: generates a batch, sorts it with phase spans enabled,
/// writes a Chrome trace (Perfetto-loadable) and prints the per-phase
/// breakdown.
pub fn cmd_profile(args: &Args) -> Result<String, AnyError> {
    let num: usize = args.require_parsed("num-arrays")?;
    let n: usize = args.require_parsed("array-len")?;
    require_positive_shape(num, n)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let dist = dist_for(args.get("dist"))?;
    let arrangement = arrangement_for(args.get("arrangement"))?;
    let spec = device_for(args.get("device"))?;
    let algorithm = args.get("algorithm").unwrap_or("gas");
    let splitters = splitters_for(args.get("splitters"))?;
    if splitters != SplitterPolicy::default() && !matches!(algorithm, "gas" | "gas-warp") {
        return Err("--splitters is only supported with --algorithm gas or gas-warp".into());
    }
    let cfg = ArraySortConfig {
        splitter_policy: splitters,
        ..Default::default()
    };
    let trace_path = PathBuf::from(args.get("trace").unwrap_or("profile.trace.json"));

    let mut gpu = Gpu::new(spec);
    let batch = ArrayBatch::generate(seed, num, n, dist, arrangement);
    let mut data = batch.as_flat().to_vec();
    let Some((variant, label, _)) = served(algorithm) else {
        return Err(format!("unknown algorithm {algorithm:?} (gas|gas-warp|sta)").into());
    };
    let stats = variant.sort(&FusedSort::with_config(cfg)?, &mut gpu, &mut data, n)?;

    let phases = gpu_sim::phase_summaries(gpu.timeline());
    write_trace_file(&gpu, &trace_path)?;

    if args.flag("json") {
        let mut doc = serde_json::json!({
            "algorithm": label,
            "device": gpu.spec().name,
            "num_arrays": num,
            "array_len": n,
            "elapsed_ms": gpu.elapsed_ms(),
            "trace": trace_path.display().to_string(),
            "phases": phases,
        });
        if let VariantStats::Warp(s) = &stats {
            doc["fused"] = serde_json::to_value(s)?;
        }
        Ok(serde_json::to_string_pretty(&doc)?)
    } else {
        let mut out = format!(
            "{label} on {}: {num} arrays × {n}\n\n{}",
            gpu.spec().name,
            phase_table(&phases, gpu.elapsed_ms()),
        );
        if let VariantStats::Warp(s) = &stats {
            out.push_str(&format!(
                "\nfused kernel sub-phases (billed, path: {:?}):\n",
                s.path
            ));
            for (name, ms) in s.breakdown.rows() {
                out.push_str(&format!("  {name:<14} {ms:>10.3} ms\n"));
            }
        }
        out.push_str(&format!(
            "\ntrace written to {} — open it at https://ui.perfetto.dev",
            trace_path.display()
        ));
        Ok(out)
    }
}

/// `gas devices`: lists the presets.
pub fn cmd_devices(args: &Args) -> Result<String, AnyError> {
    let specs = [
        ("k40c", DeviceSpec::tesla_k40c()),
        ("k20", DeviceSpec::tesla_k20()),
        ("k80", DeviceSpec::tesla_k80_die()),
        ("gtx980", DeviceSpec::gtx_980()),
        ("test", DeviceSpec::test_device()),
    ];
    if args.flag("json") {
        return Ok(serde_json::to_string_pretty(
            &specs
                .iter()
                .map(|(k, s)| (k, s.clone()))
                .collect::<Vec<_>>(),
        )?);
    }
    let mut out = format!(
        "{:<8} {:<20} {:>4} {:>6} {:>10} {:>8}\n",
        "id", "name", "SMs", "cores", "mem (MB)", "MHz"
    );
    for (id, s) in specs {
        out.push_str(&format!(
            "{:<8} {:<20} {:>4} {:>6} {:>10} {:>8}\n",
            id,
            s.name,
            s.sm_count,
            s.sm_count * s.cores_per_sm,
            s.global_mem_bytes / 1_048_576,
            s.clock_mhz
        ));
    }
    Ok(out)
}

/// `gas capacity`: the Table-1 row for a device and array size.
pub fn cmd_capacity(args: &Args) -> Result<String, AnyError> {
    let n: usize = args.require_parsed("array-len")?;
    require_positive_shape(1, n)?;
    let spec = device_for(args.get("device"))?;
    let gas = Variant::ThreeKernel.max_arrays(&spec, n);
    let sta = Variant::Sta.max_arrays(&spec, n);
    let seg = thrust_sim::segmented::max_arrays(&spec, n as u64);
    Ok(format!(
        "{} can hold arrays of {n} f32:\n  GPU-ArraySort   {gas}\n  STA (Thrust)    {sta}\n  segmented sort  {seg}",
        spec.name
    ))
}

/// Default fault mix for `gas chaos`: every fault class enabled at a
/// rate that injects a handful of faults per out-of-core run.
const DEFAULT_CHAOS_FAULTS: &str =
    "launch=0.05,abort=0.04,corrupt=0.04,oom=0.03,stall=0.05,stall-ms=0.5";

/// `gas chaos`: a seeded fault-injection campaign. For each seed it
/// generates a batch, runs the chosen recovering pipeline under an
/// injected [`FaultPlan`], and checks three invariants: the output must
/// match the CPU oracle, the [`RecoveryReport`] must account for every
/// error-producing fault the device logged, and the run rendered as
/// telemetry (recovery counters, per-kind injected-fault counters) must
/// reconcile with both the report and the injector log. Any violation
/// makes the command fail (nonzero exit), so CI can fan it out across
/// seeds.
/// `--algorithm gas` (default) drives the recovering out-of-core
/// sorter; `gas-warp` drives the single-kernel pipeline through
/// [`recover_batch_with`] on an in-core batch.
pub fn cmd_chaos(args: &Args) -> Result<String, AnyError> {
    let algorithm = args.get("algorithm").unwrap_or("gas");
    if !matches!(algorithm, "gas" | "gas-warp") {
        return Err(format!("unknown algorithm {algorithm:?} (gas|gas-warp)").into());
    }
    // The out-of-core default shape spans several chunks; the in-core
    // fused pipeline defaults to one shared-memory-sized batch instead.
    let (default_num, default_n) = if algorithm == "gas" {
        (6_000, 1_000)
    } else {
        (256, 1_000)
    };
    let num: usize = args.get_or("num-arrays", default_num)?;
    let n: usize = args.get_or("array-len", default_n)?;
    require_positive_shape(num, n)?;
    let seeds: Vec<u64> = match args.get("seed") {
        Some(v) => vec![v.parse().map_err(|_| format!("bad --seed {v:?}"))?],
        None => (1..=args.get_or("seeds", 8u64)?).collect(),
    };
    if seeds.is_empty() {
        return Err("--seeds must be positive".into());
    }
    let spec = device_for(Some(args.get("device").unwrap_or("test")))?;
    let base_plan = FaultPlan::parse(args.get("faults").unwrap_or(DEFAULT_CHAOS_FAULTS))?;
    let policy = RetryPolicy::default().with_max_attempts(args.get_or("retries", 3)?);
    let dist = dist_for(args.get("dist"))?;
    let arrangement = arrangement_for(args.get("arrangement"))?;
    let splitters = splitters_for(args.get("splitters"))?;
    let sort_cfg = ArraySortConfig {
        splitter_policy: splitters,
        ..Default::default()
    };
    let trace_dir = args.get("trace-dir").map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create trace dir {}: {e}", dir.display()))?;
    }

    let sorter = FusedSort::with_config(sort_cfg)?;
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &seed in &seeds {
        // Each campaign seed gets its own data *and* its own fault
        // stream, offset from whatever base seed the spec carries.
        let mut plan = base_plan.clone();
        plan.seed = plan.seed.wrapping_add(seed);
        let batch = ArrayBatch::generate(seed, num, n, dist, arrangement);
        let mut data = batch.as_flat().to_vec();
        let original = data.clone();
        let mut gpu = Gpu::new(spec.clone());
        gpu.set_fault_plan(Some(plan));

        let outcome = match algorithm {
            "gas" => {
                sort_out_of_core_recovering(sorter.three_kernel(), &mut gpu, &mut data, n, &policy)
                    .map(|(ooc, report)| (ooc.chunks.len(), report))
            }
            _ => recover_batch_with(&mut gpu, &mut data, n, &policy, "gas-warp/batch", |g, d| {
                sorter.sort(g, d, n)
            })
            .map(|(_, report)| (1usize, report)),
        };
        match outcome {
            Err(e) => failures.push(format!("seed {seed}: run failed: {e}")),
            Ok((chunks, report)) => {
                let injected = gpu.injected_faults();
                let error_faults = injected.iter().filter(|f| f.kind.is_error()).count();
                let sorted_ok = cpu_ref::verify_against(&original, &data, n).is_none();
                let accounted = report.device_faults() as usize == error_faults;
                if !sorted_ok {
                    failures.push(format!("seed {seed}: output does not match the CPU oracle"));
                }
                if !accounted {
                    failures.push(format!(
                        "seed {seed}: report accounts for {} device faults but {} were injected",
                        report.device_faults(),
                        error_faults
                    ));
                }
                // Telemetry reconciliation: the same run rendered as
                // metrics must tell the same story as the report and
                // the injector log — the recovery device-fault counter
                // equals the injector's error-fault count, and the
                // per-kind injected-fault counters sum to the log.
                let mut reg = scheduler::Registry::new();
                report.record_to(&mut reg, algorithm);
                for f in &injected {
                    let kind = f.kind.to_string();
                    reg.inc(
                        "gas_device_injected_faults_total",
                        &[("device", "dev0"), ("kind", &kind)],
                    );
                }
                let metric_device_faults = reg.counter(
                    "gas_recovery_device_faults_total",
                    &[("algorithm", algorithm)],
                );
                let metric_injected =
                    reg.counter_sum("gas_device_injected_faults_total", &[("device", "dev0")]);
                let metrics_reconciled = metric_device_faults == error_faults as f64
                    && metric_injected == injected.len() as f64
                    && reg.counter("gas_recovery_retries_total", &[("algorithm", algorithm)])
                        == report.retries() as f64
                    && reg.counter(
                        "gas_recovery_cpu_fallbacks_total",
                        &[("algorithm", algorithm)],
                    ) == report.cpu_fallbacks() as f64;
                if !metrics_reconciled {
                    failures.push(format!(
                        "seed {seed}: telemetry counts {metric_device_faults} recovery device \
                         faults ({} retries, {} fallbacks, {metric_injected} injected) but the \
                         report/injector logged {} device faults, {} retries, {} fallbacks, \
                         {} injected",
                        reg.counter("gas_recovery_retries_total", &[("algorithm", algorithm)]),
                        reg.counter(
                            "gas_recovery_cpu_fallbacks_total",
                            &[("algorithm", algorithm)]
                        ),
                        report.device_faults(),
                        report.retries(),
                        report.cpu_fallbacks(),
                        injected.len()
                    ));
                }
                if let Some(dir) = &trace_dir {
                    write_trace_file(&gpu, &dir.join(format!("chaos-seed-{seed}.trace.json")))?;
                }
                rows.push(serde_json::json!({
                    "seed": seed,
                    "chunks": chunks,
                    "faults_injected": injected.len(),
                    "error_faults": error_faults,
                    "retries": report.retries(),
                    "cpu_fallbacks": report.cpu_fallbacks(),
                    "wasted_ms": report.wasted_ms(),
                    "elapsed_ms": gpu.elapsed_ms(),
                    "sorted_ok": sorted_ok,
                    "accounted": accounted,
                    "metrics_reconciled": metrics_reconciled,
                }));
            }
        }
    }

    let body = if args.flag("json") {
        serde_json::to_string_pretty(&serde_json::json!({
            "device": spec.name,
            "algorithm": algorithm,
            "num_arrays": num,
            "array_len": n,
            "runs": rows,
            "failures": failures,
        }))?
    } else {
        let mut out = format!(
            "chaos campaign ({algorithm}) on {}: {} seeds × {num} arrays × {n}\n{:<6} {:>7} {:>7} {:>8} {:>10} {:>11} {:>12}  {}\n",
            spec.name,
            seeds.len(),
            "seed",
            "chunks",
            "faults",
            "retries",
            "fallbacks",
            "wasted ms",
            "elapsed ms",
            "ok"
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<6} {:>7} {:>7} {:>8} {:>10} {:>11.3} {:>12.3}  {}\n",
                r["seed"].as_u64().unwrap_or(0),
                r["chunks"].as_u64().unwrap_or(0),
                r["error_faults"].as_u64().unwrap_or(0),
                r["retries"].as_u64().unwrap_or(0),
                r["cpu_fallbacks"].as_u64().unwrap_or(0),
                r["wasted_ms"].as_f64().unwrap_or(0.0),
                r["elapsed_ms"].as_f64().unwrap_or(0.0),
                if r["sorted_ok"] == true
                    && r["accounted"] == true
                    && r["metrics_reconciled"] == true
                {
                    "✓"
                } else {
                    "✗"
                }
            ));
        }
        out
    };

    if failures.is_empty() {
        Ok(body)
    } else {
        Err(format!(
            "{body}\nchaos campaign FAILED:\n  {}",
            failures.join("\n  ")
        )
        .into())
    }
}

/// Serializes a whole device pool's timelines as one Chrome trace-event
/// JSON document (one Chrome process lane per device).
fn write_pool_trace(
    service: &scheduler::SortService,
    path: &std::path::Path,
) -> Result<(), AnyError> {
    let pairs: Vec<_> = service
        .pool()
        .devices
        .iter()
        .map(|d| (d.gpu.timeline(), d.spec()))
        .collect();
    let doc = gpu_sim::chrome_trace_json_pool(&pairs);
    std::fs::write(path, serde_json::to_string_pretty(&doc)?)
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    Ok(())
}

/// Writes a telemetry snapshot as canonical (byte-reproducible) JSON.
fn write_metrics_file(snap: &scheduler::Snapshot, path: &std::path::Path) -> Result<(), AnyError> {
    std::fs::write(path, snap.to_json() + "\n")
        .map_err(|e| format!("cannot write metrics snapshot {}: {e}", path.display()))?;
    Ok(())
}

/// Renders a service run as a text summary plus a per-device table.
fn serve_summary(report: &scheduler::ServiceReport) -> String {
    let mut out = format!(
        "served {} requests: {} on-device, {} host fallbacks, {} shed, {} rejected — \
         {} deadline hits, {} misses, makespan {:.3} simulated ms\n",
        report.requests,
        report.completed,
        report.cpu_fallbacks,
        report.shed,
        report.rejected,
        report.deadline_hits,
        report.deadline_misses,
        report.makespan_ms
    );
    if report.cache.enabled {
        out.push_str(&format!(
            "result cache: {} hits / {} lookups ({} insertions, {} evictions, \
             {} of {} entries live) — hits billed zero device time\n",
            report.cache.hits,
            report.cache.lookups,
            report.cache.insertions,
            report.cache.evictions,
            report.cache.entries,
            report.cache.capacity
        ));
    }
    out.push_str(&format!(
        "{:<4} {:<20} {:>9} {:>7} {:>6} {:>7} {:>6} {:>11}\n",
        "dev", "name", "completed", "failed", "fatal", "faults", "trips", "device ms"
    ));
    for d in &report.devices {
        out.push_str(&format!(
            "{:<4} {:<20} {:>9} {:>7} {:>6} {:>7} {:>6} {:>11.3}{}\n",
            d.index,
            d.name,
            d.completed,
            d.failed_attempts,
            d.fatal_failures,
            d.error_faults,
            d.breaker_trips,
            d.device_ms,
            if d.blacklisted { "  [blacklisted]" } else { "" }
        ));
    }
    out
}

/// `gas serve`: drains one workload (from `--workload FILE` or generated
/// from `--seed`/`--requests`) through a pool of `--devices` simulated
/// GPUs with admission control, circuit breakers, cross-device retry and
/// graceful degradation. `--metrics FILE` dumps the run's telemetry
/// snapshot as canonical JSON (render it with `gas metrics`). The run
/// fails (nonzero exit) when any report invariant is violated.
pub fn cmd_serve(args: &Args) -> Result<String, AnyError> {
    let (specs, shape, tuning) = serving_args(args, 2, 100, [0.0; 2])?;
    let faults = match args.get("faults") {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => None,
    };
    let seed: u64 = args.get_or("seed", 0)?;
    let workload = match args.get("workload") {
        Some(path) => {
            let body = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read workload {path}: {e}"))?;
            let w = scheduler::Workload::from_json(&body)?;
            w.validate()?;
            w
        }
        None => scheduler::Workload::generate(&WorkloadConfig { seed, ..shape }),
    };
    let cfg = SchedulerConfig {
        seed,
        max_queue_depth: args.get_or("max-queue", 16)?,
        ..tuning
    };
    let mut service = scheduler::SortService::new(specs, cfg, faults.as_ref())?;
    let report = service.run(&workload)?;
    if let Some(path) = args.get("trace") {
        write_pool_trace(&service, std::path::Path::new(path))?;
    }
    if let Some(path) = args.get("metrics") {
        write_metrics_file(&service.metrics_snapshot(), std::path::Path::new(path))?;
    }
    let violations = report.invariant_violations();
    let body = if args.flag("json") {
        report.to_json()
    } else {
        serve_summary(&report)
    };
    if violations.is_empty() {
        Ok(body)
    } else {
        Err(format!(
            "{body}\nserve invariants VIOLATED:\n  {}",
            violations.join("\n  ")
        )
        .into())
    }
}

/// Parses the flags `gas serve` and `gas soak` share, under one
/// command's defaults for the pool size, the request count and the warp
/// and deterministic fractions. Returns the pool, the workload
/// shape and the scheduler tuning with seeds left at 0 for the command
/// to set. Tail tolerance and the streaming tier stay off unless asked
/// for, which keeps the legacy replay baseline byte-identical.
fn serving_args(
    args: &Args,
    devices: usize,
    requests: usize,
    [warp, det]: [f64; 2],
) -> Result<(Vec<DeviceSpec>, WorkloadConfig, SchedulerConfig), AnyError> {
    let specs = scheduler::parse_mix(
        args.get("device").unwrap_or("test"),
        args.get_or("devices", devices)?,
    )?;
    let workload = WorkloadConfig {
        requests: args.get_or("requests", requests)?,
        warp_fraction: args.get_or("warp-fraction", warp)?,
        deterministic_fraction: deterministic_fraction_arg(args, det)?,
        repeat_fraction: args.get_or("repeat-fraction", 0.0)?,
        ..Default::default()
    };
    let tuning = SchedulerConfig {
        max_attempts: args.get_or("retries", 3)?,
        timeout_slack: args.get_or("timeout-slack", 0.0)?,
        hedge_slack_ms: args.get_or("hedge-slack-ms", 0.0)?,
        degrade: args.flag("degrade"),
        batch_window_ms: batch_window_arg(args)?,
        cache_entries: args.get_or("cache-entries", 0)?,
        overlap: args.flag("overlap"),
        ..Default::default()
    };
    Ok((specs, workload, tuning))
}

/// Resolves `--batch-window-ms` to the scheduler's admission-window
/// knob: absent means 0 (coalescing off), the literal `auto` means -1
/// (the cost model picks the window from the pool's device specs), and
/// any other value is a duration in milliseconds. `main` pre-validates
/// the numeric form (exit 2 on garbage); this re-resolves it so the
/// commands stay independently testable.
fn batch_window_arg(args: &Args) -> Result<f64, AnyError> {
    match args.get("batch-window-ms") {
        None => Ok(0.0),
        Some("auto") => Ok(-1.0),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("bad --batch-window-ms {v:?} (a duration in ms or \"auto\")"))
            .map_err(Into::into),
    }
}

/// Resolves the share of generated requests that carry the
/// deterministic splitter policy: `--splitters deterministic` pins the
/// whole workload, `--splitters regular` pins none of it, and
/// `--det-fraction F` picks a mix (defaulting per command).
fn deterministic_fraction_arg(args: &Args, default: f64) -> Result<f64, AnyError> {
    match args.get("splitters") {
        Some(v) => match SplitterPolicy::parse(v)? {
            SplitterPolicy::Deterministic => Ok(1.0),
            SplitterPolicy::RegularSample => Ok(0.0),
        },
        None => Ok(args.get_or("det-fraction", default)?),
    }
}

/// Default fault mix for `gas soak`: every fault class at a rate that
/// exercises retries, breakers and fallbacks without drowning the pool.
const DEFAULT_SOAK_FAULTS: &str =
    "launch=0.02,abort=0.02,corrupt=0.02,oom=0.01,stall=0.03,stall-ms=0.2";

/// `gas soak`: a seeded scheduler campaign. Each seed generates a
/// workload, drains it through a fresh device pool **twice**, and
/// checks four things: the two reports are byte-identical (the run is
/// deterministic), the two telemetry snapshots are byte-identical too,
/// every report invariant reconciles (oracle equality, fault
/// accounting, no silent drops), and every request has a fate. Any
/// violation makes the command fail, so CI can fan it out.
/// `--metrics FILE` writes the campaign-wide telemetry (per-seed
/// registries merged: counters added, histograms merged) as JSON.
pub fn cmd_soak(args: &Args) -> Result<String, AnyError> {
    let seeds: Vec<u64> = match args.get("seed") {
        Some(v) => vec![v.parse().map_err(|_| format!("bad --seed {v:?}"))?],
        None => (1..=args.get_or("seeds", 4u64)?).collect(),
    };
    if seeds.is_empty() {
        return Err("--seeds must be positive".into());
    }
    // By default the soak mix pins a slice of requests to `gas-warp`, so
    // every campaign runs both GAS pipelines, and a quarter to
    // deterministic splitters, so the replay check covers overflow
    // detection and re-split end to end.
    let (specs, shape, tuning) = serving_args(args, 4, 250, [0.2, 0.25])?;
    let (devices, requests) = (specs.len(), shape.requests);
    let mix = args.get("device").unwrap_or("test");
    let metrics_path = args.get("metrics").map(PathBuf::from);
    let plan = FaultPlan::parse(args.get("faults").unwrap_or(DEFAULT_SOAK_FAULTS))?;
    let trace_dir = args.get("trace-dir").map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create trace dir {}: {e}", dir.display()))?;
    }

    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut campaign_metrics = scheduler::Registry::new();
    for &seed in &seeds {
        // Per campaign seed: its own workload and its own fault stream.
        let mut campaign_plan = plan.clone();
        campaign_plan.seed = campaign_plan.seed.wrapping_add(seed);
        let workload = scheduler::Workload::generate(&WorkloadConfig {
            seed,
            ..shape.clone()
        });
        let cfg = SchedulerConfig {
            seed,
            ..tuning.clone()
        };
        let mut service =
            scheduler::SortService::new(specs.clone(), cfg.clone(), Some(&campaign_plan))?;
        let report = service.run(&workload)?;
        let mut replay_service =
            scheduler::SortService::new(specs.clone(), cfg, Some(&campaign_plan))?;
        let replay = replay_service.run(&workload)?;
        let report_reproducible = report.to_json() == replay.to_json();
        if !report_reproducible {
            failures.push(format!(
                "seed {seed}: replay produced a different report — the run is not deterministic"
            ));
        }
        let metrics_reproducible =
            service.metrics_snapshot().to_json() == replay_service.metrics_snapshot().to_json();
        if !metrics_reproducible {
            failures.push(format!(
                "seed {seed}: replay produced a different telemetry snapshot — \
                 the metrics are not deterministic"
            ));
        }
        let reproducible = report_reproducible && metrics_reproducible;
        campaign_metrics.merge(service.metrics());
        let violations = report.invariant_violations();
        for v in &violations {
            failures.push(format!("seed {seed}: {v}"));
        }
        if let Some(dir) = &trace_dir {
            write_pool_trace(&service, &dir.join(format!("soak-seed-{seed}.trace.json")))?;
        }
        rows.push(serde_json::json!({
            "seed": seed,
            "requests": requests,
            "completed": report.completed,
            "cpu_fallbacks": report.cpu_fallbacks,
            "shed": report.shed,
            "rejected": report.rejected,
            "deadline_hits": report.deadline_hits,
            "deadline_misses": report.deadline_misses,
            "error_faults": report.devices.iter().map(|d| d.error_faults).sum::<usize>(),
            "breaker_trips": report.devices.iter().map(|d| d.breaker_trips).sum::<u32>(),
            "makespan_ms": report.makespan_ms,
            "reproducible": reproducible,
            "reconciled": violations.is_empty(),
        }));
    }
    if let Some(path) = &metrics_path {
        write_metrics_file(&campaign_metrics.snapshot(), path)?;
    }

    let body = if args.flag("json") {
        serde_json::to_string_pretty(&serde_json::json!({
            "devices": devices,
            "device_mix": mix,
            "requests_per_seed": requests,
            "runs": rows,
            "failures": failures,
        }))?
    } else {
        let mut out = format!(
            "soak campaign: {} seeds × {requests} requests over {devices} devices ({mix})\n\
             {:<6} {:>9} {:>10} {:>5} {:>9} {:>7} {:>6} {:>12}  {}\n",
            seeds.len(),
            "seed",
            "completed",
            "fallbacks",
            "shed",
            "rejected",
            "faults",
            "trips",
            "makespan ms",
            "ok"
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<6} {:>9} {:>10} {:>5} {:>9} {:>7} {:>6} {:>12.3}  {}\n",
                r["seed"].as_u64().unwrap_or(0),
                r["completed"].as_u64().unwrap_or(0),
                r["cpu_fallbacks"].as_u64().unwrap_or(0),
                r["shed"].as_u64().unwrap_or(0),
                r["rejected"].as_u64().unwrap_or(0),
                r["error_faults"].as_u64().unwrap_or(0),
                r["breaker_trips"].as_u64().unwrap_or(0),
                r["makespan_ms"].as_f64().unwrap_or(0.0),
                if r["reproducible"] == true && r["reconciled"] == true {
                    "✓"
                } else {
                    "✗"
                }
            ));
        }
        out
    };

    if failures.is_empty() {
        Ok(body)
    } else {
        Err(format!("{body}\nsoak campaign FAILED:\n  {}", failures.join("\n  ")).into())
    }
}

/// `gas metrics`: renders a telemetry snapshot file (written by
/// `gas serve --metrics` or `gas soak --metrics`) as Prometheus text
/// exposition, canonical JSON or an aligned table.
/// `--assert-model-p99 BOUND` additionally gates on cost-model
/// accuracy: the p99 of |relative error| across every
/// `gas_model_accuracy_rel_err` series must stay within `BOUND`, and
/// the family must actually hold samples — an empty snapshot fails the
/// gate rather than vacuously passing it.
pub fn cmd_metrics(args: &Args) -> Result<String, AnyError> {
    let path = args.require("input")?;
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metrics snapshot {path}: {e}"))?;
    let snap = scheduler::Snapshot::from_json(&body)?;
    let format = args.get("format").unwrap_or("table");
    if !matches!(format, "prom" | "json" | "table") {
        return Err(format!("unknown format {format:?} (prom|json|table)").into());
    }
    if let Some(family) = args.get("assert-nonempty") {
        // The presence gate: the named family must hold at least one
        // series (counter, gauge or histogram) or the command fails.
        // CI uses this so a "the degradation ladder engaged" check
        // cannot pass vacuously against a snapshot that never recorded
        // the family at all.
        let present = snap.counters.iter().any(|c| c.name == family)
            || snap.gauges.iter().any(|g| g.name == family)
            || snap.histograms.iter().any(|h| h.name == family);
        if !present {
            return Err(
                format!("metric family gate FAILED: snapshot holds no {family:?} series").into(),
            );
        }
    }
    if let Some(bound) = args.get("assert-model-p99") {
        let bound: f64 = bound
            .parse()
            .map_err(|_| format!("bad --assert-model-p99 {bound:?}"))?;
        let mut merged = scheduler::Histogram::new();
        for h in &snap.histograms {
            if h.name == "gas_model_accuracy_rel_err" {
                merged.merge(&h.hist);
            }
        }
        if merged.count == 0 {
            return Err("snapshot holds no gas_model_accuracy_rel_err samples to gate on".into());
        }
        let p99 = merged.quantile_abs(0.99);
        if p99 > bound {
            return Err(format!(
                "cost-model accuracy gate FAILED: |relative error| p99 is {p99} \
                 ({} samples), above the bound {bound}",
                merged.count
            )
            .into());
        }
    }
    Ok(match format {
        "prom" => snap.to_prometheus(),
        "json" => snap.to_json(),
        _ => snap.to_table(),
    })
}

/// Usage text.
pub fn usage() -> &'static str {
    "gas — GPU-ArraySort reproduction CLI (simulated device)

USAGE:
  gas generate --num-arrays N --array-len n --output FILE
               [--seed S] [--dist uniform|normal|exponential|pareto|constant|
                           few-distinct|zipf|single-heavy]
               [--arrangement shuffled|sorted|reversed|nearly-sorted]
               [--format f32le|csv]
  gas sort     --input FILE [--array-len n]
               [--algorithm gas|gas-warp|sta|segsort|merge]
               [--device k40c|k20|k80|gtx980|test] [--adaptive] [--verify]
               [--splitters regular|deterministic]
               [--faults SPEC] [--retries K]
               [--output FILE] [--trace FILE] [--stats] [--json]
               (--faults, with gas, gas-warp or sta, enables
                deterministic fault injection and the recovering pipeline;
                the report gains a recovery section. gas-warp is the
                single-kernel pipeline: one launch stages, buckets with
                warp-level multisplit (ballots, shuffle scans and
                leader-only atomics), sorts and writes back each array.
                --adaptive and --splitters apply to gas and gas-warp only.
                --splitters deterministic replaces the paper's regular
                sampling with sorted-tile order statistics and arms the
                bounded bucket re-split: every sortable bucket stays within
                2n/p. Both policies detect and count overflows)
  gas serve    [--devices N] [--device MIX] [--faults SPEC]
               [--workload FILE | --requests K --seed S]
               [--warp-fraction F]
               [--splitters P | --det-fraction F] [--repeat-fraction F]
               [--max-queue D] [--retries K]
               [--timeout-slack F] [--hedge-slack-ms MS] [--degrade]
               [--batch-window-ms MS|auto] [--cache-entries K] [--overlap]
               [--trace FILE] [--metrics FILE] [--json]
               (deadline-aware batch-sort service over a pool of simulated
                devices: admission control, per-device circuit breakers,
                cross-device retry, graceful degradation; exit 1 when any
                report invariant is violated. MIX is comma-separated device
                names cycled over N, e.g. --device k40c,k20 --devices 4.
                --metrics dumps the run's telemetry snapshot as JSON.
                --timeout-slack F arms the attempt watchdog: an attempt
                billed over F × its worst-case cost-model projection is
                cancelled at the checkpoint and re-dispatched elsewhere.
                --hedge-slack-ms MS arms request hedging: a High/Critical
                request whose deadline slack at dispatch is below MS gets
                a speculative duplicate on a second idle device; first
                completion wins, the loser is cancelled and its waste
                metered. --degrade arms the brownout ladder L0..L4
                (L1 no hedging, L2 cheapest GAS variant, L3 shed
                low-priority, L4 host-only) with hysteretic recovery.
                --batch-window-ms arms request coalescing: admitted
                requests are held up to MS (or an auto window the cost
                model picks from the pool) and compatible small requests
                launch as one merged mega-batch, split back per request;
                --cache-entries K arms a content-hash LRU result cache —
                a repeated payload is served from it with zero device
                time; --overlap pipelines H2D/compute/D2H on three
                streams per device. --repeat-fraction makes that share
                of a generated workload reuse identical payloads so the
                cache has something to hit)
  gas soak     [--seeds K | --seed S] [--devices N] [--device MIX]
               [--requests R] [--warp-fraction F]
               [--splitters P | --det-fraction F] [--repeat-fraction F]
               [--faults SPEC] [--retries K]
               [--timeout-slack F] [--hedge-slack-ms MS] [--degrade]
               [--batch-window-ms MS|auto] [--cache-entries K] [--overlap]
               [--trace-dir DIR] [--metrics FILE] [--json]
               (seeded scheduler campaign; each seed runs twice and both
                the report and the telemetry snapshot must be
                byte-identical, reconcile every injected fault and leave a
                record per request, else exit 1. --warp-fraction routes
                that share of requests to gas-warp (default 0.2),
                --det-fraction to the deterministic splitter pipelines
                (default 0.25; --splitters pins it to 1 or 0); --metrics
                writes the per-seed registries merged into one snapshot.
                --timeout-slack, --hedge-slack-ms and --degrade carry the
                serve-tier tail-tolerance tuning into every campaign seed,
                --batch-window-ms/--cache-entries/--overlap carry the
                streaming tier (coalescing, result cache, transfer/compute
                overlap) and --repeat-fraction seeds repeated payloads;
                the replay/reconciliation gates still apply)
  gas metrics  --input FILE [--format prom|json|table]
               [--assert-model-p99 BOUND] [--assert-nonempty FAMILY]
               (renders a telemetry snapshot written by serve/soak
                --metrics: Prometheus text exposition, canonical JSON or
                an aligned table with p50/p90/p99/p999 per histogram.
                --assert-model-p99 exits 1 unless the p99 of the
                cost-model |relative error| stays within BOUND — and the
                gas_model_accuracy_rel_err family is non-empty.
                --assert-nonempty exits 1 unless the named metric family
                holds at least one series, so CI gates on e.g.
                gas_degradation_transitions_total cannot pass vacuously)
  gas chaos    [--seeds K | --seed S] [--algorithm gas|gas-warp]
               [--num-arrays N] [--array-len n]
               [--splitters regular|deterministic] [--arrangement ...]
               [--faults SPEC] [--retries K] [--device ...] [--dist ...]
               [--trace-dir DIR] [--json]
               (seeded fault-injection campaign: every run must match the
                CPU oracle, account for each injected fault, and its
                telemetry counters must reconcile with the report and the
                injector log, else exit 1)
  gas profile  --num-arrays N --array-len n [--seed S] [--dist ...]
               [--arrangement ...] [--splitters regular|deterministic]
               [--algorithm gas|gas-warp|sta] [--device ...]
               [--trace FILE] [--json]
               (writes a Chrome trace — load at https://ui.perfetto.dev —
                and prints the per-phase breakdown with per-engine
                occupancy columns (compute/H2D/D2H busy ÷ span); gas-warp
                adds the billed sub-phase split of the launch)
  gas capacity --array-len n [--device ...]
  gas devices  [--json]

FAULT SPECS (comma-separated key=value):
  seed=S                    RNG seed for the fault stream (chaos adds its
                            campaign seed on top)
  launch=P abort=P corrupt=P oom=P stall=P device-death=P
                            per-operation probabilities in [0,1]
                            (device-death is permanent: the first hit takes
                            that device out of rotation for the whole run)
  stall-ms=MS               extra latency per injected stall (default 1.0)
  max=K                     cap total injected faults
  launch-at=I abort-at=I corrupt-at=I oom-at=I stall-at=I device-death-at=I
                            script a fault at the I-th operation of that class
  example: --faults seed=7,launch=0.1,corrupt=0.05,stall=0.2,stall-ms=0.5
  example: --faults seed=7,device-death=0.02,stall=0.05
"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run(cmdline: &[&str]) -> Result<String, AnyError> {
        run_command(&Args::parse(cmdline.iter().map(|s| s.to_string())).unwrap())
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gas_cli_{name}"))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_then_sort_then_verify() {
        let f = tmp("roundtrip.bin");
        run(&[
            "generate",
            "--num-arrays",
            "50",
            "--array-len",
            "100",
            "--output",
            &f,
        ])
        .unwrap();
        let msg = run(&["sort", "--input", &f, "--array-len", "100", "--verify"]).unwrap();
        assert!(msg.contains("verified ✓"), "{msg}");
    }

    #[test]
    fn all_algorithms_run_and_verify() {
        let f = tmp("algos.bin");
        run(&[
            "generate",
            "--num-arrays",
            "20",
            "--array-len",
            "64",
            "--output",
            &f,
        ])
        .unwrap();
        for algo in ["gas", "gas-warp", "sta", "segsort", "merge"] {
            let msg = run(&[
                "sort",
                "--input",
                &f,
                "--array-len",
                "64",
                "--algorithm",
                algo,
                "--verify",
            ])
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(msg.contains("verified"), "{algo}: {msg}");
        }
    }

    #[test]
    fn csv_input_infers_array_len() {
        let f = tmp("infer.csv");
        run(&[
            "generate",
            "--num-arrays",
            "4",
            "--array-len",
            "8",
            "--output",
            &f,
            "--format",
            "csv",
        ])
        .unwrap();
        let msg = run(&["sort", "--input", &f, "--verify"]).unwrap();
        assert!(msg.contains("4 arrays × 8"), "{msg}");
    }

    #[test]
    fn json_report_is_valid() {
        let f = tmp("json.bin");
        run(&[
            "generate",
            "--num-arrays",
            "5",
            "--array-len",
            "32",
            "--output",
            &f,
        ])
        .unwrap();
        let msg = run(&["sort", "--input", &f, "--array-len", "32", "--json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["num_arrays"], 5);
        assert!(v["simulated_total_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sorted_output_file_is_written() {
        let f = tmp("out_in.bin");
        let o = tmp("out_sorted.bin");
        run(&[
            "generate",
            "--num-arrays",
            "3",
            "--array-len",
            "16",
            "--output",
            &f,
        ])
        .unwrap();
        run(&["sort", "--input", &f, "--array-len", "16", "--output", &o]).unwrap();
        let (sorted, _) = crate::io::read_batch(std::path::Path::new(&o), Format::F32le).unwrap();
        assert!(cpu_ref::is_each_sorted(&sorted, 16));
    }

    #[test]
    fn devices_and_capacity_commands() {
        let d = run(&["devices"]).unwrap();
        assert!(d.contains("Tesla K40c") && d.contains("GTX 980"));
        let c = run(&["capacity", "--array-len", "1000"]).unwrap();
        assert!(c.contains("GPU-ArraySort"), "{c}");
        let c = run(&["capacity", "--array-len", "1000", "--device", "gtx980"]).unwrap();
        assert!(c.contains("GTX 980"), "{c}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&["sort", "--input", "/nonexistent.bin"]).is_err());
        let f = tmp("err.bin");
        run(&[
            "generate",
            "--num-arrays",
            "2",
            "--array-len",
            "4",
            "--output",
            &f,
        ])
        .unwrap();
        assert!(run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "4",
            "--algorithm",
            "quantum"
        ])
        .unwrap_err()
        .to_string()
        .contains("unknown algorithm"));
        // A retired algorithm is named as unknown even when it comes
        // with flags that only some algorithms accept.
        for flag in [&["--splitters", "deterministic"][..], &["--adaptive"][..]] {
            let mut argv = vec![
                "sort",
                "--input",
                &f,
                "--array-len",
                "4",
                "--algorithm",
                "gas-fused",
            ];
            argv.extend_from_slice(flag);
            let err = run(&argv).unwrap_err().to_string();
            assert!(err.contains("unknown algorithm"), "{err}");
        }
        assert!(run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "4",
            "--device",
            "h100"
        ])
        .unwrap_err()
        .to_string()
        .contains("unknown device"));
    }

    #[test]
    fn stats_flag_prints_instrumentation_json() {
        let f = tmp("stats.bin");
        run(&[
            "generate",
            "--num-arrays",
            "10",
            "--array-len",
            "64",
            "--output",
            &f,
        ])
        .unwrap();
        let msg = run(&["sort", "--input", &f, "--array-len", "64", "--stats"]).unwrap();
        assert!(
            msg.contains("phase1_ms"),
            "plain report should append GasStats JSON: {msg}"
        );
        let msg = run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "64",
            "--stats",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert!(v["stats"]["phase1_ms"].as_f64().unwrap() > 0.0);
        assert!(v["stats"]["balance"].is_object());
    }

    #[test]
    fn sort_trace_flag_writes_chrome_trace() {
        let f = tmp("trace_in.bin");
        let t = tmp("sort.trace.json");
        run(&[
            "generate",
            "--num-arrays",
            "8",
            "--array-len",
            "64",
            "--output",
            &f,
        ])
        .unwrap();
        run(&["sort", "--input", &f, "--array-len", "64", "--trace", &t]).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&t).unwrap()).unwrap();
        assert!(doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .any(|e| e["ph"] == "X"));
    }

    #[test]
    fn profile_writes_trace_and_prints_phase_table() {
        let t = tmp("profile.trace.json");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "50",
            "--array-len",
            "200",
            "--trace",
            &t,
        ])
        .unwrap();
        for phase in [
            "gas/upload",
            "gas/phase1-splitters",
            "gas/phase2-bucket-scatter",
            "gas/phase3-bucket-sort",
            "gas/download",
        ] {
            assert!(msg.contains(phase), "table must list {phase}: {msg}");
        }
        assert!(msg.contains(&t), "must say where the trace went");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&t).unwrap()).unwrap();
        assert!(doc["traceEvents"].as_array().unwrap().len() > 5);
    }

    #[test]
    fn profile_json_phases_sum_to_elapsed() {
        let t = tmp("profile_json.trace.json");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "20",
            "--array-len",
            "100",
            "--json",
            "--trace",
            &t,
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        let elapsed = v["elapsed_ms"].as_f64().unwrap();
        let sum: f64 = v["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["span_ms"].as_f64().unwrap())
            .sum();
        assert!(
            (sum - elapsed).abs() < 1e-6,
            "phases {sum} vs elapsed {elapsed}"
        );
    }

    #[test]
    fn profile_supports_sta_baseline() {
        let t = tmp("profile_sta.trace.json");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "20",
            "--array-len",
            "64",
            "--algorithm",
            "sta",
            "--trace",
            &t,
        ])
        .unwrap();
        assert!(msg.contains("sta/sort-by-value"), "{msg}");
    }

    #[test]
    fn zero_shapes_are_rejected_not_panicked() {
        let f = tmp("zero.bin");
        let f = f.as_str();
        for bad in [
            vec![
                "generate",
                "--num-arrays",
                "0",
                "--array-len",
                "8",
                "--output",
                f,
            ],
            vec![
                "generate",
                "--num-arrays",
                "8",
                "--array-len",
                "0",
                "--output",
                f,
            ],
            vec!["profile", "--num-arrays", "0", "--array-len", "8"],
            vec!["profile", "--num-arrays", "8", "--array-len", "0"],
            vec!["capacity", "--array-len", "0"],
        ] {
            let err = run(&bad).unwrap_err().to_string();
            assert!(err.contains("must be positive"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn sort_rejects_zero_and_non_multiple_array_len() {
        let f = tmp("shape.bin");
        run(&[
            "generate",
            "--num-arrays",
            "3",
            "--array-len",
            "10",
            "--output",
            &f,
        ])
        .unwrap();
        let err = run(&["sort", "--input", &f, "--array-len", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("must be positive"), "{err}");
        let err = run(&["sort", "--input", &f, "--array-len", "7"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a multiple"), "{err}");
    }

    #[test]
    fn served_sorts_with_faults_recover_and_report() {
        let f = tmp("faults.bin");
        run(&[
            "generate",
            "--num-arrays",
            "40",
            "--array-len",
            "100",
            "--output",
            &f,
        ])
        .unwrap();
        for (algorithm, faults, label) in [
            ("gas", "seed=3,launch-at=0", "GPU-ArraySort (recovering)"),
            ("sta", "seed=3,abort-at=0", "STA (recovering)"),
            (
                "gas-warp",
                "seed=3,launch-at=0",
                "GPU-ArraySort warp (recovering)",
            ),
        ] {
            let msg = run(&[
                "sort",
                "--input",
                &f,
                "--array-len",
                "100",
                "--algorithm",
                algorithm,
                "--faults",
                faults,
                "--verify",
                "--json",
            ])
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
            assert_eq!(v["algorithm"], label);
            assert_eq!(v["verified"], true, "{algorithm}");
            assert_eq!(
                v["recovery"]["chunks"][0]["device_faults"], 1,
                "{algorithm}"
            );
            let injected = v["injected_faults"].as_array().unwrap();
            assert_eq!(injected.len(), 1, "{algorithm}");
        }
    }

    #[test]
    fn profile_supports_gas_warp_with_subphase_breakdown() {
        let t = tmp("profile_warp.trace.json");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "30",
            "--array-len",
            "500",
            "--algorithm",
            "gas-warp",
            "--trace",
            &t,
        ])
        .unwrap();
        for phase in [
            "gas-fused/upload",
            "gas-fused/fused-kernel",
            "gas-fused/download",
        ] {
            assert!(msg.contains(phase), "table must list {phase}: {msg}");
        }
        for stage in [
            "stage-in",
            "sample-sort",
            "bucket-index",
            "bucket-sort",
            "write-back",
        ] {
            assert!(msg.contains(stage), "breakdown must list {stage}: {msg}");
        }
        let msg = run(&[
            "profile",
            "--num-arrays",
            "10",
            "--array-len",
            "300",
            "--algorithm",
            "gas-warp",
            "--json",
            "--trace",
            &t,
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["fused"]["path"], "fused");
        assert!(v["fused"]["breakdown"]["sample_sort_ms"].as_f64().unwrap() > 0.0);
        // The three spans telescope: they sum to the elapsed run time.
        let elapsed = v["elapsed_ms"].as_f64().unwrap();
        let sum: f64 = v["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["span_ms"].as_f64().unwrap())
            .sum();
        assert!(
            (sum - elapsed).abs() < 1e-6,
            "phases {sum} vs elapsed {elapsed}"
        );
    }

    #[test]
    fn serve_runs_a_synthetic_workload() {
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "20",
            "--seed",
            "1",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["requests"], 20);
        assert_eq!(v["records"].as_array().unwrap().len(), 20);
        assert_eq!(v["devices"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn serve_loads_a_workload_file_and_writes_a_pool_trace() {
        let wf = tmp("serve_workload.json");
        let t = tmp("serve_pool.trace.json");
        let w = scheduler::Workload::generate(&scheduler::WorkloadConfig {
            seed: 3,
            requests: 12,
            ..Default::default()
        });
        std::fs::write(&wf, w.to_json()).unwrap();
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--workload",
            &wf,
            "--faults",
            "seed=2,launch=0.05",
            "--trace",
            &t,
        ])
        .unwrap();
        assert!(msg.contains("served 12 requests"), "{msg}");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&t).unwrap()).unwrap();
        // One Chrome process lane per pool device.
        let pids: std::collections::BTreeSet<u64> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["pid"].as_u64())
            .collect();
        assert_eq!(pids.len(), 2, "{pids:?}");
    }

    #[test]
    fn serve_rejects_bad_pool_and_workload_args() {
        assert!(run(&["serve", "--devices", "0"]).is_err());
        assert!(run(&["serve", "--device", "warp9"]).is_err());
        assert!(run(&["serve", "--workload", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn soak_campaign_is_reproducible_and_reconciles() {
        let msg = run(&[
            "soak",
            "--seeds",
            "2",
            "--devices",
            "2",
            "--requests",
            "30",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        let runs = v["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 2);
        for r in runs {
            assert_eq!(r["reproducible"], true, "{r}");
            assert_eq!(r["reconciled"], true, "{r}");
        }
        assert!(v["failures"].as_array().unwrap().is_empty());
    }

    #[test]
    fn soak_writes_per_seed_pool_traces() {
        let dir = tmp("soak_traces");
        run(&[
            "soak",
            "--seed",
            "7",
            "--devices",
            "2",
            "--requests",
            "15",
            "--trace-dir",
            &dir,
        ])
        .unwrap();
        let trace = std::path::Path::new(&dir).join("soak-seed-7.trace.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(doc["traceEvents"].as_array().unwrap().len() > 1);
    }

    #[test]
    fn faults_flag_requires_gas_and_a_valid_spec() {
        let f = tmp("faults_guard.bin");
        run(&[
            "generate",
            "--num-arrays",
            "4",
            "--array-len",
            "16",
            "--output",
            &f,
        ])
        .unwrap();
        let err = run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "16",
            "--algorithm",
            "segsort",
            "--faults",
            "launch=0.5",
        ])
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("only supported with --algorithm gas or sta"),
            "{err}"
        );
        let err = run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "16",
            "--faults",
            "launch=nope",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("invalid fault spec"), "{err}");
    }

    #[test]
    fn chaos_campaign_passes_on_fixed_seeds() {
        let msg = run(&[
            "chaos",
            "--seeds",
            "2",
            "--num-arrays",
            "400",
            "--array-len",
            "200",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["runs"].as_array().unwrap().len(), 2);
        for r in v["runs"].as_array().unwrap() {
            assert_eq!(r["sorted_ok"], true, "{r}");
            assert_eq!(r["accounted"], true, "{r}");
            assert_eq!(r["metrics_reconciled"], true, "{r}");
        }
        assert!(v["failures"].as_array().unwrap().is_empty());
    }

    #[test]
    fn chaos_drives_the_warp_pipeline_too() {
        let msg = run(&[
            "chaos",
            "--seeds",
            "2",
            "--algorithm",
            "gas-warp",
            "--num-arrays",
            "64",
            "--array-len",
            "200",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["algorithm"], "gas-warp");
        assert_eq!(v["runs"].as_array().unwrap().len(), 2);
        for r in v["runs"].as_array().unwrap() {
            assert_eq!(r["sorted_ok"], true, "{r}");
            assert_eq!(r["accounted"], true, "{r}");
        }
        assert!(v["failures"].as_array().unwrap().is_empty());
        assert!(run(&["chaos", "--algorithm", "quantum"])
            .unwrap_err()
            .to_string()
            .contains("unknown algorithm"));
    }

    #[test]
    fn serve_routes_a_warp_fraction_through_the_pool() {
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "20",
            "--seed",
            "1",
            "--warp-fraction",
            "0.5",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["requests"], 20);
        let warp_records = v["records"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|r| r["algorithm"] == "gas-warp")
            .count();
        assert!(warp_records > 0, "half the mix should route to gas-warp");
    }

    #[test]
    fn chaos_writes_per_seed_traces() {
        let dir = tmp("chaos_traces");
        run(&[
            "chaos",
            "--seed",
            "5",
            "--num-arrays",
            "200",
            "--array-len",
            "100",
            "--trace-dir",
            &dir,
        ])
        .unwrap();
        let trace = std::path::Path::new(&dir).join("chaos-seed-5.trace.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(doc["traceEvents"].as_array().unwrap().len() > 1);
    }

    #[test]
    fn serve_writes_a_metrics_snapshot_that_gas_metrics_renders() {
        let m = tmp("serve_metrics.json");
        run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "20",
            "--seed",
            "1",
            "--metrics",
            &m,
        ])
        .unwrap();
        let body = std::fs::read_to_string(&m).unwrap();
        let snap = scheduler::Snapshot::from_json(&body).unwrap();
        assert!(
            snap.histograms
                .iter()
                .any(|h| h.name == "gas_model_accuracy_rel_err"),
            "the snapshot must carry cost-model accuracy samples"
        );

        // Every render format works on the same file…
        let prom = run(&["metrics", "--input", &m, "--format", "prom"]).unwrap();
        assert!(prom.contains("# TYPE gas_requests_total counter"), "{prom}");
        assert!(prom.contains("gas_request_e2e_ms_bucket"), "{prom}");
        let json = run(&["metrics", "--input", &m, "--format", "json"]).unwrap();
        assert_eq!(json + "\n", body, "json render must be the file itself");
        let table = run(&["metrics", "--input", &m]).unwrap();
        assert!(table.contains("p99"), "{table}");

        // …and a generous cost-model gate passes on real samples.
        run(&[
            "metrics",
            "--input",
            &m,
            "--assert-model-p99",
            "1000",
            "--format",
            "prom",
        ])
        .unwrap();
    }

    #[test]
    fn soak_merges_per_seed_metrics_into_one_snapshot() {
        let m = tmp("soak_metrics.json");
        run(&[
            "soak",
            "--seeds",
            "2",
            "--devices",
            "2",
            "--requests",
            "30",
            "--metrics",
            &m,
        ])
        .unwrap();
        let snap = scheduler::Snapshot::from_json(&std::fs::read_to_string(&m).unwrap()).unwrap();
        // Both campaign seeds land in the same registry: the request
        // counter totals 2 × 30 across its label combinations.
        let total: f64 = snap
            .counters
            .iter()
            .filter(|c| c.name == "gas_requests_total")
            .map(|c| c.value)
            .sum();
        assert_eq!(total, 60.0);
        // The default soak mix routes every GAS variant, so the
        // cost-model accuracy family covers both.
        for variant in ["three-kernel", "warp"] {
            assert!(
                snap.histograms.iter().any(|h| {
                    h.name == "gas_model_accuracy_rel_err"
                        && h.labels.iter().any(|(k, v)| k == "variant" && v == variant)
                }),
                "missing model-accuracy series for variant {variant}"
            );
        }
    }

    #[test]
    fn metrics_command_rejects_bad_input_format_and_empty_gate() {
        let err = run(&["metrics", "--input", "/nonexistent.metrics.json"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot read metrics snapshot"), "{err}");

        let empty = tmp("empty_metrics.json");
        std::fs::write(&empty, r#"{"counters":[],"gauges":[],"histograms":[]}"#).unwrap();
        run(&["metrics", "--input", &empty]).unwrap();
        let err = run(&["metrics", "--input", &empty, "--format", "yaml"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown format"), "{err}");
        // The cost-model gate refuses to pass vacuously.
        let err = run(&["metrics", "--input", &empty, "--assert-model-p99", "100"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("no gas_model_accuracy_rel_err samples"),
            "{err}"
        );
    }

    #[test]
    fn distributions_parse() {
        for d in [
            "uniform",
            "normal",
            "exponential",
            "pareto",
            "constant",
            "few-distinct",
            "zipf",
            "single-heavy",
        ] {
            assert!(dist_for(Some(d)).is_ok(), "{d}");
        }
        assert!(dist_for(Some("banana")).is_err());
    }

    #[test]
    fn arrangements_and_splitters_parse() {
        for a in ["shuffled", "sorted", "reversed", "nearly-sorted"] {
            assert!(arrangement_for(Some(a)).is_ok(), "{a}");
        }
        assert!(arrangement_for(Some("spiral")).is_err());
        assert_eq!(splitters_for(None).unwrap(), SplitterPolicy::RegularSample);
        assert_eq!(
            splitters_for(Some("deterministic")).unwrap(),
            SplitterPolicy::Deterministic
        );
        assert_eq!(
            splitters_for(Some("regular")).unwrap(),
            SplitterPolicy::RegularSample
        );
        assert!(splitters_for(Some("psychic")).is_err());
    }

    #[test]
    fn deterministic_splitters_sort_adversarial_batches_across_variants() {
        let f = tmp("det_adversarial.bin");
        run(&[
            "generate",
            "--num-arrays",
            "12",
            "--array-len",
            "200",
            "--dist",
            "single-heavy",
            "--output",
            &f,
        ])
        .unwrap();
        for algo in ["gas", "gas-warp"] {
            let msg = run(&[
                "sort",
                "--input",
                &f,
                "--array-len",
                "200",
                "--algorithm",
                algo,
                "--splitters",
                "deterministic",
                "--verify",
                "--stats",
                "--json",
            ])
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
            assert_eq!(v["verified"], true, "{algo}");
            // The point-mass batch must trip detection, and the report
            // must surface it rather than swallow it.
            let overflow = &v["stats"]["overflow"];
            assert!(
                overflow["overflowed_buckets"].as_u64().unwrap() >= 1,
                "{algo}: single-heavy must overflow at least one bucket: {overflow}"
            );
            assert!(
                overflow["post_max_sortable"].as_u64().unwrap()
                    <= overflow["limit"].as_u64().unwrap(),
                "{algo}: deterministic re-split must restore the 2n/p bound: {overflow}"
            );
        }
    }

    #[test]
    fn splitters_flag_requires_a_gas_variant() {
        let f = tmp("splitters_guard.bin");
        run(&[
            "generate",
            "--num-arrays",
            "4",
            "--array-len",
            "16",
            "--output",
            &f,
        ])
        .unwrap();
        let err = run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "16",
            "--algorithm",
            "sta",
            "--splitters",
            "deterministic",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("only supported with --algorithm gas"), "{err}");
        let err = run(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "16",
            "--splitters",
            "psychic",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown splitter policy"), "{err}");
    }

    #[test]
    fn adaptive_flag_requires_a_gas_variant_and_reaches_gas_warp() {
        // Every tenth element is the minimum, so the regular sample
        // collapses every splitter onto it and one bucket takes nearly
        // the whole array: the blow-up the adaptive bucket sort rescues.
        let n = 1000;
        let data: Vec<f32> = (0..4 * n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    (i * 7919 % 1_000_003) as f32 + 1.0
                }
            })
            .collect();
        let f = tmp("adaptive_collapse.bin");
        write_batch(std::path::Path::new(&f), &data, n, Format::F32le).unwrap();
        for algo in ["sta", "segsort", "merge"] {
            let err = run(&[
                "sort",
                "--input",
                &f,
                "--array-len",
                "1000",
                "--algorithm",
                algo,
                "--adaptive",
            ])
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("only supported with --algorithm gas"),
                "{algo}: {err}"
            );
        }
        let kernel_ms = |adaptive: bool| {
            let mut cmdline = vec![
                "sort",
                "--input",
                &f,
                "--array-len",
                "1000",
                "--algorithm",
                "gas-warp",
                "--verify",
                "--json",
            ];
            if adaptive {
                cmdline.push("--adaptive");
            }
            let v: serde_json::Value = serde_json::from_str(&run(&cmdline).unwrap()).unwrap();
            assert_eq!(v["verified"], true);
            v["simulated_kernel_ms"].as_f64().unwrap()
        };
        let (paper, adaptive) = (kernel_ms(false), kernel_ms(true));
        assert!(
            adaptive < paper,
            "--adaptive must reach the fused kernel: {adaptive} vs {paper} ms"
        );
    }

    #[test]
    fn serve_routes_a_deterministic_workload() {
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "15",
            "--seed",
            "1",
            "--splitters",
            "deterministic",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["requests"], 15);
        assert_eq!(v["records"].as_array().unwrap().len(), 15);
    }

    #[test]
    fn serve_accepts_the_tail_tolerance_flags_and_reports_degradation() {
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "20",
            "--seed",
            "1",
            "--timeout-slack",
            "4.0",
            "--hedge-slack-ms",
            "5.0",
            "--degrade",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["requests"], 20);
        assert_eq!(v["degradation"]["enabled"], true, "{}", v["degradation"]);
        assert_eq!(
            v["degradation"]["time_at_level_ms"]
                .as_array()
                .unwrap()
                .len(),
            5,
            "an enabled ladder reports all five level buckets"
        );
    }

    #[test]
    fn soak_under_device_death_with_the_ladder_passes_the_nonempty_gate() {
        let m = tmp("soak_degrade_metrics.json");
        run(&[
            "soak",
            "--seed",
            "2",
            "--devices",
            "2",
            "--requests",
            "25",
            "--faults",
            "seed=1,device-death=0.01,stall=0.03,stall-ms=0.2",
            "--hedge-slack-ms",
            "2.0",
            "--degrade",
            "--metrics",
            &m,
        ])
        .unwrap();
        // The degradation-level gauge is published whenever the ladder
        // is armed, so the presence gate holds…
        run(&[
            "metrics",
            "--input",
            &m,
            "--assert-nonempty",
            "gas_degradation_level",
        ])
        .unwrap();
        // …and the same gate refuses a family the run never recorded.
        let err = run(&[
            "metrics",
            "--input",
            &m,
            "--assert-nonempty",
            "gas_no_such_family_total",
        ])
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("no \"gas_no_such_family_total\" series"),
            "{err}"
        );
    }

    #[test]
    fn serve_streaming_flags_coalesce_cache_and_overlap() {
        let m = tmp("serve_streaming_metrics.json");
        let msg = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "40",
            "--seed",
            "5",
            "--batch-window-ms",
            "0.1",
            "--cache-entries",
            "16",
            "--overlap",
            "--repeat-fraction",
            "0.5",
            "--metrics",
            &m,
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        assert_eq!(v["cache"]["enabled"], true, "{}", v["cache"]);
        assert!(
            v["cache_hits"].as_u64().unwrap() > 0,
            "repeated payloads must hit the cache: {}",
            v["cache"]
        );
        // The cache counters land in the telemetry snapshot, so the CI
        // presence gate has something to bite on.
        run(&[
            "metrics",
            "--input",
            &m,
            "--assert-nonempty",
            "gas_cache_hits_total",
        ])
        .unwrap();
        // The text summary surfaces the cache roll-up, and the literal
        // "auto" window resolves through the cost model.
        let txt = run(&[
            "serve",
            "--devices",
            "2",
            "--requests",
            "40",
            "--seed",
            "5",
            "--batch-window-ms",
            "auto",
            "--cache-entries",
            "16",
            "--repeat-fraction",
            "0.5",
        ])
        .unwrap();
        assert!(txt.contains("result cache:"), "{txt}");
        // Garbage still resolves to a command error (main exits 2 on the
        // pre-validation path; the resolver mirrors it for testability).
        assert!(batch_window_arg(
            &Args::parse(
                ["serve", "--batch-window-ms", "soon"]
                    .iter()
                    .map(|s| s.to_string())
            )
            .unwrap()
        )
        .is_err());
    }

    #[test]
    fn soak_streaming_campaign_replays_byte_identically() {
        let msg = run(&[
            "soak",
            "--seed",
            "3",
            "--devices",
            "2",
            "--requests",
            "30",
            "--batch-window-ms",
            "auto",
            "--cache-entries",
            "16",
            "--overlap",
            "--repeat-fraction",
            "0.4",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        let runs = v["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0]["reproducible"], true, "{}", runs[0]);
        assert_eq!(runs[0]["reconciled"], true, "{}", runs[0]);
        assert!(v["failures"].as_array().unwrap().is_empty());
    }

    #[test]
    fn profile_table_reports_engine_occupancy() {
        let t = tmp("profile_occupancy.trace.json");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "20",
            "--array-len",
            "100",
            "--trace",
            &t,
        ])
        .unwrap();
        assert!(msg.contains("comp%"), "{msg}");
        assert!(msg.contains("h2d%"), "{msg}");
        let msg = run(&[
            "profile",
            "--num-arrays",
            "20",
            "--array-len",
            "100",
            "--json",
            "--trace",
            &t,
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        let phases = v["phases"].as_array().unwrap();
        // The upload phase is pure H2D, the download phase pure D2H.
        let up = phases
            .iter()
            .find(|p| p["name"] == "gas/upload")
            .expect("upload phase");
        assert!(up["h2d_busy_pct"].as_f64().unwrap() > 0.0, "{up}");
        assert_eq!(up["d2h_busy_pct"].as_f64().unwrap(), 0.0, "{up}");
        let down = phases
            .iter()
            .find(|p| p["name"] == "gas/download")
            .expect("download phase");
        assert!(down["d2h_busy_pct"].as_f64().unwrap() > 0.0, "{down}");
    }

    #[test]
    fn chaos_reconciles_a_device_death_campaign() {
        let msg = run(&[
            "chaos",
            "--seed",
            "3",
            "--num-arrays",
            "400",
            "--array-len",
            "100",
            "--faults",
            "seed=0,device-death-at=3",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&msg).unwrap();
        let runs = v["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r["sorted_ok"], true, "{r}");
        assert_eq!(r["accounted"], true, "{r}");
        assert_eq!(r["metrics_reconciled"], true, "{r}");
        assert_eq!(
            r["faults_injected"], 1,
            "one death, no phantom entries: {r}"
        );
        assert!(
            r["cpu_fallbacks"].as_u64().unwrap() > 0,
            "post-death chunks must fall back to the host: {r}"
        );
        assert!(v["failures"].as_array().unwrap().is_empty());
    }
}
