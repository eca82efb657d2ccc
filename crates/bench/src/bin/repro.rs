//! Regenerates one of the paper's artifacts, or all of them: each prints
//! its markdown tables on stdout and writes its JSON (and CSV) into
//! `results/`.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <artifact> [flags]
//! ```
//!
//! See [`USAGE`] for the artifacts and the flags each one reads. A scale
//! shrinks the number of arrays N (array sizes n are never scaled); it
//! defaults to 0.05, or 1.0 for `outofcore`, and `--full` means 1.0. An
//! unknown artifact, a flag the artifact does not read or a value that
//! does not parse exits 2 with the usage.

use std::path::{Path, PathBuf};

use bench::{
    default_out_dir, fmt_count, fmt_ms, markdown_table, probe_table1_row, run_adversarial,
    run_baseline_sensitivity, run_beyond, run_bucket_ablation, run_device_sweep, run_fig2_traced,
    run_fused_ablation, run_merge_ablation, run_outofcore_traced, run_runtime_figure_traced,
    run_sampling_ablation, run_skew, run_splitter_ablation, run_table1, run_threads_ablation,
    run_warp_ablation, value, write_csv, write_json, FIG4TO7_SIZES,
};
use serde::Serialize;

const USAGE: &str = "\
usage: repro <artifact> [flags]

  fig2        Fig. 2: measured vs. Eq. 2 time over n      [--scale f | --full]
  fig4to7     Figs. 4-7: GPU-ArraySort vs. STA over N     [--n 1000] [--scale f | --full]
  table1      Table 1: data-handling capacity on the K40c
  ablations   design-choice ablations A-G                 [selectors] [--scale f | --full]
  outofcore   paper section 9: out-of-core sort           [--scale f | --full] (default 1.0)
  beyond      beyond the paper: experiments 1-4           [--scale f | --full]
  devices     the same workload on every device preset    [--scale f | --full]
  all         the first six above, in that order          [--scale f | --full]

  ablation selectors (none selected: all seven run): --bucket-sweep --sampling-sweep
  --threads-per-bucket --merge-variant --fused-variant --warp-variant --splitter-policy";

/// Every artifact, in the order `all` runs the first six.
const ARTIFACTS: [&str; 8] = [
    "fig2",
    "fig4to7",
    "table1",
    "ablations",
    "outofcore",
    "beyond",
    "devices",
    "all",
];

/// An ablation's driver, at a scale, writing into an out dir.
type Ablation = fn(f64, &Path);

/// The ablations in run order: each one's selector and its driver.
const ABLATIONS: [(&str, Ablation); 7] = [
    ("--bucket-sweep", bucket_size),
    ("--sampling-sweep", sampling_rate),
    ("--threads-per-bucket", threads_per_bucket),
    ("--merge-variant", merge_variant),
    ("--fused-variant", fused_variant),
    ("--warp-variant", warp_variant),
    ("--splitter-policy", splitter_policy),
];

/// One parsed invocation: an artifact with the flags it reads. `n: None`
/// runs all four of Figs. 4–7, an empty `only` runs all seven ablations,
/// and `All`'s `scale: None` gives each artifact its own default.
#[derive(Debug, PartialEq)]
#[rustfmt::skip]
enum Repro {
    Fig2 { scale: f64 },
    Fig4to7 { scale: f64, n: Option<usize> },
    Table1,
    Ablations { scale: f64, only: Vec<&'static str> },
    OutOfCore { scale: f64 },
    Beyond { scale: f64 },
    Devices { scale: f64 },
    All { scale: Option<f64> },
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(repro) => repro.run(&default_out_dir()),
        Err(e) => {
            eprintln!("repro: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse(args: &[String]) -> Result<Repro, String> {
    let Some((name, flags)) = args.split_first() else {
        return Err("no artifact named".into());
    };
    let name = name.as_str();
    if !ARTIFACTS.contains(&name) {
        return Err(format!("unknown artifact {name:?}"));
    }
    let (mut scale, mut n, mut only) = (None, None, Vec::new());
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let flag = flag.as_str();
        match (flag, ABLATIONS.iter().find(|(s, _)| *s == flag)) {
            ("--full", _) if name != "table1" => scale = Some(1.0),
            ("--scale", _) if name != "table1" => scale = Some(value(flag, flags.next())?),
            ("--n", _) if name == "fig4to7" => n = Some(value(flag, flags.next())?),
            (_, Some(&(selector, _))) if name == "ablations" => only.push(selector),
            _ => return Err(format!("`repro {name}` does not read {flag:?}")),
        }
    }
    Ok(repro(name, scale, n, only))
}

/// The driver for the known artifact `name`; a `scale` of `None` takes the
/// artifact's default.
fn repro(name: &str, scale: Option<f64>, n: Option<usize>, only: Vec<&'static str>) -> Repro {
    let s = scale.unwrap_or(0.05);
    match name {
        "fig2" => Repro::Fig2 { scale: s },
        "fig4to7" => Repro::Fig4to7 { scale: s, n },
        "table1" => Repro::Table1,
        "ablations" => Repro::Ablations { scale: s, only },
        "outofcore" => Repro::OutOfCore {
            scale: scale.unwrap_or(1.0),
        },
        "beyond" => Repro::Beyond { scale: s },
        "devices" => Repro::Devices { scale: s },
        _ => Repro::All { scale },
    }
}

impl Repro {
    fn run(&self, out: &Path) {
        match self {
            Repro::Fig2 { scale } => fig2(*scale, out),
            Repro::Fig4to7 { scale, n } => fig4to7(*scale, *n, out),
            Repro::Table1 => table1(out),
            Repro::Ablations { scale, only } => {
                for (selector, run) in ABLATIONS {
                    if only.is_empty() || only.contains(&selector) {
                        run(*scale, out);
                    }
                }
                println!("\nwrote ablation artifacts into results/");
            }
            Repro::OutOfCore { scale } => outofcore(*scale, out),
            Repro::Beyond { scale } => beyond(*scale, out),
            Repro::Devices { scale } => devices(*scale, out),
            Repro::All { scale } => {
                for name in &ARTIFACTS[..6] {
                    println!("\n=============== repro {name} ===============");
                    repro(name, *scale, None, Vec::new()).run(out);
                }
                println!("\nAll reproductions complete; see results/ and EXPERIMENTS.md.");
            }
        }
    }
}

/// Prints `rows` as a markdown table, one row of `cells` each, under
/// `header`, its header line without the outer bars.
fn print_table<R>(header: &str, rows: &[R], cells: impl Fn(&R) -> Vec<String>) {
    let header: Vec<&str> = header.split(" | ").collect();
    let rows: Vec<Vec<String>> = rows.iter().map(cells).collect();
    println!("{}", markdown_table(&header, &rows));
}

/// Writes `json` to `<name>.json`, then `rows` to `<name>.csv` under
/// `header`, its CSV header line.
fn record<R>(
    out: &Path,
    name: &str,
    json: &impl Serialize,
    header: &str,
    rows: &[R],
    cells: impl Fn(&R) -> Vec<String>,
) -> (PathBuf, PathBuf) {
    let j = write_json(out, name, json).expect("write json");
    let header: Vec<&str> = header.split(',').collect();
    let rows: Vec<Vec<String>> = rows.iter().map(cells).collect();
    (j, write_csv(out, name, &header, &rows).expect("write csv"))
}

/// Fig. 2: measured running time vs. the Eq. 2 theoretical curve, sweeping
/// array size n at fixed N, with one Chrome trace per point.
fn fig2(scale: f64, out: &Path) {
    println!("# Fig. 2 — time complexity vs. array size (N = 50 000 × {scale})\n");
    let report = run_fig2_traced(scale, Some(out));
    let header = "n | measured | theoretical (Eq. 2 fit) | fused | warp";
    print_table(header, &report.rows, |r| {
        vec![
            r.n.to_string(),
            fmt_ms(r.measured_ms),
            fmt_ms(r.theoretical_ms),
            fmt_ms(r.fused_ms),
            fmt_ms(r.warp_ms),
        ]
    });
    println!(
        "fit: scale = {:.3e} ms/unit, NRMSE = {:.1}% (paper: curves 'follow the same trend')",
        report.fitted_scale,
        report.nrmse * 100.0
    );
    let header = "n,measured_ms,theoretical_ms,fused_ms,warp_ms";
    let (j, c) = record(out, "fig2", &report, header, &report.rows, |r| {
        vec![
            r.n.to_string(),
            format!("{:.4}", r.measured_ms),
            format!("{:.4}", r.theoretical_ms),
            format!("{:.4}", r.fused_ms),
            format!("{:.4}", r.warp_ms),
        ]
    });
    println!("\nwrote {} and {}", j.display(), c.display());
    println!(
        "wrote one Chrome trace per point ({}/fig2_n*.trace.json — open at https://ui.perfetto.dev)",
        out.display()
    );
}

/// Figs. 4–7: running time vs. the number of arrays N, GPU-ArraySort
/// against the STA (Thrust tagged-sort) baseline, for one array size n or
/// each of n ∈ {1000, 2000, 3000, 4000}.
fn fig4to7(scale: f64, only_n: Option<usize>, out: &Path) {
    let sizes = only_n.map_or(FIG4TO7_SIZES.to_vec(), |n| vec![n]);
    for (fig, &n) in sizes.iter().enumerate() {
        let fig_no = match n {
            1000 => 4,
            2000 => 5,
            3000 => 6,
            4000 => 7,
            _ => 4 + fig,
        };
        println!("\n# Fig. {fig_no} — run time vs. N for array size {n} (N × {scale})\n");
        let report = run_runtime_figure_traced(n, scale, Some(out));
        let header = "N | GPU-ArraySort | STA (Thrust) | STA/GAS";
        print_table(header, &report.rows, |r| {
            vec![
                r.num_arrays.to_string(),
                fmt_ms(r.gas_ms),
                fmt_ms(r.sta_ms),
                format!("{:.1}×", r.speedup),
            ]
        });
        let name = format!("fig{fig_no}_n{n}");
        let header = "num_arrays,gas_ms,gas_kernel_ms,sta_ms,sta_kernel_ms,speedup";
        record(out, &name, &report, header, &report.rows, |r| {
            vec![
                r.num_arrays.to_string(),
                format!("{:.4}", r.gas_ms),
                format!("{:.4}", r.gas_kernel_ms),
                format!("{:.4}", r.sta_ms),
                format!("{:.4}", r.sta_kernel_ms),
                format!("{:.3}", r.speedup),
            ]
        });
        println!("wrote results/{name}.json, .csv, and per-point traces ({name}_N*_{{gas,sta}}.trace.json)");
    }
}

/// Table 1: the largest number of arrays each technique can sort on the
/// Tesla K40c, per array size, derived from the two memory plans against
/// the device ledger and then probed (the reported capacity allocates;
/// 5 % above it runs out of memory).
fn table1(out: &Path) {
    println!("# Table 1 — data-handling capacity on the Tesla K40c\n");
    let rows = run_table1();
    let header = "Array Size | GPU-ArraySort | (paper) | STA | (paper) | capacity ratio";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            fmt_count(r.gas_max_arrays),
            fmt_count(r.paper_gas),
            fmt_count(r.sta_max_arrays),
            fmt_count(r.paper_sta),
            format!("{:.2}×", r.ratio),
        ]
    });
    print!("boundary probes: ");
    for r in &rows {
        let (fits, fails) = probe_table1_row(r.array_len);
        assert!(
            fits && fails,
            "capacity boundary must be exact for n={}",
            r.array_len
        );
        print!("n={} ✓  ", r.array_len);
    }
    println!("\n(reported capacity allocates; +5% OOMs)");
    let header = "array_len,gas_max_arrays,sta_max_arrays,ratio,paper_gas,paper_sta";
    record(out, "table1", &rows, header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            r.gas_max_arrays.to_string(),
            r.sta_max_arrays.to_string(),
            format!("{:.3}", r.ratio),
            r.paper_gas.to_string(),
            r.paper_sta.to_string(),
        ]
    });
    println!("wrote results/table1.json and .csv");
}

/// Ablation A: the target bucket size (paper §5.1: "at least 20 elements
/// per bucket").
fn bucket_size(scale: f64, out: &Path) {
    println!("# Ablation A — target bucket size (paper: ≥20 is best)\n");
    let rows = run_bucket_ablation(scale);
    let header = "bucket size | phase 2 | phase 3 | total kernel | memory";
    print_table(header, &rows, |r| {
        vec![
            r.bucket_size.to_string(),
            fmt_ms(r.phase2_ms),
            fmt_ms(r.phase3_ms),
            fmt_ms(r.kernel_ms),
            format!("{:.3}×", r.mem_overhead),
        ]
    });
    let header = "bucket_size,phase2_ms,phase3_ms,kernel_ms,mem_overhead";
    record(out, "ablation_bucket_size", &rows, header, &rows, |r| {
        vec![
            r.bucket_size.to_string(),
            format!("{:.4}", r.phase2_ms),
            format!("{:.4}", r.phase3_ms),
            format!("{:.4}", r.kernel_ms),
            format!("{:.4}", r.mem_overhead),
        ]
    });
}

/// Ablation B: the sampling rate (paper §5.1: "10 % regular sampling gave
/// most evenly balanced buckets").
fn sampling_rate(scale: f64, out: &Path) {
    println!("\n# Ablation B — sampling rate (paper: 10 % balances best)\n");
    let rows = run_sampling_ablation(scale);
    let header = "rate | imbalance (max/mean) | cv | phase 1 | phase 3 | total kernel";
    print_table(header, &rows, |r| {
        vec![
            format!("{:.0}%", r.rate * 100.0),
            format!("{:.2}", r.imbalance),
            format!("{:.3}", r.cv),
            fmt_ms(r.phase1_ms),
            fmt_ms(r.phase3_ms),
            fmt_ms(r.kernel_ms),
        ]
    });
    let header = "rate,imbalance,cv,phase1_ms,phase3_ms,kernel_ms";
    record(out, "ablation_sampling_rate", &rows, header, &rows, |r| {
        vec![
            format!("{}", r.rate),
            format!("{:.4}", r.imbalance),
            format!("{:.4}", r.cv),
            format!("{:.4}", r.phase1_ms),
            format!("{:.4}", r.phase3_ms),
            format!("{:.4}", r.kernel_ms),
        ]
    });
}

/// Ablation C: threads per bucket (paper §5.2: "multiple threads on single
/// bucket … slows down the process considerably").
fn threads_per_bucket(scale: f64, out: &Path) {
    println!("\n# Ablation C — threads per bucket (paper: 1 is fastest)\n");
    let rows = run_threads_ablation(scale);
    let header = "threads/bucket | phase 2 | total kernel";
    print_table(header, &rows, |r| {
        vec![
            r.threads_per_bucket.to_string(),
            fmt_ms(r.phase2_ms),
            fmt_ms(r.kernel_ms),
        ]
    });
    let header = "threads_per_bucket,phase2_ms,kernel_ms";
    record(
        out,
        "ablation_threads_per_bucket",
        &rows,
        header,
        &rows,
        |r| {
            vec![
                r.threads_per_bucket.to_string(),
                format!("{:.4}", r.phase2_ms),
                format!("{:.4}", r.kernel_ms),
            ]
        },
    );
}

/// Ablation D: sample sort vs. an implemented m-way merge variant, which
/// quantifies §4.1's "no merge stage" claim.
fn merge_variant(scale: f64, out: &Path) {
    println!("\n# Ablation D — sample sort vs. m-way merge (paper §4.1)\n");
    let rows = run_merge_ablation(scale);
    let header = "n | GAS kernels | merge-variant kernels | merge stage alone | \
        GAS P1+P2 (its price)";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            fmt_ms(r.gas_kernel_ms),
            fmt_ms(r.merge_kernel_ms),
            fmt_ms(r.merge_stage_ms),
            fmt_ms(r.gas_p1p2_ms),
        ]
    });
    let header = "array_len,gas_kernel_ms,merge_kernel_ms,merge_stage_ms,gas_p1p2_ms";
    record(out, "ablation_merge_variant", &rows, header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            format!("{:.4}", r.gas_kernel_ms),
            format!("{:.4}", r.merge_kernel_ms),
            format!("{:.4}", r.merge_stage_ms),
            format!("{:.4}", r.gas_p1p2_ms),
        ]
    });
}

/// Ablation E (beyond the paper): the single-launch kernel with its
/// histogram bucketing, kernel `gas_fused`, against the paper's three
/// launches, in kernel time and global-memory transactions.
fn fused_variant(scale: f64, out: &Path) {
    println!("\n# Ablation E — fused single kernel vs. three launches\n");
    let rows = run_fused_ablation(scale);
    let header = "n | 3-kernel time | fused time | speedup | 3-kernel gtxns | fused gtxns | \
        traffic cut";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            fmt_ms(r.gas_kernel_ms),
            fmt_ms(r.fused_kernel_ms),
            format!("{:.2}×", r.kernel_speedup),
            r.gas_global_txns.to_string(),
            r.fused_global_txns.to_string(),
            format!("{:.1}×", r.txn_reduction),
        ]
    });
    let header = "array_len,gas_kernel_ms,fused_kernel_ms,kernel_speedup,gas_global_txns,\
        fused_global_txns,txn_reduction";
    record(out, "ablation_fused_variant", &rows, header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            format!("{:.4}", r.gas_kernel_ms),
            format!("{:.4}", r.fused_kernel_ms),
            format!("{:.4}", r.kernel_speedup),
            r.gas_global_txns.to_string(),
            r.fused_global_txns.to_string(),
            format!("{:.4}", r.txn_reduction),
        ]
    });
}

/// Ablation F (beyond the paper): the fused kernel's two bucketing
/// strategies, the shared histogram of Ablation E and the warp-level
/// multisplit of `gas-warp`.
fn warp_variant(scale: f64, out: &Path) {
    println!("\n# Ablation F — histogram vs. warp-multisplit\n");
    let rows = run_warp_ablation(scale);
    let header = "n | histogram time | warp time | speedup | hist passes | warp passes | \
        pass cut | hist gtxns | warp gtxns";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            fmt_ms(r.hist_kernel_ms),
            fmt_ms(r.warp_kernel_ms),
            format!("{:.2}×", r.kernel_speedup),
            r.hist_bank_passes.to_string(),
            r.warp_bank_passes.to_string(),
            format!("{:.2}×", r.bank_pass_cut),
            r.hist_global_txns.to_string(),
            r.warp_global_txns.to_string(),
        ]
    });
    let header = "array_len,hist_kernel_ms,warp_kernel_ms,kernel_speedup,hist_bank_passes,\
        warp_bank_passes,bank_pass_cut,hist_global_txns,warp_global_txns";
    record(out, "ablation_warp_variant", &rows, header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            format!("{:.4}", r.hist_kernel_ms),
            format!("{:.4}", r.warp_kernel_ms),
            format!("{:.4}", r.kernel_speedup),
            r.hist_bank_passes.to_string(),
            r.warp_bank_passes.to_string(),
            format!("{:.4}", r.bank_pass_cut),
            r.hist_global_txns.to_string(),
            r.warp_global_txns.to_string(),
        ]
    });
}

/// Ablation G (beyond the paper): regular sampling vs. deterministic
/// sorted-tile order statistics on the adversarial distribution suite.
/// The driver asserts that the deterministic non-tie bucket maximum stays
/// within 2·⌈n/p⌉ on every case and that regular sampling breaks that
/// bound on at least one.
fn splitter_policy(scale: f64, out: &Path) {
    println!("\n# Ablation G — splitter policies under adversarial skew\n");
    let rows = run_splitter_ablation(scale);
    let header = "case | 2·⌈n/p⌉ | regular max | reg overflows | det non-tie max | \
        resplit segs | tie segs | det cost";
    print_table(header, &rows, |r| {
        vec![
            r.case.clone(),
            r.limit.to_string(),
            r.regular_pre_max.to_string(),
            r.regular_overflowed_buckets.to_string(),
            r.det_post_max_sortable.to_string(),
            r.det_resplit_segments.to_string(),
            r.det_tie_segments.to_string(),
            format!("{:.2}×", r.det_overhead),
        ]
    });
    println!(
        "every det non-tie max above is ≤ the bound, and regular sampling \
         exceeded it on at least one case — both asserted in-run."
    );
    let header = "case,array_len,limit,regular_pre_max,regular_overflowed_buckets,\
        regular_kernel_ms,det_pre_max,det_post_max_sortable,det_resplit_segments,\
        det_tie_segments,det_kernel_ms,det_overhead";
    record(out, "ablation_splitter_policy", &rows, header, &rows, |r| {
        vec![
            r.case.clone(),
            r.array_len.to_string(),
            r.limit.to_string(),
            r.regular_pre_max.to_string(),
            r.regular_overflowed_buckets.to_string(),
            format!("{:.4}", r.regular_kernel_ms),
            r.det_pre_max.to_string(),
            r.det_post_max_sortable.to_string(),
            r.det_resplit_segments.to_string(),
            r.det_tie_segments.to_string(),
            format!("{:.4}", r.det_kernel_ms),
            format!("{:.4}", r.det_overhead),
        ]
    });
}

/// Paper §9's future-work extension: sorting a dataset larger than device
/// memory in chunks with double-buffered transfer overlap, on a small
/// simulated device so the overflow is quick to show.
fn outofcore(scale: f64, out: &Path) {
    println!("# Out-of-core array sort (paper §9)\n");
    let r = run_outofcore_traced(scale, Some(out));
    println!(
        "device          : {} ({} MB)",
        r.device,
        r.device_bytes / (1024 * 1024)
    );
    println!("dataset         : {} MB", r.dataset_bytes / (1024 * 1024));
    println!("chunks          : {}", r.chunks);
    println!("serial schedule : {}", fmt_ms(r.serial_ms));
    println!("pipelined (analytic)      : {}", fmt_ms(r.pipelined_ms));
    println!("pipelined (2 real streams): {}", fmt_ms(r.streamed_ms));
    println!("overlap saving  : {:.1}%", r.saving * 100.0);
    write_json(out, "outofcore", &r).expect("write json");
    println!("\nwrote results/outofcore.json");
    println!(
        "wrote results/outofcore_{{serial,streamed}}.trace.json — the streamed trace \
         shows compute/copy overlap on per-stream tracks at https://ui.perfetto.dev"
    );
}

/// Beyond the paper, four experiments its 2016 evaluation could not run:
/// a CUB-class segmented sort as a modern baseline, the headline ratio's
/// sensitivity to the STA calibration, regular sampling under skewed
/// data, and the splitter-collapse attack against the adaptive Phase 3.
fn beyond(scale: f64, out: &Path) {
    println!("# Beyond 1: modern segmented-sort baseline (N = 100 000 × {scale})\n");
    let rows = run_beyond(scale);
    let header = "n | GPU-ArraySort | STA | segmented sort | segsort vs GAS | capacity GAS/STA/seg";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            fmt_ms(r.gas_ms),
            fmt_ms(r.sta_ms),
            fmt_ms(r.segsort_ms),
            format!("{:.1}×", r.gas_ms / r.segsort_ms),
            format!(
                "{} / {} / {}",
                fmt_count(r.capacity[0]),
                fmt_count(r.capacity[1]),
                fmt_count(r.capacity[2])
            ),
        ]
    });
    write_json(out, "beyond_modern_baseline", &rows).expect("write json");

    println!("\n# Beyond 2: sensitivity to the STA calibration (n = 1000)\n");
    let rows = run_baseline_sensitivity(scale);
    let header = "thrust_elem_cycles | implied STA throughput | STA/GAS ratio";
    print_table(header, &rows, |r| {
        vec![
            format!("{:.0}", r.thrust_elem_cycles),
            format!("{:.0} M/s", r.sta_melems_per_s),
            format!("{:.2}×", r.ratio),
        ]
    });
    println!(
        "(5200 reproduces the paper's measured STA; 0 = structural costs only.\n\
         The paper's several-× win depends on its slow baseline — at Thrust's\n\
         published Kepler throughput the two roughly tie.)"
    );
    write_json(out, "beyond_baseline_sensitivity", &rows).expect("write json");

    println!("\n# Beyond 3: skew robustness of regular sampling (n = 1000)\n");
    let rows = run_skew(scale);
    let header = "distribution | bucket imbalance | GAS kernels | segsort kernels";
    print_table(header, &rows, |r| {
        vec![
            r.distribution.clone(),
            format!("{:.2}", r.imbalance),
            fmt_ms(r.gas_kernel_ms),
            fmt_ms(r.segsort_kernel_ms),
        ]
    });
    write_json(out, "beyond_skew_robustness", &rows).expect("write json");

    println!("\n# Beyond 4: splitter-collapse attack and the adaptive Phase 3\n");
    let rows = run_adversarial(scale);
    let header = "n | imbalance | phase 3 (benign) | phase 3 (paper, attacked) | \
        phase 3 (adaptive) | rescue";
    print_table(header, &rows, |r| {
        vec![
            r.array_len.to_string(),
            format!("{:.1}", r.imbalance),
            fmt_ms(r.benign_phase3_ms),
            fmt_ms(r.paper_phase3_ms),
            fmt_ms(r.adaptive_phase3_ms),
            format!("{:.0}×", r.paper_phase3_ms / r.adaptive_phase3_ms),
        ]
    });
    println!(
        "(sampled positions carry the minimum value → all splitters collapse; the\n\
         paper's one-thread insertion sort goes quadratic on the lone bucket, the\n\
         adaptive block-cooperative sort — an extension — restores m·log²m.)"
    );
    write_json(out, "beyond_adversarial", &rows).expect("write json");
    println!("\nwrote beyond_* artifacts into results/");
}

/// Portability: the same workload on every simulated device preset, the
/// paper's "highly scalable" claim across hardware generations its
/// authors did not have.
fn devices(scale: f64, out: &Path) {
    println!("# Device sweep — N = 20 000 × {scale}, n = 1000\n");
    let rows = run_device_sweep(scale);
    let header = "device | SMs | GAS kernels | STA kernels | capacity (n=1000) | SM balance";
    print_table(header, &rows, |r| {
        vec![
            r.device.clone(),
            r.sms.to_string(),
            fmt_ms(r.gas_kernel_ms),
            fmt_ms(r.sta_kernel_ms),
            fmt_count(r.gas_capacity),
            format!("{:.3}", r.sm_imbalance),
        ]
    });
    write_json(out, "device_sweep", &rows).expect("write json");
    println!("wrote results/device_sweep.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Repro, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn each_artifact_reaches_its_driver_with_its_old_default_scale() {
        let cases = [
            ("fig2", Repro::Fig2 { scale: 0.05 }),
            (
                "fig4to7",
                Repro::Fig4to7 {
                    scale: 0.05,
                    n: None,
                },
            ),
            ("table1", Repro::Table1),
            (
                "ablations",
                Repro::Ablations {
                    scale: 0.05,
                    only: vec![],
                },
            ),
            ("outofcore", Repro::OutOfCore { scale: 1.0 }),
            ("beyond", Repro::Beyond { scale: 0.05 }),
            ("devices", Repro::Devices { scale: 0.05 }),
            ("all", Repro::All { scale: None }),
        ];
        assert_eq!(cases.len(), ARTIFACTS.len());
        for (name, want) in cases {
            assert_eq!(parse_str(name), Ok(want), "{name}");
        }
    }

    #[test]
    fn scale_flags_follow_the_old_convention() {
        assert_eq!(
            parse_str("fig2 --scale 0.01"),
            Ok(Repro::Fig2 { scale: 0.01 })
        );
        assert_eq!(
            parse_str("devices --full"),
            Ok(Repro::Devices { scale: 1.0 })
        );
        assert_eq!(
            parse_str("outofcore --scale 0.2"),
            Ok(Repro::OutOfCore { scale: 0.2 })
        );
        // The last of --scale and --full wins.
        assert_eq!(
            parse_str("beyond --scale 0.2 --full"),
            Ok(Repro::Beyond { scale: 1.0 })
        );
        assert_eq!(
            parse_str("beyond --full --scale 0.2"),
            Ok(Repro::Beyond { scale: 0.2 })
        );
        assert_eq!(
            parse_str("all --scale 0.01"),
            Ok(Repro::All { scale: Some(0.01) })
        );
        // `all` gives each artifact its own default, and its scale to each.
        assert_eq!(
            repro("outofcore", None, None, vec![]),
            Repro::OutOfCore { scale: 1.0 }
        );
        assert_eq!(
            repro("outofcore", Some(0.01), None, vec![]),
            Repro::OutOfCore { scale: 0.01 }
        );
    }

    #[test]
    fn only_fig4to7_reads_n() {
        assert_eq!(
            parse_str("fig4to7 --n 1000"),
            Ok(Repro::Fig4to7 {
                scale: 0.05,
                n: Some(1000)
            })
        );
        for name in ARTIFACTS.iter().filter(|&&a| a != "fig4to7") {
            assert!(parse_str(&format!("{name} --n 1000")).is_err(), "{name}");
        }
    }

    #[test]
    fn only_ablations_reads_the_selectors() {
        for (selector, _) in ABLATIONS {
            assert_eq!(
                parse_str(&format!("ablations {selector} --scale 0.02")),
                Ok(Repro::Ablations {
                    scale: 0.02,
                    only: vec![selector]
                })
            );
            for name in ARTIFACTS.iter().filter(|&&a| a != "ablations") {
                assert!(parse_str(&format!("{name} {selector}")).is_err(), "{name}");
            }
        }
        assert_eq!(
            parse_str("ablations --fused-variant --warp-variant --scale 0.01"),
            Ok(Repro::Ablations {
                scale: 0.01,
                only: vec!["--fused-variant", "--warp-variant"]
            })
        );
    }

    #[test]
    fn unknown_artifacts_flags_and_values_are_rejected() {
        for line in [
            "",
            "fig3",
            "repro-fig2",
            "--scale 0.01",
            "fig2 --verbose",
            "fig2 0.01",
            "table1 --scale 0.01",
            "table1 --full",
            "fig2 --scale",
            "fig2 --scale junk",
            "fig4to7 --n",
            "fig4to7 --n many",
            "all --n 1000",
            "all --bucket-sweep",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} must be rejected");
        }
    }
}
