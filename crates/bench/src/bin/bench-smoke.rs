//! CI regression gate: runs a quick Fig. 2 sweep and compares the
//! simulated cycle bills against the checked-in baseline
//! (`results/baseline-fig2.json`). The simulator is deterministic, so
//! any drift beyond the tolerance is a real cost-model change and the
//! process exits 1.
//!
//! The run also enforces the **fused speed gate**: on every sweep point
//! the fused single-kernel pipeline must beat the three-kernel pipeline
//! and the warp-multisplit pipeline (`gas-warp`) must in turn beat the
//! fused one, each by more than the tolerance margin. All three series
//! come from the same run, so this gate needs no stored baseline and
//! fails loudly even while the checked-in file is still the bootstrap
//! sentinel. It then runs Ablation F (histogram vs. warp-multisplit),
//! whose kernel-time and bank-pass claims assert in-run.
//!
//! ```text
//! cargo run --release -p bench --bin bench-smoke
//!     [--scale 0.02] [--tolerance 0.02] [--baseline PATH]
//!     [--trace-dir DIR] [--update]
//! ```
//!
//! `--update` (or a checked-in `{"bootstrap": true}` sentinel) records
//! the current numbers instead of comparing; commit the rewritten
//! baseline together with the change that moved it. An unknown flag, a
//! missing value or a value that does not parse exits 2 with the usage.
//!
//! The run also enforces the **streaming serving gate** — on a canned
//! high-QPS burst of small requests, the coalescing + overlap dispatch
//! path must strictly beat sequential dispatch — and drops a
//! machine-readable summary (`results/BENCH_PR10.json`) carrying every
//! Fig. 2 point across all variant series plus the serving-throughput
//! comparison.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{
    default_out_dir, fused_speed_gate, record_or_compare, run_fig2_traced, run_warp_ablation,
    value, Fig2Baseline, GateOutcome,
};
use scheduler::{
    parse_mix, Algorithm, Priority, SchedulerConfig, ServiceReport, SortRequest, SortService,
    Workload,
};

/// The canned high-QPS serving workload for the streaming gate: a burst
/// of small, identically-shaped GAS requests all arriving at once. Solo
/// dispatch pays per-request launch and PCIe latency 16 times over;
/// coalescing amortizes them into one mega-batch, so the streamed
/// makespan must come in strictly lower.
fn serving_workload() -> Workload {
    let requests = (0..16u64)
        .map(|id| SortRequest {
            id,
            num_arrays: 4,
            array_len: 32,
            data_seed: 900 + id,
            algorithm: Algorithm::Gas,
            splitters: Default::default(),
            priority: Priority::Normal,
            arrival_ms: 0.0,
            deadline_ms: 1e9,
        })
        .collect();
    Workload { requests }
}

/// Drains the canned workload on one simulated device, either with the
/// legacy sequential dispatch or with the streaming tier (admission
/// window + transfer/compute overlap) armed.
fn run_serving(workload: &Workload, streamed: bool) -> Result<ServiceReport, String> {
    let cfg = SchedulerConfig {
        seed: 0,
        batch_window_ms: if streamed { 0.1 } else { 0.0 },
        overlap: streamed,
        ..SchedulerConfig::default()
    };
    let mut service = SortService::new(parse_mix("test", 1)?, cfg, None)?;
    service.run(workload)
}

const USAGE: &str = "usage: bench-smoke [--scale f | --full] [--tolerance f] [--baseline PATH] \
                     [--trace-dir DIR] [--update]";

/// One parsed invocation.
#[derive(Debug, PartialEq)]
struct Smoke {
    scale: f64,
    tolerance: f64,
    baseline_path: PathBuf,
    trace_dir: Option<PathBuf>,
    update: bool,
}

fn parse(args: &[String]) -> Result<Smoke, String> {
    let mut smoke = Smoke {
        scale: 0.02,
        tolerance: 0.02,
        baseline_path: default_out_dir().join("baseline-fig2.json"),
        trace_dir: None,
        update: false,
    };
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--full" => smoke.scale = 1.0,
            "--scale" => smoke.scale = value(flag, flags.next())?,
            "--tolerance" => smoke.tolerance = value(flag, flags.next())?,
            "--baseline" => smoke.baseline_path = value(flag, flags.next())?,
            "--trace-dir" => smoke.trace_dir = Some(value(flag, flags.next())?),
            "--update" => smoke.update = true,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(smoke)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Smoke {
        scale,
        tolerance,
        baseline_path,
        trace_dir,
        update,
    } = match parse(&args) {
        Ok(smoke) => smoke,
        Err(e) => {
            eprintln!("bench-smoke: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "# bench-smoke — Fig. 2 regression gate (scale {scale}, tolerance ±{:.0}%)\n",
        tolerance * 100.0
    );
    let report = run_fig2_traced(scale, trace_dir.as_deref());
    let current = Fig2Baseline::from_report(scale, &report);
    for r in &report.rows {
        println!(
            "n={:<5} measured {:>9.4} ms   theoretical {:>9.4} ms   fused {:>9.4} ms ({:.2}×)   \
             warp {:>9.4} ms ({:.2}×)",
            r.n,
            r.measured_ms,
            r.theoretical_ms,
            r.fused_ms,
            r.measured_ms / r.fused_ms.max(f64::MIN_POSITIVE),
            r.warp_ms,
            r.measured_ms / r.warp_ms.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "fit scale {:.4e}, NRMSE {:.2}%\n",
        report.fitted_scale,
        report.nrmse * 100.0
    );

    let fused_violations = fused_speed_gate(&current, tolerance);
    if fused_violations.is_empty() {
        println!(
            "fused speed gate: PASS — the histogram strategy beats the three-kernel pipeline \
             and gas-warp beats the histogram strategy on all {} points\n",
            current.rows.len()
        );
    } else {
        eprintln!("FAIL — fused speed gate:");
        for v in &fused_violations {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }

    // Ablation F: the two bucketing strategies of the fused kernel.
    // run_warp_ablation asserts the warp claims in-run (kernel time and
    // bank passes), so a regression panics the gate before the table.
    println!("# Ablation F — histogram vs. warp-multisplit");
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "n", "hist ms", "warp ms", "hist passes", "warp passes", "hist txns", "warp txns"
    );
    for r in run_warp_ablation(scale) {
        println!(
            "{:<6} {:>10.4} {:>10.4} {:>12} {:>12} {:>12} {:>12}",
            r.array_len,
            r.hist_kernel_ms,
            r.warp_kernel_ms,
            r.hist_bank_passes,
            r.warp_bank_passes,
            r.hist_global_txns,
            r.warp_global_txns
        );
    }
    println!("warp ablation: PASS — gas-warp bills less time and fewer bank passes\n");

    // Streaming serving gate: on the canned high-QPS small-request
    // burst, the coalescing + overlap dispatch path must beat the
    // sequential drain outright. Both runs come from this build, so the
    // gate needs no stored baseline.
    println!("# Streaming serving gate — coalesced/overlapped vs. sequential dispatch");
    let workload = serving_workload();
    let (sequential, streamed) = match (run_serving(&workload, false), run_serving(&workload, true))
    {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: serving gate run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (label, r) in [("sequential", &sequential), ("streamed", &streamed)] {
        let violations = r.invariant_violations();
        if !violations.is_empty() {
            eprintln!("FAIL — {label} serving run violated invariants:");
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    let requests = workload.requests.len();
    let seq_rps = requests as f64 / sequential.makespan_ms * 1000.0;
    let str_rps = requests as f64 / streamed.makespan_ms * 1000.0;
    println!(
        "{requests} × 4×32 requests: sequential {:.4} ms ({:.0} req/s) vs \
         streamed {:.4} ms ({:.0} req/s)",
        sequential.makespan_ms, seq_rps, streamed.makespan_ms, str_rps
    );
    if streamed.makespan_ms >= sequential.makespan_ms {
        eprintln!(
            "FAIL — streaming serving gate: coalesced/overlapped makespan {:.4} ms does not \
             beat sequential {:.4} ms",
            streamed.makespan_ms, sequential.makespan_ms
        );
        return ExitCode::FAILURE;
    }
    println!(
        "streaming serving gate: PASS — {:.2}× makespan win\n",
        sequential.makespan_ms / streamed.makespan_ms
    );

    // Machine-readable drop for downstream tooling: every Fig. 2 point
    // across all variant series, plus the serving-throughput section.
    let pr10_path = default_out_dir().join("BENCH_PR10.json");
    let pr10 = serde_json::json!({
        "scale": scale,
        "figure2": report.rows.iter().map(|r| serde_json::json!({
            "n": r.n,
            "three_kernel_ms": r.measured_ms,
            "theoretical_ms": r.theoretical_ms,
            "fused_ms": r.fused_ms,
            "warp_ms": r.warp_ms,
        })).collect::<Vec<_>>(),
        "serving": {
            "requests": requests,
            "num_arrays": 4,
            "array_len": 32,
            "sequential_makespan_ms": sequential.makespan_ms,
            "streamed_makespan_ms": streamed.makespan_ms,
            "sequential_requests_per_s": seq_rps,
            "streamed_requests_per_s": str_rps,
            "speedup": sequential.makespan_ms / streamed.makespan_ms,
        },
    });
    match serde_json::to_string_pretty(&pr10)
        .map_err(|e| e.to_string())
        .and_then(|body| std::fs::write(&pr10_path, body + "\n").map_err(|e| e.to_string()))
    {
        Ok(()) => println!("wrote {}", pr10_path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", pr10_path.display());
            return ExitCode::FAILURE;
        }
    }

    match record_or_compare(&baseline_path, &current, tolerance, update) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(GateOutcome::Recorded {
            reason,
            was_bootstrap,
        }) => {
            if was_bootstrap {
                println!(
                    "NOTICE: recording bootstrap baseline — the checked-in file was the \
                     {{\"bootstrap\": true}} sentinel, so this first run records real \
                     numbers for all three series (three-kernel, fused and warp \
                     pipeline times per sweep point) instead of comparing."
                );
            }
            println!(
                "baseline recorded ({reason}): {} (commit this file)",
                baseline_path.display()
            );
            ExitCode::SUCCESS
        }
        Ok(GateOutcome::Passed { points }) => {
            println!(
                "PASS — all {points} points within ±{:.0}% of {}",
                tolerance * 100.0,
                baseline_path.display()
            );
            ExitCode::SUCCESS
        }
        Ok(GateOutcome::Drifted { drifts }) => {
            eprintln!(
                "FAIL — simulated cost model drifted from {}:",
                baseline_path.display()
            );
            for d in &drifts {
                eprintln!("  {d}");
            }
            eprintln!(
                "if this change is intentional, rerun with --update and commit the new baseline"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Smoke, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn typos_are_rejected_and_the_ci_invocations_parse() {
        for line in [
            "--tolerence 0.05",
            "--scale O.02",
            "--tolerance",
            "--tolerance 2%",
            "--baseline",
            "--trace-dir",
            "0.02",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} must be rejected");
        }
        let gate = parse_str("--tolerance 0.02 --trace-dir bench-traces").unwrap();
        assert_eq!(
            gate,
            Smoke {
                scale: 0.02,
                tolerance: 0.02,
                baseline_path: PathBuf::from("results/baseline-fig2.json"),
                trace_dir: Some(PathBuf::from("bench-traces")),
                update: false,
            }
        );
        let record = parse_str("--update").unwrap();
        assert!(record.update);
        assert_eq!(record.trace_dir, None);
        // The last of --scale and --full wins.
        assert_eq!(parse_str("--scale 0.2 --full").unwrap().scale, 1.0);
        assert_eq!(parse_str("--full --scale 0.2").unwrap().scale, 0.2);
    }
}
