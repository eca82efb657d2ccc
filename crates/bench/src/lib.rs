//! # bench — the reproduction harness
//!
//! One driver per table/figure of the paper (`run_*`), plus result
//! recording ([`write_json`], [`write_csv`]). Two binaries wrap them:
//!
//! | binary | does |
//! |---|---|
//! | `repro fig2` | Fig. 2 — measured vs. theoretical time vs. n |
//! | `repro fig4to7` | Figs. 4–7 — time vs. N, GPU-ArraySort vs. STA |
//! | `repro table1` | Table 1 — data-handling capacity |
//! | `repro ablations` | §5.1/§5.2 design-choice ablations |
//! | `repro outofcore` | §9 out-of-core extension |
//! | `repro beyond` | beyond-the-paper experiments |
//! | `repro devices` | the same workload on every device preset |
//! | `repro all` | the first six above in sequence |
//! | `bench-smoke` | CI regression gate: quick Fig. 2 vs. `results/baseline-fig2.json` |
//!
//! `repro` writes its artifacts into `results/`. Every artifact but
//! Table 1 reads `--scale <f>` (default 0.05: N shrunk 20×; array sizes n
//! are never scaled) and `--full` (paper-scale axes; slow on a laptop but
//! exact).

#![warn(missing_docs)]

mod baseline;
mod experiments;
mod report;

pub use baseline::{fused_speed_gate, record_or_compare, BaselineRow, Fig2Baseline, GateOutcome};
pub use experiments::{
    probe_table1_row, run_adversarial, run_baseline_sensitivity, run_beyond, run_bucket_ablation,
    run_device_sweep, run_fig2_traced, run_fused_ablation, run_merge_ablation,
    run_outofcore_traced, run_runtime_figure_traced, run_sampling_ablation, run_skew,
    run_splitter_ablation, run_table1, run_threads_ablation, run_warp_ablation, AdversarialRow,
    BaselineSensitivityRow, BeyondRow, BucketAblationRow, DeviceSweepRow, Fig2Report, Fig2Row,
    FusedAblationRow, MergeAblationRow, OutOfCoreReport, RuntimeReport, RuntimeRow,
    SamplingAblationRow, SkewRow, SplitterAblationRow, Table1Row, ThreadsAblationRow,
    WarpAblationRow, FIG4TO7_SIZES,
};
pub use report::{default_out_dir, fmt_count, fmt_ms, markdown_table, write_csv, write_json};

/// Parses the value that follows `flag` on a command line.
pub fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}
