//! Fault recovery: bounded retry, chunk checkpointing and CPU fallback.
//!
//! The out-of-core pipeline streams chunk after chunk through the device,
//! which is exactly where a production deployment loses work to transient
//! faults (see [`gpu_sim::FaultPlan`]). This module threads recovery through
//! the sort so that a faulted run still returns a *correct* sorted batch:
//!
//! 1. **Checkpoint** — before each chunk's first attempt its host data is
//!    snapshotted, so a failed attempt (which may have partially scattered
//!    the chunk, or corrupted it on download) is rolled back and reissued
//!    without redoing chunks that already completed.
//! 2. **Bounded retry** — a chunk that fails with a *transient* error
//!    ([`gpu_sim::SimError::is_transient`]) is reissued up to
//!    [`RetryPolicy::max_attempts`] times. Fatal errors (real OOM,
//!    geometry violations) propagate immediately: retrying cannot help.
//!    A *permanent* injected fault ([`gpu_sim::FaultKind::DeviceDeath`])
//!    is counted like any other device fault but ends the retry loop at
//!    once — the device is gone, so the chunk (and every later chunk on
//!    the same dead device) goes straight to the fallback without
//!    charging phantom attempts.
//! 3. **Graceful degradation** — when a chunk exhausts its retries, it
//!    is restored from its checkpoint and sorted by [`crate::cpu_ref`]
//!    on the host. Slower, but the batch comes back sorted instead of
//!    dropped.
//!
//! Every recovery action is visible in the trace: retries run inside
//! `recovery/<label>/retry-N` spans and fallbacks leave a
//! `recovery/<label>/cpu-fallback` span, so a Chrome-trace export of a
//! chaos run shows exactly where time was lost. The returned
//! [`RecoveryReport`] aggregates the same story per chunk: attempts,
//! failed device attempts, fallbacks and wasted simulated milliseconds.
//!
//! With no fault plan installed these entry points charge exactly the
//! same simulated time as their non-recovering counterparts and produce
//! identical results and traces.

use gpu_sim::{Gpu, SimError, SimResult};
use serde::{Deserialize, Serialize};

use crate::cpu_ref;
use crate::key::SortKey;
use crate::out_of_core::{sort_chunks, OocStats};
use crate::pipeline::{GasStats, GpuArraySort};

/// How hard to fight for a chunk before giving up on the device. After
/// the last failed attempt the chunk is sorted on the host with
/// [`crate::cpu_ref`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Device attempts per chunk (including the first). Clamped to ≥ 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` device attempts.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }
}

/// What recovery did for one chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecovery {
    /// Chunk index within the batch (0 for a whole-batch sort).
    pub chunk: usize,
    /// Device attempts made (1 = clean first try).
    pub attempts: u32,
    /// Attempts that failed with an injected device fault (transient
    /// kinds, plus at most one permanent device death).
    pub device_faults: u32,
    /// True when the chunk was ultimately sorted on the host.
    pub cpu_fallback: bool,
    /// Simulated milliseconds charged by the failed attempts.
    pub wasted_ms: f64,
    /// The transient errors observed, in order.
    pub errors: Vec<String>,
}

/// Aggregated recovery story for a whole run, one entry per chunk.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Per-chunk recovery records.
    pub chunks: Vec<ChunkRecovery>,
}

impl RecoveryReport {
    /// Failed device attempts across all chunks — equals the number of
    /// error-producing faults the injector fired during the run (each
    /// attempt fails fast on its first fault).
    pub fn device_faults(&self) -> u32 {
        self.chunks.iter().map(|c| c.device_faults).sum()
    }

    /// Reissued device attempts (attempts beyond each chunk's first).
    /// A chunk that never touched the device — it arrived after the
    /// device died — records zero attempts and zero retries.
    pub fn retries(&self) -> u32 {
        self.chunks
            .iter()
            .map(|c| c.attempts.saturating_sub(1))
            .sum()
    }

    /// Chunks that degraded to the host sorter.
    pub fn cpu_fallbacks(&self) -> u32 {
        self.chunks.iter().filter(|c| c.cpu_fallback).count() as u32
    }

    /// Simulated milliseconds charged by failed attempts.
    pub fn wasted_ms(&self) -> f64 {
        self.chunks.iter().map(|c| c.wasted_ms).sum()
    }

    /// True when every chunk succeeded on its first device attempt.
    pub fn is_clean(&self) -> bool {
        self.chunks
            .iter()
            .all(|c| c.attempts == 1 && !c.cpu_fallback && c.device_faults == 0)
    }

    /// Records the recovery story into a metric registry, labeled by
    /// the pipeline that ran (`gas`, `gas-warp`, `sta`, …):
    /// `gas_recovery_{attempts,retries,device_faults,cpu_fallbacks}_total`
    /// counters, a `gas_recovery_wasted_ms_total` counter, and a
    /// `gas_recovery_wasted_ms` histogram of per-chunk waste. The chaos
    /// command reconciles the device-fault counter against the
    /// injector's own log.
    pub fn record_to(&self, reg: &mut telemetry::Registry, algorithm: &str) {
        let labels = [("algorithm", algorithm)];
        let attempts: u32 = self.chunks.iter().map(|c| c.attempts).sum();
        reg.add("gas_recovery_attempts_total", &labels, f64::from(attempts));
        reg.add(
            "gas_recovery_retries_total",
            &labels,
            f64::from(self.retries()),
        );
        reg.add(
            "gas_recovery_device_faults_total",
            &labels,
            f64::from(self.device_faults()),
        );
        reg.add(
            "gas_recovery_cpu_fallbacks_total",
            &labels,
            f64::from(self.cpu_fallbacks()),
        );
        reg.add("gas_recovery_wasted_ms_total", &labels, self.wasted_ms());
        for c in &self.chunks {
            if c.wasted_ms > 0.0 {
                reg.observe("gas_recovery_wasted_ms", &labels, c.wasted_ms);
            }
        }
    }
}

/// A failed, rolled-back device attempt: the error plus the simulated
/// time the attempt burned before failing.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedAttempt {
    /// The error the attempt died with.
    pub error: SimError,
    /// Simulated milliseconds the attempt charged before failing.
    pub wasted_ms: f64,
}

/// Runs one checkpointed device attempt inside a `span_name` trace span.
///
/// On any error the span stack is repaired (the error return unwound past
/// the sort's own `end_span` calls) and `slice` is restored from
/// `checkpoint`, so the host copy is guaranteed back in its pre-attempt
/// state. This is the *re-dispatch primitive*: because a failed attempt
/// leaves no residue, the same chunk can be reissued on this device — or
/// handed to a **different** device, which is how the scheduler crate
/// routes work away from a sick GPU.
pub fn checkpointed_attempt<K: SortKey, S>(
    gpu: &mut Gpu,
    slice: &mut [K],
    checkpoint: &[K],
    span_name: &str,
    attempt: impl FnOnce(&mut Gpu, &mut [K]) -> SimResult<S>,
) -> Result<S, FailedAttempt> {
    assert_eq!(
        slice.len(),
        checkpoint.len(),
        "checkpoint must snapshot the attempted slice"
    );
    let base_spans = gpu.open_span_count();
    let span = gpu.begin_span(span_name);
    let t0 = gpu.elapsed_ms();
    match attempt(gpu, slice) {
        Ok(stats) => {
            gpu.end_span(span);
            Ok(stats)
        }
        Err(error) => {
            gpu.close_spans_beyond(base_spans);
            // Roll back whatever the failed attempt did to the chunk.
            slice.copy_from_slice(checkpoint);
            Err(FailedAttempt {
                error,
                wasted_ms: gpu.elapsed_ms() - t0,
            })
        }
    }
}

/// Sorts `slice` (arrays of `array_len` keys) with checkpoint/retry/
/// fallback around an arbitrary device attempt; the fallback is the
/// [`crate::cpu_ref`] host sorter. The first attempt runs inside a span
/// named `label` (so clean traces look exactly like the non-recovering
/// path); retries and the fallback get `recovery/…` spans. Fatal errors
/// propagate immediately — retrying cannot help — with `slice` already
/// rolled back.
/// A permanent injected fault (device death) is counted once and ends the
/// retry loop; a device that is already dead is skipped without counting
/// anything, so `device_faults` stays 1:1 with the injector's own log.
fn recover_core<K: SortKey, S>(
    gpu: &mut Gpu,
    slice: &mut [K],
    array_len: usize,
    policy: &RetryPolicy,
    chunk_idx: usize,
    label: &str,
    mut attempt: impl FnMut(&mut Gpu, &mut [K]) -> SimResult<S>,
) -> SimResult<(Option<S>, ChunkRecovery)> {
    let max_attempts = policy.max_attempts.max(1);
    let checkpoint = slice.to_vec();
    let mut rec = ChunkRecovery {
        chunk: chunk_idx,
        attempts: 0,
        device_faults: 0,
        cpu_fallback: false,
        wasted_ms: 0.0,
        errors: Vec::new(),
    };
    while rec.attempts < max_attempts {
        // A dead device rejects every operation without consulting the
        // injector, so attempting it would count fail-fast rejections
        // that have no matching injector-log entry. Skip straight to
        // the fallback instead.
        if gpu.is_dead() {
            break;
        }
        rec.attempts += 1;
        let span_name = if rec.attempts == 1 {
            label.to_string()
        } else {
            format!("recovery/{label}/retry-{}", rec.attempts - 1)
        };
        match checkpointed_attempt(gpu, slice, &checkpoint, &span_name, &mut attempt) {
            Ok(stats) => return Ok((Some(stats), rec)),
            Err(failed) => {
                let permanent = matches!(
                    &failed.error,
                    SimError::InjectedFault { kind, .. } if kind.is_permanent()
                );
                if !permanent && !failed.error.is_transient() {
                    return Err(failed.error);
                }
                rec.device_faults += 1;
                rec.wasted_ms += failed.wasted_ms;
                rec.errors.push(failed.error.to_string());
            }
        }
    }
    // Degradation ladder's last rung: the host sorter cannot fault.
    let span = gpu.begin_span(&format!("recovery/{label}/cpu-fallback"));
    cpu_ref::sort_arrays_seq(slice, array_len);
    gpu.end_span(span);
    rec.cpu_fallback = true;
    Ok((None, rec))
}

/// Checkpoint/retry/fallback around an arbitrary device sort of a
/// *uniform* batch (`num × array_len`). The closure is the device
/// attempt — [`GpuArraySort::sort`], `thrust_sim`'s STA, or anything
/// else with the same shape contract — and the fallback is the
/// [`crate::cpu_ref`] host sorter, which satisfies the same oracle. This
/// is how the CLI routes `--faults` through non-GAS algorithms.
pub fn recover_batch_with<K: SortKey, S>(
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
    policy: &RetryPolicy,
    label: &str,
    attempt: impl FnMut(&mut Gpu, &mut [K]) -> SimResult<S>,
) -> SimResult<(Option<S>, RecoveryReport)> {
    if array_len == 0 || !data.len().is_multiple_of(array_len) || data.is_empty() {
        return Err(SimError::InvalidLaunch {
            reason: format!(
                "bad batch shape: len {} with array_len {array_len}",
                data.len()
            ),
        });
    }
    let (stats, rec) = recover_core(gpu, data, array_len, policy, 0, label, attempt)?;
    Ok((stats, RecoveryReport { chunks: vec![rec] }))
}

impl GpuArraySort {
    /// [`GpuArraySort::sort`] with checkpoint/retry/fallback for batches
    /// that fit on the device in one piece. Returns the usual
    /// [`GasStats`] when a device attempt succeeded (`None` when the
    /// batch degraded to the host sorter) plus the [`RecoveryReport`].
    ///
    /// Fatal errors — including a batch that genuinely does not fit on
    /// the device — propagate; use
    /// [`sort_out_of_core_recovering`] for datasets beyond device memory.
    pub fn sort_with_recovery<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &mut [K],
        array_len: usize,
        policy: &RetryPolicy,
    ) -> SimResult<(Option<GasStats>, RecoveryReport)> {
        let (stats, rec) = recover_core(gpu, data, array_len, policy, 0, "gas/batch", |g, d| {
            self.sort(g, d, array_len)
        })?;
        Ok((stats, RecoveryReport { chunks: vec![rec] }))
    }
}

/// [`crate::out_of_core::sort_out_of_core`] with per-chunk recovery: a
/// faulted chunk is rolled back to its checkpoint and reissued (completed
/// chunks are never redone), and a chunk that exhausts
/// [`RetryPolicy::max_attempts`] degrades to [`crate::cpu_ref`]. `data`
/// comes back fully sorted whenever the run's errors were all transient.
///
/// A chunk sorted on the host contributes zeroed timings to the returned
/// [`OocStats`] (it never touched the device); the time its failed device
/// attempts burned is in [`RecoveryReport::wasted_ms`].
pub fn sort_out_of_core_recovering<K: SortKey>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
    policy: &RetryPolicy,
) -> SimResult<(OocStats, RecoveryReport)> {
    let mut recoveries = Vec::new();
    let stats = sort_chunks(sorter, gpu, data, array_len, |gpu, chunk, i, label| {
        let (stats, rec) = recover_core(gpu, chunk, array_len, policy, i, label, |g, d| {
            sorter.sort(g, d, array_len)
        })?;
        recoveries.push(rec);
        Ok(stats)
    })?;
    Ok((stats, RecoveryReport { chunks: recoveries }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::out_of_core::sort_out_of_core;
    use crate::testutil::shrunk_gpu;
    use gpu_sim::{DeviceSpec, FaultKind, FaultOp, FaultPlan};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::test_device())
    }

    fn reversed_batch(num: usize, n: usize) -> Vec<f32> {
        (0..num * n).rev().map(|x| x as f32).collect()
    }

    #[test]
    fn record_to_mirrors_the_report_counters() {
        let report = RecoveryReport {
            chunks: vec![
                ChunkRecovery {
                    chunk: 0,
                    attempts: 1,
                    device_faults: 0,
                    cpu_fallback: false,
                    wasted_ms: 0.0,
                    errors: vec![],
                },
                ChunkRecovery {
                    chunk: 1,
                    attempts: 3,
                    device_faults: 2,
                    cpu_fallback: true,
                    wasted_ms: 1.5,
                    errors: vec!["boom".into(), "boom".into()],
                },
            ],
        };
        let mut reg = telemetry::Registry::new();
        report.record_to(&mut reg, "gas-warp");
        let f = [("algorithm", "gas-warp")];
        assert_eq!(reg.counter("gas_recovery_attempts_total", &f), 4.0);
        assert_eq!(reg.counter("gas_recovery_retries_total", &f), 2.0);
        assert_eq!(reg.counter("gas_recovery_device_faults_total", &f), 2.0);
        assert_eq!(reg.counter("gas_recovery_cpu_fallbacks_total", &f), 1.0);
        assert_eq!(reg.counter("gas_recovery_wasted_ms_total", &f), 1.5);
        let wasted = reg.histogram("gas_recovery_wasted_ms", &f).unwrap();
        assert_eq!((wasted.count, wasted.sum), (1, 1.5));
    }

    #[test]
    fn clean_run_matches_plain_sort_exactly() {
        let n = 200;
        let num = 40;
        let data = reversed_batch(num, n);

        let mut plain_data = data.clone();
        let mut plain_gpu = gpu();
        let plain =
            sort_out_of_core(&GpuArraySort::new(), &mut plain_gpu, &mut plain_data, n).unwrap();

        let mut rec_data = data;
        let mut rec_gpu = gpu();
        let (stats, report) = sort_out_of_core_recovering(
            &GpuArraySort::new(),
            &mut rec_gpu,
            &mut rec_data,
            n,
            &RetryPolicy::default(),
        )
        .unwrap();

        assert_eq!(plain_data, rec_data);
        assert_eq!(
            plain_gpu.elapsed_ms(),
            rec_gpu.elapsed_ms(),
            "bit-equal clock"
        );
        assert_eq!(plain.serial_ms, stats.serial_ms);
        assert_eq!(plain.pipelined_ms, stats.pipelined_ms);
        assert!(report.is_clean());
        assert_eq!(report.retries(), 0);
        assert_eq!(report.wasted_ms(), 0.0);
        // Traces agree too: same span names at the same times.
        let names = |g: &Gpu| {
            g.timeline()
                .spans
                .iter()
                .map(|s| (s.name.clone(), s.start_ms, s.end_ms))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&plain_gpu), names(&rec_gpu));
    }

    #[test]
    fn transient_launch_failure_is_retried_and_rolled_back() {
        let n = 100;
        let num = 30;
        let mut data = reversed_batch(num, n);
        let original = data.clone();
        let mut g = gpu();
        // Fail the very first kernel launch; everything after succeeds.
        g.set_fault_plan(Some(FaultPlan::seeded(0).with_scripted(
            FaultOp::Launch,
            0,
            FaultKind::LaunchFailure,
        )));
        let (stats, report) = GpuArraySort::new()
            .sort_with_recovery(&mut g, &mut data, n, &RetryPolicy::default())
            .unwrap();
        assert!(stats.is_some(), "second device attempt succeeds");
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(cpu_ref::verify_against(&original, &data, n), None);
        assert_eq!(report.retries(), 1);
        assert_eq!(report.device_faults(), 1);
        assert!(!report.is_clean());
        assert!(report.wasted_ms() > 0.0, "the failed attempt burned time");
        // The retry is visible as a span.
        assert!(g
            .timeline()
            .spans
            .iter()
            .any(|s| s.name == "recovery/gas/batch/retry-1"));
    }

    #[test]
    fn exhausted_retries_degrade_to_cpu() {
        let n = 100;
        let num = 20;
        let mut data = reversed_batch(num, n);
        let original = data.clone();
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(1).with_launch_failure(1.0)));
        let policy = RetryPolicy::default().with_max_attempts(3);
        let (stats, report) = GpuArraySort::new()
            .sort_with_recovery(&mut g, &mut data, n, &policy)
            .unwrap();
        assert!(stats.is_none(), "no device attempt can succeed");
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(cpu_ref::verify_against(&original, &data, n), None);
        assert_eq!(report.cpu_fallbacks(), 1);
        assert_eq!(report.device_faults(), 3);
        assert!(g
            .timeline()
            .spans
            .iter()
            .any(|s| s.name == "recovery/gas/batch/cpu-fallback"));
    }

    #[test]
    fn fatal_errors_propagate_immediately() {
        let n = 100;
        let num = 20;
        let mut data = reversed_batch(num, n);
        let mut g = gpu();
        // array_len that doesn't divide the data: a deterministic,
        // non-retryable mistake.
        let err = GpuArraySort::new()
            .sort_with_recovery(&mut g, &mut data, n + 1, &RetryPolicy::default())
            .unwrap_err();
        assert!(!err.is_transient());
    }

    #[test]
    fn completed_chunks_are_not_redone() {
        let n = 500;
        // Big enough to need several chunks on the 3.75 MiB device.
        let num = 2_500;
        let mut data = reversed_batch(num, n);
        let mut g = shrunk_gpu();
        // Each clean chunk issues exactly 3 launches; failing launch 4
        // hits chunk 1's second phase, after chunk 0 completed.
        g.set_fault_plan(Some(FaultPlan::seeded(3).with_scripted(
            FaultOp::Launch,
            4,
            FaultKind::LaunchFailure,
        )));
        let (stats, report) = sort_out_of_core_recovering(
            &GpuArraySort::new(),
            &mut g,
            &mut data,
            n,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(stats.chunks.len() > 2, "must have chunked");
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(report.device_faults(), 1);
        assert_eq!(report.retries(), 1);
        let clean_chunks = report
            .chunks
            .iter()
            .filter(|c| c.attempts == 1 && c.device_faults == 0)
            .count();
        assert_eq!(clean_chunks, report.chunks.len() - 1);
    }

    #[test]
    fn device_death_degrades_to_cpu_without_phantom_faults() {
        let n = 500;
        // Big enough to need several chunks on the 3.75 MiB device.
        let num = 2_500;
        let mut data = reversed_batch(num, n);
        let original = data.clone();
        let mut g = shrunk_gpu();
        // Kill the device on chunk 1's first launch: chunk 0 completes
        // cleanly, chunk 1 rolls back and degrades, every later chunk
        // skips the dead device entirely.
        g.set_fault_plan(Some(FaultPlan::seeded(11).with_scripted(
            FaultOp::Launch,
            3,
            FaultKind::DeviceDeath,
        )));
        let (_, report) = sort_out_of_core_recovering(
            &GpuArraySort::new(),
            &mut g,
            &mut data,
            n,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(g.is_dead());
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(cpu_ref::verify_against(&original, &data, n), None);
        // Exactly one injector entry, exactly one counted fault: the
        // fail-fast rejections on later chunks count nothing.
        assert_eq!(g.injected_faults().len(), 1);
        assert_eq!(report.device_faults(), 1);
        assert_eq!(report.retries(), 0, "no retry on a dead device");
        assert!(report.chunks.len() > 2, "must have chunked");
        assert!(
            report.chunks[0].attempts == 1 && !report.chunks[0].cpu_fallback,
            "chunk 0 finished before the death"
        );
        assert!(report.chunks[1].cpu_fallback && report.chunks[1].device_faults == 1);
        for c in &report.chunks[2..] {
            assert_eq!(
                (c.attempts, c.device_faults, c.cpu_fallback),
                (0, 0, true),
                "post-death chunks never touch the device"
            );
        }
    }

    #[test]
    fn report_counts_match_injector_log() {
        let n = 250;
        let num = 24_000;
        let mut data = reversed_batch(num, n);
        let mut g = gpu();
        g.set_fault_plan(Some(
            FaultPlan::seeded(7)
                .with_launch_failure(0.05)
                .with_transfer_abort(0.05)
                .with_transfer_corruption(0.05)
                .with_alloc_oom(0.03)
                .with_stream_stall(0.05, 0.5),
        ));
        let (_, report) = sort_out_of_core_recovering(
            &GpuArraySort::new(),
            &mut g,
            &mut data,
            n,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(cpu_ref::is_each_sorted(&data, n));
        let error_faults = g
            .injected_faults()
            .iter()
            .filter(|f| f.kind.is_error())
            .count();
        assert_eq!(
            report.device_faults() as usize,
            error_faults,
            "every error-producing fault is one failed attempt"
        );
    }

    #[test]
    fn checkpointed_attempt_rolls_back_and_repairs_spans() {
        let n = 80;
        let num = 12;
        let mut data = reversed_batch(num, n);
        let checkpoint = data.clone();
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(5).with_scripted(
            FaultOp::Launch,
            0,
            FaultKind::LaunchFailure,
        )));
        let sorter = GpuArraySort::new();
        let failed = checkpointed_attempt(&mut g, &mut data, &checkpoint, "attempt-0", |g, d| {
            sorter.sort(g, d, n)
        })
        .unwrap_err();
        assert!(failed.error.is_transient());
        assert!(failed.wasted_ms > 0.0, "the upload was billed");
        assert_eq!(data, checkpoint, "host copy restored");
        assert_eq!(g.open_span_count(), 0, "span stack repaired");
        // The same data can now be reissued — e.g. on another device.
        let mut g2 = gpu();
        checkpointed_attempt(&mut g2, &mut data, &checkpoint, "attempt-1", |g, d| {
            sorter.sort(g, d, n)
        })
        .unwrap();
        assert!(cpu_ref::is_each_sorted(&data, n));
    }

    #[test]
    fn recover_batch_with_wraps_arbitrary_attempts() {
        let n = 60;
        let num = 16;
        let mut data = reversed_batch(num, n);
        let original = data.clone();
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(9).with_scripted(
            FaultOp::Launch,
            0,
            FaultKind::LaunchFailure,
        )));
        let sorter = GpuArraySort::new();
        let (stats, report) = recover_batch_with(
            &mut g,
            &mut data,
            n,
            &RetryPolicy::default(),
            "custom/batch",
            |g, d| sorter.sort(g, d, n),
        )
        .unwrap();
        assert!(stats.is_some());
        assert_eq!(cpu_ref::verify_against(&original, &data, n), None);
        assert_eq!(report.device_faults(), 1);
        assert!(g
            .timeline()
            .spans
            .iter()
            .any(|s| s.name == "recovery/custom/batch/retry-1"));
        // Shape validation is a fatal error, not a retry loop.
        let err = recover_batch_with::<f32, ()>(
            &mut g,
            &mut [],
            n,
            &RetryPolicy::default(),
            "x",
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(!err.is_transient());
    }
}
