//! Trace exporters: Chrome trace-event JSON and per-phase summaries.
//!
//! The [`crate::stats::Timeline`] is a complete event trace — every kernel,
//! transfer and host-side span carries simulated start/end timestamps and a
//! stream id. This module turns it into artifacts people and tools can
//! read:
//!
//! * [`chrome_trace_json`] — the Chrome trace-event format (the
//!   `traceEvents` array of `ph:"X"` complete events), loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Spans,
//!   kernels and transfers land on distinct tracks, one track per stream
//!   and engine, and each kernel carries its counters and efficiency
//!   metrics as `args` so they show up in the selection panel.
//! * [`phase_summaries`] — rolls kernels and transfers up into the
//!   top-level spans that contain them, producing the per-phase breakdown
//!   the paper's figures are built from.
//!
//! Timestamps are simulated milliseconds; the Chrome format wants
//! microseconds, so everything is scaled by 1000 on export.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::cost::KERNEL_LAUNCH_US;
use crate::spec::DeviceSpec;
use crate::stats::{Timeline, TransferDir};

/// Track (Chrome `tid`) layout: spans on 0, default-stream work on 1–3,
/// stream `s` work on `100+s` / `200+s` / `300+s` so overlap between
/// streams is visible as parallel tracks.
const TID_SPANS: u64 = 0;
const TID_KERNEL: u64 = 1;
const TID_HTOD: u64 = 2;
const TID_DTOH: u64 = 3;
const TID_STREAM_KERNEL: u64 = 100;
const TID_STREAM_HTOD: u64 = 200;
const TID_STREAM_DTOH: u64 = 300;

fn kernel_tid(stream: Option<usize>) -> u64 {
    match stream {
        None => TID_KERNEL,
        Some(s) => TID_STREAM_KERNEL + s as u64,
    }
}

fn transfer_tid(dir: TransferDir, stream: Option<usize>) -> u64 {
    match (dir, stream) {
        (TransferDir::HtoD, None) => TID_HTOD,
        (TransferDir::DtoH, None) => TID_DTOH,
        (TransferDir::HtoD, Some(s)) => TID_STREAM_HTOD + s as u64,
        (TransferDir::DtoH, Some(s)) => TID_STREAM_DTOH + s as u64,
    }
}

fn tid_name(tid: u64) -> String {
    match tid {
        TID_SPANS => "phases".to_string(),
        TID_KERNEL => "kernels".to_string(),
        TID_HTOD => "htod".to_string(),
        TID_DTOH => "dtoh".to_string(),
        t if t >= TID_STREAM_DTOH => format!("dtoh (stream {})", t - TID_STREAM_DTOH),
        t if t >= TID_STREAM_HTOD => format!("htod (stream {})", t - TID_STREAM_HTOD),
        _ => format!("kernels (stream {})", tid - TID_STREAM_KERNEL),
    }
}

/// Complete (`ph:"X"`) event; `ts`/`dur` in microseconds per the format.
fn complete_event(
    name: &str,
    pid: u64,
    tid: u64,
    start_ms: f64,
    dur_ms: f64,
    args: Value,
) -> Value {
    json!({
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "name": name,
        "ts": start_ms * 1000.0,
        "dur": dur_ms * 1000.0,
        "args": args,
    })
}

/// Emits one device's metadata + complete events into `out`, under the
/// Chrome process id `pid` named `process_name`.
fn device_events(timeline: &Timeline, process_name: &str, pid: u64, out: &mut Vec<Value>) {
    let mut events = Vec::new();
    let mut tids = std::collections::BTreeSet::new();

    for s in &timeline.spans {
        tids.insert(TID_SPANS);
        events.push(complete_event(
            &s.name,
            pid,
            TID_SPANS,
            s.start_ms,
            s.duration_ms(),
            json!({ "depth": s.depth }),
        ));
    }
    for k in &timeline.kernels {
        let tid = kernel_tid(k.stream);
        tids.insert(tid);
        let args = json!({
            "grid_dim": k.grid_dim,
            "block_dim": k.block_dim,
            "cycles": k.cycles,
            "occupancy": k.occupancy,
            "sm_imbalance": k.sm_imbalance,
            "counters": k.counters,
            "efficiency": k.efficiency,
        });
        events.push(complete_event(
            &k.name, pid, tid, k.start_ms, k.time_ms, args,
        ));
    }
    for t in &timeline.transfers {
        let tid = transfer_tid(t.direction, t.stream);
        tids.insert(tid);
        let name = match t.direction {
            TransferDir::HtoD => "htod",
            TransferDir::DtoH => "dtoh",
        };
        events.push(complete_event(
            name,
            pid,
            tid,
            t.start_ms,
            t.time_ms,
            json!({ "bytes": t.bytes }),
        ));
    }

    // Metadata events name the process (device) and each track; Perfetto
    // sorts tracks by the index passed via thread_sort_index.
    out.push(json!({
        "ph": "M",
        "pid": pid,
        "name": "process_name",
        "args": { "name": process_name },
    }));
    for tid in &tids {
        out.push(json!({
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "name": "thread_name",
            "args": { "name": tid_name(*tid) },
        }));
        out.push(json!({
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "name": "thread_sort_index",
            "args": { "sort_index": tid },
        }));
    }
    out.extend(events);
}

/// Exports `timeline` as a Chrome trace-event JSON document.
///
/// The returned value serializes to a file Perfetto and `chrome://tracing`
/// open directly: spans on a "phases" track, kernels and transfers on
/// per-stream, per-engine tracks (see the `tid` layout above), kernel
/// counters/efficiency and transfer sizes attached as `args`.
pub fn chrome_trace_json(timeline: &Timeline, spec: &DeviceSpec) -> Value {
    let mut events = Vec::new();
    device_events(timeline, &spec.name, 1, &mut events);
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    })
}

/// Exports a *pool* of device timelines as one Chrome trace-event JSON
/// document: device `i` becomes Chrome process `i + 1` named
/// `"dev{i}: {spec.name}"`, so a scheduler run over N simulated GPUs
/// shows up in Perfetto as N process lanes sharing one virtual clock.
pub fn chrome_trace_json_pool(devices: &[(&Timeline, &DeviceSpec)]) -> Value {
    let mut events = Vec::new();
    for (i, (timeline, spec)) in devices.iter().enumerate() {
        let label = format!("dev{i}: {}", spec.name);
        device_events(timeline, &label, i as u64 + 1, &mut events);
    }
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    })
}

/// Per-phase roll-up of one top-level span: how much device work ran
/// inside it and where the time went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Span name (e.g. `"gas/phase1-splitters"`).
    pub name: String,
    /// Span open time, simulated ms.
    pub start_ms: f64,
    /// Span close time, simulated ms.
    pub end_ms: f64,
    /// Span duration (`end_ms - start_ms`).
    pub span_ms: f64,
    /// Kernel launches that started inside the span.
    pub kernels: usize,
    /// Total kernel time inside the span.
    pub kernel_ms: f64,
    /// Transfers that started inside the span.
    pub transfers: usize,
    /// Total transfer time inside the span.
    pub transfer_ms: f64,
    /// Fixed launch overhead paid by the span's kernels
    /// (`kernels × KERNEL_LAUNCH_US`).
    pub launch_overhead_ms: f64,
    /// Bytes moved over PCIe inside the span (both directions).
    pub bytes_moved: u64,
    /// Host→device transfer time inside the span (part of
    /// `transfer_ms`). Zero in summaries written before the per-engine
    /// split existed.
    #[serde(default)]
    pub h2d_ms: f64,
    /// Device→host transfer time inside the span (part of
    /// `transfer_ms`).
    #[serde(default)]
    pub d2h_ms: f64,
    /// Compute-engine occupancy: kernel busy time as a percentage of
    /// the span (`100 × kernel_ms / span_ms`, 0 for empty spans). Can
    /// exceed 100 when streamed kernels overlap the span boundary —
    /// that is the transfer/compute overlap being visible.
    #[serde(default)]
    pub compute_busy_pct: f64,
    /// H2D-engine occupancy (`100 × h2d_ms / span_ms`).
    #[serde(default)]
    pub h2d_busy_pct: f64,
    /// D2H-engine occupancy (`100 × d2h_ms / span_ms`).
    #[serde(default)]
    pub d2h_busy_pct: f64,
}

/// Rolls `timeline` up into its top-level (depth-0) spans: each kernel or
/// transfer is attributed to the span whose `[start, end)` window contains
/// its start timestamp. Returns one summary per top-level span, in order.
pub fn phase_summaries(timeline: &Timeline) -> Vec<PhaseSummary> {
    const EPS: f64 = 1e-9;
    let mut out: Vec<PhaseSummary> = timeline
        .top_spans()
        .map(|s| PhaseSummary {
            name: s.name.clone(),
            start_ms: s.start_ms,
            end_ms: s.end_ms,
            span_ms: s.duration_ms(),
            kernels: 0,
            kernel_ms: 0.0,
            transfers: 0,
            transfer_ms: 0.0,
            launch_overhead_ms: 0.0,
            bytes_moved: 0,
            h2d_ms: 0.0,
            d2h_ms: 0.0,
            compute_busy_pct: 0.0,
            h2d_busy_pct: 0.0,
            d2h_busy_pct: 0.0,
        })
        .collect();

    let find = |out: &mut Vec<PhaseSummary>, start: f64| -> Option<usize> {
        out.iter()
            .position(|p| start >= p.start_ms - EPS && start < p.end_ms - EPS)
    };
    for k in &timeline.kernels {
        if let Some(i) = find(&mut out, k.start_ms) {
            out[i].kernels += 1;
            out[i].kernel_ms += k.time_ms;
            out[i].launch_overhead_ms += KERNEL_LAUNCH_US / 1_000.0;
        }
    }
    for t in &timeline.transfers {
        if let Some(i) = find(&mut out, t.start_ms) {
            out[i].transfers += 1;
            out[i].transfer_ms += t.time_ms;
            out[i].bytes_moved += t.bytes;
            match t.direction {
                TransferDir::HtoD => out[i].h2d_ms += t.time_ms,
                TransferDir::DtoH => out[i].d2h_ms += t.time_ms,
            }
        }
    }
    // Per-engine occupancy: busy time ÷ span. With streamed dispatch the
    // three engines run concurrently, so healthy overlap shows up as
    // several engines busy at once inside the same span.
    for p in &mut out {
        if p.span_ms > 0.0 {
            p.compute_busy_pct = 100.0 * p.kernel_ms / p.span_ms;
            p.h2d_busy_pct = 100.0 * p.h2d_ms / p.span_ms;
            p.d2h_busy_pct = 100.0 * p.d2h_ms / p.span_ms;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{Gpu, LaunchConfig};
    use crate::stats::{SpanRecord, TransferStats};

    fn traced_gpu() -> Gpu {
        let mut g = Gpu::new(DeviceSpec::test_device());
        let up = g.begin_span("upload");
        let _buf = g.htod_copy(&vec![1u32; 4096]).unwrap();
        g.end_span(up);
        g.with_span("compute", |g| {
            g.launch("k1", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
            g.launch("k2", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
        });
        g
    }

    #[test]
    fn chrome_trace_has_events_and_track_metadata() {
        let g = traced_gpu();
        let doc = chrome_trace_json(g.timeline(), g.spec());
        let events = doc["traceEvents"].as_array().unwrap();
        let xs: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), 2 + 2 + 1, "2 spans + 2 kernels + 1 transfer");
        for e in &xs {
            assert!(e["ts"].as_f64().unwrap() >= 0.0);
            assert!(e["dur"].as_f64().unwrap() >= 0.0);
        }
        let names: Vec<_> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"phases".to_string()));
        assert!(names.contains(&"kernels".to_string()));
        assert!(names.contains(&"htod".to_string()));
    }

    #[test]
    fn kernels_and_transfers_land_on_distinct_tracks() {
        let g = traced_gpu();
        let doc = chrome_trace_json(g.timeline(), g.spec());
        let events = doc["traceEvents"].as_array().unwrap();
        let tid_of = |name: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e["ph"] == "X" && e["name"] == name)
                .map(|e| e["tid"].as_u64().unwrap())
                .collect()
        };
        let k = tid_of("k1");
        let t = tid_of("htod");
        assert!(!k.is_empty() && !t.is_empty());
        assert!(
            k.iter().all(|tid| !t.contains(tid)),
            "kernel and transfer tracks are disjoint"
        );
    }

    #[test]
    fn streamed_work_gets_per_stream_tracks() {
        let mut g = Gpu::new(DeviceSpec::test_device());
        let a = g.create_stream();
        let b = g.create_stream();
        g.set_stream(Some(a));
        let _x = g.htod_copy(&vec![0u32; 1024]).unwrap();
        g.set_stream(Some(b));
        let _y = g.htod_copy(&vec![0u32; 1024]).unwrap();
        g.synchronize();
        let doc = chrome_trace_json(g.timeline(), g.spec());
        let tids: std::collections::BTreeSet<u64> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == "X" && e["name"] == "htod")
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2, "one htod track per stream");
    }

    #[test]
    fn pool_trace_gives_each_device_its_own_process() {
        let a = traced_gpu();
        let b = traced_gpu();
        let doc = chrome_trace_json_pool(&[(a.timeline(), a.spec()), (b.timeline(), b.spec())]);
        let events = doc["traceEvents"].as_array().unwrap();
        let pids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| e["pid"].as_u64().unwrap()).collect();
        assert_eq!(pids, [1, 2].into_iter().collect());
        let names: Vec<_> = events
            .iter()
            .filter(|e| e["name"] == "process_name")
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names[0].starts_with("dev0: "), "{names:?}");
        assert!(names[1].starts_with("dev1: "), "{names:?}");
        // Single-device export is unchanged by the refactor: pid 1 only.
        let single = chrome_trace_json(a.timeline(), a.spec());
        assert!(single["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e["pid"] == 1));
    }

    #[test]
    fn phase_summaries_attribute_work_and_cover_elapsed() {
        let g = traced_gpu();
        let phases = phase_summaries(g.timeline());
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].transfers, 1);
        assert_eq!(phases[0].kernels, 0);
        assert_eq!(phases[1].kernels, 2);
        assert!(phases[1].kernel_ms > 0.0);
        assert!(phases[0].bytes_moved == 4096 * 4);
        let total: f64 = phases.iter().map(|p| p.span_ms).sum();
        assert!((total - g.elapsed_ms()).abs() < 1e-9, "spans tile the run");
        assert!((phases[1].launch_overhead_ms - 2.0 * KERNEL_LAUNCH_US / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn phase_summaries_report_per_engine_occupancy() {
        let g = traced_gpu();
        let phases = phase_summaries(g.timeline());
        // The upload span is pure H2D: its transfer time is all H2D and
        // the engine was busy the whole span.
        let up = &phases[0];
        assert!((up.h2d_ms - up.transfer_ms).abs() < 1e-12);
        assert_eq!(up.d2h_ms, 0.0);
        assert!(
            (up.h2d_busy_pct - 100.0).abs() < 1e-9,
            "{}",
            up.h2d_busy_pct
        );
        assert_eq!(up.compute_busy_pct, 0.0);
        // The compute span is pure kernels: compute fully busy, PCIe
        // engines idle.
        let comp = &phases[1];
        assert!((comp.compute_busy_pct - 100.0 * comp.kernel_ms / comp.span_ms).abs() < 1e-12);
        assert!(comp.compute_busy_pct > 99.0, "{}", comp.compute_busy_pct);
        assert_eq!(comp.h2d_busy_pct, 0.0);
        assert_eq!(comp.d2h_busy_pct, 0.0);
        // H2D + D2H always tile the total transfer time.
        for p in &phases {
            assert!((p.h2d_ms + p.d2h_ms - p.transfer_ms).abs() < 1e-12);
        }
    }

    #[test]
    fn work_outside_any_span_is_dropped_not_misattributed() {
        let mut tl = Timeline::default();
        tl.spans.push(SpanRecord {
            name: "p".into(),
            start_ms: 0.0,
            end_ms: 1.0,
            depth: 0,
        });
        tl.transfers.push(TransferStats {
            direction: TransferDir::HtoD,
            bytes: 64,
            time_ms: 0.5,
            start_ms: 5.0,
            stream: None,
        });
        let phases = phase_summaries(&tl);
        assert_eq!(phases[0].transfers, 0);
        assert_eq!(phases[0].bytes_moved, 0);
    }
}
