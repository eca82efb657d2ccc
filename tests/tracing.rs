//! Cross-crate tracing tests: the Chrome trace a real GPU-ArraySort run
//! exports must be schema-valid and internally consistent (golden-schema
//! test), streamed out-of-core work must land on per-stream tracks, and
//! the counter algebra the trace is built from must behave like a
//! commutative monoid.

use array_sort::{sort_out_of_core_streamed, GpuArraySort};
use datagen::ArrayBatch;
use gpu_sim::{chrome_trace_json, phase_summaries, Counters, DeviceSpec, Gpu};
use proptest::prelude::*;
use serde_json::Value;

fn gas_run() -> Gpu {
    let mut batch = ArrayBatch::paper_uniform(0x7AC3, 400, 500);
    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
    GpuArraySort::new()
        .sort(&mut gpu, batch.as_flat_mut(), 500)
        .expect("fits");
    gpu
}

fn complete_events(doc: &Value) -> Vec<&Value> {
    doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "X")
        .collect()
}

#[test]
fn chrome_trace_of_a_real_sort_is_schema_valid() {
    let gpu = gas_run();
    let doc = chrome_trace_json(gpu.timeline(), gpu.spec());

    // Top level: a traceEvents array plus the display unit.
    assert!(doc["traceEvents"].is_array());
    assert_eq!(doc["displayTimeUnit"], "ms");

    let events = complete_events(&doc);
    assert!(!events.is_empty());
    for e in &events {
        // Every complete event carries non-negative microsecond ts/dur
        // and a track id.
        assert!(e["ts"].as_f64().unwrap() >= 0.0, "{e}");
        assert!(e["dur"].as_f64().unwrap() >= 0.0, "{e}");
        assert!(e["tid"].as_u64().is_some(), "{e}");
        assert!(e["name"].as_str().is_some(), "{e}");
    }

    // Kernels and transfers never share a track with each other or with
    // the phase spans.
    let tids_of = |pred: &dyn Fn(&Value) -> bool| -> std::collections::BTreeSet<u64> {
        events
            .iter()
            .filter(|e| pred(e))
            .map(|e| e["tid"].as_u64().unwrap())
            .collect()
    };
    let span_tids = tids_of(&|e| e["args"]["depth"].is_u64());
    let transfer_tids = tids_of(&|e| e["name"] == "htod" || e["name"] == "dtoh");
    let kernel_tids =
        tids_of(&|e| !e["args"]["depth"].is_u64() && e["name"] != "htod" && e["name"] != "dtoh");
    assert!(!transfer_tids.is_empty() && !kernel_tids.is_empty() && !span_tids.is_empty());
    assert!(span_tids.is_disjoint(&kernel_tids));
    assert!(span_tids.is_disjoint(&transfer_tids));
    assert!(
        kernel_tids.is_disjoint(&transfer_tids),
        "{kernel_tids:?} vs {transfer_tids:?}"
    );

    // Every device event nests inside one of the phase spans.
    let spans: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e["args"]["depth"] == 0)
        .map(|e| (e["ts"].as_f64().unwrap(), e["dur"].as_f64().unwrap()))
        .collect();
    const EPS_US: f64 = 1e-3; // 1e-6 ms
    for e in events.iter().filter(|e| !e["args"]["depth"].is_u64()) {
        let (ts, dur) = (e["ts"].as_f64().unwrap(), e["dur"].as_f64().unwrap());
        assert!(
            spans
                .iter()
                .any(|&(s, d)| ts >= s - EPS_US && ts + dur <= s + d + EPS_US),
            "event {} at [{ts}, {}] escapes all phase spans {spans:?}",
            e["name"],
            ts + dur
        );
    }

    // The depth-0 spans tile the whole run: their durations sum to the
    // device clock.
    let span_sum_ms: f64 = spans.iter().map(|&(_, d)| d).sum::<f64>() / 1000.0;
    assert!(
        (span_sum_ms - gpu.elapsed_ms()).abs() < 1e-6,
        "span sum {span_sum_ms} vs elapsed {}",
        gpu.elapsed_ms()
    );
}

#[test]
fn phase_summaries_match_the_sort_and_cover_elapsed() {
    let gpu = gas_run();
    let phases = phase_summaries(gpu.timeline());
    let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "gas/upload",
            "gas/phase1-splitters",
            "gas/phase2-bucket-scatter",
            "gas/phase3-bucket-sort",
            "gas/download"
        ]
    );
    let sum: f64 = phases.iter().map(|p| p.span_ms).sum();
    assert!(
        (sum - gpu.elapsed_ms()).abs() < 1e-6,
        "{sum} vs {}",
        gpu.elapsed_ms()
    );
    // Upload/download are pure transfer phases; the three algorithm
    // phases are pure kernel phases.
    assert!(phases[0].transfers > 0 && phases[0].kernels == 0);
    assert!(phases[4].transfers > 0 && phases[4].kernels == 0);
    for p in &phases[1..4] {
        assert!(p.kernels > 0, "{} must launch kernels", p.name);
    }
}

#[test]
fn streamed_out_of_core_lands_on_per_stream_tracks() {
    let mut batch = ArrayBatch::paper_uniform(0x00C, 25_000, 1000); // ~100 MB > 64 MB device
    let mut gpu = Gpu::new(DeviceSpec::test_device());
    sort_out_of_core_streamed(&GpuArraySort::new(), &mut gpu, batch.as_flat_mut(), 1000)
        .expect("fits chunk-wise");
    assert!(batch.is_each_array_sorted());

    // The streamed schedule issues every kernel and transfer on one of
    // two explicit streams.
    assert!(gpu.timeline().kernels.iter().all(|k| k.stream.is_some()));
    assert!(gpu.timeline().transfers.iter().all(|t| t.stream.is_some()));
    let streams: std::collections::BTreeSet<usize> = gpu
        .timeline()
        .kernels
        .iter()
        .filter_map(|k| k.stream)
        .collect();
    assert!(
        streams.len() >= 2,
        "double buffering uses two streams: {streams:?}"
    );

    // And the exporter gives each (stream, engine) pair its own track.
    let doc = chrome_trace_json(gpu.timeline(), gpu.spec());
    let tids: std::collections::BTreeSet<u64> = complete_events(&doc)
        .iter()
        .filter_map(|e| e["tid"].as_u64())
        .collect();
    for s in &streams {
        assert!(
            tids.contains(&(100 + *s as u64)),
            "kernel track for stream {s}"
        );
    }
    assert!(
        tids.iter().any(|t| (200..300).contains(t)),
        "htod stream tracks"
    );
    assert!(tids.iter().any(|t| *t >= 300), "dtoh stream tracks");
}

// ------------------------------------------------ counter algebra laws

fn counters_from(v: [u64; 13]) -> Counters {
    Counters {
        alu: v[0],
        shared_accesses: v[1],
        global_elems: v[2],
        global_txn_micro: v[3],
        atomics_global: v[4],
        atomics_shared: v[5],
        syncs: v[6],
        divergence_events: v[7],
        baseline_cycles: v[8],
        shared_bank_passes: v[9],
        warp_votes: v[10],
        warp_shuffles: v[11],
        bucket_overflows: v[12],
    }
}

fn merged(a: &Counters, b: &Counters) -> Counters {
    let mut m = a.clone();
    m.merge(b);
    m
}

fn small() -> impl Strategy<Value = [u64; 13]> {
    // Bounded well below u64::MAX so three-way merges cannot overflow.
    prop::array::uniform(0u64..(1 << 32))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn counters_merge_is_commutative(a in small(), b in small()) {
        let (a, b) = (counters_from(a), counters_from(b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn counters_merge_is_associative(a in small(), b in small(), c in small()) {
        let (a, b, c) = (counters_from(a), counters_from(b), counters_from(c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn counters_merge_identity_is_default(a in small()) {
        let a = counters_from(a);
        prop_assert_eq!(merged(&a, &Counters::default()), a.clone());
        prop_assert_eq!(merged(&Counters::default(), &a), a);
    }

    #[test]
    fn global_txns_rounding_is_monotone(a in 0u64..u64::MAX / 2, delta in 0u64..(1 << 40)) {
        let lo = Counters { global_txn_micro: a, ..Default::default() };
        let hi = Counters { global_txn_micro: a + delta, ..Default::default() };
        prop_assert!(lo.global_txns() <= hi.global_txns());
    }
}
