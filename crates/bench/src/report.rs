//! Result recording: every experiment emits a JSON artifact (with the
//! dataset descriptors needed to regenerate it) plus a markdown table on
//! stdout, into `results/`.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Where experiment artifacts land: `results/` under the working
/// directory, so a binary run from the repo root writes into that
/// checkout whichever checkout it was built from.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Serializes `value` as pretty JSON into `<out_dir>/<name>.json`. The
/// file is only touched once serialization has succeeded, so a failure
/// leaves an existing file as it was.
pub fn write_json<T: Serialize>(out_dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    let body = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    write_text(out_dir, &format!("{name}.json"), body)
}

/// Writes `body` and a newline into `<out_dir>/<file>`.
fn write_text(out_dir: &Path, file: &str, mut body: String) -> io::Result<PathBuf> {
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(file);
    body.push('\n');
    fs::write(&path, body)?;
    Ok(path)
}

/// Writes a CSV file from a header and stringified rows.
pub fn write_csv(
    out_dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<PathBuf> {
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Renders a markdown table (printed under each experiment's banner).
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", header.join(" | ")));
    s.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        s.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    s
}

/// Pretty milliseconds: seconds above 1 s, microseconds below 1 ms.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms > 0.0 && ms < 1.0 {
        format!("{:.0} µs", ms * 1000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

/// Serializes `timeline` as Chrome trace-event JSON into
/// `<out_dir>/<name>.trace.json` (loadable at <https://ui.perfetto.dev>),
/// touching the file only once serialization has succeeded.
pub fn write_trace(
    out_dir: &Path,
    name: &str,
    timeline: &gpu_sim::Timeline,
    spec: &gpu_sim::DeviceSpec,
) -> io::Result<PathBuf> {
    let doc = gpu_sim::chrome_trace_json(timeline, spec);
    let body = serde_json::to_string_pretty(&doc).map_err(io::Error::other)?;
    write_text(out_dir, &format!("{name}.trace.json"), body)
}

/// Pretty large counts (1,234,567).
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("|---|---|"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn counts_group_thousands() {
        assert_eq!(fmt_count(1), "1");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(2_000_000), "2,000,000");
    }

    #[test]
    fn ms_formatting_switches_units() {
        assert_eq!(fmt_ms(12.34), "12.3 ms");
        assert_eq!(fmt_ms(4321.0), "4.32 s");
    }

    #[test]
    fn sub_millisecond_values_print_as_microseconds() {
        assert_eq!(fmt_ms(0.42), "420 µs");
        assert_eq!(fmt_ms(0.001), "1 µs");
        assert_eq!(fmt_ms(0.0), "0.0 ms");
        assert_eq!(fmt_ms(1.0), "1.0 ms");
        assert_eq!(fmt_ms(999.9), "999.9 ms");
    }

    #[test]
    fn trace_file_and_phase_table() {
        use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
        let mut g = Gpu::new(DeviceSpec::test_device());
        g.with_span("work", |g| {
            g.launch("k", LaunchConfig::grid(1, 32), |b| {
                b.threads(|t| t.charge_alu(10))
            })
            .unwrap();
        });
        let dir = std::env::temp_dir().join("gas_trace_test");
        let p = write_trace(&dir, "unit", g.timeline(), g.spec()).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&fs::read_to_string(p).unwrap()).unwrap();
        assert!(doc["traceEvents"].as_array().unwrap().len() >= 2);
    }

    #[test]
    fn a_failed_serialization_leaves_the_old_file_alone() {
        let dir = std::env::temp_dir().join("gas_report_keep_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kept.json");
        fs::write(&path, "old bytes\n").unwrap();
        // JSON object keys must be strings, so a map keyed by pairs has no
        // JSON form.
        let unserializable = std::collections::BTreeMap::from([((1u8, 2u8), 3u8)]);
        let written = std::panic::catch_unwind(|| write_json(&dir, "kept", &unserializable));
        assert!(!matches!(written, Ok(Ok(_))), "serialization must fail");
        assert_eq!(fs::read_to_string(&path).unwrap(), "old bytes\n");
    }

    /// A committed artifact under the repo's `results/`.
    fn committed(file: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(file);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Parses a committed artifact as `T` and writes it back through
    /// [`write_json`]: the text must be the committed file, byte for byte.
    fn rewrite_matches<T: serde::de::DeserializeOwned + Serialize>(name: &str) {
        let file = format!("{name}.json");
        let expected = committed(&file);
        let rows: T = serde_json::from_str(&expected).unwrap();
        let dir = std::env::temp_dir().join("gas_report_rewrite_test");
        let written = fs::read_to_string(write_json(&dir, name, &rows).unwrap()).unwrap();
        assert!(written == expected, "{file} rewrites as\n{written}");
    }

    #[test]
    fn the_writer_reproduces_committed_artifacts_byte_for_byte() {
        use crate::experiments::{DeviceSweepRow, Table1Row};
        rewrite_matches::<Vec<Table1Row>>("table1");
        // `sms` precedes `gas_kernel_ms` in the file, as in the struct:
        // fields are written in declaration order, not sorted.
        rewrite_matches::<Vec<DeviceSweepRow>>("device_sweep");
    }

    #[test]
    fn fig2_written_before_the_fused_series_reads_them_as_zero() {
        let report: crate::experiments::Fig2Report =
            serde_json::from_str(&committed("fig2.json")).unwrap();
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert_eq!((row.fused_ms, row.warp_ms), (0.0, 0.0), "n = {}", row.n);
            assert!(row.measured_ms > 0.0, "n = {}", row.n);
        }
    }

    #[test]
    fn json_and_csv_round_trip() {
        let dir = std::env::temp_dir().join("gas_report_test");
        let p = write_json(&dir, "t", &vec![1, 2, 3]).unwrap();
        assert!(fs::read_to_string(p).unwrap().contains('2'));
        let p = write_csv(&dir, "t", &["x"], &[vec!["9".into()]]).unwrap();
        assert_eq!(fs::read_to_string(p).unwrap(), "x\n9\n");
    }
}
