//! Process-level tests for the `gas` binary: bad input must produce a
//! diagnostic on stderr and a *nonzero exit code*, never a panic. The
//! contract (owned by `main.rs`): exit 2 for argument-parse errors,
//! exit 1 for command errors, exit 0 on success.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gas(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gas"))
        .args(args)
        .output()
        .expect("spawn gas binary")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("gas_exit_{name}"))
        .to_string_lossy()
        .into_owned()
}

/// Writes a small valid batch file and returns its path.
fn fixture(name: &str, num: &str, len: &str) -> String {
    let f = tmp(name);
    let out = gas(&[
        "generate",
        "--num-arrays",
        num,
        "--array-len",
        len,
        "--output",
        &f,
    ]);
    assert!(out.status.success(), "fixture generate failed: {out:?}");
    f
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn success_paths_exit_zero() {
    let f = fixture("ok.bin", "4", "16");
    let out = gas(&["sort", "--input", &f, "--array-len", "16", "--verify"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = gas(&["help"]);
    assert_eq!(out.status.code(), Some(0));
}

/// Without `--json` or `--stats`, `gas sort` prints one text line per
/// report (plus the recovery line under `--faults`) and serializes nothing.
#[test]
fn plain_sort_prints_the_text_report() {
    let f = fixture("plain.bin", "8", "64");
    for algo in ["gas", "gas-warp", "sta", "segsort", "merge"] {
        let out = gas(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "64",
            "--algorithm",
            algo,
            "--verify",
        ]);
        assert_eq!(out.status.code(), Some(0), "{algo}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("8 arrays × 64 sorted in") && text.contains("verified ✓"),
            "{algo}: {text}"
        );
        assert_eq!(text.lines().count(), 1, "{algo}: {text}");
    }
    let out = gas(&[
        "sort",
        "--input",
        &f,
        "--array-len",
        "64",
        "--faults",
        "seed=1,launch-at=0",
        "--verify",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified ✓"), "{text}");
    assert!(
        text.contains("\nrecovery: 1 device faults, 1 retries"),
        "{text}"
    );
}

#[test]
fn parse_errors_exit_two() {
    // No subcommand at all is an argument-parse error.
    let out = gas(&[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
    // So is a stray positional argument.
    let out = gas(&["sort", "oops"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn splitters_exit_codes_are_pinned() {
    // An unknown policy value is an argument error — exit 2, usage on
    // stderr — no matter which subcommand carries it.
    for cmdline in [
        vec!["sort", "--input", "x.bin", "--splitters", "psychic"],
        vec![
            "profile",
            "--num-arrays",
            "4",
            "--array-len",
            "16",
            "--splitters",
            "psychic",
        ],
        vec!["serve", "--requests", "5", "--splitters", "psychic"],
        vec!["soak", "--seeds", "1", "--splitters", "psychic"],
        vec!["chaos", "--seeds", "1", "--splitters", "psychic"],
    ] {
        let out = gas(&cmdline);
        assert_eq!(out.status.code(), Some(2), "{cmdline:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown splitter policy"),
            "{cmdline:?}: {}",
            stderr(&out)
        );
    }
    // Valid policies run end to end and exit 0.
    let f = fixture("splitters_ok.bin", "4", "32");
    for policy in ["regular", "deterministic"] {
        let out = gas(&[
            "sort",
            "--input",
            &f,
            "--array-len",
            "32",
            "--splitters",
            policy,
            "--verify",
        ]);
        assert_eq!(out.status.code(), Some(0), "{policy}: {}", stderr(&out));
    }
    // A valid policy on an algorithm that has no splitters is a command
    // error, exit 1.
    let out = gas(&[
        "sort",
        "--input",
        &f,
        "--array-len",
        "32",
        "--algorithm",
        "sta",
        "--splitters",
        "deterministic",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("only supported with --algorithm gas"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn missing_required_option_exits_one() {
    // `--input` with no value degrades to a flag; `sort` then reports
    // the missing required option as a command error.
    let out = gas(&["sort", "--input"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--input is required"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn missing_input_file_exits_one_with_diagnostic() {
    let out = gas(&["sort", "--input", "/nonexistent/batch.bin"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
}

#[test]
fn unknown_command_exits_one() {
    let out = gas(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown command"), "{}", stderr(&out));
}

#[test]
fn zero_shapes_exit_one_not_panic() {
    let f = tmp("zero_out.bin");
    for bad in [
        vec![
            "generate",
            "--num-arrays",
            "0",
            "--array-len",
            "8",
            "--output",
            f.as_str(),
        ],
        vec![
            "generate",
            "--num-arrays",
            "8",
            "--array-len",
            "0",
            "--output",
            f.as_str(),
        ],
        vec!["profile", "--num-arrays", "0", "--array-len", "8"],
        vec!["capacity", "--array-len", "0"],
    ] {
        let out = gas(&bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("must be positive"), "{bad:?}: {err}");
        assert!(!err.contains("panicked"), "{bad:?} panicked: {err}");
    }
}

#[test]
fn mismatched_array_len_exits_one() {
    let f = fixture("mismatch.bin", "3", "10");
    let out = gas(&["sort", "--input", &f, "--array-len", "7"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("not a multiple"), "{}", stderr(&out));
}

#[test]
fn bad_fault_spec_exits_one() {
    let f = fixture("badspec.bin", "4", "16");
    let out = gas(&[
        "sort",
        "--input",
        &f,
        "--array-len",
        "16",
        "--faults",
        "launch=2.0",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid fault spec"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn chaos_with_faults_still_exits_zero_when_recovery_holds() {
    let out = gas(&[
        "chaos",
        "--seed",
        "3",
        "--num-arrays",
        "200",
        "--array-len",
        "100",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn sort_with_scripted_fault_recovers_and_exits_zero() {
    let f = fixture("recover.bin", "20", "64");
    let out = gas(&[
        "sort",
        "--input",
        &f,
        "--array-len",
        "64",
        "--faults",
        "seed=1,launch-at=0",
        "--verify",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let msg = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(msg.contains("recovery:"), "{msg}");
    assert!(msg.contains("verified"), "{msg}");
}

#[test]
fn serve_exits_zero_when_invariants_hold() {
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "15",
        "--seed",
        "1",
        "--faults",
        "seed=4,launch=0.05",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let msg = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(msg.contains("served 15 requests"), "{msg}");
}

#[test]
fn serve_bad_pool_args_exit_one() {
    let out = gas(&["serve", "--devices", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("must be positive"),
        "{}",
        stderr(&out)
    );
    let out = gas(&["serve", "--device", "warp9"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown device"), "{}", stderr(&out));
    let out = gas(&["serve", "--workload", "/nonexistent/workload.json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let out = gas(&["serve", "--faults", "launch=2.0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid fault spec"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn soak_exits_zero_on_a_clean_campaign() {
    let out = gas(&["soak", "--seed", "2", "--devices", "2", "--requests", "12"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let msg = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(msg.contains("soak campaign"), "{msg}");
}

#[test]
fn soak_bad_args_exit_one_or_two() {
    // Command error: zero seeds.
    let out = gas(&["soak", "--seeds", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("must be positive"),
        "{}",
        stderr(&out)
    );
    // Parse error: stray positional.
    let out = gas(&["soak", "oops"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn metrics_exit_codes_are_pinned() {
    // Success: render a real snapshot written by `serve --metrics`.
    let m = tmp("metrics_ok.json");
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "15",
        "--seed",
        "1",
        "--metrics",
        &m,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for format in ["prom", "json", "table"] {
        let out = gas(&["metrics", "--input", &m, "--format", format]);
        assert_eq!(out.status.code(), Some(0), "{format}: {}", stderr(&out));
    }
    let out = gas(&["metrics", "--input", &m, "--assert-model-p99", "1000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Command errors exit 1: missing file, unknown format, and a
    // cost-model gate with no samples to gate on.
    let out = gas(&["metrics", "--input", "/nonexistent/snapshot.json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot read metrics snapshot"),
        "{}",
        stderr(&out)
    );
    let out = gas(&["metrics", "--input", &m, "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown format"), "{}", stderr(&out));
    let empty = tmp("metrics_empty.json");
    std::fs::write(
        &empty,
        "{\"counters\":[],\"gauges\":[],\"histograms\":[]}\n",
    )
    .unwrap();
    let out = gas(&["metrics", "--input", &empty, "--assert-model-p99", "100"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no gas_model_accuracy_rel_err samples"),
        "{}",
        stderr(&out)
    );
    // Missing --input degrades to a flag and is a command error.
    let out = gas(&["metrics"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--input is required"),
        "{}",
        stderr(&out)
    );

    // Parse error: stray positional.
    let out = gas(&["metrics", "oops"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn tail_tolerance_flag_exit_codes_are_pinned() {
    // A non-numeric value for either tuning flag is an argument error —
    // exit 2, usage on stderr — no matter which subcommand carries it.
    for cmdline in [
        vec!["serve", "--requests", "5", "--timeout-slack", "banana"],
        vec!["serve", "--requests", "5", "--hedge-slack-ms", "soon"],
        vec!["soak", "--seeds", "1", "--timeout-slack", "banana"],
        vec!["soak", "--seeds", "1", "--hedge-slack-ms", "soon"],
        vec!["chaos", "--seeds", "1", "--timeout-slack", "banana"],
    ] {
        let out = gas(&cmdline);
        assert_eq!(out.status.code(), Some(2), "{cmdline:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("cannot parse"),
            "{cmdline:?}: {}",
            stderr(&out)
        );
    }
    // Valid tuning runs end to end and exits 0, invariants included.
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "12",
        "--seed",
        "1",
        "--timeout-slack",
        "4.0",
        "--hedge-slack-ms",
        "2.0",
        "--degrade",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn streaming_flag_exit_codes_are_pinned() {
    // Garbage in either streaming knob is an argument error — exit 2,
    // usage on stderr — no matter which subcommand carries it. The
    // window accepts a duration or the literal "auto"; the cache size
    // must be a whole number of entries.
    for cmdline in [
        vec!["serve", "--requests", "5", "--batch-window-ms", "soon"],
        vec!["serve", "--requests", "5", "--cache-entries", "many"],
        vec!["serve", "--requests", "5", "--cache-entries", "-4"],
        vec!["soak", "--seeds", "1", "--batch-window-ms", "soon"],
        vec!["soak", "--seeds", "1", "--cache-entries", "2.5"],
    ] {
        let out = gas(&cmdline);
        assert_eq!(out.status.code(), Some(2), "{cmdline:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--batch-window-ms") || stderr(&out).contains("--cache-entries"),
            "{cmdline:?}: {}",
            stderr(&out)
        );
    }
    // The full streaming stack runs end to end and exits 0, invariants
    // (cache reconciliation included) holding.
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "12",
        "--seed",
        "1",
        "--batch-window-ms",
        "auto",
        "--cache-entries",
        "8",
        "--overlap",
        "--repeat-fraction",
        "0.5",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn device_death_fault_spec_exit_codes_are_pinned() {
    // A death rate outside [0,1] is a command error (invalid fault
    // spec), exit 1 — and so is an unknown scripted kind.
    let out = gas(&["serve", "--requests", "5", "--faults", "device-death=2.0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid fault spec"),
        "{}",
        stderr(&out)
    );
    let out = gas(&["serve", "--requests", "5", "--faults", "gremlins-at=3"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid fault spec"),
        "{}",
        stderr(&out)
    );
    // A valid death spec serves the workload and exits 0: the pool
    // survives the loss and the report still reconciles.
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "12",
        "--seed",
        "1",
        "--faults",
        "seed=4,device-death=0.01",
        "--degrade",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn metrics_nonempty_gate_exit_codes_are_pinned() {
    let m = tmp("metrics_nonempty.json");
    let out = gas(&[
        "serve",
        "--devices",
        "2",
        "--requests",
        "12",
        "--seed",
        "1",
        "--degrade",
        "--metrics",
        &m,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // Present family: exit 0. The degradation-level gauge is always
    // published when the ladder is armed.
    let out = gas(&[
        "metrics",
        "--input",
        &m,
        "--assert-nonempty",
        "gas_degradation_level",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // Absent family: exit 1 with a diagnostic naming the family.
    let out = gas(&[
        "metrics",
        "--input",
        &m,
        "--assert-nonempty",
        "gas_no_such_family_total",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("gas_no_such_family_total"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn trace_write_failure_is_an_error_not_a_panic() {
    let f = fixture("trace_err.bin", "4", "16");
    let out = gas(&[
        "sort",
        "--input",
        &f,
        "--array-len",
        "16",
        "--trace",
        "/nonexistent-dir/out.trace.json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot write trace"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn exit_path_fixture_paths_are_under_tmp() {
    // Guard against the helpers accidentally writing into the repo.
    assert!(PathBuf::from(tmp("x")).starts_with(std::env::temp_dir()));
}
