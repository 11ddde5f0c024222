//! Command-line behaviour of the `repro` binary: argument errors exit 2
//! with the usage line before anything runs, and a sidecar artifact lands
//! next to its JSON artifact instead of overwriting it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vfpga_sim::Json;

/// Runs `repro` with `args` from `dir`.
fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro starts")
}

/// A fresh, empty directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Asserts a usage error: exit 2, `problem` and the usage line on
/// stderr, and no artifact written.
fn assert_usage_error(dir: &Path, out: &Output, problem: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(problem), "missing `{problem}` in: {stderr}");
    assert!(
        stderr.contains("usage: repro [table2|") && stderr.contains("|fuzz|all]"),
        "usage line must list every experiment: {stderr}"
    );
    assert!(
        !dir.join("target").exists(),
        "a usage error must not run anything"
    );
}

#[test]
fn monitor_prom_sidecar_does_not_overwrite_a_suffixless_artifact() {
    let dir = scratch("repro-monitor-sidecar");
    let json = dir.join("mon");
    let out = repro(
        &dir,
        &["monitor", "--seed", "42", "--json", json.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "repro monitor failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("artifact written");
    assert!(
        Json::parse(&text).is_ok(),
        "the artifact must stay JSON, got: {}",
        &text[..text.len().min(200)]
    );
    assert!(dir.join("mon.prom").exists(), "sidecar lands at `mon.prom`");
}

#[test]
fn a_second_experiment_is_a_usage_error() {
    let dir = scratch("repro-two-experiments");
    let out = repro(&dir, &["chaos", "netchaos"]);
    assert_usage_error(&dir, &out, "more than one experiment");
}

#[test]
fn an_unknown_option_is_a_usage_error() {
    let dir = scratch("repro-unknown-option");
    let out = repro(&dir, &["chaos", "--bogus"]);
    assert_usage_error(&dir, &out, "unknown option `--bogus`");
}
