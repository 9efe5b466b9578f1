//! End-to-end tests of the `operon_route` command-line binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_operon_route"))
}

fn demo_design() -> String {
    "design demo\n\
     die 0 0 20000 20000\n\
     group dram_bus\n\
     bit 1000 10000 : 19000 10000\n\
     bit 1010 10000 : 19000 10010\n\
     end\n\
     group local\n\
     bit 5000 5000 : 5800 5000\n\
     end\n"
        .to_owned()
}

fn write_design(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("operon_cli_{name}.sig"));
    std::fs::write(&path, demo_design()).expect("write temp design");
    path
}

#[test]
fn runs_on_a_valid_design() {
    let path = write_design("valid");
    let out = bin().arg(&path).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("demo: 3 bits in 2 groups"));
    assert!(stdout.contains("total power:"));
    assert!(stdout.contains("optical"));
}

#[test]
fn missing_argument_prints_usage() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_flag_is_rejected() {
    let path = write_design("flag");
    let out = bin()
        .args([path.to_str().expect("utf8"), "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}

#[test]
fn ilp_wave_size_flag_is_rejected() {
    let path = write_design("wave");
    let out = bin()
        .args([path.to_str().expect("utf8"), "--ilp-wave-size", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        !stderr.contains("wave-size N"),
        "usage still offers the flag"
    );
}

#[test]
fn malformed_design_reports_line() {
    let path = std::env::temp_dir().join("operon_cli_bad.sig");
    std::fs::write(&path, "design bad\ndie 0 0 ten 10\n").expect("write");
    let out = bin().arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = bin()
        .arg("/definitely/not/a/file.sig")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn svg_flag_writes_layout() {
    let design = write_design("svg");
    let svg_path = std::env::temp_dir().join("operon_cli_layout.svg");
    let _ = std::fs::remove_file(&svg_path);
    let out = bin()
        .args([
            design.to_str().expect("utf8"),
            "--svg",
            svg_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("waveguide") || svg.contains("ewire"));
}

#[test]
fn max_delay_flag_reports_timing() {
    let path = write_design("delay");
    let out = bin()
        .args([path.to_str().expect("utf8"), "--max-delay", "5000"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("worst arrival"));
}

#[test]
fn scale_flag_changes_the_decision() {
    // The demo's long bus spans 1.8 cm; scaled down 1/8 it is only
    // 0.225 cm — 0.9 mW of copper beats 1.77 mW of conversions.
    let path = write_design("scale");
    let full = bin()
        .args([path.to_str().expect("utf8"), "--nets"])
        .output()
        .expect("runs");
    assert!(String::from_utf8_lossy(&full.stdout).contains("1 optical"));
    let shrunk = bin()
        .args([path.to_str().expect("utf8"), "--scale", "1/8"])
        .output()
        .expect("runs");
    assert!(
        String::from_utf8_lossy(&shrunk.stdout).contains("0 optical"),
        "an eighth-scale die should go all-electrical"
    );
    let bad = bin()
        .args([path.to_str().expect("utf8"), "--scale", "0/3"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn custom_loss_budget_applies() {
    // A 0.01 dB budget forbids every optical route.
    let path = write_design("loss");
    let out = bin()
        .args([path.to_str().expect("utf8"), "--max-loss", "0.01"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 optical"),
        "expected all-electrical, got: {stdout}"
    );
}

#[test]
fn closed_stdout_stops_printing_without_a_panic() {
    // `operon_route ... | head -0`: the reader closes the pipe before the
    // first line. The run must still write its report and exit 0.
    let design = write_design("closed_pipe");
    let report = std::env::temp_dir().join("operon_cli_closed_pipe_report.json");
    let _ = std::fs::remove_file(&report);
    let mut child = bin()
        .arg(&design)
        .arg(&design)
        .arg("--maps")
        .arg("--run-report")
        .arg(&report)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn operon_route");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for operon_route");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    let json = std::fs::read_to_string(&report).expect("run report written");
    assert!(json.contains("\"stages\""), "{json}");
}
