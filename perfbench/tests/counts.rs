//! Every count metric repeats exactly for a fixed seed: two processes
//! running the same pass on the same seed report the same counts, and
//! each count per solve is a whole number.

use std::process::Command;

use serde_json::Value;

/// Run one pass of the benchmark in a fresh process and return the
/// per-layer values of its report.
fn pass(pass: &str, workload: &str, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--pass", pass, "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", "0.2"])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{pass} pass of {workload} failed");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    let report: Value =
        serde_json::from_str(text.lines().last().expect("a report line")).expect("JSON report");
    assert_eq!(report["failed"].as_u64(), Some(0), "{workload}: {text}");
    report["layers"].clone()
}

fn assert_repeats(pass_name: &str, workload: &str, counts: &[&str]) {
    let first = pass(pass_name, workload, 11);
    let second = pass(pass_name, workload, 11);
    for &name in counts {
        let a = first[name]
            .as_f64()
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        let b = second[name]
            .as_f64()
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(a, b, "{workload}: {name} differs between runs");
        assert_eq!(
            a.fract(),
            0.0,
            "{workload}: {name} = {a} is not a whole count"
        );
    }
}

const TRACED_COUNTS: [&str; 6] = [
    "exemplars.work_items",
    "shmem.regions",
    "mpc.msgs",
    "mpc.bytes",
    "net.frames",
    "net.bytes",
];

#[test]
fn drug_counts_repeat() {
    assert_repeats("traced", "moduleA-drug", &TRACED_COUNTS);
}

#[test]
fn heat_counts_repeat() {
    assert_repeats("traced", "moduleA-heat", &TRACED_COUNTS);
}

#[test]
fn halo_counts_repeat() {
    assert_repeats("traced", "moduleB-halo", &TRACED_COUNTS);
}

#[test]
fn wire_counts_repeat() {
    assert_repeats("traced", "moduleB-wire", &TRACED_COUNTS);
}

#[test]
fn codec_bytes_repeat() {
    for workload in ["moduleB-halo", "moduleB-wire"] {
        assert_repeats("probe", workload, &["codec.bytes"]);
    }
}

/// The counts that tell the workloads apart hold their documented
/// values: one parallel region per drug solve, 2000 per heat solve,
/// 20 messages (10 reduces, 10 bcasts) per wire solve.
#[test]
fn counts_tell_the_workloads_apart() {
    let drug = pass("traced", "moduleA-drug", 4);
    assert_eq!(drug["shmem.regions"].as_f64(), Some(1.0));
    assert_eq!(drug["mpc.msgs"].as_f64(), Some(0.0));
    let heat = pass("traced", "moduleA-heat", 4);
    assert_eq!(heat["shmem.regions"].as_f64(), Some(2000.0));
    let wire = pass("traced", "moduleB-wire", 4);
    assert_eq!(wire["mpc.msgs"].as_f64(), Some(20.0));
    assert_eq!(wire["net.frames"].as_f64(), Some(20.0));
    assert_eq!(wire["shmem.regions"].as_f64(), Some(0.0));
}
