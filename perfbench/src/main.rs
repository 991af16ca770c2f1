//! Closed-loop benchmark of the Module A/B exemplars with per-layer
//! attribution. See `perfbench/README.md` for the workloads, the
//! metrics and which metric each layer should move.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; `--workload all` runs every workload both ways. The last line
//! of standard output is one JSON object; the exit code is nonzero if
//! any solve failed or differed from its reference.

mod passes;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use passes::PassReport;
use stats::{median, paired_ratio, Summary};
use workloads::{Workload, RANKS};

/// Gated end-to-end metrics, as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, as named in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 28] = [
    ("exemplars.seq_s", "s"),
    ("exemplars.speedup", "ratio"),
    ("exemplars.work_items", "count"),
    ("exemplars.share", "ratio"),
    ("shmem.regions", "count"),
    ("shmem.empty_region_s", "s"),
    ("shmem.worker_busy_s", "s"),
    ("shmem.fork_join_share", "ratio"),
    ("mpc.msgs", "count"),
    ("mpc.bytes", "count"),
    ("mpc.send_s", "s"),
    ("mpc.recv_s", "s"),
    ("mpc.pingpong_raw_s", "s"),
    ("mpc.world_s", "s"),
    ("mpc.collective_s", "s"),
    ("mpc.share", "ratio"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes", "count"),
    ("codec.share", "ratio"),
    ("net.connect_s", "s"),
    ("net.frames", "count"),
    ("net.bytes", "count"),
    ("net.heartbeats", "count"),
    ("net.pingpong_raw_s", "s"),
    ("net.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("unattributed_share", "ratio"),
];

/// The passes of one workload and mode must end within this long, so
/// that a single-workload command ends within 180 s even when a solve
/// hangs.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only in a child process: which pass it runs.
    pass: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(key.to_owned(), value);
    }
    let get = |key: &str| raw.get(key).ok_or_else(|| format!("missing --{key}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match raw.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        pass: raw.get("pass").cloned(),
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = &args.pass {
        let w = Workload::parse(&args.workload).expect("checked in parse_args");
        let report = passes::run(pass, w, args.seed, args.seconds, &scratch_dir());
        println!(
            "{}",
            serde_json::to_string(&report).expect("reports serialize")
        );
        return ExitCode::SUCCESS;
    }
    let load_start = loadavg();
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let modes: Vec<bool> = if args.workload == "all" {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut total = Outcome::default();
    for &w in &workloads {
        for &traced in &modes {
            let started = Instant::now();
            let outcome = if traced {
                per_layer(w, &args, started)
            } else {
                end_to_end(w, &args, started)
            };
            print_ledger(w, &args, traced, &outcome);
            total.absorb(w, workloads.len() > 1, outcome);
        }
    }
    print_host(load_start);
    let _ = std::fs::remove_dir(scratch_dir());
    println!("{}", total.json());
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A workload's result, or the sum of several.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// (name, value, unit, diagnostic note)
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Outcome {
    fn from_reports(reports: &[&PassReport]) -> Self {
        Self {
            attempted: reports.iter().map(|r| r.attempted).sum(),
            failed: reports.iter().map(|r| r.failed).sum(),
            errors: reports.iter().flat_map(|r| r.errors.clone()).collect(),
            metrics: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, note: String) {
        self.metrics.push((name.to_owned(), value, unit, note));
    }

    fn absorb(&mut self, w: Workload, prefix: bool, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for (name, value, unit, note) in other.metrics {
            let name = if prefix {
                format!("{}/{name}", w.name())
            } else {
                name
            };
            self.metrics.push((name, value, unit, note));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number; NaN or infinity (a pass that failed before
/// measuring) becomes -1 and the run is already marked failed.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// Run one pass in a child process of this executable and parse its
/// report. A child that crashes, hangs past the deadline or prints no
/// report yields a report with one failure.
fn run_child(pass: &str, w: Workload, seed: u64, seconds: f64, started: Instant) -> PassReport {
    let failed = |e: String| {
        let mut r = PassReport::default();
        r.fail(format!("{pass} pass: {e}"));
        r
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let spawned = Command::new(exe)
        .args(["--pass", pass, "--workload", w.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("killed at the deadline (a solve hung)".to_owned());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        Ok(status) if status.success() => {
            let last = text.lines().last().unwrap_or("");
            serde_json::from_str(last).unwrap_or_else(|e| failed(format!("bad report: {e}")))
        }
        Ok(status) => failed(format!("exited with {status}")),
        Err(e) => failed(e),
    }
}

/// Median of `values`, or NaN when a failed pass left none.
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

fn end_to_end(w: Workload, args: &Args, started: Instant) -> Outcome {
    let report = run_child("solve", w, args.seed, args.seconds, started);
    let mut out = Outcome::from_reports(&[&report]);
    let solve = if report.solve_s.is_empty() {
        (f64::NAN, "no solves".to_owned())
    } else {
        let s = Summary::of(&report.solve_s);
        (
            s.median,
            format!("median of {} solves, p90 {:.6} s", s.samples, s.p90),
        )
    };
    let verified = report.attempted - report.failed;
    let values: BTreeMap<&str, (f64, String)> = [
        ("solve_s", solve),
        (
            "setup_s",
            (
                median_or_nan(&report.setup_s),
                format!("median of {} set-ups", report.setup_s.len()),
            ),
        ),
        (
            "peak_rss_mb",
            (report.peak_rss_mb, "VmHWM of the solve process".to_owned()),
        ),
        (
            "verified_ratio",
            (
                verified as f64 / report.attempted.max(1) as f64,
                format!(
                    "{verified} of {} solves matched the reference",
                    report.attempted
                ),
            ),
        ),
    ]
    .into_iter()
    .collect();
    for (name, unit) in END_TO_END {
        let (value, note) = &values[name];
        out.push(name, unit, *value, note.clone());
    }
    out
}

fn per_layer(w: Workload, args: &Args, started: Instant) -> Outcome {
    // Half the budget untraced (paired speedup, probes), half traced.
    let half = args.seconds / 2.0;
    let probe = run_child("probe", w, args.seed, half, started);
    let traced = run_child("traced", w, args.seed, half, started);
    let mut out = Outcome::from_reports(&[&probe, &traced]);
    let layer = |r: &PassReport, name: &str| r.layers.get(name).copied().unwrap_or(f64::NAN);

    let solve = median_or_nan(&probe.solve_s);
    let seq = median_or_nan(&probe.seq_s);
    let speedup = if probe.seq_s.is_empty() {
        f64::NAN
    } else {
        paired_ratio(&probe.seq_s, &probe.solve_s)
    };
    let msgs = layer(&traced, "mpc.msgs");
    // Messages on the path that blocks the result. Halo ranks exchange
    // concurrently, so each message of a pair overlaps the other; an
    // allreduce of two ranks is a reduce then a bcast, one after the other.
    let path_msgs = match w {
        Workload::Halo => msgs / RANKS as f64,
        _ => msgs,
    };
    // How many ranks or threads share the kernel's work.
    let kernel_ways = match w {
        Workload::Wire => 1.0,
        _ => RANKS as f64,
    };
    let worlds = if w == Workload::Halo { 1.0 } else { 0.0 };
    let on_threads = w != Workload::Wire;
    let one_way = |name: &str| layer(&probe, name) / 2.0;

    let exemplars_share = seq / kernel_ways / solve;
    let fork_join = layer(&traced, "shmem.regions") * layer(&probe, "shmem.empty_region_s") / solve;
    let mpc_share = if on_threads {
        (worlds * layer(&probe, "mpc.world_s") + path_msgs * one_way("mpc.pingpong_raw_s")) / solve
    } else {
        0.0
    };
    let codec_share =
        path_msgs * (layer(&probe, "codec.encode_s") + layer(&probe, "codec.decode_s")) / solve;
    let net_share = if on_threads {
        0.0
    } else {
        path_msgs * one_way("net.pingpong_raw_s") / solve
    };
    let traced_solve = median_or_nan(&traced.solve_s);

    let derived: BTreeMap<&str, (f64, String)> = [
        (
            "exemplars.seq_s",
            (
                seq,
                format!("median of {} run_seq calls", probe.seq_s.len()),
            ),
        ),
        (
            "exemplars.speedup",
            (speedup, "median of paired run_seq/solve ratios".to_owned()),
        ),
        (
            "exemplars.share",
            (exemplars_share, format!("seq_s / {kernel_ways} / solve_s")),
        ),
        (
            "shmem.fork_join_share",
            (fork_join, "regions x empty_region_s / solve_s".to_owned()),
        ),
        (
            "mpc.share",
            (
                mpc_share,
                "(worlds x world_s + path msgs x pingpong/2) / solve_s".to_owned(),
            ),
        ),
        (
            "codec.share",
            (
                codec_share,
                format!("{path_msgs} path msgs x (encode + decode) / solve_s"),
            ),
        ),
        (
            "net.share",
            (
                net_share,
                "path msgs x wire pingpong/2 / solve_s".to_owned(),
            ),
        ),
        (
            "trace.overhead",
            (
                traced_solve / solve - 1.0,
                format!("traced {traced_solve:.6} s vs untraced {solve:.6} s"),
            ),
        ),
        (
            "unattributed_share",
            (
                1.0 - exemplars_share - fork_join - mpc_share - codec_share - net_share,
                "1 - every share above".to_owned(),
            ),
        ),
    ]
    .into_iter()
    .collect();
    for (name, unit) in PER_LAYER {
        let (value, note) = match derived.get(name) {
            Some((value, note)) => (*value, note.clone()),
            None if probe.layers.contains_key(name) => {
                (layer(&probe, name), "probe median".to_owned())
            }
            None => (layer(&traced, name), "per solve, traced".to_owned()),
        };
        out.push(name, unit, value, note);
    }
    out
}

fn print_ledger(w: Workload, args: &Args, traced: bool, out: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    for (name, value, unit, note) in &out.metrics {
        println!("  {name:<24} {:>14} {unit:<6} {note}", readable(*value));
    }
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
}

/// Six decimals, or three significant digits for sub-millisecond values.
fn readable(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The host fingerprint printed with every run, so runs taken under
/// interference (a high load average) can be told apart.
fn print_host(load_start: String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host nproc={nproc} rustc=\"{version}\" profile={profile} loadavg_start=\"{load_start}\" loadavg_end=\"{}\"",
        loadavg()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed are the ones `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        ours.sort_unstable();
        assert_eq!(sorted, ours);
    }
}
