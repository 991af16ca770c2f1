//! The three passes a workload runs, each in a process of its own:
//!
//! * `solve`: repeated set-ups, then closed-loop solves with tracing
//!   off. Gives every end-to-end metric.
//! * `probe`: `run_seq` interleaved with solves (the paired speedup),
//!   then benchmark-timed probes of single layers. Tracing stays off.
//! * `traced`: closed-loop solves with `pdc-trace` on, folding the
//!   spans and counters the runtimes emit after every solve.
//!
//! The traced pass never shares a process with an untraced one: the
//! trace registry is process-global.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use pdc_mpc::World;
use pdc_shmem::Team;
use pdc_trace::{ArgValue, Event, EventKind};

use crate::stats::median;
use crate::workloads::{pingpong, rod_config, wire_inputs, Instance, Mesh, Workload, RANKS};

/// Set-ups timed per solve pass; `setup_s` is their median.
const SETUPS: usize = 11;
/// Fewest timed solves a pass takes, however short `--seconds` is.
const MIN_SOLVES: usize = 5;
/// Failure messages kept per pass (the count is always exact).
const MAX_ERRORS: usize = 5;

/// What one pass hands back to the parent, as one JSON line.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct PassReport {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    /// `run_seq` seconds, paired index for index with `solve_s`.
    pub seq_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer values, keyed by metric name.
    pub layers: BTreeMap<String, f64>,
}

impl PassReport {
    /// Count one failed attempt and keep its message.
    pub fn fail(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(error);
        }
    }

    /// One verified solve: its seconds, or `None` after counting the
    /// failure (an error, a panic, or a result unlike the reference).
    fn solve(&mut self, inst: &mut Instance) -> Option<f64> {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| inst.solve()));
        let secs = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(Ok(answer)) if inst.verify(&answer) => {
                self.attempted += 1;
                Some(secs)
            }
            Ok(Ok(_)) => {
                self.fail("result differs from the reference".to_owned());
                None
            }
            Ok(Err(e)) => {
                self.fail(e);
                None
            }
            Err(_) => {
                self.fail("solve panicked".to_owned());
                None
            }
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }
}

/// Run one pass and return its report.
pub fn run(pass: &str, w: Workload, seed: u64, seconds: f64, scratch: &Path) -> PassReport {
    let mut report = PassReport::default();
    let budget = Duration::from_secs_f64(seconds);
    let outcome = match pass {
        "solve" => solve_pass(&mut report, w, seed, budget, scratch),
        "probe" => probe_pass(&mut report, w, seed, budget, scratch),
        "traced" => traced_pass(&mut report, w, seed, budget, scratch),
        other => Err(format!("unknown pass {other:?}")),
    };
    if let Err(e) = outcome {
        report.fail(e);
    }
    match peak_rss_mb() {
        Ok(mb) => report.peak_rss_mb = mb,
        Err(e) => report.fail(e),
    }
    report
}

fn solve_pass(
    report: &mut PassReport,
    w: Workload,
    seed: u64,
    budget: Duration,
    scratch: &Path,
) -> Result<(), String> {
    let setup = |report: &mut PassReport| -> Result<Instance, String> {
        let t0 = Instant::now();
        let inst = Instance::setup(w, seed, scratch)?;
        report.setup_s.push(t0.elapsed().as_secs_f64());
        Ok(inst)
    };
    let mut inst = setup(report)?;
    // One untimed warm-up solve: lazy allocations and caches settle
    // before timing starts. It is still verified and counted.
    report.solve(&mut inst);
    let t0 = Instant::now();
    while t0.elapsed() < budget || report.solve_s.len() < MIN_SOLVES {
        // Set-ups are spread evenly over the run, like the solves, so
        // an interference episode of a few seconds cannot hit them all.
        let due = budget.mul_f64(report.setup_s.len() as f64 / SETUPS as f64);
        if report.setup_s.len() < SETUPS && t0.elapsed() >= due {
            inst.teardown()?;
            inst = setup(report)?;
        }
        match report.solve(&mut inst) {
            Some(secs) => report.solve_s.push(secs),
            None => break,
        }
    }
    inst.teardown()
}

fn probe_pass(
    report: &mut PassReport,
    w: Workload,
    seed: u64,
    budget: Duration,
    scratch: &Path,
) -> Result<(), String> {
    let mut inst = Instance::setup(w, seed, scratch)?;
    report.solve(&mut inst);
    let t0 = Instant::now();
    while t0.elapsed() < budget || report.solve_s.len() < MIN_SOLVES {
        let s0 = Instant::now();
        black_box(inst.solve_seq());
        let seq = s0.elapsed().as_secs_f64();
        match report.solve(&mut inst) {
            Some(secs) => {
                report.seq_s.push(seq);
                report.solve_s.push(secs);
            }
            None => break,
        }
    }
    inst.teardown()?;
    probe_layers(report, w, seed, scratch)
}

/// Seconds of each of `n` calls of `f`.
fn time_each<R>(n: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median seconds of `serde_json::to_vec` and `from_slice` on
/// `payload` (the calls `comm::encode/decode` make), and its size.
fn codec_probe<T: Serialize + DeserializeOwned>(payload: &T) -> Result<(f64, f64, usize), String> {
    let encoded = serde_json::to_vec(payload).map_err(|e| format!("encode: {e}"))?;
    let encode = time_each(50, || serde_json::to_vec(black_box(payload)));
    let decode = time_each(50, || serde_json::from_slice::<T>(black_box(&encoded)));
    Ok((median(&encode), median(&decode), encoded.len()))
}

/// Benchmark-timed probes of single layers. Every workload runs all of
/// them, so every per-layer metric has a value; a layer a workload does
/// not use gets a zero share, not a missing one.
fn probe_layers(
    report: &mut PassReport,
    w: Workload,
    seed: u64,
    scratch: &Path,
) -> Result<(), String> {
    let team = Team::new(RANKS);
    let empty = time_each(300, || team.parallel(|_| {}));
    report.set("shmem.empty_region_s", median(&empty));

    let replies = World::new(RANKS).run(|comm| pingpong(&comm, 500, 16));
    let round_trips = replies.into_iter().next().expect("rank 0 replied")?;
    report.set("mpc.pingpong_raw_s", median(&round_trips));
    let worlds = time_each(100, || World::new(RANKS).run(|_| ()));
    report.set("mpc.world_s", median(&worlds));

    // The payload a message of this workload carries: a halo cell, or
    // one rank's allreduce operand on the wire.
    let (encode, decode, bytes) = match w {
        Workload::Wire => codec_probe(&wire_inputs(seed)[0][0])?,
        _ => codec_probe(&Some(rod_config(seed).left))?,
    };
    report.set("codec.encode_s", encode);
    report.set("codec.decode_s", decode);
    report.set("codec.bytes", bytes as f64);

    let mut connects = Vec::new();
    let mut wire_trips = Vec::new();
    for i in 0..5 {
        let mesh = Mesh::start(scratch, None)?;
        connects.push(mesh.connect_s.iter().copied().fold(0.0, f64::max));
        if i == 0 {
            wire_trips = mesh.pingpong(200, bytes)?;
        }
        mesh.stop()?;
    }
    report.set("net.connect_s", median(&connects));
    report.set("net.pingpong_raw_s", median(&wire_trips));
    Ok(())
}

/// Spans and counters folded over a traced stretch of the run.
#[derive(Default)]
struct Fold {
    counters: BTreeMap<(&'static str, &'static str), i64>,
    /// (count, total ns) per span name.
    spans: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    send_bytes: u64,
}

impl Fold {
    fn add(&mut self, events: Vec<Event>) {
        for e in events {
            let key = (e.category, e.name);
            match e.kind {
                EventKind::Counter { delta } => *self.counters.entry(key).or_default() += delta,
                EventKind::Span { dur_ns } => {
                    let entry = self.spans.entry(key).or_default();
                    entry.0 += 1;
                    entry.1 += dur_ns;
                    if key == ("mpc", "send") {
                        for (k, v) in &e.args {
                            if let (&"bytes", ArgValue::U64(b)) = (k, v) {
                                self.send_bytes += b;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn counter(&self, category: &'static str, name: &'static str) -> f64 {
        self.counters.get(&(category, name)).copied().unwrap_or(0) as f64
    }

    fn span_count(&self, category: &'static str, name: &'static str) -> f64 {
        self.spans
            .get(&(category, name))
            .map_or(0.0, |s| s.0 as f64)
    }

    fn span_total_s(&self, category: &'static str, name: &'static str) -> f64 {
        self.spans
            .get(&(category, name))
            .map_or(0.0, |s| s.1 as f64 / 1e9)
    }

    /// Mean seconds of one span, or 0 when the span never ran.
    fn span_mean_s(&self, category: &'static str, name: &'static str) -> f64 {
        let n = self.span_count(category, name);
        if n == 0.0 {
            0.0
        } else {
            self.span_total_s(category, name) / n
        }
    }
}

fn traced_pass(
    report: &mut PassReport,
    w: Workload,
    seed: u64,
    budget: Duration,
    scratch: &Path,
) -> Result<(), String> {
    let mut inst = Instance::setup(w, seed, scratch)?;
    report.solve(&mut inst);
    let mut fold = Fold::default();
    pdc_trace::reset();
    pdc_trace::enable();
    let t0 = Instant::now();
    while t0.elapsed() < budget || report.solve_s.len() < MIN_SOLVES {
        let secs = report.solve(&mut inst);
        // Fold after every solve so memory stays bounded however many
        // events a solve emits.
        fold.add(pdc_trace::drain());
        match secs {
            Some(secs) => report.solve_s.push(secs),
            None => break,
        }
    }
    // Tracing stops before the teardown: its `Bye` frames race the
    // peer's close, so how many get sent varies. The wire pumps hand
    // over the counters they took while tracing was on when they exit.
    pdc_trace::disable();
    report.set("exemplars.work_items", inst.work_items() as f64);
    let torn_down = inst.teardown();
    fold.add(pdc_trace::drain());
    torn_down?;

    let n = report.solve_s.len() as f64;
    let net = |name| fold.counter("net", name) / n;
    report.set(
        "shmem.regions",
        fold.counter("shmem", "parallel_regions") / n,
    );
    report.set(
        "shmem.worker_busy_s",
        fold.span_total_s("shmem", "worker") / n,
    );
    report.set("mpc.msgs", fold.span_count("mpc", "send") / n);
    report.set("mpc.bytes", fold.send_bytes as f64 / n);
    report.set("mpc.send_s", fold.span_mean_s("mpc", "send"));
    report.set("mpc.recv_s", fold.span_mean_s("mpc", "recv"));
    report.set("mpc.collective_s", fold.span_mean_s("bench", "allreduce"));
    report.set("net.frames", net("frames_sent"));
    report.set("net.bytes", net("bytes_sent"));
    report.set("net.heartbeats", fold.counter("net", "heartbeats_sent") / n);
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
