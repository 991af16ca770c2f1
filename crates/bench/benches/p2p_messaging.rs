//! Ablation: point-to-point message paths — typed (binary codec) vs. raw
//! bytes, and ping-pong latency vs. payload size.
//!
//! One 2-rank `World` serves every sample of a bench: rank 0 runs the
//! timed round trips, rank 1 echoes until told to stop, so a sample
//! holds message cost only, not the ~150 µs of spawning the ranks.

use std::sync::Mutex;

use bytes::Bytes;
use criterion::{Bencher, BenchmarkId, Criterion};
use pdc_mpc::{Comm, TagSel, World};

const PING: i32 = 0;
const STOP: i32 = 1;

/// Time typed `Vec<f64>` round trips from rank 0 to an echoing rank 1.
fn pingpong_typed(b: &mut Bencher, payload: &[f64]) {
    let bencher = Mutex::new(b);
    World::new(2).run(|comm: Comm| {
        if comm.rank() == 0 {
            let payload = payload.to_vec();
            bencher.lock().expect("rank 0 owns the bencher").iter(|| {
                comm.send(1, PING, &payload).unwrap();
                comm.recv::<Vec<f64>>(1, PING).unwrap()
            });
            comm.send(1, STOP, &Vec::<f64>::new()).unwrap();
        } else {
            loop {
                let (v, status) = comm.recv_status::<Vec<f64>>(0, TagSel::Any).unwrap();
                if status.tag == STOP {
                    break;
                }
                comm.send(0, PING, &v).unwrap();
            }
        }
    });
}

/// Time raw-bytes round trips from rank 0 to an echoing rank 1.
fn pingpong_bytes(b: &mut Bencher, payload: &Bytes) {
    let bencher = Mutex::new(b);
    World::new(2).run(|comm: Comm| {
        if comm.rank() == 0 {
            bencher.lock().expect("rank 0 owns the bencher").iter(|| {
                comm.send_bytes(1, PING, payload.clone()).unwrap();
                comm.recv_bytes(1, PING).unwrap()
            });
            comm.send_bytes(1, STOP, Bytes::new()).unwrap();
        } else {
            loop {
                let (bytes, status) = comm.recv_bytes(0, TagSel::Any).unwrap();
                if status.tag == STOP {
                    break;
                }
                comm.send_bytes(0, PING, bytes).unwrap();
            }
        }
    });
}

fn bench(c: &mut Criterion) {
    println!("\np2p_messaging: 2-rank ping-pong in one World; typed vs raw-bytes path");
    let mut group = c.benchmark_group("p2p/pingpong");
    for n in [16usize, 256, 4096] {
        let payload: Vec<f64> = (0..n).map(|i| i as f64).collect();
        group.bench_with_input(
            BenchmarkId::new("typed_f64s", n),
            &payload[..],
            pingpong_typed,
        );
        let raw = Bytes::from(vec![0u8; n * 8]);
        group.bench_with_input(BenchmarkId::new("raw_bytes", n * 8), &raw, pingpong_bytes);
    }
    group.finish();
    let time = |id: &str| {
        c.results()
            .iter()
            .find(|(name, _)| name == id)
            .map(|&(_, ns)| ns)
    };
    if let (Some(typed), Some(raw)) = (
        time("p2p/pingpong/typed_f64s/4096"),
        time("p2p/pingpong/raw_bytes/32768"),
    ) {
        println!(
            "typed/raw round trip at 4096 f64 (32 KiB): {:.1}x (ROADMAP target: within 2x)",
            typed / raw
        );
    }
}

fn main() {
    let mut c = pdc_bench::criterion();
    bench(&mut c);
    c.final_summary();
}
