//! Typed payloads arrive bit for bit: the values a decimal-text codec
//! loses or refuses — NaN (with its payload bits), ±∞, −0.0, the extreme
//! 64-bit integers, and an `f64` with no short decimal form — cross both
//! fabrics unchanged: a thread `World` and a 2-rank loopback TCP mesh.

use std::sync::Arc;

use pdc_mpc::{Comm, Transport, World};

mod common;
use common::with_mesh;

/// A quiet NaN with a nonzero payload, so "bit for bit" covers more than
/// the canonical NaN.
const PAYLOAD_NAN: u64 = 0x7ff8_0000_dead_beef;

fn floats() -> Vec<Option<f64>> {
    vec![
        Some(f64::NAN),
        Some(f64::from_bits(PAYLOAD_NAN)),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(-0.0),
        Some(0.1 + 0.2),
        None,
    ]
}

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

type Received = (Option<f64>, Vec<Option<u64>>, f64, (u64, i64));

/// Rank 0 sends every special value; rank 1 returns what it received.
fn exchange(comm: &Comm) -> Option<Received> {
    if comm.rank() == 0 {
        comm.send(1, 0, &Some(f64::NAN)).unwrap();
        comm.send(1, 1, &floats()).unwrap();
        comm.send(1, 2, &-0.0f64).unwrap();
        comm.send(1, 3, &(u64::MAX, i64::MIN)).unwrap();
        None
    } else {
        let nan: Option<f64> = comm.recv(0, 0).unwrap();
        let floats: Vec<Option<f64>> = comm.recv(0, 1).unwrap();
        let zero: f64 = comm.recv(0, 2).unwrap();
        let ints: (u64, i64) = comm.recv(0, 3).unwrap();
        Some((nan, bits(&floats), zero, ints))
    }
}

fn check(received: Received) {
    let (nan, float_bits, zero, ints) = received;
    assert!(nan.is_some_and(f64::is_nan), "Some(NaN) arrived as {nan:?}");
    assert_eq!(float_bits, bits(&floats()));
    assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
    assert!(zero.is_sign_negative());
    assert_eq!(ints, (u64::MAX, i64::MIN));
}

#[test]
fn special_values_cross_a_thread_world_bit_for_bit() {
    let mut out = World::new(2).run(|comm| exchange(&comm));
    assert!(out[0].is_none());
    check(out.remove(1).expect("rank 1 reports what it received"));
}

#[test]
fn special_values_cross_a_loopback_mesh_bit_for_bit() {
    let mut out = with_mesh(
        "fidelity",
        2,
        |_| {},
        |_rank, transport| {
            let comm = World::new(2).attach(transport.clone() as Arc<dyn Transport>);
            let received = exchange(&comm);
            comm.barrier().unwrap();
            transport.shutdown();
            received
        },
    );
    assert!(out[0].is_none());
    check(out.remove(1).expect("rank 1 reports what it received"));
}
