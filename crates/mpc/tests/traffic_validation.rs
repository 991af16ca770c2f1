//! Validate the collective algorithms' communication structure against
//! theory, using the traced fabric. These counts are exactly what the
//! platform model's `CommShape` costs assume, so this suite ties the
//! analytic model to the real runtime.

use pdc_mpc::{ops, CollectiveAlgo, Source, TagSel, World};

#[test]
fn linear_bcast_sends_p_minus_1_from_root() {
    let np = 8;
    let (_, traffic) = World::new(np)
        .with_algo(CollectiveAlgo::Linear)
        .run_traced(|c| c.bcast(0, (c.rank() == 0).then_some(7u8)).unwrap());
    assert_eq!(traffic.total_messages(), (np - 1) as u64);
    assert_eq!(traffic.out_degree(0), (np - 1) as u64);
    for r in 1..np {
        assert_eq!(traffic.in_degree(r), 1, "rank {r}");
    }
}

#[test]
fn tree_bcast_sends_p_minus_1_total_but_spreads_the_load() {
    let np = 8;
    let (_, traffic) = World::new(np)
        .with_algo(CollectiveAlgo::BinomialTree)
        .run_traced(|c| c.bcast(0, (c.rank() == 0).then_some(7u8)).unwrap());
    // Same total work…
    assert_eq!(traffic.total_messages(), (np - 1) as u64);
    // …but the root sends only log2(P) messages.
    assert_eq!(traffic.out_degree(0), 3, "log2(8) = 3");
    // Interior tree nodes forward.
    assert!(traffic.out_degree(4) >= 1);
}

#[test]
fn linear_reduce_concentrates_on_the_root() {
    let np = 8;
    let (_, traffic) = World::new(np)
        .with_algo(CollectiveAlgo::Linear)
        .run_traced(|c| c.reduce(0, c.rank() as u64, ops::sum).unwrap());
    let (hot, count) = traffic.hottest_receiver();
    assert_eq!(hot, 0);
    assert_eq!(count, (np - 1) as u64, "P-1 messages into the root");
}

#[test]
fn tree_reduce_bounds_in_degree_by_log_p() {
    let np = 16;
    let (_, traffic) = World::new(np)
        .with_algo(CollectiveAlgo::BinomialTree)
        .run_traced(|c| c.reduce(0, c.rank() as u64, ops::sum).unwrap());
    assert_eq!(traffic.total_messages(), (np - 1) as u64);
    let (_, max_in) = traffic.hottest_receiver();
    assert!(
        max_in <= 4,
        "binomial in-degree ≤ log2(16) = 4, got {max_in}"
    );
}

#[test]
fn barrier_traffic_linear_vs_tree() {
    let np = 8;
    let (_, lin) = World::new(np)
        .with_algo(CollectiveAlgo::Linear)
        .run_traced(|c| c.barrier().unwrap());
    // Linear barrier: P-1 in + P-1 out.
    assert_eq!(lin.total_messages(), 2 * (np - 1) as u64);
    let (_, tree) = World::new(np)
        .with_algo(CollectiveAlgo::BinomialTree)
        .run_traced(|c| c.barrier().unwrap());
    // Tree barrier: binomial reduce + binomial bcast, also 2(P-1) total…
    assert_eq!(tree.total_messages(), 2 * (np - 1) as u64);
    // …but no rank touches more than 2·log2(P) messages in either direction.
    for r in 0..np {
        assert!(tree.in_degree(r) + tree.out_degree(r) <= 12, "rank {r}");
    }
    // The linear barrier's root handles all 2(P-1).
    assert_eq!(lin.in_degree(0) + lin.out_degree(0), 2 * (np - 1) as u64);
}

#[test]
fn p2p_traffic_counts_messages_and_bytes() {
    let (_, traffic) = World::new(2).run_traced(|c| {
        if c.rank() == 0 {
            for _ in 0..5 {
                c.send(1, 0, &[1.0f64, 2.0, 3.0].to_vec()).unwrap();
            }
        } else {
            for _ in 0..5 {
                let _: Vec<f64> = c.recv(0, 0).unwrap();
            }
        }
    });
    assert_eq!(traffic.messages(0, 1), 5);
    assert_eq!(traffic.messages(1, 0), 0);
    // Binary codec: array tag + u32 count + 3 × (f64 tag + 8 bytes).
    assert_eq!(traffic.bytes(0, 1), 5 * (1 + 4 + 3 * 9));
}

#[test]
fn untraced_run_has_no_overhead_path() {
    // Plain run() still works identically with tracing compiled in.
    let out = World::new(4).run(|c| c.allreduce(1u32, ops::sum).unwrap());
    assert!(out.iter().all(|&v| v == 4));
}

#[test]
fn master_worker_traffic_shape() {
    // The master-worker patternlet's traffic: every worker's ready/result
    // messages flow to rank 0; tasks flow out.
    let (_, traffic) = World::new(4).run_traced(|c| {
        if c.rank() == 0 {
            for _ in 0..9 {
                let (w, _) = c.recv_status::<usize>(Source::Any, TagSel::Tag(0)).unwrap();
                c.send(w, 1, &1i64).unwrap();
            }
            for _ in 1..4 {
                let (w, _) = c.recv_status::<usize>(Source::Any, TagSel::Tag(0)).unwrap();
                c.send(w, 1, &-1i64).unwrap();
            }
        } else {
            loop {
                c.send(0, 0, &c.rank()).unwrap();
                let t: i64 = c.recv(0, 1).unwrap();
                if t < 0 {
                    break;
                }
            }
        }
    });
    let (hot, _) = traffic.hottest_receiver();
    assert_eq!(hot, 0, "the master is the hot spot");
    // 9 tasks + 3 pills = 12 ready messages in, 12 replies out.
    assert_eq!(traffic.in_degree(0), 12);
    assert_eq!(traffic.out_degree(0), 12);
}

#[test]
fn traffic_counts_delivered_copies_under_faults() {
    use pdc_chaos::FaultPlan;
    const N: u64 = 6;
    let send_n = |plan: FaultPlan| {
        let (_, traffic) = World::new(2).with_faults(plan).run_traced(|c| {
            if c.rank() == 0 {
                for i in 0..N {
                    c.send(1, 4, &i).unwrap();
                }
            }
        });
        traffic
    };
    // Every copy is dropped before delivery: nothing crossed the fabric.
    let dropped = send_n(FaultPlan::new(3).with_drop_rate(1.0));
    assert_eq!(dropped.total_messages(), 0);
    assert_eq!(dropped.total_bytes(), 0);
    // Every message is delivered twice, and each copy counts.
    let doubled = send_n(FaultPlan::new(3).with_duplicate_rate(1.0));
    assert_eq!(doubled.messages(0, 1), 2 * N);
    assert_eq!(doubled.total_messages(), 2 * N);
    let clean = send_n(FaultPlan::new(3));
    assert_eq!(doubled.bytes(0, 1), 2 * clean.bytes(0, 1));
}
