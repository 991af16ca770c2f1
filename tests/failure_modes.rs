//! Failure-injection tests: the workspace's error paths, exercised
//! end-to-end. A library a downstream course would adopt must fail
//! loudly and legibly, not hang or mis-deliver.

use std::time::Duration;

use pdc_mpc::{MpcError, Source, TagSel, World};
use pdc_pikit::{Device, PiModel, Playbook};

#[test]
fn type_confusion_in_messages_is_a_decode_error() {
    // Sender serializes a string; receiver asks for a u64.
    let errs = World::new(2).run(|c| {
        if c.rank() == 0 {
            c.send(1, 0, &"not a number".to_owned()).unwrap();
            None
        } else {
            c.recv::<u64>(0, 0).err()
        }
    });
    assert!(matches!(errs[1], Some(MpcError::Decode(_))), "{errs:?}");
}

#[test]
fn scatter_without_root_data_fails_cleanly() {
    let errs = World::new(2).run(|c| {
        if c.rank() == 0 {
            // Root "forgets" to supply the data.
            c.scatter::<u32>(0, None).err()
        } else {
            // The worker would hang forever waiting; use a bounded recv
            // to prove nothing was sent.
            c.recv_timeout::<u32>(0, TagSel::Any, Duration::from_millis(80))
                .err()
        }
    });
    assert!(matches!(errs[0], Some(MpcError::CollectiveMismatch(_))));
    assert!(matches!(errs[1], Some(MpcError::Timeout { .. })));
}

#[test]
fn bcast_root_out_of_range() {
    let errs = World::new(2).run(|c| c.bcast(7, Some(1u8)).err());
    for e in errs {
        assert!(matches!(
            e,
            Some(MpcError::RankOutOfRange { rank: 7, size: 2 })
        ));
    }
}

#[test]
fn alltoall_wrong_length_rejected_everywhere() {
    let errs = World::new(3).run(|c| {
        // Everyone passes a wrong-length vector; nobody should hang.
        c.alltoall(vec![c.rank(); 2]).err()
    });
    for e in errs {
        assert!(matches!(e, Some(MpcError::CollectiveMismatch(_))));
    }
}

#[test]
fn self_send_works_but_wrong_tag_times_out() {
    World::new(1).run(|c| {
        c.send(0, 5, &1u8).unwrap();
        let err = c
            .recv_timeout::<u8>(0, 6, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, MpcError::Timeout { .. }));
        // The message is still there under the right tag.
        let (v, st) = c
            .recv_timeout::<u8>(0, 5, Duration::from_millis(50))
            .unwrap();
        assert_eq!((v, st.tag), (1, 5));
    });
}

#[test]
fn any_source_does_not_steal_from_other_comms() {
    let out = World::new(4).run(|c| {
        let sub = c.split((c.rank() % 2) as i32, 0).unwrap();
        // World-rank 0 sends on the WORLD comm to world-rank 2.
        if c.rank() == 0 {
            c.send(2, 0, &99u8).unwrap();
        }
        // Meanwhile world-rank 2 listens on the SUB comm with ANY_SOURCE:
        // it must NOT see the world message.
        if c.rank() == 2 {
            let stolen =
                sub.recv_timeout::<u8>(Source::Any, TagSel::Any, Duration::from_millis(60));
            let legit: u8 = c.recv(0, 0).unwrap();
            (stolen.is_err(), legit)
        } else {
            (true, 0)
        }
    });
    assert_eq!(out[2], (true, 99));
}

#[test]
fn provisioning_reports_all_failures_not_just_the_first() {
    // No SD card AND an unsupported model: flash fails and boot fails,
    // and the report shows both.
    let mut dev = Device::new(PiModel::Pi2);
    let report = Playbook::kit_setup().run(&mut dev);
    let failures: Vec<&str> = report
        .entries
        .iter()
        .filter(|(_, o)| matches!(o, pdc_pikit::TaskOutcome::Failed(_)))
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(failures.contains(&"flash system image"));
    assert!(failures.contains(&"boot from image"));
    assert!(failures.len() >= 2);
}

#[test]
fn stats_degenerate_inputs_error_not_panic() {
    use pdc_stats::ttest::paired_t_test;
    use pdc_stats::{spearman, wilcoxon_signed_rank};
    // Identical pre/post: zero-variance differences.
    assert!(paired_t_test(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).is_err());
    assert!(wilcoxon_signed_rank(&[1.0, 2.0], &[1.0, 2.0]).is_err());
    assert!(spearman(&[2.0, 2.0], &[1.0, 3.0]).is_err());
}

#[test]
fn likert_vector_rejects_out_of_scale() {
    use pdc_assessment::LikertVector;
    assert!(LikertVector::new(vec![1, 2, 6]).is_err());
    assert!(LikertVector::new(vec![0]).is_err());
    assert!(LikertVector::new(vec![]).unwrap().is_empty());
}

#[test]
fn notebook_runtime_surfaces_user_errors() {
    use pdc_courseware::notebook::NotebookRuntime;
    let mut rt = NotebookRuntime::new();
    // Running before writing.
    let out = rt.execute_source("!mpirun -np 2 python missing.py");
    assert!(out[0].contains("no such file"));
    // Bad mpirun syntax.
    rt.execute_source("%%writefile a.py\npass");
    let out = rt.execute_source("!mpirun a.py");
    assert!(out[0].contains("usage"));
    // Unsupported magic.
    let out = rt.execute_source("%%timeit\nx = 1");
    assert!(out[0].contains("not executable"));
}

// ---------------------------------------------------------------------------
// Chaos suite: injected faults, detection, and recovery (pdc-chaos).
//
// These run real multi-rank workloads under seeded fault plans and
// assert the recovery machinery — failure detector + shrink, reliable
// send, checkpoint/restart — turns every injected-but-recoverable fault
// into a completed, exact result.
// ---------------------------------------------------------------------------

use std::sync::Arc;

use pdc_chaos::{ChaosContext, FaultInjector, FaultPlan};
use pdc_exemplars::forestfire;

#[test]
fn crashed_rank_shrinks_away_and_collective_continues() {
    let inj = Arc::new(FaultInjector::new(FaultPlan::new(11).with_crash(2, 0)));
    let out = World::new(4)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            if c.chaos_step().is_err() {
                return None; // rank 2's schedule fires on its first step
            }
            // Survivors wait until the failure detector observes the
            // death (crash() wakes blocked receivers, but this rank may
            // not be blocked yet), then rebuild and keep computing.
            while c.is_alive(2) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let alive = c.shrink().unwrap();
            let sum = alive.allreduce(c.rank() as u64, |a, b| a + b).unwrap();
            Some((alive.size(), sum))
        });
    assert_eq!(out[2], None, "the crashed rank unwound");
    for r in [0, 1, 3] {
        // 3 survivors; their world ranks sum to 0 + 1 + 3 = 4.
        assert_eq!(out[r], Some((3, 4)), "rank {r}: {out:?}");
    }
    let s = inj.stats();
    assert_eq!((s.crashes, s.shrinks), (1, 3));
}

#[test]
fn send_reliable_delivers_every_message_under_thirty_percent_drop() {
    let inj = Arc::new(FaultInjector::new(FaultPlan::new(9).with_drop_rate(0.3)));
    const N: u64 = 50;
    let out = World::new(2)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            if c.rank() == 0 {
                for i in 0..N {
                    c.send_reliable(1, 7, &i).unwrap();
                }
                Vec::new()
            } else {
                (0..N).map(|_| c.recv::<u64>(0, 7).unwrap()).collect()
            }
        });
    // Nothing lost, nothing duplicated, order preserved (the sender
    // acks each message before the next, and retransmissions are the
    // only second copies — none needed beyond the dropped ones).
    assert_eq!(out[1], (0..N).collect::<Vec<u64>>());
    let s = inj.stats();
    assert!(s.drops > 0, "a 30% plan over 50 sends injected nothing");
    assert_eq!(s.drops_recovered, s.drops, "every drop was made good");
    assert!(s.all_recovered());
}

#[test]
fn checkpointed_forest_fire_resumes_bit_identical() {
    let config = forestfire::FireConfig {
        size: 12,
        trials: 2,
        ..Default::default()
    };
    // Rank 1 crashes on its second owned trial; the driver restarts the
    // world with the same (consumed) schedule and the restart resumes
    // from rank 0's checkpoint bank.
    let faulted = ChaosContext::new(FaultPlan::new(4).with_crash(1, 1));
    let run = forestfire::run_mpc_recoverable(&config, 3, &faulted);
    assert!(run.attempts >= 2, "a crash forces at least one restart");
    let s = faulted.stats();
    assert_eq!(s.crashes, 1);
    assert!(s.checkpoints_restored > 0, "restart skipped banked trials");
    assert!(s.all_recovered(), "{s:?}");
    // Bit-identical to both the fault-free parallel run and run_seq.
    let clean = ChaosContext::new(FaultPlan::new(4));
    let clean_run = forestfire::run_mpc_recoverable(&config, 3, &clean);
    assert_eq!(run.value, clean_run.value);
    assert_eq!(run.value, forestfire::run_seq(&config));
    assert!(run.degraded && !clean_run.degraded);
}

#[test]
fn seeded_reorder_plan_cannot_lose_or_invent_messages() {
    // Satellite regression for the mailbox's blocking waits: three
    // senders hammer one receiver through a plan that reorders and
    // delays deliveries, stressing the notify paths that a missed
    // wakeup would turn into a hang (recv_timeout bounds the damage to
    // a clean failure). The receiver must see exactly the multiset sent.
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::new(21).with_reorder_rate(0.4).with_delay(0.2, 1),
    ));
    const PER_SENDER: usize = 100;
    let out = World::new(4)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            if c.rank() == 0 {
                let mut got: Vec<(usize, usize)> = (0..3 * PER_SENDER)
                    .map(|_| {
                        c.recv_timeout::<(usize, usize)>(
                            Source::Any,
                            TagSel::Any,
                            Duration::from_secs(5),
                        )
                        .expect("no message may be lost")
                        .0
                    })
                    .collect();
                got.sort_unstable();
                got
            } else {
                for i in 0..PER_SENDER {
                    c.send(0, c.rank() as i32, &(c.rank(), i)).unwrap();
                }
                Vec::new()
            }
        });
    let mut want: Vec<(usize, usize)> = (1..4)
        .flat_map(|r| (0..PER_SENDER).map(move |i| (r, i)))
        .collect();
    want.sort_unstable();
    assert_eq!(out[0], want);
    let s = inj.stats();
    assert!(
        s.reorders > 0 && s.delays > 0,
        "the plan injected nothing: {s:?}"
    );
}

#[test]
fn mismatched_collective_times_out_instead_of_hanging() {
    // Rank 1 never joins the allreduce; the internal collective timeout
    // must surface that as an error on rank 0 rather than a hang.
    let errs = World::new(2)
        .with_collective_timeout(Duration::from_millis(120))
        .run(|c| {
            if c.rank() == 0 {
                c.allreduce(1u64, |a, b| a + b).err()
            } else {
                None
            }
        });
    assert!(
        matches!(errs[0], Some(MpcError::Timeout { .. })),
        "{errs:?}"
    );
}

#[test]
fn chaos_fault_history_is_deterministic_for_a_seed() {
    let run = || {
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(33)
                .with_drop_rate(0.25)
                .with_reorder_rate(0.25),
        ));
        World::new(2)
            .with_fault_injector(Arc::clone(&inj))
            .run(|c| {
                if c.rank() == 0 {
                    for i in 0..40u64 {
                        c.send_reliable(1, 3, &i).unwrap();
                    }
                } else {
                    for _ in 0..40 {
                        let _: u64 = c.recv(0, 3).unwrap();
                    }
                }
            });
        inj.stats()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, same workload, same ledger");
    assert!(a.any_injected(), "the plan injected nothing: {a:?}");
}

#[test]
fn partition_window_counts_control_traffic_in_thread_mode() {
    // The 2-rank barrier is two control sends (ops 0 and 1 of the
    // injector's global counter), both done before rank 0 leaves it.
    // Rank 0's four user sends are then ops 2..=5, and the window
    // [3, 5) cuts exactly the second and third of them. Were control
    // frames not counted, the user sends would be ops 0..=3 and the
    // window would cut only the fourth.
    let inj = Arc::new(FaultInjector::new(FaultPlan::new(5).with_partition(
        vec![0],
        vec![1],
        3,
        5,
    )));
    let out = World::new(2)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            c.barrier().unwrap();
            if c.rank() == 0 {
                for i in 0..4u64 {
                    c.send(1, 2, &i).unwrap();
                }
                Vec::new()
            } else {
                (0..2).map(|_| c.recv::<u64>(0, 2).unwrap()).collect()
            }
        });
    assert_eq!(out[1], vec![0, 3]);
    assert_eq!(inj.stats().partition_drops, 2);
}

#[test]
fn heat_rejects_unstable_configuration_before_running() {
    let bad = pdc_exemplars::heat::HeatConfig {
        alpha: 0.75,
        ..Default::default()
    };
    assert!(std::panic::catch_unwind(|| pdc_exemplars::heat::run_seq(&bad)).is_err());
}

#[test]
fn shrink_after_two_sequential_crashes() {
    // Ranks 1 and 3 die at different compute steps; the three survivors
    // observe both deaths, then rebuild in a single shrink.
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::new(5).with_crash(1, 0).with_crash(3, 1),
    ));
    let out = World::new(5)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            for _ in 0..2 {
                if c.chaos_step().is_err() {
                    return None;
                }
            }
            while c.is_alive(1) || c.is_alive(3) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let alive = c.shrink().unwrap();
            // Gather everyone's *world* identity through the shrunk
            // communicator: dense renumbering must preserve order.
            let worlds = alive.allgather(c.rank()).unwrap();
            Some((alive.rank(), alive.size(), worlds))
        });
    assert_eq!(out[1], None, "rank 1 unwound at its first step");
    assert_eq!(out[3], None, "rank 3 unwound at its second step");
    for (shrunk_rank, world_rank) in [(0usize, 0usize), (1, 2), (2, 4)] {
        assert_eq!(
            out[world_rank],
            Some((shrunk_rank, 3, vec![0, 2, 4])),
            "world rank {world_rank}: {out:?}"
        );
    }
    let s = inj.stats();
    assert_eq!((s.crashes, s.shrinks), (2, 3));
}

#[test]
fn shrink_of_shrink_renumbers_densely() {
    // A second failure after a first shrink: the already-shrunk
    // communicator shrinks again, and both renumberings stay dense and
    // order-preserving.
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::new(6).with_crash(1, 0).with_crash(3, 1),
    ));
    let out = World::new(5)
        .with_fault_injector(Arc::clone(&inj))
        .run(|c| {
            if c.chaos_step().is_err() {
                return None; // rank 1, first casualty
            }
            while c.is_alive(1) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let first = c.shrink().unwrap(); // {0, 2, 3, 4}
            let first_rank = first.rank();
            // Hold the second casualty until everyone has rebuilt: a
            // death racing the first shrink would leave the members
            // with different survivor lists (and communicator ids).
            first.barrier().unwrap();
            if c.chaos_step().is_err() {
                return None; // rank 3, second casualty
            }
            while c.is_alive(3) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let second = first.shrink().unwrap(); // {0, 2, 4}
            let worlds = second.allgather(c.rank()).unwrap();
            Some((first_rank, second.rank(), second.size(), worlds))
        });
    assert_eq!(out[1], None);
    assert_eq!(out[3], None);
    // world 0 -> first 0 -> second 0; world 2 -> 1 -> 1; world 4 -> 3 -> 2.
    assert_eq!(out[0], Some((0, 0, 3, vec![0, 2, 4])));
    assert_eq!(out[2], Some((1, 1, 3, vec![0, 2, 4])));
    assert_eq!(out[4], Some((3, 2, 3, vec![0, 2, 4])));
    let s = inj.stats();
    assert_eq!(s.crashes, 2);
    assert_eq!(s.shrinks, 7, "four first-round + three second-round calls");
}
