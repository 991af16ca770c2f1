//! The world: process launch and the shared message fabric.
//!
//! [`World`] is the `mpirun` analog: configure the number of processes
//! (and optionally hostnames and collective algorithm), then [`World::run`]
//! a rank closure on every process, collecting per-rank return values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdc_chaos::{FaultInjector, FaultPlan, RetryPolicy};

use crate::analysis::{CommLog, RunRecorder};
use crate::collectives::CollectiveAlgo;
use crate::comm::Comm;
use crate::failure::DeadSet;
use crate::flaky::FlakyTransport;
use crate::mailbox::{Mailbox, SharedMailbox};
use crate::transport::{AckTable, InProcTransport, Transport, WireHandle};

/// Default internal timeout for collectives: generous enough that a
/// healthy classroom run never trips it, but a mismatched collective
/// (one rank never arrives) returns `MpcError::Timeout` instead of
/// hanging the process forever.
pub const DEFAULT_COLLECTIVE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared communication state: one mailbox per world rank (a process
/// attached to a wire receives only on its own rank's), the ack table,
/// the dead set, and the communicator-id allocator. Internal; reachable
/// through [`Comm`] and, for a transport, through its [`WireHandle`].
pub(crate) struct Fabric {
    pub(crate) mailboxes: Vec<SharedMailbox>,
    pub(crate) hostnames: Vec<String>,
    pub(crate) algo: CollectiveAlgo,
    pub(crate) traffic: Option<crate::traffic::TrafficCounters>,
    pub(crate) injector: Option<Arc<FaultInjector>>,
    pub(crate) dead: DeadSet,
    pub(crate) collective_timeout: Duration,
    pub(crate) retry: RetryPolicy,
    pub(crate) analysis: Option<RunRecorder>,
    pub(crate) acks: Arc<AckTable>,
    next_comm_id: AtomicU64,
}

impl Fabric {
    /// Reserve `n` consecutive communicator ids; returns the first.
    pub(crate) fn alloc_comm_ids(&self, n: u64) -> u64 {
        self.next_comm_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Wake every blocked receiver so it re-checks the dead set.
    pub(crate) fn interrupt_all(&self) {
        for mailbox in &self.mailboxes {
            mailbox.interrupt();
        }
    }
}

/// Launch configuration for a message-passing computation — the
/// `mpirun -np N` analog.
///
/// ```
/// use pdc_mpc::World;
///
/// let ranks: Vec<usize> = World::new(3).run(|comm| comm.rank());
/// assert_eq!(ranks, vec![0, 1, 2]);
/// ```
#[derive(Clone)]
pub struct World {
    np: usize,
    hostnames: Vec<String>,
    algo: CollectiveAlgo,
    injector: Option<Arc<FaultInjector>>,
    collective_timeout: Duration,
    retry: RetryPolicy,
    analysis: Option<CommLog>,
}

impl World {
    /// A world of `np` processes (threads), all on one simulated host
    /// named `localhost` — like `mpirun` on a single machine.
    pub fn new(np: usize) -> Self {
        assert!(np >= 1, "need at least one process");
        Self {
            np,
            hostnames: vec!["localhost".to_owned(); np],
            algo: CollectiveAlgo::default(),
            injector: None,
            collective_timeout: DEFAULT_COLLECTIVE_TIMEOUT,
            retry: RetryPolicy::default(),
            analysis: None,
        }
    }

    /// Number of processes.
    pub fn np(&self) -> usize {
        self.np
    }

    /// Set every rank's reported processor name (the paper's Colab
    /// example reports the container hostname `d6ff4f902ed6` for all 4
    /// ranks; a cluster run reports one name per node).
    pub fn with_hostname(mut self, name: &str) -> Self {
        self.hostnames = vec![name.to_owned(); self.np];
        self
    }

    /// Set per-rank processor names; `names.len()` must equal `np`.
    pub fn with_hostnames(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.np, "one hostname per rank");
        self.hostnames = names;
        self
    }

    /// Choose the collective algorithm (default: binomial tree).
    pub fn with_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Run under a fault plan: arm a fresh [`FaultInjector`] for `plan`.
    /// [`World::run`] injects its message faults through a
    /// [`FlakyTransport`]; its crash and straggler schedules apply at
    /// `Comm::chaos_step` and the send chokepoint. See `pdc-chaos`.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_fault_injector(Arc::new(FaultInjector::new(plan)))
    }

    /// Run under an already-armed injector — lets a restart sequence
    /// share one injector (and its consumed crash schedule and fault
    /// ledger) across several `World::run` attempts.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Override the internal collective timeout
    /// ([`DEFAULT_COLLECTIVE_TIMEOUT`]). A mismatched collective returns
    /// `MpcError::Timeout` after this long instead of hanging.
    pub fn with_collective_timeout(mut self, timeout: Duration) -> Self {
        self.collective_timeout = timeout;
        self
    }

    /// Override the retry schedule `Comm::send_reliable` uses.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Record every rank's communication operations into `log` — the hook
    /// the `pdc-analyze` communication analyzer consumes. One log may be
    /// shared across several worlds/runs; each `run` produces one
    /// [`crate::analysis::RunRecord`].
    pub fn with_analysis(mut self, log: CommLog) -> Self {
        self.analysis = Some(log);
        self
    }

    /// Run `body` on every rank, each on its own OS thread, passing the
    /// world communicator. Returns every rank's result, in rank order —
    /// `mpirun -np N`, with the process's exit values collected.
    ///
    /// Panics in any rank propagate after all ranks have been joined or
    /// abandoned, mirroring `mpirun`'s job abort. **Caveat** (as with
    /// real MPI jobs): a rank that dies while peers block in `recv` on
    /// it leaves those peers waiting forever — the join-in-rank-order
    /// teardown then hangs rather than aborting. Use the `*_timeout`
    /// receive variants in code that must survive peer failure.
    pub fn run<F, T>(&self, body: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        self.run_inner(body, false).0
    }

    /// Like [`World::run`], but with message-traffic tracing enabled:
    /// also returns the per-(sender, receiver) message/byte counts,
    /// including the runtime's internal collective traffic.
    pub fn run_traced<F, T>(&self, body: F) -> (Vec<T>, crate::traffic::TrafficMatrix)
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        let (results, traffic) = self.run_inner(body, true);
        (results, traffic.expect("tracing was enabled"))
    }

    /// Attach this OS process to a wire [`Transport`] as one rank of a
    /// distributed world — the socket-backed counterpart of
    /// [`World::run`]. Where `run` spawns `np` threads and returns when
    /// they all finish, `attach` returns the world communicator for the
    /// *one* rank this process hosts; the other `np - 1` ranks are
    /// other OS processes reached over the wire.
    ///
    /// Builder configuration carries over: collective algorithm and
    /// timeout, retry policy, and the fault injector's crash/straggler
    /// schedules. Message faults come from whatever the caller wraps
    /// around its transport (a [`FlakyTransport`]). Hostnames come from
    /// the transport. Online analysis is thread-mode only (a
    /// per-process recorder would see a torn view of the world); wire
    /// runs use the offline JSONL pass instead.
    ///
    /// The caller keeps ownership of the transport and is responsible
    /// for [`Transport::shutdown`] when the rank is done.
    pub fn attach(&self, transport: Arc<dyn Transport>) -> Comm {
        let ranks = transport.ranks();
        assert_eq!(ranks.len(), 1, "an attached process hosts one rank");
        let world = self.build(transport, false, None);
        pdc_trace::instant(
            "mpc",
            "world_attach",
            vec![("rank", ranks.start.into()), ("np", self.np.into())],
        );
        Comm {
            rank: ranks.start,
            ..world
        }
    }

    /// Build the fabric over `transport` and start the transport;
    /// returns rank 0's world communicator.
    fn build(
        &self,
        transport: Arc<dyn Transport>,
        trace: bool,
        analysis: Option<RunRecorder>,
    ) -> Comm {
        assert_eq!(
            self.np,
            transport.size(),
            "transport world size must match World::new(np)"
        );
        let hostnames = transport.hostnames();
        assert_eq!(hostnames.len(), self.np, "one hostname per rank");
        let fabric = Arc::new(Fabric {
            mailboxes: (0..self.np).map(|_| Arc::new(Mailbox::new())).collect(),
            hostnames,
            algo: self.algo,
            traffic: trace.then(|| crate::traffic::TrafficCounters::new(self.np)),
            injector: self.injector.clone(),
            dead: DeadSet::new(),
            collective_timeout: self.collective_timeout,
            retry: self.retry,
            analysis,
            acks: Arc::default(),
            next_comm_id: AtomicU64::new(1),
        });
        transport.start(WireHandle::new(Arc::clone(&fabric)));
        Comm {
            fabric,
            transport,
            comm_id: 0,
            group: Arc::new((0..self.np).collect()),
            rank: 0,
        }
    }

    fn run_inner<F, T>(
        &self,
        body: F,
        trace: bool,
    ) -> (Vec<T>, Option<crate::traffic::TrafficMatrix>)
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        // Per-world log wins over the ambient one, so a harness can arm a
        // process-wide log without hijacking explicitly-attached worlds.
        let analysis_log = self.analysis.clone().or_else(crate::analysis::ambient);
        let inproc = Arc::new(InProcTransport::new(self.hostnames.clone()));
        let transport: Arc<dyn Transport> = match &self.injector {
            Some(injector) => FlakyTransport::new(inproc, Arc::clone(injector)),
            None => inproc,
        };
        let world = self.build(
            transport,
            trace,
            analysis_log.map(|log| log.start_run(self.np)),
        );

        let mut run_span = pdc_trace::span("mpc", "world_run");
        run_span.arg("np", self.np);
        let mut results: Vec<Option<T>> = (0..self.np).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(self.np);
            for (rank, slot) in results.iter_mut().enumerate() {
                let comm = Comm {
                    rank,
                    ..world.clone()
                };
                let body = &body;
                handles.push(s.spawn(move || {
                    if pdc_trace::is_enabled() {
                        pdc_trace::set_thread_label(format!("rank {rank}"));
                    }
                    let mut rank_span = pdc_trace::span("mpc", "rank");
                    rank_span.arg("rank", rank);
                    *slot = Some(body(comm));
                    // Close the span, then park this rank's buffered
                    // events: the scoped join only waits for the closure,
                    // not for TLS destructors, so a drop-time flush could
                    // race a post-join drain().
                    drop(rank_span);
                    pdc_trace::flush_thread();
                }));
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        if let Some(rec) = &world.fabric.analysis {
            rec.finish();
        }
        let traffic = world.fabric.traffic.as_ref().map(|t| t.snapshot());
        (
            results
                .into_iter()
                .map(|r| r.expect("every rank produced a result"))
                .collect(),
            traffic,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Source, TagSel};
    use crate::error::MpcError;
    use std::time::Duration;

    #[test]
    fn spmd_ranks_and_sizes() {
        let out = World::new(4).run(|c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn processor_names_default_and_custom() {
        let names = World::new(2).run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["localhost", "localhost"]);
        let names = World::new(2)
            .with_hostname("d6ff4f902ed6")
            .run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["d6ff4f902ed6", "d6ff4f902ed6"]);
        let names = World::new(2)
            .with_hostnames(vec!["node0".into(), "node1".into()])
            .run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["node0", "node1"]);
    }

    #[test]
    fn send_recv_ring() {
        // Each rank sends its rank to the next; receives from the previous.
        let out = World::new(5).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, &c.rank()).unwrap();
            let got: usize = c.recv(prev, 0).unwrap();
            got
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn messages_not_overtaken() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send(1, 7, &i).unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| c.recv::<i32>(0, 7).unwrap())
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn any_source_any_tag() {
        let out = World::new(3).run(|c| {
            if c.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (v, st) = c.recv_status::<String>(Source::Any, TagSel::Any).unwrap();
                    seen.push((st.source, st.tag, v));
                }
                seen.sort();
                seen
            } else {
                c.send(0, c.rank() as i32 * 10, &format!("hi from {}", c.rank()))
                    .unwrap();
                Vec::new()
            }
        });
        assert_eq!(
            out[0],
            vec![
                (1, 10, "hi from 1".to_owned()),
                (2, 20, "hi from 2".to_owned())
            ]
        );
    }

    #[test]
    fn deadlock_detected_by_timeout() {
        // Both ranks receive before sending: the deadlock patternlet.
        let out = World::new(2).run(|c| {
            let peer = 1 - c.rank();
            let r: Result<(u32, _), _> = c.recv_timeout(peer, 0, Duration::from_millis(50));
            r.err()
        });
        for e in out {
            assert!(matches!(e, Some(MpcError::Timeout { .. })));
        }
    }

    #[test]
    fn ssend_rendezvous_deadlocks_and_buffered_send_does_not() {
        // ssend to each other: both block (timeout). Buffered send: fine.
        let out = World::new(2).run(|c| {
            let peer = 1 - c.rank();
            let sync_err = c
                .ssend_timeout(peer, 1, &c.rank(), Some(Duration::from_millis(50)))
                .is_err();
            // Both ranks must observe their timeout before either drains,
            // or the drain-recv would *match* the peer's pending ssend and
            // legitimately complete it.
            c.barrier().unwrap();
            // Drain the buffered message so the world ends clean.
            let _: usize = c.recv(peer, 1).unwrap();
            // Now the buffered exchange, which cannot deadlock:
            c.send(peer, 2, &c.rank()).unwrap();
            let got: usize = c.recv(peer, 2).unwrap();
            (sync_err, got)
        });
        assert_eq!(out, vec![(true, 1), (true, 0)]);
    }

    #[test]
    fn sendrecv_exchange() {
        let out = World::new(4).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let (got, st): (usize, _) = c.sendrecv(next, 3, &c.rank(), prev, 3).unwrap();
            assert_eq!(st.source, prev);
            got
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn irecv_isend_roundtrip() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let req = c.irecv::<String>(1, 0);
                c.isend(1, 0, &"ping".to_owned()).unwrap().wait().unwrap();
                let (v, _) = req.wait().unwrap();
                v
            } else {
                let req = c.irecv::<String>(0, 0);
                c.send(0, 0, &"pong".to_owned()).unwrap();
                let (v, _) = req.wait().unwrap();
                v
            }
        });
        assert_eq!(out, vec!["pong", "ping"]);
    }

    #[test]
    fn irecv_test_polls() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let mut req = c.irecv::<u8>(1, 0);
                let mut polls = 0usize;
                loop {
                    match req.test() {
                        Ok((v, _)) => return (v, polls > 0 || v == 9),
                        Err(r) => {
                            req = r;
                            polls += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            } else {
                std::thread::sleep(Duration::from_millis(10));
                c.send(0, 0, &9u8).unwrap();
                (9, true)
            }
        });
        assert_eq!(out[0].0, 9);
    }

    #[test]
    fn probe_reports_without_consuming() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let st = c.probe(1, TagSel::Any).unwrap();
                let v: u64 = c.recv(st.source, st.tag).unwrap();
                (st.source, st.tag, v)
            } else {
                c.send(0, 5, &123u64).unwrap();
                (0, 0, 0)
            }
        });
        assert_eq!(out[0], (1, 5, 123));
    }

    #[test]
    fn tag_validation() {
        World::new(1).run(|c| {
            assert!(matches!(
                c.send(0, -3, &0u8),
                Err(MpcError::ReservedTag(-3))
            ));
            assert!(matches!(
                c.send(5, 0, &0u8),
                Err(MpcError::RankOutOfRange { rank: 5, size: 1 })
            ));
        });
    }

    #[test]
    fn rank_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            World::new(2).run(|c| {
                if c.rank() == 1 {
                    panic!("rank abort");
                }
            });
        });
        assert!(r.is_err());
    }
}
