//! The transport abstraction: how a [`Comm`](crate::Comm)'s frames
//! reach the ranks they are addressed to.
//!
//! Every send takes one route. The chokepoint (`send_bytes_inner`)
//! frames the message as a [`WireFrame`] and hands it to the world's
//! [`Transport`], which lands it in the destination rank's mailbox
//! through [`WireHandle::deliver`]. Only the transport differs between
//! the two fabrics:
//!
//! - `World::run` hosts every rank as a thread of this process; its
//!   `InProcTransport` delivers each frame on the sender's thread.
//! - `World::attach` hosts one rank per OS process; a socket transport
//!   (pdc-net's TCP backend) carries frames to the others, and its
//!   receive pumps deliver the inbound ones.
//!
//! Everything above the transport — matching semantics, collectives,
//! `ssend` rendezvous, `send_reliable`, the `DeadSet` — is shared, and
//! [`FlakyTransport`](crate::FlakyTransport), wrapped around either
//! fabric, is where message faults are injected.
//!
//! - Rendezvous/acks: a sender needing a delivery ack registers its
//!   [`Latch`] in the fabric's ack table and ships the id; the
//!   receiving side opens it at *match time* through the latch open
//!   hook — directly when sender and receiver share the process
//!   ([`WireHandle::deliver_local`]), else by echoing the id in an ack
//!   frame that [`WireHandle::complete_ack`] consumes on the sender's
//!   side. `ssend` and `send_reliable` never know which it was.
//! - Failure: a transport's failure detector (heartbeat timeouts,
//!   exhausted reconnects, explicit crash notices) calls
//!   [`WireHandle::mark_dead`], feeding the same `DeadSet` that
//!   cooperative crashes feed — so `is_alive`, `PeerGone`, and
//!   `shrink` behave identically on both fabrics.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::envelope::{Envelope, Tag};
use crate::error::Result;
use crate::mailbox::Latch;
use crate::world::Fabric;

/// One logical message — what the send chokepoint hands to
/// [`Transport::send_frame`], and what a transport hands back to
/// [`WireHandle::deliver`].
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Destination communicator id.
    pub comm_id: u64,
    /// Sender's world rank (what fault injection keys its counters on).
    pub src_world: usize,
    /// Sender's *group* rank within that communicator (what the
    /// receiver's `Status::source` reports).
    pub src_group: usize,
    /// Message tag; negative tags are runtime-internal collective
    /// traffic riding the reliable control plane.
    pub tag: Tag,
    /// Serialized payload.
    pub payload: Bytes,
    /// Nonzero when the sender wants a delivery ack at match time
    /// (`ssend` rendezvous, `send_reliable`): the receiving side must
    /// echo this id back once a receive matches the message.
    pub ack_id: u64,
    /// Deliver ahead of all queued traffic — fault-injected reordering
    /// (deliberately violates the non-overtaking guarantee).
    pub overtake: bool,
    /// Control-plane traffic (retransmissions): a fault-injecting
    /// transport must pass this through untouched.
    pub exempt: bool,
}

/// What a transport did with a frame handed to [`Transport::send_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame was delivered locally or queued toward the peer.
    /// Delivery over a wire still depends on the wire — reliability is
    /// layered above, not promised here.
    Sent,
    /// A fault-injecting wrapper dropped the frame. `send_reliable`
    /// counts these and recovers them by retransmission.
    InjectedDrop,
}

/// How frames travel between the ranks hosted in this process and
/// their peers. Implementations are expected to be `Arc`-shared with
/// the world's communicators and with whatever launched them.
pub trait Transport: Send + Sync {
    /// World ranks hosted in this process: all of them for an
    /// in-process world, one for a socket-backed rank.
    fn ranks(&self) -> Range<usize>;

    /// World size.
    fn size(&self) -> usize;

    /// Per-rank processor names; must return `size()` entries.
    fn hostnames(&self) -> Vec<String>;

    /// Called once when the world is built, handing the transport its
    /// route back into the fabric. Nothing may be delivered before
    /// `start`.
    fn start(&self, wire: WireHandle);

    /// Deliver one frame to world rank `dst`, which may be hosted in
    /// this very process (a self-send included). Sends to dead or
    /// unreachable peers succeed vacuously, like depositing into a
    /// mailbox nobody will ever drain.
    fn send_frame(&self, dst: usize, frame: WireFrame) -> Result<FrameOutcome>;

    /// A hosted rank is abandoning the world (a *cooperative* crash):
    /// notify peers in other processes so their failure detectors need
    /// not wait out a heartbeat timeout. A real kill never gets to call
    /// this — that is the case heartbeats exist for.
    fn announce_crash(&self) {}

    /// Graceful teardown: drain queued frames, say goodbye to peers,
    /// stop pumps. Idempotent.
    fn shutdown(&self) {}
}

/// The in-process fabric: every world rank is a thread of this process,
/// and sending a frame deposits it into the destination's mailbox on
/// the sender's thread.
pub(crate) struct InProcTransport {
    hostnames: Vec<String>,
    wire: OnceLock<WireHandle>,
}

impl InProcTransport {
    pub(crate) fn new(hostnames: Vec<String>) -> Self {
        Self {
            hostnames,
            wire: OnceLock::new(),
        }
    }
}

impl Transport for InProcTransport {
    fn ranks(&self) -> Range<usize> {
        0..self.hostnames.len()
    }

    fn size(&self) -> usize {
        self.hostnames.len()
    }

    fn hostnames(&self) -> Vec<String> {
        self.hostnames.clone()
    }

    fn start(&self, wire: WireHandle) {
        assert!(self.wire.set(wire).is_ok(), "transport started twice");
    }

    fn send_frame(&self, dst: usize, frame: WireFrame) -> Result<FrameOutcome> {
        let wire = self.wire.get().expect("transport not started");
        wire.deliver_local(dst, frame);
        Ok(FrameOutcome::Sent)
    }
}

/// Pending delivery acks by id — what lets a frame carry its sender's
/// `ssend` latch across any transport.
///
/// Entries for copies that are never matched (copies outlived by their
/// sender's retry loop, messages to a rank that never drains them) stay
/// registered for the fabric's lifetime; bounded by the retry budget
/// this is a deliberate small leak, not a hazard — a late ack for an
/// already-removed id is simply ignored.
#[derive(Debug, Default)]
pub(crate) struct AckTable {
    next: AtomicU64,
    /// id -> (latch, registration time in trace-ns; 0 when tracing was
    /// off at registration, so no sample is recorded at completion).
    pending: Mutex<HashMap<u64, (Arc<Latch>, u64)>>,
}

impl AckTable {
    /// Register a latch; returns its nonzero ack id.
    pub(crate) fn register(&self, latch: Arc<Latch>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1; // 0 = "no ack wanted"
        let registered_ns = if pdc_trace::is_enabled() {
            pdc_trace::now_ns()
        } else {
            0
        };
        self.pending.lock().insert(id, (latch, registered_ns));
        id
    }

    /// Remove and return a registered latch, if still present. The
    /// register-to-take interval is the frame's application-level round
    /// trip — send to matched-and-acked — recorded as the `frame_rtt`
    /// histogram.
    pub(crate) fn take(&self, id: u64) -> Option<Arc<Latch>> {
        let (latch, registered_ns) = self.pending.lock().remove(&id)?;
        if registered_ns != 0 {
            pdc_trace::hist(
                "mpc",
                "frame_rtt",
                pdc_trace::now_ns().saturating_sub(registered_ns),
            );
        }
        Some(latch)
    }

    /// Open the latch registered under `id`; unknown ids (late acks
    /// for abandoned attempts) are ignored.
    fn complete(&self, id: u64) {
        if let Some(latch) = self.take(id) {
            latch.open();
        }
    }
}

/// The transport's route back into this process's fabric: deliver
/// frames, complete acks, report peer death. Handed to the transport
/// by [`Transport::start`]; clone-cheap.
#[derive(Clone)]
pub struct WireHandle {
    fabric: Arc<Fabric>,
}

impl std::fmt::Debug for WireHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireHandle")
            .field("np", &self.fabric.mailboxes.len())
            .finish()
    }
}

impl WireHandle {
    pub(crate) fn new(fabric: Arc<Fabric>) -> Self {
        Self { fabric }
    }

    /// Deliver one frame into hosted world rank `dst`'s mailbox (at the
    /// front when `overtake` is set). When the frame asked for an ack
    /// (`ack_id != 0`) the caller supplies `ack`, run exactly once at
    /// *match time* — when a receive takes the message, not when it is
    /// deposited. That timing is what preserves `ssend` rendezvous
    /// semantics on every transport.
    ///
    /// This is also where traffic is counted (`World::run_traced`): once
    /// per delivered copy, so injected drops count zero times and
    /// duplicates twice.
    pub fn deliver(&self, dst: usize, frame: WireFrame, ack: Option<Box<dyn FnOnce() + Send>>) {
        if let Some(traffic) = &self.fabric.traffic {
            traffic.record(frame.src_world, dst, frame.payload.len());
        }
        let sync_ack = ack.map(|hook| {
            let latch = Arc::new(Latch::new());
            latch.set_hook(hook);
            latch
        });
        let env = Envelope {
            comm_id: frame.comm_id,
            src: frame.src_group,
            tag: frame.tag,
            payload: frame.payload,
            sync_ack,
        };
        let mailbox = &self.fabric.mailboxes[dst];
        if frame.overtake {
            mailbox.deposit_front(env);
        } else {
            mailbox.deposit(env);
        }
    }

    /// [`WireHandle::deliver`] for a frame whose sender is hosted in
    /// this process too: its ack, if any, opens the sender's latch
    /// directly at match time.
    pub fn deliver_local(&self, dst: usize, frame: WireFrame) {
        let ack = (frame.ack_id != 0).then(|| {
            let acks = Arc::clone(&self.fabric.acks);
            let id = frame.ack_id;
            Box::new(move || acks.complete(id)) as Box<dyn FnOnce() + Send>
        });
        self.deliver(dst, frame, ack);
    }

    /// A peer acked delivery of the frame registered under `id`.
    /// Unknown ids (late acks for abandoned attempts) are ignored.
    pub fn complete_ack(&self, id: u64) {
        self.fabric.acks.complete(id);
    }

    /// Register a world rank as dead — the failure detector's verdict
    /// (heartbeat timeout, exhausted reconnects) or a peer's crash
    /// notice. Wakes local blocked receivers so they observe `PeerGone`
    /// promptly. Returns `true` the first time.
    pub fn mark_dead(&self, world_rank: usize) -> bool {
        if self.fabric.dead.mark(world_rank) {
            pdc_trace::instant("net", "peer_dead", vec![("rank", world_rank.into())]);
            self.fabric.interrupt_all();
            true
        } else {
            false
        }
    }

    /// Is `world_rank` registered dead?
    pub fn is_dead(&self, world_rank: usize) -> bool {
        self.fabric.dead.contains(world_rank)
    }
}
