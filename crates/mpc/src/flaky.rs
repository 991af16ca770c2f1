//! Message-fault injection: the one place a [`FaultInjector`]'s
//! drop/duplicate/delay/reorder verdicts are applied.
//!
//! [`FlakyTransport`] wraps any [`Transport`] — the in-process fabric
//! (`World::run` wraps it whenever the world has an injector) or a
//! socket backend (the caller wraps it before `World::attach`) — and
//! consults the injector about every frame that is not a
//! retransmission while armed. Drops vanish before the inner transport
//! (reported as [`FrameOutcome::InjectedDrop`], so `send_reliable`'s
//! drops/recoveries ledger works verbatim), duplicates go out twice,
//! delays sleep the sender, reorders set the frame's overtake flag.
//! Control traffic (negative tags: collectives) is consulted too, so it
//! advances the injector's global op counter that partition windows
//! index, but it is always delivered — the "reliable control plane".
//!
//! Because injector verdicts are counter-based per (src, dst) channel,
//! a workload whose per-channel user-message sequence is deterministic
//! injects a bit-identical fault history on every run — across OS
//! processes just as within one. (Partition windows, which index a
//! *global* op counter, are scheduling-dependent across processes and
//! are not meaningful over the wire; wire-mode plans should not use
//! them.)
//!
//! The `armed` switch lets a study run fault-free phases (e.g. a traced
//! patternlet sweep whose merged traces must analyze clean) and chaos
//! phases over one connection without re-forming the mesh.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pdc_chaos::{FaultInjector, SendFault};

use crate::error::Result;
use crate::transport::{FrameOutcome, Transport, WireFrame, WireHandle};

/// A fault-injecting [`Transport`] wrapper. See the module docs.
pub struct FlakyTransport {
    inner: Arc<dyn Transport>,
    injector: Arc<FaultInjector>,
    armed: AtomicBool,
}

impl std::fmt::Debug for FlakyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlakyTransport")
            .field("ranks", &self.inner.ranks())
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlakyTransport {
    /// Wrap `inner`, consulting `injector` for every armed frame.
    /// Starts **armed**; see [`FlakyTransport::set_armed`].
    pub fn new(inner: Arc<dyn Transport>, injector: Arc<FaultInjector>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            injector,
            armed: AtomicBool::new(true),
        })
    }

    /// Arm or disarm injection. Disarmed, every frame passes through
    /// untouched and the injector is never consulted (its counters do
    /// not advance), so the armed phases of a run see the same verdict
    /// sequence regardless of what ran disarmed.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Is injection currently armed?
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// The injector this wrapper consults.
    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }
}

impl Transport for FlakyTransport {
    fn ranks(&self) -> Range<usize> {
        self.inner.ranks()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn hostnames(&self) -> Vec<String> {
        self.inner.hostnames()
    }

    fn start(&self, wire: WireHandle) {
        self.inner.start(wire);
    }

    fn send_frame(&self, dst: usize, frame: WireFrame) -> Result<FrameOutcome> {
        if frame.exempt || !self.armed.load(Ordering::Relaxed) {
            return self.inner.send_frame(dst, frame);
        }
        let verdict = self.injector.on_send(frame.src_world, dst, frame.tag >= 0);
        // A timestamped `fault_injected` instant (kind/dst/tag) places
        // each decision on the timeline so dashboards can overlay
        // faults on the traffic they perturbed; the injector's ledger
        // keeps the totals.
        let tag = frame.tag;
        let fault_instant = move |kind: &'static str| {
            pdc_trace::instant(
                "net",
                "fault_injected",
                vec![
                    ("fault", kind.into()),
                    ("dst", dst.into()),
                    ("tag", i64::from(tag).into()),
                ],
            );
        };
        match verdict {
            SendFault::Deliver => self.inner.send_frame(dst, frame),
            SendFault::Drop => {
                fault_instant("drop");
                Ok(FrameOutcome::InjectedDrop)
            }
            SendFault::Duplicate => {
                fault_instant("duplicate");
                let mut twin = frame.clone();
                // The twin must not carry the ack id: one matched copy
                // acks the sender, the other is the duplicate the
                // receiver has to cope with.
                twin.ack_id = 0;
                self.inner.send_frame(dst, frame)?;
                self.inner.send_frame(dst, twin)
            }
            SendFault::Delay(how_long) => {
                fault_instant("delay");
                std::thread::sleep(how_long);
                self.inner.send_frame(dst, frame)
            }
            SendFault::Reorder => {
                fault_instant("reorder");
                let mut frame = frame;
                frame.overtake = true;
                self.inner.send_frame(dst, frame)
            }
        }
    }

    fn announce_crash(&self) {
        self.inner.announce_crash();
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use pdc_chaos::FaultPlan;

    /// Records what reaches "the wire".
    #[derive(Default)]
    struct Loopback {
        sent: Mutex<Vec<(usize, WireFrame)>>,
    }

    impl Transport for Loopback {
        fn ranks(&self) -> Range<usize> {
            0..1
        }
        fn size(&self) -> usize {
            2
        }
        fn hostnames(&self) -> Vec<String> {
            vec!["localhost".into(); 2]
        }
        fn start(&self, _wire: WireHandle) {}
        fn send_frame(&self, dst: usize, frame: WireFrame) -> Result<FrameOutcome> {
            self.sent.lock().push((dst, frame));
            Ok(FrameOutcome::Sent)
        }
    }

    fn user_frame(tag: i32) -> WireFrame {
        WireFrame {
            comm_id: 0,
            src_world: 0,
            src_group: 0,
            tag,
            payload: Bytes::copy_from_slice(b"x"),
            ack_id: 9,
            overtake: false,
            exempt: false,
        }
    }

    #[test]
    fn drop_rate_one_drops_every_armed_user_frame() {
        let wire = Arc::new(Loopback::default());
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(1).with_drop_rate(1.0)));
        let flaky = FlakyTransport::new(wire.clone(), injector.clone());
        for _ in 0..4 {
            let out = flaky.send_frame(1, user_frame(3)).unwrap();
            assert_eq!(out, FrameOutcome::InjectedDrop);
        }
        assert!(wire.sent.lock().is_empty());
        assert_eq!(injector.stats().drops, 4);
    }

    #[test]
    fn control_plane_and_disarmed_frames_pass_untouched() {
        let wire = Arc::new(Loopback::default());
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(1).with_drop_rate(1.0)));
        let flaky = FlakyTransport::new(wire.clone(), injector.clone());
        // Negative tag: collective control traffic.
        flaky.send_frame(1, user_frame(-3)).unwrap();
        // Retransmission: exempt.
        let mut retx = user_frame(3);
        retx.exempt = true;
        flaky.send_frame(1, retx).unwrap();
        // Disarmed: user traffic passes and the injector stays silent.
        flaky.set_armed(false);
        flaky.send_frame(1, user_frame(3)).unwrap();
        assert_eq!(wire.sent.lock().len(), 3);
        assert_eq!(injector.stats().drops, 0);
    }

    #[test]
    fn duplicates_strip_the_twin_ack_id() {
        let wire = Arc::new(Loopback::default());
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::new(1).with_duplicate_rate(1.0),
        ));
        let flaky = FlakyTransport::new(wire.clone(), injector);
        flaky.send_frame(1, user_frame(3)).unwrap();
        let sent = wire.sent.lock();
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0].1.ack_id, 9, "original keeps its ack id");
        assert_eq!(sent[1].1.ack_id, 0, "twin must not double-ack");
    }

    #[test]
    fn reorder_sets_the_overtake_flag() {
        let wire = Arc::new(Loopback::default());
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(1).with_reorder_rate(1.0)));
        let flaky = FlakyTransport::new(wire.clone(), injector);
        flaky.send_frame(1, user_frame(3)).unwrap();
        assert!(wire.sent.lock()[0].1.overtake);
    }
}
