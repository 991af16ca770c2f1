//! Per-rank mailboxes with MPI matching semantics.
//!
//! Each world rank owns one [`Mailbox`]. A send deposits an `Envelope`
//! at the destination's mailbox; a receive removes the *oldest* matching
//! envelope, blocking until one arrives. Because the queue is scanned in
//! arrival order, the MPI **non-overtaking** guarantee holds: two messages
//! from the same sender with the same tag are received in send order.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::envelope::{Envelope, Source, TagSel};
use crate::error::{MpcError, Result};

/// A one-shot completion latch used by synchronous sends: the sender
/// blocks on [`Latch::wait`] until the receiver calls [`Latch::open`]
/// at match time — the rendezvous that makes `ssend` deadlock-capable.
///
/// A latch may also carry an *open hook*, run exactly once when the
/// latch opens. Transports use it to ack the sender at match time: by
/// opening the sender's own latch when both share a process, or by
/// queueing an Ack frame back over the wire.
#[derive(Default)]
pub struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchState {
    open: bool,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Latch")
            .field("open", &st.open)
            .field("hook", &st.hook.is_some())
            .finish()
    }
}

impl Latch {
    /// Create a closed latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a hook to run once when the latch opens. Attach before
    /// publishing the latch: if it is already open the hook is dropped
    /// unrun.
    pub fn set_hook(&self, hook: Box<dyn FnOnce() + Send>) {
        let mut st = self.state.lock();
        if !st.open {
            st.hook = Some(hook);
        }
    }

    /// Open the latch, waking all waiters. Idempotent; the open hook
    /// (if any) runs exactly once, after waiters are notified, outside
    /// the latch lock.
    pub fn open(&self) {
        let hook = {
            let mut st = self.state.lock();
            st.open = true;
            self.cv.notify_all();
            st.hook.take()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Block until the latch opens, or until `timeout` (None = forever).
    /// Returns `false` on timeout. A timeout too large to represent as
    /// an `Instant` deadline is treated as forever rather than panicking
    /// on the overflowing deadline arithmetic.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        let deadline = deadline_after(timeout);
        let mut st = self.state.lock();
        match deadline {
            None => {
                while !st.open {
                    self.cv.wait(&mut st);
                }
                true
            }
            Some(dl) => {
                while !st.open {
                    if self.cv.wait_until(&mut st, dl).timed_out() {
                        return st.open;
                    }
                }
                true
            }
        }
    }
}

/// Deadline for an optional timeout. `None` — wait forever — when no
/// timeout was given *or* when `now + timeout` overflows `Instant`:
/// a deadline too far away to represent might as well be never.
fn deadline_after(timeout: Option<Duration>) -> Option<Instant> {
    timeout.and_then(|d| Instant::now().checked_add(d))
}

/// The pending-message queue of one rank.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    arrived: Condvar,
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit a message (called by the sender's thread).
    pub(crate) fn deposit(&self, env: Envelope) {
        let depth = {
            let mut q = self.queue.lock();
            q.push_back(env);
            q.len()
        };
        // Sampled on every deposit/removal, the gauge traces the queue
        // depth over time — backlog spikes show up as a sawtooth in the
        // timeline rather than only as an end-of-run total — while the
        // histogram keeps the depth *distribution* (p50/p90/p99).
        pdc_trace::gauge("mpc", "mailbox_depth", depth as f64);
        pdc_trace::hist("mpc", "mailbox_depth", depth as u64);
        self.arrived.notify_all();
    }

    /// Deposit a message at the *front* of the queue, ahead of all
    /// pending traffic. Used only by fault injection to model network
    /// reordering — it deliberately violates the non-overtaking
    /// guarantee [`Mailbox::deposit`] provides.
    pub(crate) fn deposit_front(&self, env: Envelope) {
        let depth = {
            let mut q = self.queue.lock();
            q.push_front(env);
            q.len()
        };
        pdc_trace::gauge("mpc", "mailbox_depth", depth as f64);
        pdc_trace::hist("mpc", "mailbox_depth", depth as u64);
        self.arrived.notify_all();
    }

    /// Wake every blocked waiter without delivering anything, so it
    /// re-evaluates its failure predicate. Called when a rank crashes:
    /// receivers blocked on the dead rank return `PeerGone` promptly
    /// instead of waiting out their timeout.
    pub(crate) fn interrupt(&self) {
        // Take the lock before notifying: a waiter is either inside its
        // predicate check (holding the lock — it will see the new state
        // on its next iteration) or parked in `wait` (the notify wakes
        // it). There is no window where a waiter has decided to park but
        // can still miss the notification, because `Condvar::wait`
        // releases the lock and parks atomically.
        let _q = self.queue.lock();
        self.arrived.notify_all();
    }

    /// Remove and return the oldest envelope matching the selectors,
    /// blocking until one arrives or `timeout` elapses (None = forever).
    ///
    /// Opens the envelope's sync latch (if any) *at match time*, which is
    /// when a synchronous send is allowed to complete.
    #[cfg(test)]
    pub(crate) fn take_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
    ) -> Result<Envelope> {
        self.take_matching_checked(comm_id, src, tag, timeout, &|| None)
    }

    /// [`Mailbox::take_matching`] with a failure predicate, evaluated
    /// under the queue lock before every wait. Ordering matters: the
    /// queue is always scanned *before* `fail` is consulted, so messages
    /// deposited by a peer before it died remain receivable — only a
    /// wait that would otherwise block surfaces the failure.
    ///
    /// All blocking paths in this module share the same missed-wakeup
    /// discipline: predicates (queue contents and `fail`) are only read
    /// while holding the queue lock, state changes (deposit / interrupt /
    /// crash registration) happen under that lock before `notify_all`,
    /// and `Condvar::wait` parks atomically with the unlock. A timeout
    /// performs one final scan after waking, so a message or failure
    /// that lands exactly at the deadline is never dropped on the floor.
    pub(crate) fn take_matching_checked(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
        fail: &dyn Fn() -> Option<MpcError>,
    ) -> Result<Envelope> {
        let take = |q: &mut VecDeque<Envelope>| -> Option<Envelope> {
            let pos = q.iter().position(|e| e.matches(comm_id, &src, &tag))?;
            let env = q.remove(pos).expect("position just found");
            pdc_trace::gauge("mpc", "mailbox_depth", q.len() as f64);
            pdc_trace::hist("mpc", "mailbox_depth", q.len() as u64);
            if let Some(latch) = &env.sync_ack {
                latch.open();
            }
            Some(env)
        };
        let deadline = deadline_after(timeout);
        let mut q = self.queue.lock();
        loop {
            if let Some(env) = take(&mut q) {
                return Ok(env);
            }
            if let Some(err) = fail() {
                return Err(err);
            }
            match deadline {
                None => self.arrived.wait(&mut q),
                Some(dl) => {
                    if self.arrived.wait_until(&mut q, dl).timed_out() {
                        // One final scan in case a message arrived exactly
                        // at the deadline.
                        if let Some(env) = take(&mut q) {
                            return Ok(env);
                        }
                        if let Some(err) = fail() {
                            return Err(err);
                        }
                        return Err(MpcError::Timeout {
                            waited: timeout.expect("deadline implies timeout"),
                            operation: "recv",
                        });
                    }
                }
            }
        }
    }

    /// Peek at the oldest matching envelope without removing it,
    /// returning its (src, tag, payload length). Blocks like a receive.
    #[cfg(test)]
    pub(crate) fn peek_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
    ) -> Result<(usize, i32, usize)> {
        self.peek_matching_checked(comm_id, src, tag, timeout, &|| None)
    }

    /// [`Mailbox::peek_matching`] with a failure predicate; same scan
    /// ordering and wakeup discipline as [`Mailbox::take_matching_checked`].
    pub(crate) fn peek_matching_checked(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
        fail: &dyn Fn() -> Option<MpcError>,
    ) -> Result<(usize, i32, usize)> {
        let deadline = deadline_after(timeout);
        let mut q = self.queue.lock();
        loop {
            if let Some(e) = q.iter().find(|e| e.matches(comm_id, &src, &tag)) {
                return Ok((e.src, e.tag, e.payload.len()));
            }
            if let Some(err) = fail() {
                return Err(err);
            }
            match deadline {
                None => self.arrived.wait(&mut q),
                Some(dl) => {
                    if self.arrived.wait_until(&mut q, dl).timed_out() {
                        if let Some(e) = q.iter().find(|e| e.matches(comm_id, &src, &tag)) {
                            return Ok((e.src, e.tag, e.payload.len()));
                        }
                        if let Some(err) = fail() {
                            return Err(err);
                        }
                        return Err(MpcError::Timeout {
                            waited: timeout.expect("deadline implies timeout"),
                            operation: "probe",
                        });
                    }
                }
            }
        }
    }

    /// Non-blocking probe: oldest matching envelope's (src, tag, len).
    pub(crate) fn try_peek_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
    ) -> Option<(usize, i32, usize)> {
        let q = self.queue.lock();
        q.iter()
            .find(|e| e.matches(comm_id, &src, &tag))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued messages (diagnostic).
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

/// Convenience Arc alias.
pub(crate) type SharedMailbox = Arc<Mailbox>;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(comm_id: u64, src: usize, tag: i32, body: &[u8]) -> Envelope {
        Envelope {
            comm_id,
            src,
            tag,
            payload: Bytes::copy_from_slice(body),
            sync_ack: None,
        }
    }

    #[test]
    fn take_in_fifo_order_per_sender_tag() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 7, b"first"));
        mb.deposit(env(0, 1, 7, b"second"));
        let a = mb
            .take_matching(0, Source::Rank(1), TagSel::Tag(7), None)
            .unwrap();
        let b = mb
            .take_matching(0, Source::Rank(1), TagSel::Tag(7), None)
            .unwrap();
        assert_eq!(&a.payload[..], b"first");
        assert_eq!(&b.payload[..], b"second");
    }

    #[test]
    fn selector_skips_nonmatching_but_preserves_order() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 2, 1, b"fromtwo"));
        mb.deposit(env(0, 1, 1, b"fromone"));
        // Ask for rank 1 first: must skip the rank-2 message, not consume it.
        let a = mb
            .take_matching(0, Source::Rank(1), TagSel::Any, None)
            .unwrap();
        assert_eq!(&a.payload[..], b"fromone");
        assert_eq!(mb.pending(), 1);
        let b = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&b.payload[..], b"fromtwo");
    }

    #[test]
    fn any_source_takes_oldest() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 3, 0, b"old"));
        mb.deposit(env(0, 1, 0, b"new"));
        let got = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&got.payload[..], b"old");
        assert_eq!(got.src, 3);
    }

    #[test]
    fn timeout_on_empty_mailbox() {
        let mb = Mailbox::new();
        let err = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, MpcError::Timeout { .. }));
    }

    #[test]
    fn blocking_take_wakes_on_deposit() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.take_matching(0, Source::Rank(0), TagSel::Tag(5), None)
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deposit(env(0, 0, 5, b"wake"));
        let got = handle.join().unwrap();
        assert_eq!(&got.payload[..], b"wake");
    }

    #[test]
    fn comm_ids_isolate_messages() {
        let mb = Mailbox::new();
        mb.deposit(env(42, 0, 0, b"other-comm"));
        let err = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(err, MpcError::Timeout { .. }));
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 4, 9, b"xyz"));
        let (src, tag, len) = mb.peek_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!((src, tag, len), (4, 9, 3));
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn try_peek_nonblocking() {
        let mb = Mailbox::new();
        assert!(mb.try_peek_matching(0, Source::Any, TagSel::Any).is_none());
        mb.deposit(env(0, 0, 1, b"a"));
        assert_eq!(
            mb.try_peek_matching(0, Source::Any, TagSel::Any),
            Some((0, 1, 1))
        );
    }

    #[test]
    fn latch_open_wait() {
        let latch = Arc::new(Latch::new());
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || l2.wait(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(10));
        latch.open();
        assert!(h.join().unwrap());
    }

    #[test]
    fn latch_timeout_returns_false() {
        let latch = Latch::new();
        assert!(!latch.wait(Some(Duration::from_millis(20))));
    }

    #[test]
    fn huge_timeouts_do_not_panic() {
        // `Instant::now() + Duration::MAX` would panic; the checked
        // deadline falls back to an untimed wait instead.
        let latch = Arc::new(Latch::new());
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || l2.wait(Some(Duration::MAX)));
        std::thread::sleep(Duration::from_millis(10));
        latch.open();
        assert!(h.join().unwrap());

        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 0, b"x"));
        let got = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::MAX))
            .unwrap();
        assert_eq!(&got.payload[..], b"x");
        mb.deposit(env(0, 1, 0, b"y"));
        let (src, _, _) = mb
            .peek_matching(0, Source::Any, TagSel::Any, Some(Duration::MAX))
            .unwrap();
        assert_eq!(src, 1);
    }

    #[test]
    fn latch_hook_runs_once_at_open() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let latch = Latch::new();
        let c2 = Arc::clone(&calls);
        latch.set_hook(Box::new(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        latch.open();
        latch.open(); // idempotent: hook must not rerun
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // A hook attached after the open is dropped unrun.
        let late = Arc::clone(&calls);
        latch.set_hook(Box::new(move || {
            late.fetch_add(10, Ordering::SeqCst);
        }));
        latch.open();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deposit_front_overtakes() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 7, b"first"));
        mb.deposit_front(env(0, 1, 7, b"jumped"));
        let a = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&a.payload[..], b"jumped");
    }

    #[test]
    fn checked_take_scans_queue_before_failing() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 0, b"already-sent"));
        let fail = || Some(MpcError::PeerGone { rank: 1 });
        // The pre-death message is still delivered...
        let got = mb
            .take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &fail)
            .unwrap();
        assert_eq!(&got.payload[..], b"already-sent");
        // ...and only a would-block wait surfaces the failure.
        let err = mb
            .take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &fail)
            .unwrap_err();
        assert!(matches!(err, MpcError::PeerGone { rank: 1 }));
    }

    #[test]
    fn interrupt_wakes_blocked_checked_take() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mb = Arc::new(Mailbox::new());
        let dead = Arc::new(AtomicBool::new(false));
        let (mb2, dead2) = (Arc::clone(&mb), Arc::clone(&dead));
        let h = std::thread::spawn(move || {
            mb2.take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &|| {
                dead2
                    .load(Ordering::SeqCst)
                    .then_some(MpcError::PeerGone { rank: 1 })
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        dead.store(true, Ordering::SeqCst);
        mb.interrupt();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpcError::PeerGone { rank: 1 }));
    }

    #[test]
    fn take_opens_sync_latch() {
        let mb = Mailbox::new();
        let latch = Arc::new(Latch::new());
        mb.deposit(Envelope {
            comm_id: 0,
            src: 0,
            tag: 0,
            payload: Bytes::new(),
            sync_ack: Some(Arc::clone(&latch)),
        });
        assert!(
            !latch.wait(Some(Duration::from_millis(1))),
            "not yet received"
        );
        mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert!(
            latch.wait(Some(Duration::from_millis(1))),
            "opened at match time"
        );
    }
}
