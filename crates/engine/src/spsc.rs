//! Bounded SPSC rings and a batch-recycling pool for the sharded
//! dispatcher's hot path.
//!
//! The original dispatcher used [`std::sync::mpsc::sync_channel`] plus
//! `mem::take` on the staging buffers: every flush shipped a `Vec` to the
//! worker and left a fresh empty `Vec` behind, so steady-state dispatch
//! paid one heap allocation (and the capacity regrowth that follows) per
//! batch per shard. This module removes both costs:
//!
//! - [`ring`] builds a bounded single-producer/single-consumer channel —
//!   exactly the dispatcher→worker topology — with the minimal state a
//!   blocking ring needs: one ring buffer, one lock, two wakeup
//!   conditions. The crate forbids `unsafe`, so the ring is a
//!   `Mutex<VecDeque>` with two [`Condvar`]s rather than an atomic
//!   index ring; messages are whole batches, so the lock is taken once
//!   per ~thousand tuples and never contends per tuple.
//! - [`BatchPool`] recycles the batch `Vec`s themselves: workers return
//!   each drained buffer to a shared free list, and the dispatcher's next
//!   flush swaps a recycled buffer into the staging slot instead of
//!   allocating. Once the pool is primed (a few batches per shard),
//!   steady-state dispatch performs zero allocations.
//!
//! Both halves report what they did — [`BatchPool::reuses`] /
//! [`BatchPool::allocs`] — so tests can pin the zero-allocation claim
//! instead of trusting it.
//!
//! ## The multi-producer ingress fabric
//!
//! The ring is nominally SPSC, but because it is a `Mutex<VecDeque>` (not
//! an atomic index ring) every transition happens under one lock, and the
//! wakeup elisions stay sound with *several* senders sharing one
//! [`RingSender`] behind an `Arc`: the receiver parks only after
//! observing an empty buffer under the lock, so whichever sender's push
//! makes the buffer non-empty performs the wake; senders park only after
//! observing a full buffer and register in a waiter count under the same
//! lock, and every pop that finds a registered waiter wakes one, which
//! either fills the slot or (channel closed) fails out. (A plain
//! "pop-from-full wakes one" rule would be enough for a single sender but
//! strands extra senders when the receiver drains full → empty on one
//! notify; the waiter count keeps the no-contention fast path free of
//! syscalls while waking exactly as many senders as pops can feed.) The
//! WAL writer's command ring uses
//! exactly this: `P` ingress handles and the coordinator share one
//! `Arc<RingSender<WalCmd>>`, preserving per-producer FIFO (each handle's
//! records enter in its own stash order) without a second channel
//! implementation.
//!
//! The per-(producer, shard) data rings, by contrast, stay strictly
//! SPSC: one dedicated [`ring`] per pair, and [`BatchPool`] is
//! instantiated per producer (pool sharding) so handles never contend on
//! a shared free list and total pooled capacity scales with
//! `producers × shards`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Ring state under the lock: the buffer plus liveness flags for each
/// endpoint, which turn "channel closed" into a checkable condition.
struct State<T> {
    buf: VecDeque<T>,
    tx_alive: bool,
    rx_alive: bool,
    /// Senders currently parked (or committed to parking) on `not_full`.
    /// Maintained under the lock so the receiver knows whether a pop must
    /// wake anyone — required once several senders share one
    /// [`RingSender`] behind an `Arc` (see the module docs).
    tx_waiting: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled by the sender after a push and on sender drop.
    not_empty: Condvar,
    /// Signalled by the receiver after a pop and on receiver drop.
    not_full: Condvar,
    cap: usize,
}

impl<T> Shared<T> {
    /// Locks the state, recovering from poisoning: a panicking peer thread
    /// must not wedge this one (worker panics are reaped and reported by
    /// the engine's join path; the ring's plain data stays consistent).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sending half of a [`ring`]. Dropping it closes the channel: the
/// receiver drains what was sent, then sees end-of-stream.
pub struct RingSender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a [`ring`]. Dropping it unblocks and fails any
/// in-progress or future send.
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC ring holding at most `cap` in-flight messages.
///
/// `send` blocks while the ring is full; `recv` blocks while it is empty.
/// Panics if `cap` is zero (a rendezvous ring would deadlock a
/// dispatcher that batches ahead of its worker).
pub fn ring<T>(cap: usize) -> (RingSender<T>, RingReceiver<T>) {
    assert!(cap > 0, "ring capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap),
            tx_alive: true,
            rx_alive: true,
            tx_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
        },
        RingReceiver { shared },
    )
}

/// Why a bounded send ([`RingSender::send_deadline`]) failed. Either way
/// the message comes back to the caller, who owns the shed/retry decision.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The deadline elapsed with the ring still full.
    Full(T),
    /// The receiver is gone.
    Closed(T),
}

impl<T> SendError<T> {
    /// The message that did not make it in.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Full(msg) | SendError::Closed(msg) => msg,
        }
    }
}

impl<T> RingSender<T> {
    /// Enqueues `msg`, blocking while the ring is full. Returns the
    /// message back as `Err` if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let mut st = self.shared.lock();
        loop {
            if !st.rx_alive {
                return Err(msg);
            }
            if st.buf.len() < self.shared.cap {
                // SPSC: the one receiver only ever waits after observing an
                // empty buffer under this lock, so a push onto a non-empty
                // ring cannot have a waiter to wake. Skipping the notify
                // there elides a futex syscall per steady-state send.
                let was_empty = st.buf.is_empty();
                st.buf.push_back(msg);
                drop(st);
                if was_empty {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            st.tx_waiting += 1;
            st = self
                .shared
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.tx_waiting -= 1;
        }
    }

    /// Enqueues `msg`, blocking at most `deadline` while the ring is full.
    ///
    /// The bounded-lag variant of [`send`](RingSender::send): a wedged
    /// receiver can stall this call only up to the deadline, after which
    /// the message comes back as [`SendError::Full`] and the caller
    /// consults its shed policy. Identical to `send` on the non-full fast
    /// path (one lock, elided wakeup).
    pub fn send_deadline(&self, msg: T, deadline: std::time::Duration) -> Result<(), SendError<T>> {
        let start = std::time::Instant::now();
        let mut st = self.shared.lock();
        loop {
            if !st.rx_alive {
                return Err(SendError::Closed(msg));
            }
            if st.buf.len() < self.shared.cap {
                let was_empty = st.buf.is_empty();
                st.buf.push_back(msg);
                drop(st);
                if was_empty {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                return Err(SendError::Full(msg));
            };
            st.tx_waiting += 1;
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(st, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.tx_waiting -= 1;
        }
    }

    /// Runs `f` over the queued messages in place, oldest first, under the
    /// ring lock, stopping at the first `Some` and returning it. The
    /// mechanism behind `ShedPolicy::DropOldest`, which drops the payload
    /// of the stalest queued epoch (whose forward-decay weights are
    /// smallest) while leaving the message — its sequence number and
    /// watermark — in the queue.
    pub fn edit_queued<R>(&self, f: impl FnMut(&mut T) -> Option<R>) -> Option<R> {
        self.shared.lock().buf.iter_mut().find_map(f)
    }

    /// Messages queued right now (a snapshot under the lock) — the
    /// ring-depth half of a shard's lag budget.
    pub fn len(&self) -> usize {
        self.shared.lock().buf.len()
    }

    /// Whether the ring is empty right now (a snapshot under the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.lock().tx_alive = false;
        self.shared.not_empty.notify_all();
    }
}

impl<T> RingReceiver<T> {
    /// Dequeues the next message, blocking while the ring is empty.
    /// Returns `None` once the sender is dropped and the ring drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.lock();
        loop {
            if let Some(msg) = st.buf.pop_front() {
                // Mirror of the send-side elision: senders only wait after
                // observing a full buffer, registering in `tx_waiting`
                // under this lock, so a pop with no registered waiter has
                // nobody to wake. (Checking "was the buffer full" instead
                // would strand all but one of several Arc-shared senders
                // when the receiver drains full → empty on one notify.)
                // A waiter is woken only once the ring is half drained:
                // waking it at the first free slot makes a sender and a
                // saturated receiver trade one message per context switch,
                // and — where the sender feeds several rings — re-wakes
                // every other, idle receiver for one small message each
                // time. Half a ring of queued work keeps this receiver
                // busy meanwhile, and a waiter's own deadline still lets
                // it take a free slot sooner.
                let wake = st.tx_waiting > 0 && st.buf.len() <= self.shared.cap / 2;
                drop(st);
                if wake {
                    self.shared.not_full.notify_one();
                }
                return Some(msg);
            }
            if !st.tx_alive {
                return None;
            }
            st = self
                .shared
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.lock().rx_alive = false;
        self.shared.not_full.notify_all();
    }
}

/// A bounded free list of reusable `Vec<T>` batch buffers, shared between
/// the dispatcher (which takes) and the workers (which return).
///
/// Cloning shares the pool. The free list holds at most `max_pooled`
/// buffers; returns beyond that bound drop the buffer, so a burst can
/// never pin more memory than `max_pooled` full batches.
pub struct BatchPool<T> {
    inner: Arc<PoolInner<T>>,
}

struct PoolInner<T> {
    free: Mutex<Vec<Vec<T>>>,
    max_pooled: std::sync::atomic::AtomicUsize,
    reuses: std::sync::atomic::AtomicU64,
    allocs: std::sync::atomic::AtomicU64,
}

impl<T> Clone for BatchPool<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> BatchPool<T> {
    /// Creates a pool retaining at most `max_pooled` free buffers.
    pub fn new(max_pooled: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::with_capacity(max_pooled)),
                max_pooled: std::sync::atomic::AtomicUsize::new(max_pooled),
                reuses: std::sync::atomic::AtomicU64::new(0),
                allocs: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// Adjusts the retention bound on a live pool. Holders that cloned the
    /// pool see the new bound immediately; an oversized free list shrinks
    /// lazily as buffers are taken. The supervised sharded engine uses
    /// this to widen the pool to its checkpoint window, so buffers
    /// retained in the replay backlog still recycle instead of forcing a
    /// cold allocation per batch.
    pub fn set_max_pooled(&self, max_pooled: usize) {
        self.inner
            .max_pooled
            .store(max_pooled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Tops the free list up to `count` ready buffers of capacity `cap`,
    /// writing every element once (with clones of `fill`) so the backing
    /// pages are faulted in here — at spawn, off the hot path — rather
    /// than lazily by the dispatcher. Without this, every first use of a
    /// fresh 48 KB batch buffer costs the dispatch loop a dozen page
    /// faults, and a supervised engine (whose replay backlog roughly
    /// doubles the number of buffers in circulation) pays twice as many
    /// of them as an unsupervised one.
    pub fn prewarm(&self, count: usize, cap: usize, fill: T)
    where
        T: Clone,
    {
        let missing = {
            let free = self
                .inner
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            count.saturating_sub(free.len())
        };
        // Build (and fault) the buffers outside the lock.
        let ready: Vec<Vec<T>> = (0..missing)
            .map(|_| {
                let mut buf = Vec::with_capacity(cap);
                buf.resize(cap, fill.clone());
                buf.clear();
                buf
            })
            .collect();
        let mut free = self
            .inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for buf in ready {
            if free.len() >= count {
                break;
            }
            free.push(buf);
        }
    }

    /// Hands out an empty buffer: a recycled one when available (its
    /// previously grown capacity comes along for free), otherwise a fresh
    /// allocation of capacity `cap`.
    pub fn take(&self, cap: usize) -> Vec<T> {
        use std::sync::atomic::Ordering::Relaxed;
        let recycled = self
            .inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match recycled {
            Some(buf) => {
                self.inner.reuses.fetch_add(1, Relaxed);
                buf
            }
            None => {
                self.inner.allocs.fetch_add(1, Relaxed);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a drained buffer to the free list (clearing it first).
    /// Dropped instead if the pool is already at its retention bound.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        let mut free = self
            .inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if free.len()
            < self
                .inner
                .max_pooled
                .load(std::sync::atomic::Ordering::Relaxed)
        {
            free.push(buf);
        }
    }

    /// Buffers handed out from the free list so far.
    pub fn reuses(&self) -> u64 {
        self.inner.reuses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Buffers that had to be freshly allocated.
    pub fn allocs(&self) -> u64 {
        self.inner.allocs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_close_on_sender_drop() {
        let (tx, rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "closed ring stays closed");
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = ring::<u32>(2);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(2));
    }

    #[test]
    fn full_ring_blocks_until_consumer_drains() {
        // A producer far ahead of its consumer parks on the full ring over
        // and over; whatever the capacity (and so the half-drained wake
        // mark), every message arrives, in order, and nobody sleeps
        // through a wake-up.
        for cap in [1usize, 2, 3, 8] {
            let (tx, rx) = ring::<u32>(cap);
            let producer = std::thread::spawn(move || {
                for v in 0..500 {
                    tx.send(v).unwrap();
                }
            });
            let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
            producer.join().unwrap();
            assert_eq!(got, (0..500).collect::<Vec<_>>(), "cap {cap}");
        }
    }

    #[test]
    fn receiver_drop_unblocks_a_waiting_sender() {
        let (tx, rx) = ring::<u32>(1);
        tx.send(1).unwrap();
        let producer = std::thread::spawn(move || tx.send(2));
        // Give the producer a chance to park on the full ring, then kill
        // the consumer: the parked send must fail rather than hang.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(2));
    }

    #[test]
    fn shared_sender_supports_multiple_producers() {
        // The WAL command ring is shared by P ingress handles through one
        // Arc'd sender; every message must arrive exactly once and
        // per-producer order must be preserved.
        use std::sync::Arc;
        let (tx, rx) = ring::<(usize, u32)>(4);
        let tx = Arc::new(tx);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = Arc::clone(&tx);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u32; 3];
        let mut total = 0;
        while let Some((p, i)) = rx.recv() {
            assert_eq!(i, next[p], "producer {p} out of order");
            next[p] += 1;
            total += 1;
        }
        for h in producers {
            h.join().unwrap();
        }
        assert_eq!(total, 300);
    }

    #[test]
    fn send_deadline_times_out_on_a_full_ring_and_returns_the_message() {
        use std::time::{Duration, Instant};
        let (tx, _rx) = ring::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let start = Instant::now();
        let got = tx.send_deadline(3, Duration::from_millis(30));
        assert_eq!(got, Err(SendError::Full(3)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        // The queued messages are untouched.
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn send_deadline_succeeds_once_the_consumer_drains() {
        use std::time::Duration;
        let (tx, rx) = ring::<u32>(1);
        tx.send(1).unwrap();
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let first = rx.recv();
            (first, rx.recv())
        });
        tx.send_deadline(2, Duration::from_secs(10)).unwrap();
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (Some(1), Some(2)));
    }

    #[test]
    fn send_deadline_reports_a_dead_receiver() {
        use std::time::Duration;
        let (tx, rx) = ring::<u32>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(
            tx.send_deadline(2, Duration::from_secs(10)),
            Err(SendError::Closed(2))
        );
        assert_eq!(SendError::Closed(2).into_inner(), 2);
    }

    #[test]
    fn edit_queued_visits_oldest_first_and_stops_at_the_first_hit() {
        let (tx, rx) = ring::<u32>(4);
        for v in [0, 7, 0, 9] {
            tx.send(v).unwrap();
        }
        // Zero out the oldest non-zero entry: 7, not 9.
        let zeroed = tx.edit_queued(|v| (*v != 0).then(|| std::mem::take(v)));
        assert_eq!(zeroed, Some(7));
        assert_eq!(tx.len(), 4, "the message itself stays queued");
        assert_eq!(tx.edit_queued(|v| (*v == 5).then_some(())), None);
        drop(tx);
        let drained: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(drained, vec![0, 0, 0, 9]);
    }

    #[test]
    fn pool_recycles_and_respects_bound() {
        let pool = BatchPool::<u64>::new(2);
        let a = pool.take(16);
        let b = pool.take(16);
        let c = pool.take(16);
        assert_eq!(pool.allocs(), 3);
        assert_eq!(pool.reuses(), 0);
        pool.put(a);
        pool.put(b);
        pool.put(c); // over the bound: dropped
        let d = pool.take(16);
        assert!(d.is_empty() && d.capacity() >= 16, "recycled with capacity");
        let _e = pool.take(16);
        assert_eq!(pool.reuses(), 2, "only two buffers were retained");
        let _f = pool.take(16);
        assert_eq!(pool.allocs(), 4, "third take allocates again");
    }

    #[test]
    fn pool_keeps_grown_capacity_across_cycles() {
        let pool = BatchPool::<u64>::new(4);
        let mut buf = pool.take(8);
        buf.extend(0..1000);
        let grown = buf.capacity();
        pool.put(buf);
        let again = pool.take(8);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), grown);
    }
}
