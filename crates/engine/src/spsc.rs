//! Bounded SPSC queues and a batch-recycling pool for the sharded
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
//! ## Retention and reader incarnations
//!
//! A reader that must be able to die and be replaced reads with
//! [`RingReceiver::recv_retaining`]: the entry stays in the buffer, in
//! front of a read cursor, until [`RingReceiver::release`] pops it (the
//! shard worker releases what each checkpoint it publishes covers).
//! Retained entries are invisible to capacity, back-pressure,
//! [`RingSender::len`] and [`RingSender::edit_queued`], which all see the
//! unread entries only. The ring outlives its reader:
//! [`RingSender::attach`] starts a new reader *incarnation* with the
//! cursor rewound to the first entry a predicate does not cover, so the
//! successor re-reads what its predecessor read after its last checkpoint
//! — a message is in the buffer once, and nothing is ever re-sent. The
//! receiver of an earlier incarnation (a dead worker's, or a wedged one
//! the watchdog abandoned) is inert from then on: it reads nothing,
//! releases nothing, and dropping it does not close the ring. [`ring`]
//! plus plain [`RingReceiver::recv`] — the WAL writer's use — moves every
//! entry out and never retains.
//!
//! ## The multi-producer ingress fabric
//!
//! The ring is nominally SPSC, but because it is a `Mutex<VecDeque>` (not
//! an atomic index ring) every transition happens under one lock, and the
//! wakeup elisions stay sound with *several* senders sharing one
//! [`RingSender`] behind an `Arc`: the receiver parks only after
//! observing no unread entry under the lock, so whichever sender's push
//! makes the buffer non-empty performs the wake; senders park only after
//! observing a full buffer and register in a waiter count under the same
//! lock, and every pop that finds a registered waiter wakes one, which
//! either fills the slot or (channel closed) fails out. (A plain
//! "pop-from-full wakes one" rule would be enough for a single sender but
//! strands extra senders when the receiver drains full → empty on one
//! notify; the waiter count keeps the no-contention fast path free of
//! syscalls while waking exactly as many senders as pops can feed.)
//! Nothing in the engine feeds a ring that way today — durable runs are
//! coordinator-only, and the `DurableSink` owns the one sender of the WAL
//! writer's command ring — but every sender sits in the shared plane,
//! where a recovery on another handle's thread may edit, attach to or
//! close it mid-send, so the property is kept, and tested
//! (`shared_sender_supports_multiple_producers`).
//!
//! The per-(producer, shard) data rings are strictly SPSC in their
//! traffic: one dedicated [`ring`] per pair, and [`BatchPool`] is
//! instantiated per producer (pool sharding) so handles never contend on
//! a shared free list and total pooled capacity scales with
//! `producers × shards`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Ring state under the lock: the buffer plus liveness flags for each
/// endpoint, which turn "channel closed" into a checkable condition.
struct State<T> {
    buf: VecDeque<T>,
    /// `buf[..read]` has been read and is retained until released; the
    /// unread entries are `buf[read..]`. Stays `0` on a ring only ever
    /// read with [`RingReceiver::recv`].
    read: usize,
    tx_alive: bool,
    rx_alive: bool,
    /// The incarnation of the one receiver that may read, release and, by
    /// dropping, mark the reader dead.
    reader: u64,
    /// Senders currently parked (or committed to parking) on `not_full`.
    /// Maintained under the lock so the receiver knows whether a pop must
    /// wake anyone — required once several senders share one
    /// [`RingSender`] behind an `Arc` (see the module docs).
    tx_waiting: usize,
}

impl<T> State<T> {
    fn unread(&self) -> usize {
        self.buf.len() - self.read
    }
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
/// in-progress or future send — until [`RingSender::attach`] starts the
/// next incarnation, after which this one is inert.
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
    incarnation: u64,
}

/// Creates a bounded SPSC ring holding at most `cap` unread messages.
///
/// `send` blocks while the ring is full; `recv` blocks while it is empty.
/// Panics if `cap` is zero (a rendezvous ring would deadlock a
/// dispatcher that batches ahead of its worker).
pub fn ring<T>(cap: usize) -> (RingSender<T>, RingReceiver<T>) {
    assert!(cap > 0, "ring capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap),
            read: 0,
            tx_alive: true,
            rx_alive: true,
            reader: 0,
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
        RingReceiver {
            shared,
            incarnation: 0,
        },
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

impl<T> RingSender<T> {
    /// Enqueues `msg`, blocking while the ring is full. Returns the
    /// message back as `Err` if the receiver is gone.
    pub fn send(&self, mut msg: T) -> Result<(), T> {
        loop {
            // One park/wake loop serves both forms: this one re-arms it.
            match self.send_deadline(msg, Duration::from_secs(3600)) {
                Ok(()) => return Ok(()),
                Err(SendError::Closed(msg)) => return Err(msg),
                Err(SendError::Full(back)) => msg = back,
            }
        }
    }

    /// Enqueues `msg`, blocking at most `deadline` while the ring is full.
    ///
    /// The bounded-lag variant of [`send`](RingSender::send): a wedged
    /// receiver can stall this call only up to the deadline, after which
    /// the message comes back as [`SendError::Full`] and the caller
    /// consults its shed policy. Identical to `send` on the non-full fast
    /// path (one lock, elided wakeup).
    pub fn send_deadline(&self, msg: T, deadline: Duration) -> Result<(), SendError<T>> {
        // The deadline runs from the first park: the fast path reads no
        // clock.
        let mut parked_at = None;
        let mut st = self.shared.lock();
        loop {
            if !st.rx_alive {
                return Err(SendError::Closed(msg));
            }
            if st.unread() < self.shared.cap {
                // SPSC: the one receiver only ever waits after observing
                // no unread entry under this lock, so a push onto a
                // non-empty ring cannot have a waiter to wake. Skipping
                // the notify there elides a futex syscall per
                // steady-state send.
                let was_empty = st.unread() == 0;
                st.buf.push_back(msg);
                drop(st);
                if was_empty {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            let waited = parked_at.get_or_insert_with(Instant::now).elapsed();
            let Some(remaining) = deadline.checked_sub(waited) else {
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

    /// Enqueues `msg` whatever the ring holds — past its capacity if need
    /// be. For filling a ring before anything reads it (the WAL tail of a
    /// resumed store); later sends see a full ring until the reader has
    /// caught up.
    pub fn preload(&self, msg: T) {
        self.shared.lock().buf.push_back(msg);
        self.shared.not_empty.notify_one();
    }

    /// Starts the next reader incarnation and returns its receiver. The
    /// read cursor moves to the first entry `covered` does not hold for
    /// (entries are covered as a prefix: a checkpoint's seq), so the new
    /// reader re-reads whatever its predecessor had read past that point;
    /// covered entries stay retained until it releases them. `unread` is
    /// then shown every entry the new reader will meet, oldest first, with
    /// whether an earlier incarnation had read it. The previous
    /// incarnation's receiver, dead or alive, is inert from here on.
    pub fn attach(
        &self,
        covered: impl Fn(&T) -> bool,
        mut unread: impl FnMut(&T, bool),
    ) -> RingReceiver<T> {
        let mut guard = self.shared.lock();
        let st = &mut *guard;
        st.reader += 1;
        st.rx_alive = true;
        let was_read = st.read;
        st.read = st.buf.iter().take_while(|m| covered(m)).count();
        for (i, m) in st.buf.iter().enumerate().skip(st.read) {
            unread(m, i < was_read);
        }
        let incarnation = st.reader;
        drop(guard);
        // A predecessor parked on the empty ring must leave now: a later
        // single wake-up must find the new reader, not it.
        self.shared.not_empty.notify_all();
        RingReceiver {
            shared: Arc::clone(&self.shared),
            incarnation,
        }
    }

    /// Whether a reader is attached and has not died: `false` between a
    /// receiver's drop and the next [`attach`](Self::attach).
    pub fn reader_alive(&self) -> bool {
        self.shared.lock().rx_alive
    }

    /// Ends the stream, as dropping the sender does: every reader
    /// incarnation drains what was sent, then sees end-of-stream.
    pub fn close(&self) {
        self.shared.lock().tx_alive = false;
        self.shared.not_empty.notify_all();
    }

    /// Runs `f` over the unread messages in place, oldest first, under the
    /// ring lock, stopping at the first `Some` and returning it. The
    /// mechanism behind `ShedPolicy::DropOldest`, which drops the payload
    /// of the stalest queued epoch (whose forward-decay weights are
    /// smallest) while leaving the message — its sequence number and
    /// watermark — in the queue.
    pub fn edit_queued<R>(&self, f: impl FnMut(&mut T) -> Option<R>) -> Option<R> {
        let mut st = self.shared.lock();
        let read = st.read;
        st.buf.iter_mut().skip(read).find_map(f)
    }

    /// Unread messages queued right now (a snapshot under the lock) — the
    /// ring-depth half of a shard's lag budget.
    pub fn len(&self) -> usize {
        self.shared.lock().unread()
    }

    /// Whether nothing is unread right now (a snapshot under the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> RingReceiver<T> {
    /// Dequeues the next message, blocking while the ring is empty.
    /// Returns `None` once the sender is dropped and the ring drained.
    pub fn recv(&self) -> Option<T> {
        self.next(|st| st.buf.remove(st.read))
    }

    /// [`recv`](Self::recv), but the message also stays in the ring —
    /// read, out of the sender's sight — until [`release`](Self::release)
    /// pops it or a later incarnation re-reads it.
    pub fn recv_retaining(&self) -> Option<T>
    where
        T: Clone,
    {
        self.next(|st| {
            let msg = st.buf.get(st.read).cloned()?;
            st.read += 1;
            Some(msg)
        })
    }

    /// The one blocking read: `take` removes or passes the next unread
    /// entry. `None` also when this receiver's incarnation is over.
    fn next(&self, take: impl Fn(&mut State<T>) -> Option<T>) -> Option<T> {
        let mut st = self.shared.lock();
        loop {
            if st.reader != self.incarnation {
                return None;
            }
            if let Some(msg) = take(&mut st) {
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
                let wake = st.tx_waiting > 0 && st.unread() <= self.shared.cap / 2;
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

    /// Pops the retained entries `covered` holds for — a prefix: what a
    /// checkpoint's seq covers — into `out`, for the caller to recycle
    /// outside the ring lock.
    pub fn release(&self, covered: impl Fn(&T) -> bool, out: &mut Vec<T>) {
        let mut st = self.shared.lock();
        if st.reader != self.incarnation {
            return;
        }
        while st.read > 0 && st.buf.front().is_some_and(&covered) {
            out.extend(st.buf.pop_front());
            st.read -= 1;
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        if st.reader == self.incarnation {
            st.rx_alive = false;
            drop(st);
            self.shared.not_full.notify_all();
        }
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
    /// retained in its queues still recycle instead of forcing a cold
    /// allocation per batch.
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
    /// faults, and a supervised engine (whose retained entries roughly
    /// double the number of buffers in circulation) pays twice as many
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

    /// What the ring must behave like, for
    /// `retained_ring_matches_a_vec_model`: every entry it holds, oldest
    /// first, as `(seq, payload)`, and the read cursor into them.
    struct Model {
        held: Vec<(u64, u32)>,
        read: usize,
        reader_alive: bool,
    }

    #[test]
    fn retained_ring_matches_a_vec_model() {
        use std::time::Duration;
        const CAP: usize = 4;
        for seed in 1..=300u64 {
            // xorshift64: the test owns its randomness.
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = move |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let (tx, rx) = ring::<(u64, u32)>(CAP);
            let mut m = Model {
                held: Vec::new(),
                read: 0,
                reader_alive: true,
            };
            // The current incarnation's receiver, the seq it attached
            // after and the last seq it read; and the receivers of
            // earlier incarnations that were retired alive.
            let mut rx = Some(rx);
            let (mut attached_after, mut last_read) = (0u64, 0u64);
            let mut stale: Vec<RingReceiver<(u64, u32)>> = Vec::new();
            let mut next_seq = 1u64;
            let mut closed = false;
            let mut out = Vec::new();
            for step in 0..400 {
                let ctx = format!("seed {seed} step {step}");
                match rand(12) {
                    // Send: capacity counts the unread entries only.
                    0..=2 if !closed => {
                        let msg = (next_seq, 1 + rand(9) as u32);
                        let want = if !m.reader_alive {
                            Err(SendError::Closed(msg))
                        } else if m.held.len() - m.read >= CAP {
                            Err(SendError::Full(msg))
                        } else {
                            Ok(())
                        };
                        assert_eq!(tx.send_deadline(msg, Duration::ZERO), want, "{ctx}");
                        if want.is_ok() {
                            m.held.push(msg);
                            next_seq += 1;
                        }
                    }
                    // Preload: past the capacity if need be.
                    3 if !closed && rand(4) == 0 => {
                        tx.preload((next_seq, 7));
                        m.held.push((next_seq, 7));
                        next_seq += 1;
                    }
                    // Read, retaining or moving out — only where the ring
                    // would not block.
                    4..=6 if m.read < m.held.len() || closed => {
                        let Some(rx) = rx.as_ref() else { continue };
                        let retain = rand(4) != 0;
                        let got = if retain {
                            rx.recv_retaining()
                        } else {
                            rx.recv()
                        };
                        let want = m.held.get(m.read).copied();
                        assert_eq!(got, want, "{ctx}");
                        if let Some((seq, _)) = want {
                            assert!(seq > attached_after.max(last_read), "{ctx}: seq {seq}");
                            last_read = seq;
                            if retain {
                                m.read += 1;
                            } else {
                                m.held.remove(m.read);
                            }
                        }
                    }
                    // The reader dies.
                    7 if rand(3) == 0 => {
                        if rx.take().is_some() {
                            m.reader_alive = false;
                        }
                    }
                    // A fresh incarnation attaches past `through`; its
                    // predecessor, if still alive, lives on as a zombie.
                    8 => {
                        stale.extend(rx.take());
                        let through = rand(next_seq);
                        let was_read = m.read;
                        m.read = m.held.iter().take_while(|e| e.0 <= through).count();
                        m.reader_alive = true;
                        let mut shown = Vec::new();
                        rx = Some(
                            tx.attach(|e| e.0 <= through, |e, reread| shown.push((*e, reread))),
                        );
                        let want: Vec<_> = (m.read..m.held.len())
                            .map(|i| (m.held[i], i < was_read))
                            .collect();
                        assert_eq!(shown, want, "{ctx}");
                        (attached_after, last_read) = (through, 0);
                    }
                    // Release through a seq: the retained prefix only.
                    9 => {
                        let Some(rx) = rx.as_ref() else { continue };
                        let through = rand(next_seq);
                        let n = m.held[..m.read]
                            .iter()
                            .take_while(|e| e.0 <= through)
                            .count();
                        rx.release(|e| e.0 <= through, &mut out);
                        assert_eq!(out, m.held[..n], "{ctx}");
                        out.clear();
                        m.held.drain(..n);
                        m.read -= n;
                    }
                    // Hollow the oldest unread entry that has a payload.
                    10 => {
                        let want = m.held[m.read..].iter_mut().find(|e| e.1 != 0);
                        let got =
                            tx.edit_queued(|e| (e.1 != 0).then(|| (e.0, std::mem::take(&mut e.1))));
                        assert_eq!(got, want.as_deref().copied(), "{ctx}");
                        if let Some(e) = want {
                            e.1 = 0;
                        }
                    }
                    11 if rand(40) == 0 => {
                        tx.close();
                        closed = true;
                    }
                    // A zombie reads nothing, releases nothing, and its
                    // drop leaves the ring open.
                    _ => {
                        if let Some(z) = stale.pop() {
                            assert_eq!(z.recv_retaining(), None, "{ctx}");
                            assert_eq!(z.recv(), None, "{ctx}");
                            z.release(|_| true, &mut out);
                            assert!(out.is_empty(), "{ctx}");
                        }
                    }
                }
                assert_eq!(tx.len(), m.held.len() - m.read, "{ctx}");
                assert_eq!(tx.reader_alive(), m.reader_alive, "{ctx}");
            }
            // A reader attached at the front and dropped at once is shown
            // everything the ring holds, and leaves it without a reader.
            let mut shown = Vec::new();
            drop(tx.attach(|_| false, |e, reread| shown.push((*e, reread))));
            let want: Vec<_> = (m.held.iter().enumerate())
                .map(|(i, e)| (*e, i < m.read))
                .collect();
            assert_eq!(shown, want, "seed {seed}");
            assert!(!tx.reader_alive());
        }
    }

    #[test]
    fn a_fresh_incarnation_inherits_parked_peers() {
        // The lost-wakeup shapes around an attach. Run off-thread so a
        // hang fails the test instead of stalling the suite.
        use std::sync::mpsc;
        use std::time::Duration;
        let (done_tx, done_rx) = mpsc::channel();
        let scenario = std::thread::spawn(move || {
            // A sender parked on the full ring when its reader dies — or
            // is retired alive — must be fed by the successor's reads.
            for retired_alive in [false, true] {
                let (tx, rx0) = ring::<u32>(2);
                let tx = Arc::new(tx);
                tx.send(1).unwrap();
                tx.send(2).unwrap();
                let sender = {
                    let tx = Arc::clone(&tx);
                    // A dead reader fails the send; it is retried once a
                    // successor is attached.
                    std::thread::spawn(move || {
                        while tx.send(3).is_err() {
                            std::thread::yield_now();
                        }
                    })
                };
                while tx.shared.lock().tx_waiting == 0 {
                    std::thread::yield_now();
                }
                let zombie = retired_alive.then_some(rx0);
                let rx1 = tx.attach(|_| false, |_, _| {});
                let got: Vec<u32> = (0..3).filter_map(|_| rx1.recv_retaining()).collect();
                assert_eq!(got, [1, 2, 3]);
                sender.join().unwrap();
                if let Some(zombie) = zombie {
                    assert_eq!(zombie.recv_retaining(), None);
                    drop(zombie);
                    assert!(tx.reader_alive(), "a zombie's drop closes nothing");
                }
            }
            // A retired reader parked on the empty ring must not swallow
            // the wake-up meant for its successor. (The sleeps only make
            // "both parked" the likely order; every order must pass.)
            let (tx, rx0) = ring::<u32>(2);
            let zombie = std::thread::spawn(move || rx0.recv());
            std::thread::sleep(Duration::from_millis(20));
            let rx1 = tx.attach(|_| false, |_, _| {});
            let successor = std::thread::spawn(move || rx1.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
            assert_eq!(successor.join().unwrap(), Some(9));
            assert_eq!(zombie.join().unwrap(), None);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a parked thread slept through its wake-up");
        scenario.join().unwrap();
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
