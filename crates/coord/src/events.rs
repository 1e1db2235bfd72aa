//! Deterministic event ordering for the coordinator.
//!
//! Pool workers and remote bridges race: envelopes arrive on the shared
//! uplink channel in whatever order the OS scheduler produces. The coordinator never acts on
//! raw arrival order — every collection of envelopes is first pushed into
//! an [`EventQueue`] keyed by `(time, client_id, seq)` and drained in that
//! order (collections that need no arrival time, such as heartbeat acks,
//! push every event at one time, so `(client_id, seq)` decides). The key
//! is built exclusively from simulated quantities (latency draws,
//! backoff, sender-side sequence numbers), so the drained sequence is a
//! pure function of the run seed and identical across reruns no matter
//! how the threads interleave.
//!
//! A collection fills the queue and then drains all of it, so the queue
//! is a plain `Vec` sorted once per drain. Envelopes reach the
//! coordinator in batches (one per pool-worker command), and an
//! `Inbox` turns those batches back into collections of exact size.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// One timestamped protocol event. `seq` is the *sender-side* monotone
/// counter stamped by the agent (a coordinator-assigned sequence would
/// re-introduce arrival-order nondeterminism).
#[derive(Debug)]
pub struct Event<T> {
    /// Simulated arrival time (seconds); must be finite.
    pub time: f64,
    /// Registry id of the sending client.
    pub client: usize,
    /// Sender-side per-agent monotone sequence number.
    pub seq: u64,
    /// The decoded protocol payload.
    pub payload: T,
}

impl<T> Event<T> {
    fn key(&self) -> (f64, usize, u64) {
        (self.time, self.client, self.seq)
    }
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ta, ca, sa) = self.key();
        let (tb, cb, sb) = other.key();
        ta.total_cmp(&tb).then_with(|| ca.cmp(&cb)).then_with(|| sa.cmp(&sb))
    }
}

/// The backpressure error [`EventQueue::try_push`] returns when the queue
/// is at capacity: the event was **dropped**, and the caller must surface
/// that (the coordinator counts drops in `coord_event_queue_dropped_total`
/// and fails the round) rather than letting an unbounded queue absorb a
/// runaway producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was exceeded.
    pub capacity: usize,
    /// The client whose event was dropped.
    pub client: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event queue at capacity {} — dropped an event from client {}",
            self.capacity, self.client
        )
    }
}

impl std::error::Error for QueueFull {}

/// A batch of [`Event`]s drained in `(time, client, seq)` order, with an
/// explicit capacity bound ([`EventQueue::bounded`]) so a runaway producer
/// turns into a [`QueueFull`] backpressure error instead of unbounded
/// memory growth.
#[derive(Debug)]
pub struct EventQueue<T> {
    events: Vec<Event<T>>,
    capacity: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self { events: Vec::new(), capacity: usize::MAX }
    }

    /// A queue that holds at most `capacity` events at once.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "event queue capacity must be >= 1");
        Self { events: Vec::new(), capacity }
    }

    /// The configured capacity (`usize::MAX` for [`EventQueue::new`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an event. Panics on non-finite timestamps — a NaN key would
    /// silently scramble `total_cmp` ordering and break run determinism —
    /// and on overflow of a bounded queue. Because of that overflow panic
    /// this is a convenience for tests and unbounded queues only: every
    /// coordinator-internal enqueue goes through [`EventQueue::try_push`],
    /// so a bounded queue at capacity surfaces
    /// `CoordError::EventQueueFull` (counted in
    /// `coord_event_queue_dropped_total`) instead of aborting the process.
    pub fn push(&mut self, time: f64, client: usize, seq: u64, payload: T) {
        self.try_push(time, client, seq, payload)
            .unwrap_or_else(|e| panic!("{e} (use try_push to handle backpressure)"));
    }

    /// Inserts an event, returning [`QueueFull`] — and dropping the event —
    /// when a bounded queue is at capacity. Panics on non-finite
    /// timestamps exactly like [`EventQueue::push`].
    pub fn try_push(
        &mut self,
        time: f64,
        client: usize,
        seq: u64,
        payload: T,
    ) -> Result<(), QueueFull> {
        assert!(time.is_finite(), "event time must be finite, got {time} from client {client}");
        if self.events.len() >= self.capacity {
            return Err(QueueFull { capacity: self.capacity, client });
        }
        self.events.push(Event { time, client, seq, payload });
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains every queued event in `(time, client, seq)` order. `seq` is
    /// a per-sender counter, so `(client, seq)` never repeats within one
    /// collection and the sort has no ties to break: the order is a
    /// function of the keys alone, not of insertion order. The sort is
    /// stable, which makes it a linear-time merge when the events arrive
    /// as a few already-ascending runs — what a collection whose keys
    /// share one time sees, since each pool worker answers a cohort in
    /// ascending id order.
    pub fn drain_sorted(&mut self) -> Vec<Event<T>> {
        let mut out = std::mem::take(&mut self.events);
        out.sort();
        out
    }
}

/// The receiving end of a batched uplink. Senders deliver items in
/// batches of any size; [`Inbox::take`] hands out exactly the count a
/// collection asks for. Items of a batch beyond that count wait, in
/// arrival order, for the next `take` — the queueing an unbatched channel
/// gives single items.
#[derive(Debug)]
pub(crate) struct Inbox<T> {
    rx: Receiver<Vec<T>>,
    carry: VecDeque<T>,
}

impl<T> Inbox<T> {
    pub(crate) fn new(rx: Receiver<Vec<T>>) -> Self {
        Inbox { rx, carry: VecDeque::new() }
    }

    /// The next `n` items in arrival order, waiting at most `timeout` for
    /// each batch.
    pub(crate) fn take(&mut self, n: usize, timeout: Duration) -> Result<Vec<T>, RecvTimeoutError> {
        let mut out = Vec::with_capacity(n);
        let carried = n.min(self.carry.len());
        out.extend(self.carry.drain(..carried));
        while out.len() < n {
            let mut batch = self.rx.recv_timeout(timeout)?.into_iter();
            out.extend(batch.by_ref().take(n - out.len()));
            self.carry.extend(batch);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_by_time_then_client_then_seq() {
        let mut q = EventQueue::new();
        q.push(2.0, 0, 0, "late");
        q.push(1.0, 7, 1, "t1-c7");
        q.push(1.0, 3, 9, "t1-c3");
        q.push(1.0, 7, 0, "t1-c7-first");
        let order: Vec<&str> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["t1-c3", "t1-c7-first", "t1-c7", "late"]);
    }

    #[test]
    fn drain_order_is_insertion_invariant() {
        let events = [(3.5, 2, 0), (0.25, 9, 4), (3.5, 1, 2), (0.25, 9, 3), (1.0, 0, 0)];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        for &(t, c, s) in &events {
            fwd.push(t, c, s, ());
        }
        for &(t, c, s) in events.iter().rev() {
            rev.push(t, c, s, ());
        }
        let a: Vec<_> = fwd.drain_sorted().iter().map(|e| (e.time, e.client, e.seq)).collect();
        let b: Vec<_> = rev.drain_sorted().iter().map(|e| (e.time, e.client, e.seq)).collect();
        assert_eq!(a, b);
        assert_eq!(a, [(0.25, 9, 3), (0.25, 9, 4), (1.0, 0, 0), (3.5, 1, 2), (3.5, 2, 0)]);
    }

    /// Reference order: a stable sort of the raw tuples by the same key.
    /// Times compare as bits so `-0.0` and `0.0` stay distinguishable.
    fn reference_sorted(mut raw: Vec<(f64, usize, u64, usize)>) -> Vec<(u64, usize, u64, usize)> {
        raw.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        raw.into_iter().map(|(t, c, s, p)| (t.to_bits(), c, s, p)).collect()
    }

    fn drained_keys(q: &mut EventQueue<usize>) -> Vec<(u64, usize, u64, usize)> {
        q.drain_sorted()
            .into_iter()
            .map(|e| (e.time.to_bits(), e.client, e.seq, e.payload))
            .collect()
    }

    /// A splitmix-generated batch as one collection sees it: few distinct
    /// times (so ties fall through to client and seq), `-0.0` next to
    /// `0.0`, repeated clients, and per-client increasing `seq`.
    fn random_batch(stream: &mut u64, n: usize) -> Vec<(f64, usize, u64, usize)> {
        const TIMES: [f64; 7] = [-0.0, 0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.0, 7.25];
        let mut next = || {
            *stream += 1;
            crate::shard::splitmix64(*stream)
        };
        let mut seqs = [0u64; 8];
        (0..n)
            .map(|i| {
                let time = TIMES[(next() % TIMES.len() as u64) as usize];
                let client = (next() % seqs.len() as u64) as usize;
                let seq = seqs[client];
                seqs[client] += 1 + next() % 3;
                (time, client, seq, i)
            })
            .collect()
    }

    /// The order the queue drained in before its sort became stable: an
    /// unstable sort by the same key.
    fn unstable_sorted(raw: &[(f64, usize, u64, usize)]) -> Vec<(u64, usize, u64, usize)> {
        let mut events: Vec<Event<usize>> = raw
            .iter()
            .map(|&(time, client, seq, payload)| Event { time, client, seq, payload })
            .collect();
        events.sort_unstable();
        events.into_iter().map(|e| (e.time.to_bits(), e.client, e.seq, e.payload)).collect()
    }

    #[test]
    fn drain_matches_reference_sort_on_random_batches() {
        let mut stream = 0u64;
        let mut q = EventQueue::new();
        for n in (0..200).map(|b| b % 97) {
            let mut raw = random_batch(&mut stream, n);
            if n % 2 == 1 {
                // every time equal, ±0.0 alternating by batch, pushed as two
                // ascending runs: how one ack collection's worker batches
                // arrive
                let time = if n % 4 == 1 { -0.0 } else { 0.0 };
                raw.iter_mut().for_each(|e| e.0 = time);
                let (a, b) = raw.split_at_mut(n / 2);
                a.sort_by_key(|e| (e.1, e.2));
                b.sort_by_key(|e| (e.1, e.2));
            }
            for &(t, c, s, p) in &raw {
                q.push(t, c, s, p);
            }
            assert_eq!(q.len(), n);
            let drained = drained_keys(&mut q);
            assert_eq!(drained, unstable_sorted(&raw), "the stable drain must keep the old order");
            assert_eq!(drained, reference_sorted(raw));
            assert!(q.is_empty(), "a drain empties the queue for the next collection");
        }
    }

    #[test]
    fn bounded_queue_keeps_the_first_capacity_events_on_random_batches() {
        let mut stream = 1u64 << 32;
        for capacity in 1..24 {
            let mut q = EventQueue::bounded(capacity);
            let raw = random_batch(&mut stream, 2 * capacity + 3);
            for (i, &(t, c, s, p)) in raw.iter().enumerate() {
                match q.try_push(t, c, s, p) {
                    Ok(()) => assert!(i < capacity, "event {i} accepted past capacity {capacity}"),
                    Err(e) => {
                        assert!(i >= capacity, "event {i} refused below capacity {capacity}");
                        assert_eq!(e, QueueFull { capacity, client: c });
                    }
                }
            }
            assert_eq!(q.len(), capacity);
            let kept = raw[..capacity].to_vec();
            assert_eq!(drained_keys(&mut q), reference_sorted(kept));
            // a drained bounded queue accepts a full batch again
            for &(t, c, s, p) in &raw[..capacity] {
                q.try_push(t, c, s, p).unwrap();
            }
            assert!(q.try_push(0.0, 0, u64::MAX, 0).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_timestamps() {
        EventQueue::new().push(f64::NAN, 0, 0, ());
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_keeps_contents() {
        let mut q = EventQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.try_push(1.0, 0, 0, "a").unwrap();
        q.try_push(2.0, 1, 0, "b").unwrap();
        let err = q.try_push(0.5, 7, 0, "dropped").unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2, client: 7 });
        // the overflowing event was dropped; queued events are intact
        let order: Vec<&str> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "at capacity")]
    fn push_panics_on_bounded_overflow() {
        let mut q = EventQueue::bounded(1);
        q.push(1.0, 0, 0, ());
        q.push(1.0, 1, 0, ());
    }

    #[test]
    fn inbox_takes_exact_counts_and_carries_extras_in_order() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut inbox = Inbox::new(rx);
        let wait = Duration::from_secs(5);
        tx.send(vec![1, 2, 3]).unwrap();
        tx.send(vec![4, 5]).unwrap();
        tx.send(Vec::new()).unwrap();
        tx.send(vec![6]).unwrap();
        assert_eq!(inbox.take(2, wait).unwrap(), [1, 2]);
        // the extra 3 waits for the next collection, ahead of later batches
        assert_eq!(inbox.take(2, wait).unwrap(), [3, 4]);
        assert_eq!(inbox.take(0, wait).unwrap(), Vec::<i32>::new());
        assert_eq!(inbox.take(2, wait).unwrap(), [5, 6]);
        assert!(inbox.take(1, Duration::from_millis(10)).is_err(), "nothing left to take");
    }
}
