//! Deterministic event ordering for the coordinator.
//!
//! Pool workers and remote bridges race: envelopes arrive on the shared
//! uplink channel in whatever order the OS scheduler produces. The
//! coordinator never acts on raw arrival order — every collection of
//! envelopes is first put into an [`EventQueue`] keyed by
//! `(from, seq)` and drained in that order. `seq` is the sender's own
//! counter (a coordinator-assigned sequence would re-introduce
//! arrival-order nondeterminism), so the drained sequence is a pure
//! function of the run seed and identical across reruns no matter how the
//! threads interleave.
//!
//! A collection fills the queue and then drains all of it, so the queue
//! is a plain `Vec` of the envelopes themselves, sorted once per drain.
//! Envelopes reach the coordinator in batches (one per pool-worker
//! command), and an `Inbox` turns those batches back into collections of
//! exact size, which the queue adopts without copying.

use crate::agent::Envelope;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// The backpressure error [`EventQueue::try_extend`] returns when the queue
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

/// A collection of [`Envelope`]s drained in `(from, seq)` order, with
/// an explicit capacity bound ([`EventQueue::bounded`]) so a runaway
/// producer turns into a [`QueueFull`] backpressure error instead of
/// unbounded memory growth.
#[derive(Debug)]
pub struct EventQueue {
    envelopes: Vec<Envelope>,
    capacity: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self { envelopes: Vec::new(), capacity: usize::MAX }
    }

    /// A queue that holds at most `capacity` envelopes at once.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "event queue capacity must be >= 1");
        Self { envelopes: Vec::new(), capacity }
    }

    /// The configured capacity (`usize::MAX` for [`EventQueue::new`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a collection's envelopes in arrival order. Past capacity,
    /// the first envelope that does not fit is the [`QueueFull`] one, and
    /// it and every later one are dropped; the queued ones stay. An empty
    /// queue adopts `envelopes`' allocation rather than copying them.
    pub fn try_extend(&mut self, mut envelopes: Vec<Envelope>) -> Result<(), QueueFull> {
        let room = self.capacity - self.envelopes.len();
        let full =
            envelopes.get(room).map(|e| QueueFull { capacity: self.capacity, client: e.from });
        envelopes.truncate(room);
        if self.envelopes.is_empty() {
            self.envelopes = envelopes;
        } else {
            self.envelopes.append(&mut envelopes);
        }
        full.map_or(Ok(()), Err)
    }

    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Drains every queued envelope in `(from, seq)` order, sorting them
    /// once, in place. `seq` is a per-sender counter, so the key never
    /// repeats within one collection and the sort has no ties to break:
    /// the order is a function of the keys alone, not of insertion order.
    /// The sort is stable, which makes it a linear-time merge when the
    /// envelopes arrive as a few already-ascending runs — what a
    /// collection sees, since each pool worker answers a cohort in
    /// ascending id order.
    pub fn drain_sorted(&mut self) -> Vec<Envelope> {
        let mut out = std::mem::take(&mut self.envelopes);
        out.sort_by_key(|e| (e.from, e.seq));
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
    use crate::agent::TransmitOutcome;

    /// An envelope from `client` with sender sequence `seq`, carrying
    /// `tag` (as its retry count) so tests can follow it through a drain.
    fn env(client: usize, seq: u64, tag: usize) -> Envelope {
        Envelope {
            from: client,
            seq,
            outcome: TransmitOutcome::Lost { retries: tag, backoff_s: 0.0 },
        }
    }

    fn keyed(e: &Envelope) -> (usize, u64, usize) {
        let TransmitOutcome::Lost { retries, .. } = e.outcome else { unreachable!() };
        (e.from, e.seq, retries)
    }

    #[test]
    fn drains_by_client_then_seq() {
        let mut q = EventQueue::new();
        q.try_extend(vec![env(7, 1, 3), env(3, 9, 1)]).unwrap();
        q.try_extend(vec![env(7, 0, 2), env(0, 4, 0)]).unwrap();
        let order: Vec<usize> = q.drain_sorted().iter().map(|e| keyed(e).2).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn drain_order_is_insertion_invariant() {
        let events = [(2, 0), (9, 4), (1, 2), (9, 3), (0, 0)];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        fwd.try_extend(events.iter().map(|&(c, s)| env(c, s, 0)).collect()).unwrap();
        rev.try_extend(events.iter().rev().map(|&(c, s)| env(c, s, 0)).collect()).unwrap();
        let a: Vec<_> = fwd.drain_sorted().iter().map(|e| (e.from, e.seq)).collect();
        let b: Vec<_> = rev.drain_sorted().iter().map(|e| (e.from, e.seq)).collect();
        assert_eq!(a, b);
        assert_eq!(a, [(0, 0), (1, 2), (2, 0), (9, 3), (9, 4)]);
    }

    /// Reference order: a stable sort of the raw tuples by the same key.
    fn reference_sorted(mut raw: Vec<(usize, u64, usize)>) -> Vec<(usize, u64, usize)> {
        raw.sort_by_key(|&(c, s, _)| (c, s));
        raw
    }

    fn drained_keys(q: &mut EventQueue) -> Vec<(usize, u64, usize)> {
        q.drain_sorted().iter().map(keyed).collect()
    }

    fn envelopes(raw: &[(usize, u64, usize)]) -> Vec<Envelope> {
        raw.iter().map(|&(c, s, p)| env(c, s, p)).collect()
    }

    /// A splitmix-generated batch as one collection sees it: repeated
    /// clients with per-client increasing `seq`.
    fn random_batch(stream: &mut u64, n: usize) -> Vec<(usize, u64, usize)> {
        let mut next = || {
            *stream += 1;
            crate::shard::splitmix64(*stream)
        };
        let mut seqs = [0u64; 8];
        (0..n)
            .map(|i| {
                let client = (next() % seqs.len() as u64) as usize;
                let seq = seqs[client];
                seqs[client] += 1 + next() % 3;
                (client, seq, i)
            })
            .collect()
    }

    /// The order an unstable sort by the same key gives.
    fn unstable_sorted(raw: &[(usize, u64, usize)]) -> Vec<(usize, u64, usize)> {
        let mut events = envelopes(raw);
        events.sort_unstable_by_key(|e| (e.from, e.seq));
        events.iter().map(keyed).collect()
    }

    #[test]
    fn drain_matches_reference_sort_on_random_batches() {
        let mut stream = 0u64;
        let mut q = EventQueue::new();
        for n in (0..200).map(|b| b % 97) {
            let mut raw = random_batch(&mut stream, n);
            if n % 2 == 1 {
                // queued as two ascending runs: how one collection's
                // worker batches arrive
                let (a, b) = raw.split_at_mut(n / 2);
                a.sort_by_key(|e| (e.0, e.1));
                b.sort_by_key(|e| (e.0, e.1));
            }
            if n % 3 == 0 {
                // in pieces, as a collection spanning several batches
                for e in envelopes(&raw) {
                    q.try_extend(vec![e]).unwrap();
                }
            } else {
                q.try_extend(envelopes(&raw)).unwrap();
            }
            assert_eq!(q.len(), n);
            let drained = drained_keys(&mut q);
            assert_eq!(drained, unstable_sorted(&raw), "stable and unstable sorts must agree");
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
            for (i, &(c, s, p)) in raw.iter().enumerate() {
                match q.try_extend(vec![env(c, s, p)]) {
                    Ok(()) => assert!(i < capacity, "event {i} accepted past capacity {capacity}"),
                    Err(e) => {
                        assert!(i >= capacity, "event {i} refused below capacity {capacity}");
                        assert_eq!(e, QueueFull { capacity, client: c });
                    }
                }
            }
            assert_eq!(q.len(), capacity);
            let kept = raw[..capacity].to_vec();
            assert_eq!(drained_keys(&mut q), reference_sorted(kept.clone()));

            // a whole collection at once refuses the same event and keeps
            // the same ones, into an empty queue or behind queued events
            for queued in [0, capacity / 2] {
                q.try_extend(envelopes(&raw[..queued])).unwrap();
                let err = q.try_extend(envelopes(&raw[queued..])).unwrap_err();
                assert_eq!(err, QueueFull { capacity, client: raw[capacity].0 });
                assert_eq!(drained_keys(&mut q), reference_sorted(kept.clone()));
            }
            q.try_extend(envelopes(&raw[..capacity])).unwrap();
            assert!(q.try_extend(vec![env(0, u64::MAX, 0)]).is_err());
            assert!(q.try_extend(Vec::new()).is_ok(), "nothing to add fits a full queue");
            q.drain_sorted();
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_keeps_contents() {
        let mut q = EventQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.try_extend(vec![env(0, 0, 10), env(1, 0, 11)]).unwrap();
        let err = q.try_extend(vec![env(7, 0, 12)]).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2, client: 7 });
        // the overflowing envelope was dropped; queued ones are intact
        let order: Vec<usize> = q.drain_sorted().iter().map(|e| keyed(e).2).collect();
        assert_eq!(order, [10, 11]);
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
