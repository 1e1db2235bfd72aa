//! Bounded envelope collections and deterministic event ordering for the
//! coordinator.
//!
//! Pool workers and remote bridges race: envelopes arrive on the shared
//! uplink channel in whatever order the OS scheduler produces. Envelopes
//! reach the coordinator in batches (one per pool-worker command), and an
//! `Inbox` cuts those batches into collections of exact size. Each
//! collection goes into an [`EventQueue`], which bounds it and hands it
//! out one of two ways:
//!
//! * [`EventQueue::drain_sorted`] keyed by `(from, seq)`, for a
//!   collection whose effects depend on order (registry enrollment is
//!   id-ordered). `seq` is the sender's own counter (a
//!   coordinator-assigned sequence would re-introduce arrival-order
//!   nondeterminism), so the drained sequence is a pure function of the
//!   run seed and identical across reruns no matter how the threads
//!   interleave;
//! * [`EventQueue::drain_arrived`], the batches as they arrived, for a
//!   collection whose effects commute (heartbeat acks, trainee updates):
//!   applying them in any order gives the same state, so sorting them
//!   would only cost time.
//!
//! Filling the queue copies no envelope: it keeps each batch's `Vec` as it
//! arrived. Only `drain_sorted` copies, into the one `Vec` it sorts.

use crate::agent::Envelope;
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

/// One collection of [`Envelope`]s, kept as the batches they arrived in
/// and drained either in `(from, seq)` order or in arrival order, with an
/// explicit capacity bound ([`EventQueue::bounded`]) so a runaway
/// producer turns into a [`QueueFull`] backpressure error instead of
/// unbounded memory growth.
#[derive(Debug)]
pub struct EventQueue {
    batches: Vec<Vec<Envelope>>,
    len: usize,
    capacity: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self { batches: Vec::new(), len: 0, capacity: usize::MAX }
    }

    /// A queue that holds at most `capacity` envelopes at once.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "event queue capacity must be >= 1");
        Self { batches: Vec::new(), len: 0, capacity }
    }

    /// The configured capacity (`usize::MAX` for [`EventQueue::new`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one batch of envelopes, in arrival order, keeping its
    /// `Vec` as it is. Past capacity, the first envelope that does not fit
    /// is the [`QueueFull`] one, and it and every later one are dropped;
    /// the queued ones stay.
    pub fn try_extend(&mut self, mut batch: Vec<Envelope>) -> Result<(), QueueFull> {
        let room = self.capacity - self.len;
        let full = batch.get(room).map(|e| QueueFull { capacity: self.capacity, client: e.from });
        batch.truncate(room);
        self.len += batch.len();
        if !batch.is_empty() {
            self.batches.push(batch);
        }
        full.map_or(Ok(()), Err)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drains every queued envelope in `(from, seq)` order: one copy into
    /// a single `Vec`, sorted once, in place. `seq` is a per-sender
    /// counter, so the key never repeats within one collection and the
    /// sort has no ties to break: the order is a function of the keys
    /// alone, not of insertion order. The sort is stable, which makes it
    /// a linear-time merge when the envelopes arrive as a few
    /// already-ascending runs — what a collection sees, since each pool
    /// worker answers a cohort in ascending id order.
    pub fn drain_sorted(&mut self) -> Vec<Envelope> {
        let mut out = Vec::with_capacity(self.len);
        for batch in self.drain_arrived() {
            out.extend(batch);
        }
        out.sort_by_key(|e| (e.from, e.seq));
        out
    }

    /// Drains every queued envelope in arrival order, as the batches they
    /// arrived in, without copying one: each sender's envelopes stay in
    /// its `seq` order (a pool worker or a transport bridge is a single
    /// FIFO producer), while different senders' interleave however the
    /// threads raced. Only a collection whose effects commute across
    /// senders may be applied in this order.
    pub fn drain_arrived(&mut self) -> Vec<Vec<Envelope>> {
        self.len = 0;
        std::mem::take(&mut self.batches)
    }
}

/// The receiving end of a batched uplink. Senders deliver items in
/// batches of any size; [`Inbox::receive`] hands out exactly the count a
/// collection asks for, as the batches they arrived in. The items of a
/// batch beyond that count wait, in arrival order, for the next
/// `receive` — the queueing an unbatched channel gives single items.
#[derive(Debug)]
pub(crate) struct Inbox<T> {
    rx: Receiver<Vec<T>>,
    /// The tail of the last batch a collection cut short.
    carry: Option<Vec<T>>,
}

impl<T> Inbox<T> {
    pub(crate) fn new(rx: Receiver<Vec<T>>) -> Self {
        Inbox { rx, carry: None }
    }

    /// The next `n` items in arrival order, as the non-empty batches they
    /// arrived in (the last one cut to fit), waiting at most `timeout`
    /// for each batch. A batch moves whole; only cutting one copies its
    /// tail.
    pub(crate) fn receive(
        &mut self,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<Vec<T>>, RecvTimeoutError> {
        let mut batches = Vec::new();
        let mut left = n;
        while left > 0 {
            let mut batch = match self.carry.take() {
                Some(carried) => carried,
                None => self.rx.recv_timeout(timeout)?,
            };
            if batch.len() > left {
                self.carry = Some(batch.split_off(left));
            }
            left -= batch.len();
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        Ok(batches)
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
    fn drain_arrived_hands_back_the_batches_as_they_came() {
        let mut q = EventQueue::bounded(5);
        q.try_extend(vec![env(7, 1, 0), env(3, 9, 1)]).unwrap();
        q.try_extend(Vec::new()).unwrap();
        q.try_extend(vec![env(7, 2, 2)]).unwrap();
        assert_eq!(q.len(), 3);
        let batches: Vec<Vec<usize>> =
            q.drain_arrived().iter().map(|b| b.iter().map(|e| keyed(e).2).collect()).collect();
        assert_eq!(batches, [vec![0, 1], vec![2]], "arrival order, empty batches left out");
        assert!(q.is_empty(), "a drain empties the queue for the next collection");

        // the bound names the first envelope beyond it in arrival order,
        // whichever drain follows
        q.try_extend(vec![env(9, 0, 0), env(1, 0, 1), env(4, 0, 2)]).unwrap();
        let err = q.try_extend(vec![env(8, 0, 3), env(2, 0, 4), env(0, 0, 5)]).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 5, client: 0 });
        let kept: Vec<usize> = q.drain_arrived().into_iter().flatten().map(|e| e.from).collect();
        assert_eq!(kept, [9, 1, 4, 8, 2]);
    }

    #[test]
    fn inbox_receives_exact_counts_as_batches_and_carries_extras_in_order() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut inbox = Inbox::new(rx);
        let wait = Duration::from_secs(5);
        tx.send(vec![1, 2, 3]).unwrap();
        tx.send(vec![4, 5]).unwrap();
        tx.send(Vec::new()).unwrap();
        tx.send(vec![6]).unwrap();
        tx.send(vec![7, 8, 9, 10]).unwrap();
        assert_eq!(inbox.receive(2, wait).unwrap(), [vec![1, 2]]);
        // the extra 3 waits for the next collection, ahead of later batches
        assert_eq!(inbox.receive(2, wait).unwrap(), [vec![3], vec![4]]);
        assert_eq!(inbox.receive(0, wait).unwrap(), Vec::<Vec<i32>>::new());
        assert_eq!(inbox.receive(2, wait).unwrap(), [vec![5], vec![6]], "no empty batch");
        // a carried tail can be cut again
        assert_eq!(inbox.receive(1, wait).unwrap(), [vec![7]]);
        assert_eq!(inbox.receive(2, wait).unwrap(), [vec![8, 9]]);
        assert_eq!(inbox.receive(1, wait).unwrap(), [vec![10]]);
        assert!(inbox.receive(1, Duration::from_millis(10)).is_err(), "nothing left to receive");
    }
}
