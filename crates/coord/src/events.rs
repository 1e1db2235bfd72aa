//! The receiving end of the coordinator's batched uplink.
//!
//! Pool workers and remote bridges race: envelopes arrive on the shared
//! uplink channel in whatever order the OS scheduler produces, in batches
//! (one per pool-worker command). An [`Inbox`] cuts those batches into
//! collections of the exact size the coordinator asks for; the
//! coordinator decides how each collection is applied (DESIGN.md §8).

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

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
