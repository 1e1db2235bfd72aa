//! Run records and time-to-accuracy curves.

use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};

/// One evaluation point on the training curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Simulated seconds since training started.
    pub time_s: f64,
    /// Round index at which the evaluation happened.
    pub epoch: usize,
    /// Global test accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Global test loss.
    pub loss: f32,
}

/// Per-round fault accounting: what went wrong between selection and
/// aggregation, and what it cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStats {
    /// Selected clients whose update never arrived (crash schedule).
    pub crashed: usize,
    /// Selected clients that ran at a straggler slowdown this round.
    pub stragglers: usize,
    /// Arrivals discarded because they missed the round deadline.
    pub dropped_by_deadline: usize,
    /// Updates lost on the wire after exhausting the retry budget.
    pub lossy_failures: usize,
    /// Total wire retransmissions across all participants.
    pub retries: usize,
    /// Clients drafted as mid-round replacements (Replace policy). Each was
    /// available and un-faulted at selection time.
    pub replacements: Vec<usize>,
    /// Client-seconds of local work whose result was never aggregated.
    pub wasted_client_seconds: f64,
    /// The round deadline, when a deadline policy was active.
    pub deadline_s: Option<f64>,
    /// Bytes of coordinator control traffic this round (`Schedule` frames
    /// plus the heartbeat sweep, retransmissions included).
    pub control_bytes: usize,
    /// Heartbeat probes that went unanswered this round (unavailable or
    /// departed clients, plus acks lost on the wire).
    pub hb_missed: usize,
    /// Raw model-update payload bytes clients produced this round
    /// (4 bytes per parameter per trained transmission, delivered or
    /// lost on the wire — crashed and deadline-precut clients never
    /// transmit). Counted whether or not a codec is attached, so a
    /// codec-free run and an `Identity` run stay byte-identical.
    pub payload_bytes_raw: usize,
    /// The same transmissions as charged on the wire: the codec's
    /// exact encoded size, or the raw size when no codec compresses.
    pub payload_bytes_encoded: usize,
}

impl FaultStats {
    /// Selected-but-not-aggregated count (crashes + deadline drops + wire
    /// losses).
    pub fn failures(&self) -> usize {
        self.crashed + self.dropped_by_deadline + self.lossy_failures
    }

    /// Appends this record to a snapshot payload.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.crashed);
        w.put_usize(self.stragglers);
        w.put_usize(self.dropped_by_deadline);
        w.put_usize(self.lossy_failures);
        w.put_usize(self.retries);
        w.put_usizes(&self.replacements);
        w.put_f64(self.wasted_client_seconds);
        match self.deadline_s {
            None => w.put_u8(0),
            Some(d) => {
                w.put_u8(1);
                w.put_f64(d);
            }
        }
        w.put_usize(self.control_bytes);
        w.put_usize(self.hb_missed);
        w.put_usize(self.payload_bytes_raw);
        w.put_usize(self.payload_bytes_encoded);
    }

    /// Reads back what [`FaultStats::save`] wrote.
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(FaultStats {
            crashed: r.get_usize()?,
            stragglers: r.get_usize()?,
            dropped_by_deadline: r.get_usize()?,
            lossy_failures: r.get_usize()?,
            retries: r.get_usize()?,
            replacements: r.get_usizes()?,
            wasted_client_seconds: r.get_f64()?,
            deadline_s: match r.get_u8()? {
                0 => None,
                1 => Some(r.get_f64()?),
                t => return Err(PersistError::Malformed(format!("deadline tag {t}"))),
            },
            control_bytes: r.get_usize()?,
            hb_missed: r.get_usize()?,
            payload_bytes_raw: r.get_usize()?,
            payload_bytes_encoded: r.get_usize()?,
        })
    }
}

/// Bookkeeping for one round.
///
/// `PartialEq` compares `mean_local_loss` *bitwise* (`f32::to_bits`): a
/// round where nothing arrived records `NaN`, and IEEE `NaN != NaN` would
/// make two byte-identical runs compare unequal — exactly the comparison
/// the determinism suite relies on.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round index.
    pub epoch: usize,
    /// Simulated time at the *end* of the round.
    pub time_s: f64,
    /// Duration of this round (slowest selected client).
    pub round_seconds: f64,
    /// Ids whose updates were aggregated this round.
    pub participants: Vec<usize>,
    /// Mean local training loss across participants.
    pub mean_local_loss: f32,
    /// Fault accounting (all-zero under a fault-free run).
    pub faults: FaultStats,
}

impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.time_s == other.time_s
            && self.round_seconds == other.round_seconds
            && self.participants == other.participants
            && self.mean_local_loss.to_bits() == other.mean_local_loss.to_bits()
            && self.faults == other.faults
    }
}

impl RoundRecord {
    /// Appends this record to a snapshot payload. Floats are stored as
    /// bit patterns, so an idle round's `NaN` loss survives the round
    /// trip and the restored record stays `==` (bitwise) to the original.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.epoch);
        w.put_f64(self.time_s);
        w.put_f64(self.round_seconds);
        w.put_usizes(&self.participants);
        w.put_f32(self.mean_local_loss);
        self.faults.save(w);
    }

    /// Reads back what [`RoundRecord::save`] wrote.
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RoundRecord {
            epoch: r.get_usize()?,
            time_s: r.get_f64()?,
            round_seconds: r.get_f64()?,
            participants: r.get_usizes()?,
            mean_local_loss: r.get_f32()?,
            faults: FaultStats::load(r)?,
        })
    }
}

/// The full result of a simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Strategy name.
    pub strategy: String,
    /// Accuracy/loss checkpoints over simulated time.
    pub curve: Vec<TimePoint>,
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
}

impl RunResult {
    /// Simulated seconds needed to *first* reach `target` accuracy, or
    /// `None` if the run never got there. This is the paper's TTA metric.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.curve.iter().find(|p| p.accuracy >= target).map(|p| p.time_s)
    }

    /// A copy of this run with the accuracy/loss curve replaced by a
    /// centered moving average of width `window` (the paper reports
    /// "smoothed curves"; TTA readouts on the smoothed curve are robust to
    /// single-evaluation spikes).
    pub fn smoothed(&self, window: usize) -> RunResult {
        assert!(window >= 1);
        let n = self.curve.len();
        let half = window / 2;
        let curve = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                let span = &self.curve[lo..hi];
                let m = span.len() as f32;
                TimePoint {
                    time_s: self.curve[i].time_s,
                    epoch: self.curve[i].epoch,
                    accuracy: span.iter().map(|p| p.accuracy).sum::<f32>() / m,
                    loss: span.iter().map(|p| p.loss).sum::<f32>() / m,
                }
            })
            .collect();
        RunResult { strategy: self.strategy.clone(), curve, rounds: self.rounds.clone() }
    }

    /// Best accuracy seen.
    pub fn best_accuracy(&self) -> f32 {
        self.curve.iter().map(|p| p.accuracy).fold(0.0, f32::max)
    }

    /// Final simulated time.
    pub fn total_time(&self) -> f64 {
        self.rounds.last().map(|r| r.time_s).unwrap_or(0.0)
    }

    /// How many times each client id participated.
    pub fn participation_counts(&self, n_clients: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_clients];
        for r in &self.rounds {
            for &p in &r.participants {
                counts[p] += 1;
            }
        }
        counts
    }

    /// Total crashed selections across the run.
    pub fn total_crashed(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.crashed).sum()
    }

    /// Total wire retransmissions across the run.
    pub fn total_retries(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.retries).sum()
    }

    /// Total mid-round replacements across the run.
    pub fn total_replacements(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.replacements.len()).sum()
    }

    /// Total client-seconds of wasted (never-aggregated) local work.
    pub fn total_wasted_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.faults.wasted_client_seconds).sum()
    }

    /// Total raw model-update payload bytes across the run.
    pub fn total_payload_bytes_raw(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.payload_bytes_raw).sum()
    }

    /// Total encoded (as-charged-on-the-wire) model-update payload bytes
    /// across the run.
    pub fn total_payload_bytes_encoded(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.payload_bytes_encoded).sum()
    }

    /// Appends the full run history to a snapshot payload.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.strategy);
        w.put_usize(self.curve.len());
        for p in &self.curve {
            w.put_f64(p.time_s);
            w.put_usize(p.epoch);
            w.put_f32(p.accuracy);
            w.put_f32(p.loss);
        }
        w.put_usize(self.rounds.len());
        for rec in &self.rounds {
            rec.save(w);
        }
    }

    /// Reads back what [`RunResult::save`] wrote.
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let strategy = r.get_str()?;
        let n_curve = r.get_usize()?;
        let mut curve = Vec::with_capacity(r.capacity_for::<TimePoint>(n_curve));
        for _ in 0..n_curve {
            curve.push(TimePoint {
                time_s: r.get_f64()?,
                epoch: r.get_usize()?,
                accuracy: r.get_f32()?,
                loss: r.get_f32()?,
            });
        }
        let n_rounds = r.get_usize()?;
        let mut rounds = Vec::with_capacity(r.capacity_for::<RoundRecord>(n_rounds));
        for _ in 0..n_rounds {
            rounds.push(RoundRecord::load(r)?);
        }
        Ok(RunResult { strategy, curve, rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> RunResult {
        RunResult {
            strategy: "test".into(),
            curve: vec![
                TimePoint { time_s: 10.0, epoch: 0, accuracy: 0.3, loss: 2.0 },
                TimePoint { time_s: 20.0, epoch: 1, accuracy: 0.55, loss: 1.5 },
                TimePoint { time_s: 30.0, epoch: 2, accuracy: 0.5, loss: 1.6 },
                TimePoint { time_s: 40.0, epoch: 3, accuracy: 0.7, loss: 1.0 },
            ],
            rounds: vec![
                RoundRecord {
                    epoch: 0,
                    time_s: 10.0,
                    round_seconds: 10.0,
                    participants: vec![0, 1],
                    mean_local_loss: 2.0,
                    faults: FaultStats::default(),
                },
                RoundRecord {
                    epoch: 1,
                    time_s: 20.0,
                    round_seconds: 10.0,
                    participants: vec![1, 2],
                    mean_local_loss: 1.5,
                    faults: FaultStats { crashed: 1, retries: 2, ..Default::default() },
                },
            ],
        }
    }

    #[test]
    fn tta_finds_first_crossing() {
        let r = run();
        assert_eq!(r.time_to_accuracy(0.5), Some(20.0));
        assert_eq!(r.time_to_accuracy(0.7), Some(40.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn best_accuracy_and_total_time() {
        let r = run();
        assert_eq!(r.best_accuracy(), 0.7);
        assert_eq!(r.total_time(), 20.0);
    }

    #[test]
    fn participation_counts() {
        let r = run();
        assert_eq!(r.participation_counts(4), vec![1, 2, 1, 0]);
    }

    #[test]
    fn fault_totals_aggregate_over_rounds() {
        let r = run();
        assert_eq!(r.total_crashed(), 1);
        assert_eq!(r.total_retries(), 2);
        assert_eq!(r.total_replacements(), 0);
        assert_eq!(r.total_wasted_seconds(), 0.0);
        assert_eq!(r.rounds[1].faults.failures(), 1);
    }

    #[test]
    fn run_results_compare_exactly() {
        assert_eq!(run(), run());
        let mut other = run();
        other.rounds[0].faults.crashed = 9;
        assert_ne!(run(), other);
    }

    #[test]
    fn run_result_snapshot_round_trip_is_bit_identical() {
        let mut r = run();
        // exercise the NaN-loss idle round and a deadline record
        r.rounds.push(RoundRecord {
            epoch: 2,
            time_s: 21.0,
            round_seconds: 1.0,
            participants: Vec::new(),
            mean_local_loss: f32::NAN,
            faults: FaultStats {
                replacements: vec![3, 4],
                deadline_s: Some(7.25),
                wasted_client_seconds: 1.5,
                payload_bytes_raw: 8848,
                payload_bytes_encoded: 2262,
                ..Default::default()
            },
        });
        let mut w = SnapshotWriter::new();
        r.save(&mut w);
        let bytes = w.finish();
        let mut reader = SnapshotReader::open(&bytes).unwrap();
        let back = RunResult::load(&mut reader).unwrap();
        reader.expect_end().unwrap();
        assert_eq!(back, r, "RoundRecord's bitwise PartialEq must hold through persistence");
    }

    #[test]
    fn a_crafted_round_count_is_truncated_not_an_allocation() {
        // a valid frame whose round count is the largest a length prefix
        // may carry, with no rounds behind it
        let mut w = SnapshotWriter::new();
        w.put_str("x");
        w.put_usize(0);
        w.put_usize(1 << 28);
        let bytes = w.finish();
        let mut reader = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(RunResult::load(&mut reader), Err(PersistError::Truncated));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn tampered_run_results_load_or_fail_but_never_panic(
            random in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            from_random in proptest::prelude::any::<bool>(),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                0..6,
            ),
            big_count_at in proptest::prelude::any::<usize>(),
            big_count in proptest::prelude::any::<bool>(),
            keep in proptest::prelude::any::<usize>(),
        ) {
            // a real payload (or random bytes) with bytes overwritten, a
            // maximal count written over one 8-byte word, and a cut —
            // re-framed, so the checksum holds and the loader sees it all
            let mut payload = if from_random {
                random
            } else {
                let mut w = SnapshotWriter::new();
                run().save(&mut w);
                w.into_payload()
            };
            if !payload.is_empty() {
                for &(at, byte) in &edits {
                    let at = at % payload.len();
                    payload[at] = byte;
                }
            }
            if big_count && payload.len() >= 8 {
                let at = big_count_at % (payload.len() / 8) * 8;
                payload[at..at + 8].copy_from_slice(&(1u64 << 28).to_le_bytes());
            }
            payload.truncate(keep % (payload.len() + 1));
            let mut w = SnapshotWriter::new();
            w.append_raw(&payload);
            let bytes = w.finish();
            let mut reader = SnapshotReader::open(&bytes).unwrap();
            let _ = RunResult::load(&mut reader);
        }
    }
}
