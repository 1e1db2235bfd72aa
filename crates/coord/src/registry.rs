//! The coordinator's client registry: everything the server knows about an
//! enrolled client, including the liveness state machine driven by
//! heartbeat probes on the simulated clock.
//!
//! Liveness transitions (policy thresholds from
//! [`haccs_sysmodel::HeartbeatPolicy`]):
//!
//! ```text
//! Joined --Join processed--> Alive
//! Alive --misses >= suspect_after--> Suspected   (leaves the schedulable pool)
//! Suspected --ack--> Alive                        (miss streak resets)
//! Suspected --misses >= evict_after--> Left       (permanent)
//! any --Leave frame--> Left                       (graceful departure)
//! ```

use haccs_sysmodel::{Availability, DeviceProfile, HeartbeatPolicy, LivenessVerdict};
use haccs_wire::{ResourceEstimate, WireSummary};

/// Where a client sits in the membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Spawned but its `Join` has not been processed yet.
    Joined,
    /// Enrolled and responding; eligible for selection.
    Alive,
    /// Missed enough consecutive heartbeats to be excluded from selection,
    /// but still probed — an ack restores `Alive`.
    Suspected,
    /// Departed (graceful `Leave` or eviction). Never probed or selected
    /// again.
    Left,
}

/// Server-side record for one enrolled client: the fields the per-round
/// passes read (80 bytes). The rest of its `Join` — the data summary and
/// the resource estimate — sits in the registry's side table, read through
/// [`ClientRegistry::summary`] and [`ClientRegistry::resources`].
#[derive(Debug, Clone)]
pub struct ClientEntry {
    /// Registry id — doubles as the client index in the shared
    /// [`Availability`] model and fault hashes.
    pub id: usize,
    /// Session nonce from the client's `Join` frame.
    pub nonce: u64,
    /// Spawn-time device profile. Latency math uses these f64 fields
    /// directly; the f32 [`ResourceEstimate`] that crossed the wire is
    /// informational (an f32 round-trip would perturb simulated latencies).
    pub profile: DeviceProfile,
    /// Training-set size (from the wire resource estimate, exact in u32).
    pub n_train: usize,
    /// Most recent local loss (enrollment probe, round update, or
    /// heartbeat ack).
    pub last_loss: Option<f32>,
    /// Rounds this client's update was admitted to the global model.
    pub participation_count: usize,
    pub liveness: Liveness,
    /// Consecutive missed heartbeat probes.
    pub missed_heartbeats: u32,
}

/// Registry of every client that ever joined: `Vec`s indexed by id. Ids
/// are dense and never reused; departed clients stay as `Left`
/// tombstones.
#[derive(Debug, Default)]
pub struct ClientRegistry {
    entries: Vec<ClientEntry>,
    /// Each client's `Join` payload, beside `entries` rather than inside
    /// them: only re-clustering and snapshots read it, so the passes over
    /// `entries` that every round makes do not stream it.
    joins: Vec<JoinPayload>,
}

/// What a client's `Join` carried that no per-round pass reads.
#[derive(Debug, Clone)]
struct JoinPayload {
    /// Data summary, kept for §IV-C re-clustering (replaced by each
    /// `SummaryUpdate`).
    summary: WireSummary,
    /// The resource estimate exactly as received off the wire.
    resources: ResourceEstimate,
}

impl ClientRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients ever enrolled (including `Left` tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a processed `Join`: the client's entry plus the summary and
    /// resource estimate the frame carried. The entry starts `Alive`: the
    /// frame itself is evidence of liveness.
    pub fn enroll(
        &mut self,
        mut entry: ClientEntry,
        summary: WireSummary,
        resources: ResourceEstimate,
    ) -> usize {
        assert_eq!(entry.id, self.entries.len(), "registry ids must be dense");
        entry.liveness = Liveness::Alive;
        entry.missed_heartbeats = 0;
        let id = entry.id;
        self.entries.push(entry);
        self.joins.push(JoinPayload { summary, resources });
        id
    }

    pub fn get(&self, id: usize) -> &ClientEntry {
        &self.entries[id]
    }

    pub fn get_mut(&mut self, id: usize) -> &mut ClientEntry {
        &mut self.entries[id]
    }

    pub fn entries(&self) -> &[ClientEntry] {
        &self.entries
    }

    /// Client `id`'s current data summary: its `Join`'s, or the latest
    /// `SummaryUpdate` processed before it left.
    pub fn summary(&self, id: usize) -> &WireSummary {
        &self.joins[id].summary
    }

    /// The resource estimate client `id`'s `Join` carried.
    pub fn resources(&self, id: usize) -> &ResourceEstimate {
        &self.joins[id].resources
    }

    /// Ids the coordinator still probes: everyone not `Left`, ascending.
    pub fn probed_ids(&self) -> Vec<usize> {
        self.entries.iter().filter(|e| e.liveness != Liveness::Left).map(|e| e.id).collect()
    }

    /// The schedulable pool for `epoch`: `Alive` ∧ available, ascending —
    /// the coordinator's analogue of
    /// [`Availability::available_clients`](haccs_sysmodel::Availability),
    /// drawing the epoch's availability once.
    pub fn selectable(&self, epoch: usize, availability: &Availability) -> Vec<usize> {
        let available = availability.at_epoch(epoch);
        self.entries
            .iter()
            .filter(|e| e.liveness == Liveness::Alive && available.is_available(e.id))
            .map(|e| e.id)
            .collect()
    }

    /// `(id, summary)` pairs for every non-departed client — the input to
    /// the §IV-C re-clustering hook. `Suspected` clients are included:
    /// they may ack their way back into the pool and must stay clustered.
    pub fn member_summaries(&self) -> Vec<(usize, WireSummary)> {
        self.entries
            .iter()
            .filter(|e| e.liveness != Liveness::Left)
            .map(|e| (e.id, self.joins[e.id].summary.clone()))
            .collect()
    }

    /// A heartbeat ack arrived: the miss streak resets and a `Suspected`
    /// client is restored to `Alive`.
    pub fn observe_heartbeat(&mut self, id: usize, last_loss: f32) {
        let e = &mut self.entries[id];
        if e.liveness == Liveness::Left {
            return;
        }
        e.missed_heartbeats = 0;
        e.liveness = Liveness::Alive;
        e.last_loss = Some(last_loss);
    }

    /// A probe went unanswered (silent client or ack lost on the wire).
    /// Returns the verdict the policy assigns to the new miss streak.
    pub fn observe_miss(&mut self, id: usize, policy: &HeartbeatPolicy) -> LivenessVerdict {
        let e = &mut self.entries[id];
        if e.liveness == Liveness::Left {
            return LivenessVerdict::Evicted;
        }
        e.missed_heartbeats += 1;
        let verdict = policy.classify(e.missed_heartbeats);
        e.liveness = match verdict {
            LivenessVerdict::Alive => e.liveness,
            LivenessVerdict::Suspected => Liveness::Suspected,
            LivenessVerdict::Evicted => Liveness::Left,
        };
        verdict
    }

    /// A graceful `Leave` frame was processed.
    pub fn observe_leave(&mut self, id: usize) {
        self.entries[id].liveness = Liveness::Left;
    }

    /// A `SummaryUpdate` frame was processed: the client's local data
    /// drifted (§IV-C) and it shipped a fresh summary. Departed clients
    /// are ignored (a late frame can race a `Leave`).
    pub fn observe_summary_update(&mut self, id: usize, summary: WireSummary) {
        if self.entries[id].liveness == Liveness::Left {
            return;
        }
        self.joins[id].summary = summary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize) -> ClientEntry {
        ClientEntry {
            id,
            nonce: 0xABC0 + id as u64,
            profile: DeviceProfile::uniform_fast(),
            n_train: 100,
            last_loss: None,
            participation_count: 0,
            liveness: Liveness::Joined,
            missed_heartbeats: 0,
        }
    }

    fn summary(x: f32) -> WireSummary {
        WireSummary { histograms: vec![vec![x]], prevalence: vec![] }
    }

    fn resources() -> ResourceEstimate {
        ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 100.0,
            rtt_ms: 20.0,
            n_train: 100,
        }
    }

    /// Enrolls `entry(id)` with the `Join` payload the tests share.
    fn enroll(r: &mut ClientRegistry, id: usize) -> usize {
        r.enroll(entry(id), summary(1.0), resources())
    }

    #[test]
    fn enroll_marks_alive_and_keeps_the_nonce() {
        let mut r = ClientRegistry::new();
        let id = enroll(&mut r, 0);
        assert_eq!(id, 0);
        assert_eq!(r.get(0).liveness, Liveness::Alive);
        assert_eq!(r.get(0).nonce, 0xABC0);
        assert_eq!(r.summary(0), &summary(1.0));
        assert_eq!(r.resources(0), &resources());
    }

    #[test]
    fn entries_hold_only_the_per_round_fields() {
        assert!(std::mem::size_of::<ClientEntry>() <= 80);
    }

    #[test]
    fn summary_follows_updates_until_the_client_leaves() {
        let mut r = ClientRegistry::new();
        for id in 0..3 {
            enroll(&mut r, id);
        }
        r.observe_summary_update(1, summary(2.0));
        assert_eq!(r.summary(1), &summary(2.0));
        assert_eq!(r.summary(0), &summary(1.0), "an update touches only its own client");
        let members = r.member_summaries();
        assert_eq!(members, [(0, summary(1.0)), (1, summary(2.0)), (2, summary(1.0))]);

        // once Left, a late update is ignored and the member list drops it
        r.observe_leave(1);
        r.observe_summary_update(1, summary(3.0));
        assert_eq!(r.summary(1), &summary(2.0));
        let members = r.member_summaries();
        assert_eq!(members, [(0, summary(1.0)), (2, summary(1.0))]);
    }

    #[test]
    fn miss_streak_walks_suspected_then_left_and_ack_recovers() {
        let mut r = ClientRegistry::new();
        enroll(&mut r, 0);
        let p = HeartbeatPolicy::new(1, 2, 4);
        assert_eq!(r.observe_miss(0, &p), LivenessVerdict::Alive);
        assert_eq!(r.observe_miss(0, &p), LivenessVerdict::Suspected);
        assert_eq!(r.get(0).liveness, Liveness::Suspected);
        // ack restores Alive and resets the streak
        r.observe_heartbeat(0, 0.5);
        assert_eq!(r.get(0).liveness, Liveness::Alive);
        assert_eq!(r.get(0).missed_heartbeats, 0);
        assert_eq!(r.get(0).last_loss, Some(0.5));
        for _ in 0..4 {
            r.observe_miss(0, &p);
        }
        assert_eq!(r.get(0).liveness, Liveness::Left);
        // Left is permanent: a late ack no longer resurrects the client
        r.observe_heartbeat(0, 0.1);
        assert_eq!(r.get(0).liveness, Liveness::Left);
    }

    #[test]
    fn selectable_excludes_suspected_and_left_but_probes_suspected() {
        let mut r = ClientRegistry::new();
        for id in 0..3 {
            enroll(&mut r, id);
        }
        let p = HeartbeatPolicy::new(1, 1, 3);
        r.observe_miss(1, &p); // -> Suspected
        r.observe_leave(2);
        let avail = Availability::AlwaysOn;
        assert_eq!(r.selectable(0, &avail), [0]);
        assert_eq!(r.probed_ids(), [0, 1]);
        let members: Vec<usize> = r.member_summaries().iter().map(|(id, _)| *id).collect();
        assert_eq!(members, [0, 1]);
    }
}
