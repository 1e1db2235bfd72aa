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

use crate::shard::shard_of;
use haccs_sysmodel::{Availability, DeviceProfile, HeartbeatPolicy, LivenessVerdict};
use haccs_wire::{ResourceEstimate, WireSummary};
use std::collections::HashMap;

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

/// Server-side record for one enrolled client.
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
    /// The resource estimate exactly as received off the wire.
    pub resources: ResourceEstimate,
    /// Data summary from the `Join` frame, kept for §IV-C re-clustering.
    pub summary: WireSummary,
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

/// Registry of every client that ever joined. Ids are dense and never
/// reused; departed clients stay as `Left` tombstones.
#[derive(Debug, Default)]
pub struct ClientRegistry {
    entries: Vec<ClientEntry>,
    by_nonce: HashMap<u64, usize>,
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

    /// Reserves the next registry id for a spawning agent.
    pub fn next_id(&self) -> usize {
        self.entries.len()
    }

    /// Records a processed `Join`. The entry starts `Alive`: the frame
    /// itself is evidence of liveness.
    pub fn enroll(&mut self, mut entry: ClientEntry) -> usize {
        assert_eq!(entry.id, self.entries.len(), "registry ids must be dense");
        entry.liveness = Liveness::Alive;
        entry.missed_heartbeats = 0;
        self.by_nonce.insert(entry.nonce, entry.id);
        let id = entry.id;
        self.entries.push(entry);
        id
    }

    pub fn get(&self, id: usize) -> &ClientEntry {
        &self.entries[id]
    }

    pub fn get_mut(&mut self, id: usize) -> &mut ClientEntry {
        &mut self.entries[id]
    }

    pub fn nonce_to_id(&self, nonce: u64) -> Option<usize> {
        self.by_nonce.get(&nonce).copied()
    }

    pub fn entries(&self) -> &[ClientEntry] {
        &self.entries
    }

    /// Ids the coordinator still probes: everyone not `Left`, ascending.
    pub fn probed_ids(&self) -> Vec<usize> {
        self.entries.iter().filter(|e| e.liveness != Liveness::Left).map(|e| e.id).collect()
    }

    /// The schedulable pool for `epoch`: `Alive` ∧ available, ascending —
    /// the coordinator's analogue of
    /// [`Availability::available_clients`](haccs_sysmodel::Availability).
    pub fn selectable(&self, epoch: usize, availability: &Availability) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|e| e.liveness == Liveness::Alive && availability.is_available(e.id, epoch))
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
            .map(|e| (e.id, e.summary.clone()))
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
        let e = &mut self.entries[id];
        if e.liveness == Liveness::Left {
            return;
        }
        e.summary = summary;
    }
}

/// The sharded client registry: entries are partitioned across
/// [`shard_of`]-hashed shards so per-shard sweeps and partial aggregation
/// touch only their own slice, while a global id → `(shard, slot)`
/// locator keeps `get` O(1) and id-ordered iteration cheap.
///
/// Behavioural contract: every query that [`ClientRegistry`] answers in
/// ascending-id order ([`Self::probed_ids`], [`Self::selectable`],
/// [`Self::member_summaries`]) is answered identically here — the shard
/// layout is invisible to the protocol, which is what keeps the sharded
/// coordinator core bit-identical to the flat one (pinned by the shard
/// routing proptests).
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Vec<ClientEntry>>,
    /// id → (shard, slot within shard); ids are dense and never reused.
    locator: Vec<(u32, u32)>,
    by_nonce: HashMap<u64, usize>,
}

impl ShardedRegistry {
    /// An empty registry partitioned into `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        ShardedRegistry {
            shards: (0..n_shards).map(|_| Vec::new()).collect(),
            locator: Vec::new(),
            by_nonce: HashMap::new(),
        }
    }

    /// Number of shards the id space is hashed across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard client `id` hashes to.
    pub fn shard_for(&self, id: usize) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Number of clients ever enrolled (including `Left` tombstones).
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// Reserves the next registry id for a spawning agent.
    pub fn next_id(&self) -> usize {
        self.locator.len()
    }

    /// Records a processed `Join` into the entry's hash shard. The entry
    /// starts `Alive`, exactly like [`ClientRegistry::enroll`].
    pub fn enroll(&mut self, mut entry: ClientEntry) -> usize {
        assert_eq!(entry.id, self.locator.len(), "registry ids must be dense");
        entry.liveness = Liveness::Alive;
        entry.missed_heartbeats = 0;
        self.by_nonce.insert(entry.nonce, entry.id);
        let id = entry.id;
        let shard = shard_of(id, self.shards.len());
        let slot = self.shards[shard].len();
        self.locator.push((shard as u32, slot as u32));
        self.shards[shard].push(entry);
        id
    }

    pub fn get(&self, id: usize) -> &ClientEntry {
        let (shard, slot) = self.locator[id];
        &self.shards[shard as usize][slot as usize]
    }

    pub fn get_mut(&mut self, id: usize) -> &mut ClientEntry {
        let (shard, slot) = self.locator[id];
        &mut self.shards[shard as usize][slot as usize]
    }

    pub fn nonce_to_id(&self, nonce: u64) -> Option<usize> {
        self.by_nonce.get(&nonce).copied()
    }

    /// Entries in ascending id order (crossing shards via the locator).
    pub fn entries(&self) -> Vec<&ClientEntry> {
        (0..self.len()).map(|id| self.get(id)).collect()
    }

    /// Entries of one shard, ascending id order within the shard.
    pub fn shard_entries(&self, shard: usize) -> &[ClientEntry] {
        &self.shards[shard]
    }

    /// Ids the coordinator still probes: everyone not `Left`, ascending.
    pub fn probed_ids(&self) -> Vec<usize> {
        (0..self.len()).filter(|&id| self.get(id).liveness != Liveness::Left).collect()
    }

    /// Ids still probed within the shards `probes_shard` selects,
    /// ascending: one walk over the id locator, with no per-shard gather
    /// to re-sort.
    pub fn probed_ids_in_shards(&self, probes_shard: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..self.len())
            .filter(|&id| {
                let (shard, slot) = self.locator[id];
                probes_shard(shard as usize)
                    && self.shards[shard as usize][slot as usize].liveness != Liveness::Left
            })
            .collect()
    }

    /// The schedulable pool for `epoch`, ascending — identical to
    /// [`ClientRegistry::selectable`].
    pub fn selectable(&self, epoch: usize, availability: &Availability) -> Vec<usize> {
        (0..self.len())
            .filter(|&id| {
                let e = self.get(id);
                e.liveness == Liveness::Alive && availability.is_available(id, epoch)
            })
            .collect()
    }

    /// `(id, summary)` pairs for every non-departed client, ascending.
    pub fn member_summaries(&self) -> Vec<(usize, WireSummary)> {
        (0..self.len())
            .filter(|&id| self.get(id).liveness != Liveness::Left)
            .map(|id| (id, self.get(id).summary.clone()))
            .collect()
    }

    /// A heartbeat ack arrived — same transition as
    /// [`ClientRegistry::observe_heartbeat`].
    pub fn observe_heartbeat(&mut self, id: usize, last_loss: f32) {
        let e = self.get_mut(id);
        if e.liveness == Liveness::Left {
            return;
        }
        e.missed_heartbeats = 0;
        e.liveness = Liveness::Alive;
        e.last_loss = Some(last_loss);
    }

    /// A probe went unanswered — same transition as
    /// [`ClientRegistry::observe_miss`].
    pub fn observe_miss(&mut self, id: usize, policy: &HeartbeatPolicy) -> LivenessVerdict {
        let e = self.get_mut(id);
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
        self.get_mut(id).liveness = Liveness::Left;
    }

    /// A `SummaryUpdate` frame was processed — same semantics as
    /// [`ClientRegistry::observe_summary_update`].
    pub fn observe_summary_update(&mut self, id: usize, summary: WireSummary) {
        let e = self.get_mut(id);
        if e.liveness == Liveness::Left {
            return;
        }
        e.summary = summary;
    }
}

/// The coordinator's registry, erased over its backing layout: the legacy
/// threaded runtime keeps the flat [`ClientRegistry`] (the parity
/// reference), the sharded event-loop core a [`ShardedRegistry`]. Every
/// method answers identically on both — the shard routing proptests pin
/// this — so callers never see which layout is underneath.
#[derive(Debug)]
pub enum Registry {
    /// Flat single-vector layout (legacy threaded runtime).
    Flat(ClientRegistry),
    /// Hash-sharded layout (event-loop core).
    Sharded(ShardedRegistry),
}

macro_rules! delegate {
    ($self:ident, $r:ident => $body:expr) => {
        match $self {
            Registry::Flat($r) => $body,
            Registry::Sharded($r) => $body,
        }
    };
}

impl Registry {
    /// Number of clients ever enrolled (including `Left` tombstones).
    pub fn len(&self) -> usize {
        delegate!(self, r => r.len())
    }

    pub fn is_empty(&self) -> bool {
        delegate!(self, r => r.is_empty())
    }

    /// Reserves the next registry id for a spawning agent.
    pub fn next_id(&self) -> usize {
        delegate!(self, r => r.next_id())
    }

    /// Records a processed `Join`; see [`ClientRegistry::enroll`].
    pub fn enroll(&mut self, entry: ClientEntry) -> usize {
        delegate!(self, r => r.enroll(entry))
    }

    pub fn get(&self, id: usize) -> &ClientEntry {
        delegate!(self, r => r.get(id))
    }

    pub fn get_mut(&mut self, id: usize) -> &mut ClientEntry {
        delegate!(self, r => r.get_mut(id))
    }

    pub fn nonce_to_id(&self, nonce: u64) -> Option<usize> {
        delegate!(self, r => r.nonce_to_id(nonce))
    }

    /// Every entry in ascending id order.
    pub fn entries(&self) -> Vec<&ClientEntry> {
        match self {
            Registry::Flat(r) => r.entries().iter().collect(),
            Registry::Sharded(r) => r.entries(),
        }
    }

    /// Shard count of the backing layout (1 for the flat registry).
    pub fn shard_count(&self) -> usize {
        match self {
            Registry::Flat(_) => 1,
            Registry::Sharded(r) => r.shard_count(),
        }
    }

    /// Ids the coordinator still probes: everyone not `Left`, ascending.
    pub fn probed_ids(&self) -> Vec<usize> {
        delegate!(self, r => r.probed_ids())
    }

    /// The schedulable pool for `epoch`: `Alive` ∧ available, ascending.
    pub fn selectable(&self, epoch: usize, availability: &Availability) -> Vec<usize> {
        delegate!(self, r => r.selectable(epoch, availability))
    }

    /// `(id, summary)` pairs for every non-departed client.
    pub fn member_summaries(&self) -> Vec<(usize, WireSummary)> {
        delegate!(self, r => r.member_summaries())
    }

    /// See [`ClientRegistry::observe_heartbeat`].
    pub fn observe_heartbeat(&mut self, id: usize, last_loss: f32) {
        delegate!(self, r => r.observe_heartbeat(id, last_loss))
    }

    /// See [`ClientRegistry::observe_miss`].
    pub fn observe_miss(&mut self, id: usize, policy: &HeartbeatPolicy) -> LivenessVerdict {
        delegate!(self, r => r.observe_miss(id, policy))
    }

    /// See [`ClientRegistry::observe_leave`].
    pub fn observe_leave(&mut self, id: usize) {
        delegate!(self, r => r.observe_leave(id))
    }

    /// See [`ClientRegistry::observe_summary_update`].
    pub fn observe_summary_update(&mut self, id: usize, summary: WireSummary) {
        delegate!(self, r => r.observe_summary_update(id, summary))
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
            resources: ResourceEstimate {
                compute_multiplier: 1.0,
                bandwidth_mbps: 100.0,
                rtt_ms: 20.0,
                n_train: 100,
            },
            summary: WireSummary { histograms: vec![vec![1.0]], prevalence: vec![] },
            n_train: 100,
            last_loss: None,
            participation_count: 0,
            liveness: Liveness::Joined,
            missed_heartbeats: 0,
        }
    }

    #[test]
    fn enroll_marks_alive_and_indexes_nonce() {
        let mut r = ClientRegistry::new();
        let id = r.enroll(entry(0));
        assert_eq!(id, 0);
        assert_eq!(r.get(0).liveness, Liveness::Alive);
        assert_eq!(r.nonce_to_id(0xABC0), Some(0));
        assert_eq!(r.nonce_to_id(0xDEAD), None);
    }

    #[test]
    fn miss_streak_walks_suspected_then_left_and_ack_recovers() {
        let mut r = ClientRegistry::new();
        r.enroll(entry(0));
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
    fn sharded_registry_answers_identically_to_flat() {
        let mut flat = ClientRegistry::new();
        let mut sharded = ShardedRegistry::new(4);
        for id in 0..13 {
            flat.enroll(entry(id));
            sharded.enroll(entry(id));
        }
        let p = HeartbeatPolicy::new(1, 1, 3);
        flat.observe_miss(3, &p);
        sharded.observe_miss(3, &p);
        flat.observe_leave(7);
        sharded.observe_leave(7);
        flat.observe_heartbeat(5, 0.25);
        sharded.observe_heartbeat(5, 0.25);

        assert_eq!(flat.len(), sharded.len());
        assert_eq!(flat.probed_ids(), sharded.probed_ids());
        let avail = Availability::AlwaysOn;
        assert_eq!(flat.selectable(0, &avail), sharded.selectable(0, &avail));
        let fm: Vec<usize> = flat.member_summaries().iter().map(|(id, _)| *id).collect();
        let sm: Vec<usize> = sharded.member_summaries().iter().map(|(id, _)| *id).collect();
        assert_eq!(fm, sm);
        for id in 0..13 {
            assert_eq!(flat.get(id).liveness, sharded.get(id).liveness, "client {id}");
            assert_eq!(flat.get(id).last_loss, sharded.get(id).last_loss);
        }
        // the shard-filtered walk covers exactly the selected shards, ascending
        assert_eq!(sharded.probed_ids_in_shards(|_| true), sharded.probed_ids());
        let odd: Vec<usize> =
            sharded.probed_ids().into_iter().filter(|&id| sharded.shard_for(id) % 2 == 1).collect();
        assert_eq!(sharded.probed_ids_in_shards(|s| s % 2 == 1), odd);
        for s in 0..sharded.shard_count() {
            for e in sharded.shard_entries(s) {
                assert_eq!(sharded.shard_for(e.id), s, "locator/shard mismatch for {}", e.id);
            }
        }
    }

    #[test]
    fn selectable_excludes_suspected_and_left_but_probes_suspected() {
        let mut r = ClientRegistry::new();
        for id in 0..3 {
            r.enroll(entry(id));
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
