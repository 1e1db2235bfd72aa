//! Heartbeat-driven liveness policy: when does a silent client become
//! *suspected*, and when is it *evicted*?
//!
//! The coordinator (`haccs-coord`) probes every enrolled client once per
//! round on the simulated clock and counts consecutive missed acks per
//! client. This module holds only the **policy** — the thresholds that
//! map a miss streak onto a [`LivenessVerdict`] — so the rules are
//! testable without running a federation, and so the engine-side
//! simulation and the message-driven coordinator agree on them.

/// Liveness thresholds, counted in consecutive missed heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatPolicy {
    /// Consecutive misses after which a client is *suspected*: excluded
    /// from the schedulable pool but still probed, so one ack restores it.
    pub suspect_after_misses: u32,
    /// Consecutive misses after which a client is *evicted* (treated as
    /// departed without an orderly `Leave`).
    pub evict_after_misses: u32,
}

/// What a miss streak means under a [`HeartbeatPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// Streak below the suspicion threshold: the client stays schedulable.
    Alive,
    /// Suspected: out of the pool, probing continues.
    Suspected,
    /// Evicted: treated as left.
    Evicted,
}

impl HeartbeatPolicy {
    /// A policy with explicit thresholds.
    pub fn new(suspect_after_misses: u32, evict_after_misses: u32) -> Self {
        assert!(suspect_after_misses >= 1, "suspicion threshold must be >= 1 miss");
        assert!(
            evict_after_misses >= suspect_after_misses,
            "eviction cannot precede suspicion ({evict_after_misses} < {suspect_after_misses})"
        );
        HeartbeatPolicy { suspect_after_misses, evict_after_misses }
    }

    /// Classifies a streak of `consecutive_misses` missed heartbeats.
    pub fn classify(&self, consecutive_misses: u32) -> LivenessVerdict {
        if consecutive_misses >= self.evict_after_misses {
            LivenessVerdict::Evicted
        } else if consecutive_misses >= self.suspect_after_misses {
            LivenessVerdict::Suspected
        } else {
            LivenessVerdict::Alive
        }
    }
}

impl Default for HeartbeatPolicy {
    /// Suspect after 2 misses, evict after 5.
    fn default() -> Self {
        HeartbeatPolicy::new(2, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_classify_in_order() {
        let p = HeartbeatPolicy::default();
        assert_eq!(p.classify(0), LivenessVerdict::Alive);
        assert_eq!(p.classify(1), LivenessVerdict::Alive);
        assert_eq!(p.classify(2), LivenessVerdict::Suspected);
        assert_eq!(p.classify(4), LivenessVerdict::Suspected);
        assert_eq!(p.classify(5), LivenessVerdict::Evicted);
        assert_eq!(p.classify(100), LivenessVerdict::Evicted);
    }

    #[test]
    fn one_ack_resets_the_streak_semantics() {
        // classify is memoryless: a streak of 0 after an ack is Alive even
        // if the client was Suspected before
        let p = HeartbeatPolicy::new(2, 5);
        assert_eq!(p.classify(3), LivenessVerdict::Suspected);
        assert_eq!(p.classify(0), LivenessVerdict::Alive);
    }

    #[test]
    #[should_panic(expected = "eviction cannot precede suspicion")]
    fn inverted_thresholds_rejected() {
        HeartbeatPolicy::new(5, 2);
    }
}
