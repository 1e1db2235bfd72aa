//! A baseline's saved selector state, tampered with and framed with a
//! valid checksum, must load or be refused: `load_state` may return `Ok`
//! or `Err`, and must never panic or abort on an allocation.

use haccs_baselines::{OortSelector, TiflSelector};
use haccs_fedsim::persist::{SnapshotReader, SnapshotWriter};
use haccs_fedsim::{ClientInfo, SelectionContext, Selector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fresh baseline that keeps state: Oort, then TiFL.
fn stateful(which: usize) -> Box<dyn Selector> {
    match which {
        0 => Box::new(OortSelector::new()),
        _ => Box::new(TiflSelector::new(3)),
    }
}

/// `s`'s saved state after `rounds` rounds over a 10-client pool, each
/// with loss feedback and one failed participant.
fn driven_state(s: &mut dyn Selector, rounds: usize) -> Vec<u8> {
    let pool: Vec<ClientInfo> = (0..10)
        .map(|id| ClientInfo {
            id,
            est_latency: 1.0 + id as f64,
            last_loss: 0.5 + id as f32 / 10.0,
            n_train: 10 + id,
            participation_count: 0,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    for epoch in 0..rounds {
        let ctx = SelectionContext { epoch, available: &pool, k: 3 };
        let picked = s.select(&ctx, &mut rng);
        let losses: Vec<f32> = picked.iter().map(|&id| 0.2 + id as f32 * 0.05).collect();
        s.observe_round(epoch, &picked, &losses);
        s.observe_faults(epoch, &picked[..1]);
    }
    let mut w = SnapshotWriter::new();
    s.save_state(&mut w);
    w.into_payload()
}

/// Every tampering of `payload` a load must survive, each framed with a
/// valid checksum so `load_state` reads every edit: `payload` with
/// `edits` applied, then with a maximal count written over each 8-byte
/// window in turn, and cut at each length.
fn tamperings(mut payload: Vec<u8>, edits: &[(usize, u8)]) -> Vec<Vec<u8>> {
    if !payload.is_empty() {
        for &(at, byte) in edits {
            let at = at % payload.len();
            payload[at] = byte;
        }
    }
    let counted = (0..payload.len().saturating_sub(7)).map(|at| {
        let mut p = payload.clone();
        p[at..at + 8].copy_from_slice(&(1u64 << 28).to_le_bytes());
        p
    });
    let cut = (0..=payload.len()).map(|keep| payload[..keep].to_vec());
    counted
        .chain(cut)
        .map(|p| {
            let mut w = SnapshotWriter::new();
            w.append_raw(&p);
            w.finish()
        })
        .collect()
}

proptest! {
    #[test]
    fn tampered_baseline_state_loads_or_fails_but_never_panics(
        random in proptest::collection::vec(any::<u8>(), 0..160),
        from_random in any::<bool>(),
        rounds in 1usize..5,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
    ) {
        for which in 0..2 {
            let payload = if from_random {
                random.clone()
            } else {
                driven_state(&mut *stateful(which), rounds)
            };
            for bytes in tamperings(payload, &edits) {
                let mut reader = SnapshotReader::open(&bytes).unwrap();
                let _ = stateful(which).load_state(&mut reader);
            }
        }
    }
}
