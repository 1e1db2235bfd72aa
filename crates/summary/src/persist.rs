//! Snapshot (de)serialization for [`ClientSummary`] values, following the
//! `haccs-persist` codec conventions (explicit lengths, IEEE-754 bit
//! patterns — see DESIGN.md §10).
//!
//! Histograms are rehydrated through [`Histogram::from_normalized`], which
//! stores the bins verbatim, so a summary survives a snapshot round trip
//! bit-for-bit — the property the resume-parity suite depends on, since
//! cluster distances are pure functions of the summary bins.

use crate::hist::Histogram;
use crate::summarizer::ClientSummary;
use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};

/// Validates snapshot-sourced bins before handing them to the asserting
/// [`Histogram::from_normalized`]: a malformed snapshot must surface as a
/// [`PersistError`], not a panic.
fn histogram_from_snapshot(bins: Vec<f32>) -> Result<Histogram, PersistError> {
    if bins.is_empty() {
        return Err(PersistError::Malformed("histogram with zero bins".into()));
    }
    if bins.iter().any(|&b| !b.is_finite() || b < 0.0) {
        return Err(PersistError::Malformed("histogram bin not finite and ≥ 0".into()));
    }
    Ok(Histogram::from_normalized(bins))
}

impl ClientSummary {
    /// Appends this summary to a snapshot payload (tag byte + bins).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        match self {
            ClientSummary::LabelDist(h) => {
                w.put_u8(0);
                w.put_f32s(h.bins());
            }
            ClientSummary::CondDist { hists, prevalence } => {
                w.put_u8(1);
                w.put_usize(hists.len());
                for h in hists {
                    w.put_f32s(h.bins());
                }
                w.put_f32s(prevalence);
            }
        }
    }

    /// Reads back what [`ClientSummary::save_state`] wrote.
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(ClientSummary::LabelDist(histogram_from_snapshot(r.get_f32s()?)?)),
            1 => {
                let n = r.get_usize()?;
                let mut hists = Vec::with_capacity(r.capacity_for::<Histogram>(n));
                for _ in 0..n {
                    hists.push(histogram_from_snapshot(r.get_f32s()?)?);
                }
                let prevalence = r.get_f32s()?;
                if prevalence.len() != n {
                    return Err(PersistError::Malformed(
                        "prevalence length differs from class count".into(),
                    ));
                }
                Ok(ClientSummary::CondDist { hists, prevalence })
            }
            t => Err(PersistError::Malformed(format!("unknown summary tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_summary_round_trips_bit_exactly() {
        // 1/3 is not exactly representable: from_counts-normalized bins
        // must come back verbatim, not re-normalized
        let s = ClientSummary::LabelDist(Histogram::from_counts(&[1.0, 1.0, 1.0]));
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let back = ClientSummary::load_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn cond_summary_round_trips_with_null_classes() {
        let s = ClientSummary::CondDist {
            hists: vec![
                Histogram::from_counts(&[3.0, 1.0]),
                Histogram::from_counts(&[0.0, 0.0]), // absent class: null hist
            ],
            prevalence: vec![1.0, 0.0],
        };
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(ClientSummary::load_state(&mut r).unwrap(), s);
    }

    #[test]
    fn bad_tag_and_bad_bins_are_errors_not_panics() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(ClientSummary::load_state(&mut r), Err(PersistError::Malformed(_))));

        let mut w = SnapshotWriter::new();
        w.put_u8(0);
        w.put_f32s(&[0.5, f32::NAN]);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(ClientSummary::load_state(&mut r), Err(PersistError::Malformed(_))));
    }
}
