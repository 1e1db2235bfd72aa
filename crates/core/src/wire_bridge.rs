//! Lossless conversion between the in-memory summary types
//! ([`haccs_summary::ClientSummary`]) and their wire representation
//! ([`haccs_wire::WireSummary`]), plus the §IV-C re-clustering entry point
//! the coordinator calls when membership changes.
//!
//! The encoding rule mirrors the protocol docs: a `P(y)` summary is one
//! histogram with an **empty** prevalence vector; a `P(X|y)` summary is
//! one histogram per class (absent classes send all-zero bins) plus the
//! prevalence vector. Bins cross the wire already normalized and are
//! rehydrated verbatim ([`haccs_summary::Histogram::from_normalized`]),
//! so `from_wire(to_wire(s)) == s` bit-for-bit — the §IV-A Hellinger
//! distances computed server-side from wire summaries equal the ones
//! computed from the originals.

use crate::clusters::{build_clusters, ExtractionMethod};
use haccs_summary::{ClientSummary, Histogram, Summarizer, SummaryKind};
use haccs_wire::WireSummary;

/// Encodes a summary for the wire.
pub fn summary_to_wire(summary: &ClientSummary) -> WireSummary {
    match summary {
        ClientSummary::LabelDist(h) => {
            WireSummary { histograms: vec![h.bins().to_vec()], prevalence: Vec::new() }
        }
        ClientSummary::CondDist { hists, prevalence } => WireSummary {
            histograms: hists.iter().map(|h| h.bins().to_vec()).collect(),
            prevalence: prevalence.clone(),
        },
    }
}

/// Checks a summary received off the wire against the shape `summarizer`
/// produces over `classes` labels — `P(y)`: one histogram of `classes`
/// bins and an empty prevalence; `P(X|y)`: `classes` histograms of
/// `pixel_bins` bins and a prevalence of length `classes` — with every
/// bin and prevalence entry finite and ≥ 0. A summary that passes is safe
/// for [`summary_from_wire`] and the summary distances, which assert
/// exactly this; the error says what failed.
pub fn check_wire_summary(
    wire: &WireSummary,
    summarizer: &Summarizer,
    classes: usize,
) -> Result<(), String> {
    let (hists, bins, prevalence) = match summarizer.kind {
        SummaryKind::LabelDistribution => (1, classes, 0),
        SummaryKind::ConditionalDistribution => (classes, summarizer.pixel_bins, classes),
    };
    if wire.histograms.len() != hists || wire.prevalence.len() != prevalence {
        return Err(format!(
            "summary has {} histograms and {} prevalence entries, expected {hists} and {prevalence}",
            wire.histograms.len(),
            wire.prevalence.len()
        ));
    }
    if let Some(h) = wire.histograms.iter().find(|h| h.len() != bins) {
        return Err(format!("summary histogram has {} bins, expected {bins}", h.len()));
    }
    if !wire.histograms.iter().flatten().chain(&wire.prevalence).all(|&b| b.is_finite() && b >= 0.0)
    {
        return Err("summary bin is not finite and ≥ 0".into());
    }
    Ok(())
}

/// Rehydrates a summary received off the wire. An empty prevalence vector
/// marks a `P(y)` summary (which must then carry exactly one histogram);
/// anything else is `P(X|y)` with one histogram per class.
pub fn summary_from_wire(wire: &WireSummary) -> ClientSummary {
    if wire.prevalence.is_empty() {
        assert_eq!(wire.histograms.len(), 1, "P(y) summary must carry exactly one histogram");
        ClientSummary::LabelDist(Histogram::from_normalized(wire.histograms[0].clone()))
    } else {
        assert_eq!(
            wire.histograms.len(),
            wire.prevalence.len(),
            "P(X|y) summary needs one histogram per class"
        );
        ClientSummary::CondDist {
            hists: wire
                .histograms
                .iter()
                .map(|bins| Histogram::from_normalized(bins.clone()))
                .collect(),
            prevalence: wire.prevalence.clone(),
        }
    }
}

/// The §IV-C re-clustering hook, wire edition: clusters the summaries the
/// coordinator's registry holds (as received in `Join`/`SummaryUpdate`
/// frames) and returns schedulable groups of **client ids**. `entries`
/// need not be contiguous or sorted — ids index the live registry, and
/// cluster-local indices are mapped back before returning.
pub fn cluster_wire_summaries(
    summarizer: &Summarizer,
    entries: &[(usize, WireSummary)],
    min_pts: usize,
    extraction: ExtractionMethod,
) -> Vec<Vec<usize>> {
    if entries.is_empty() {
        return Vec::new();
    }
    let summaries: Vec<ClientSummary> = entries.iter().map(|(_, w)| summary_from_wire(w)).collect();
    let (_, groups) = build_clusters(summarizer, &summaries, min_pts, extraction);
    groups.into_iter().map(|g| g.into_iter().map(|local| entries[local].0).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_data::{partition, FederatedDataset, SynthVision};

    fn label_summary(bins: &[f32]) -> ClientSummary {
        ClientSummary::LabelDist(Histogram::from_normalized(bins.to_vec()))
    }

    #[test]
    fn label_dist_roundtrips_bit_for_bit() {
        // 1/3 is not exactly representable; from_counts would re-normalize
        // and perturb it, from_normalized must not
        let s = label_summary(&[1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0]);
        let w = summary_to_wire(&s);
        assert!(w.prevalence.is_empty());
        assert_eq!(summary_from_wire(&w), s);
    }

    #[test]
    fn cond_dist_roundtrips_with_null_classes() {
        let s = ClientSummary::CondDist {
            hists: vec![
                Histogram::from_normalized(vec![0.25, 0.75]),
                Histogram::from_normalized(vec![0.0, 0.0]), // absent class
            ],
            prevalence: vec![1.0, 0.0],
        };
        let w = summary_to_wire(&s);
        assert_eq!(w.histograms.len(), 2);
        assert_eq!(summary_from_wire(&w), s);
    }

    #[test]
    fn roundtrip_preserves_distances() {
        let s = Summarizer::label_dist();
        let a = label_summary(&[0.7, 0.3, 0.0]);
        let b = label_summary(&[0.1, 0.2, 0.7]);
        let a2 = summary_from_wire(&summary_to_wire(&a));
        let b2 = summary_from_wire(&summary_to_wire(&b));
        assert_eq!(s.distance_between(&a, &b), s.distance_between(&a2, &b2));
    }

    #[test]
    fn wire_clustering_maps_back_to_client_ids() {
        // 2 groups of 3 clients with disjoint labels; registry ids are
        // deliberately sparse and unsorted
        let gen = SynthVision::mnist_like(4, 8, 0);
        let mut specs = Vec::new();
        for g in 0..2 {
            for _ in 0..3 {
                let mut w = vec![0.0f32; 4];
                w[2 * g] = 0.5;
                w[2 * g + 1] = 0.5;
                specs.push(partition::ClientSpec {
                    label_weights: w,
                    n_train: 120,
                    n_test: 0,
                    rotation_deg: 0.0,
                    brightness: 0.0,
                    contrast: 1.0,
                    group: Some(g),
                });
            }
        }
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        let s = Summarizer::label_dist();
        let sums = crate::clusters::summarize_federation(&fed, &s, 0);
        let ids = [10usize, 3, 7, 22, 14, 9]; // first three = group 0
        let entries: Vec<(usize, WireSummary)> =
            ids.iter().zip(&sums).map(|(&id, sum)| (id, summary_to_wire(sum))).collect();
        let groups = cluster_wire_summaries(&s, &entries, 2, ExtractionMethod::Auto);
        assert_eq!(groups.len(), 2, "groups: {groups:?}");
        let mut flat: Vec<usize> = groups.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = ids.to_vec();
        want.sort_unstable();
        assert_eq!(flat, want, "every id schedulable exactly once");
        for grp in &groups {
            let g0 = grp.iter().filter(|id| [10, 3, 7].contains(id)).count();
            assert!(g0 == 0 || g0 == grp.len(), "mixed ground-truth groups: {groups:?}");
        }
    }

    #[test]
    fn check_passes_what_a_summarizer_sends_and_names_what_it_refuses() {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(3, 4, 40, 0), 0);
        let (py, pxy) = (Summarizer::label_dist(), Summarizer::cond_dist(8));
        for s in [py, pxy, pxy.with_epsilon(0.5)] {
            for sum in crate::clusters::summarize_federation(&fed, &s, 0) {
                assert_eq!(check_wire_summary(&summary_to_wire(&sum), &s, 4), Ok(()));
            }
        }
        let refused = |w: &WireSummary, s: &Summarizer| check_wire_summary(w, s, 4).unwrap_err();
        let mut w = summary_to_wire(&crate::clusters::summarize_federation(&fed, &pxy, 0)[0]);
        assert!(refused(&w, &py).contains("has 4 histograms and 4 prevalence entries"));
        w.histograms[3].pop();
        assert!(refused(&w, &pxy).contains("has 7 bins, expected 8"));
        w.histograms[3].push(0.0);
        w.prevalence[1] = -0.25;
        assert!(refused(&w, &pxy).contains("not finite and ≥ 0"));
    }

    #[test]
    fn empty_registry_clusters_to_nothing() {
        let s = Summarizer::label_dist();
        assert!(cluster_wire_summaries(&s, &[], 2, ExtractionMethod::Auto).is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly one histogram")]
    fn malformed_py_summary_rejected() {
        summary_from_wire(&WireSummary {
            histograms: vec![vec![0.5, 0.5], vec![1.0]],
            prevalence: vec![],
        });
    }
}
