//! Integration tests for the experiment harness: the cheap experiments run
//! end-to-end (the training-heavy figures are exercised by their release
//! benches and the `repro` binary; in debug they are too slow for CI).

use haccs::experiments::report::TableBlock;
use haccs::experiments::{fig3, fig8, Scale, ALL_EXPERIMENTS};
use haccs::obs::json::Json;

#[test]
fn all_experiment_ids_are_unique_and_known() {
    let mut ids = ALL_EXPERIMENTS.to_vec();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate experiment ids");
    for required in [
        "fig1", "fig3", "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10",
        "tab3", "fig11",
    ] {
        assert!(ALL_EXPERIMENTS.contains(&required), "{required} missing");
    }
}

#[test]
fn fig3_report_roundtrips_through_json() {
    let report = fig3::run(5);
    assert_eq!(report.id, "fig3");
    assert_eq!(report.series.len(), 3);
    let back = Json::parse(&report.to_json()).unwrap();
    let strs = |v: &Json| -> Vec<String> {
        v.as_arr().unwrap().iter().map(|s| s.as_str().unwrap().to_string()).collect()
    };
    assert_eq!(back.get("id").and_then(Json::as_str), Some(report.id.as_str()));
    let tables: Vec<TableBlock> = back
        .get("tables")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|t| TableBlock {
            title: t.get("title").and_then(Json::as_str).unwrap().to_string(),
            headers: strs(t.get("headers").unwrap()),
            rows: t.get("rows").and_then(Json::as_arr).unwrap().iter().map(strs).collect(),
        })
        .collect();
    assert_eq!(tables, report.tables);
    assert_eq!(strs(back.get("notes").unwrap()), report.notes);
    let series = back.get("series").and_then(Json::as_arr).unwrap();
    assert_eq!(series.len(), report.series.len());
    for (a, b) in series.iter().zip(&report.series) {
        assert_eq!(a.get("name").and_then(Json::as_str), Some(b.name.as_str()));
        let points = a.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), b.points.len());
        for (pa, pb) in points.iter().zip(&b.points) {
            // non-finite values serialize as null
            let xy: Vec<f64> =
                pa.as_arr().unwrap().iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect();
            let [x, y] = xy[..] else { panic!("a point is a pair, got {xy:?}") };
            // JSON float formatting may drift the last ulp of f64 values
            assert!((x - pb.0).abs() < 1e-12 && (y - pb.1).abs() < 1e-12);
        }
    }
    // rendered output mentions both epsilon levels
    let rendered = report.render();
    assert!(rendered.contains("0.1"));
    assert!(rendered.contains("0.005"));
}

#[test]
fn fig8a_cell_shows_privacy_tradeoff() {
    // one cheap cell each at weak and strong privacy
    let weak = fig8::clustering_accuracy_once(400, 5.0, Scale::Fast, 21);
    let strong_runs: Vec<f32> =
        (0..3).map(|t| fig8::clustering_accuracy_once(400, 0.001, Scale::Fast, 100 + t)).collect();
    let strong = strong_runs.iter().sum::<f32>() / 3.0;
    assert!(weak > 0.8, "weak privacy should cluster well: {weak}");
    assert!(strong < weak, "strong privacy should hurt: {strong} vs {weak}");
}

#[test]
fn reports_save_to_disk() {
    let dir = std::env::temp_dir().join("haccs-exp-test");
    let report = fig3::run(0);
    let path = report.save(&dir).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    assert!(content.contains("\"id\": \"fig3\""));
    std::fs::remove_file(path).unwrap();
}
