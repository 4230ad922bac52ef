//! The `merge` stage timer records one sample per assembled result.
//!
//! The stage histograms live in the process-wide registry, so this test
//! sits in its own integration-test binary: no concurrently running test
//! can add observations between the before and after reads.

use dangoron::{Dangoron, DangoronConfig, StreamingDangoron};
use obs::stages::Stage;
use sketch::SlidingQuery;
use tsdata::generators;

fn merge_count() -> u64 {
    // Registered eagerly by `global()`, so this retrieves the existing
    // histogram and the help argument is ignored.
    obs::stages::global()
        .histogram(Stage::Merge.metric_name(), "")
        .count()
}

#[test]
fn each_result_adds_exactly_one_merge_observation() {
    let x = generators::clustered_matrix(10, 400, 2, 0.5, 11).unwrap();
    let config = DangoronConfig {
        basic_window: 20,
        threads: 2,
        ..Default::default()
    };
    let query = SlidingQuery {
        start: 0,
        end: 400,
        window: 80,
        step: 20,
        threshold: 0.7,
    };

    let before = merge_count();
    let result = Dangoron::new(config.clone())
        .unwrap()
        .execute(&x, query)
        .unwrap();
    assert!(result.matrices.len() > 1 && result.total_edges() > 0);
    assert_eq!(merge_count(), before + 1, "one execute, one merge sample");

    let mut session =
        StreamingDangoron::new(x.slice_columns(0, 200).unwrap(), 80, 20, 0.7, config).unwrap();
    let before = merge_count();
    let drained = session.drain_completed().unwrap();
    assert!(drained.len() > 1);
    assert_eq!(merge_count(), before + 1, "one drain, one merge sample");

    let before = merge_count();
    let shared = session.query_shared(60, 20, 0.6).unwrap();
    assert!(shared.matrices.len() > 1);
    assert_eq!(
        merge_count(),
        before + 1,
        "one shared query, one merge sample"
    );
}
