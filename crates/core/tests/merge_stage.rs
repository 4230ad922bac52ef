//! The stage timers record a fixed number of samples per entry point.
//!
//! The stage histograms live in the process-wide registry, so this test
//! sits in its own integration-test binary: no concurrently running test
//! can add observations between the before and after reads. The metric
//! names are API (`docs/metrics.md`), and so is which call feeds which
//! family: a drain must not start observing `walk` or `pivot_build`.

use dangoron::config::HorizontalConfig;
use dangoron::{Dangoron, DangoronConfig, PivotStrategy, StreamingDangoron};
use obs::stages::Stage;
use sketch::SlidingQuery;
use tsdata::generators;

const STAGES: [Stage; 5] = [
    Stage::Prepare,
    Stage::PivotBuild,
    Stage::Walk,
    Stage::Drain,
    Stage::Merge,
];

fn count(stage: Stage) -> u64 {
    // Registered eagerly by `global()`, so this retrieves the existing
    // histogram and the help argument is ignored.
    obs::stages::global()
        .histogram(stage.metric_name(), "")
        .count()
}

fn counts() -> [u64; 5] {
    STAGES.map(count)
}

/// Runs `f` and returns what it returned plus the observations it added
/// to each family, in [`STAGES`] order.
fn observed<T>(f: impl FnOnce() -> T) -> (T, [u64; 5]) {
    let before = counts();
    let out = f();
    let after = counts();
    (out, std::array::from_fn(|k| after[k] - before[k]))
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
    let merge_count = || count(Stage::Merge);

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

    // Every stage family, per entry point, with and without pivots. One
    // test function, because tests of one binary run concurrently.
    for horizontal in [
        None,
        Some(HorizontalConfig {
            n_pivots: 2,
            strategy: PivotStrategy::Evenly,
        }),
    ] {
        let pivots = u64::from(horizontal.is_some());
        let config = DangoronConfig {
            basic_window: 20,
            threads: 2,
            horizontal,
            ..Default::default()
        };
        let engine = Dangoron::new(config.clone()).unwrap();
        // [Prepare, PivotBuild, Walk, Drain, Merge]
        let batch = [1, pivots, 1, 0, 1];

        let (_, got) = observed(|| engine.execute(&x, query).unwrap());
        assert_eq!(got, batch, "execute (pivots {pivots})");

        let (_, got) = observed(|| {
            let prep = engine.prepare_shard(&x, query, 5..30).unwrap();
            engine.run_range(&prep, 5..30)
        });
        assert_eq!(got, batch, "prepare_shard + run_range (pivots {pivots})");

        let (session, got) = observed(|| {
            let mut s =
                StreamingDangoron::new(x.slice_columns(0, 200).unwrap(), 80, 20, 0.7, config)
                    .unwrap();
            assert!(s.drain_completed().unwrap().len() > 1);
            s
        });
        assert_eq!(got, [0, 0, 0, 1, 1], "open + drain (pivots {pivots})");
        let mut session = session;

        let (out, got) = observed(|| session.append(&x.slice_columns(200, 260).unwrap()));
        assert!(!out.unwrap().is_empty());
        assert_eq!(got, [0, 0, 0, 1, 1], "append (pivots {pivots})");

        // An append that completes no window walks nothing.
        let (out, got) = observed(|| session.append(&x.slice_columns(260, 270).unwrap()));
        assert!(out.unwrap().is_empty());
        assert_eq!(got, [0; 5], "window-less append (pivots {pivots})");

        for (w, s) in [(80, 20), (60, 40)] {
            let (_, got) = observed(|| session.query_shared(w, s, 0.6).unwrap());
            assert_eq!(
                got,
                [0, 0, 0, 0, 1],
                "query_shared {w}/{s} (pivots {pivots})"
            );
        }
    }
}
