//! Failure injection: malformed or hostile data must never panic an
//! engine or fabricate edges — the contract is "undefined correlation ⇒
//! no edge", plus an explicit repair path for dirty inputs. Dangoron
//! refuses non-finite samples at ingest with a structured error.

use baselines::naive::Naive;
use baselines::parcorr::ParCorr;
use baselines::statstream::StatStream;
use baselines::tsubasa::Tsubasa;
use baselines::SlidingEngine;
use dangoron::{Dangoron, DangoronConfig};
use sketch::SlidingQuery;
use tsdata::sync::repair_non_finite;
use tsdata::{generators, TimeSeriesMatrix, TsError};

fn query() -> SlidingQuery {
    SlidingQuery {
        start: 0,
        end: 200,
        window: 40,
        step: 20,
        threshold: 0.8,
    }
}

fn engines() -> Vec<Box<dyn SlidingEngine>> {
    vec![
        Box::new(Naive),
        Box::new(Tsubasa {
            basic_window: 20,
            threads: 1,
        }),
        Box::new(ParCorr {
            dim: 32,
            seed: 1,
            margin: 0.1,
            verify: true,
        }),
        // Full coefficient set: this suite tests failure handling, not the
        // truncation recall that E6 measures.
        Box::new(StatStream {
            coeffs: 40,
            margin: 0.1,
            verify: true,
        }),
    ]
}

#[test]
fn nan_poisoned_series_produce_no_edges_and_no_panics() {
    let clean = generators::white_noise(200, 1);
    let mut poisoned = generators::white_noise(200, 2);
    poisoned[50] = f64::NAN;
    poisoned[130] = f64::NAN;
    let live_a = generators::white_noise(200, 3);
    let live_b = live_a.clone();
    let x = TimeSeriesMatrix::from_rows(vec![clean, poisoned, live_a, live_b]).unwrap();

    for engine in engines() {
        let ms = engine.execute(&x, query()).unwrap();
        for (w, m) in ms.iter().enumerate() {
            // Windows touching the NaN cannot connect the poisoned series.
            let (ws, we) = query().window_range(w);
            if (ws..we).contains(&50) || (ws..we).contains(&130) {
                assert!(
                    !m.contains(0, 1) && !m.contains(1, 2),
                    "{}: edge through NaN window",
                    engine.name()
                );
            }
            // No emitted value may be NaN.
            for e in m.edges() {
                assert!(e.value.is_finite(), "{}: non-finite edge", engine.name());
            }
        }
        // The identical clean pair must still connect everywhere.
        assert!(
            ms.iter().all(|m| m.contains(2, 3)),
            "{}: lost the clean identical pair",
            engine.name()
        );
    }

    // Dangoron, both modes: a non-finite sample would poison every sketch
    // prefix after it, so the engine refuses the matrix at ingest, naming
    // the first such sample, instead of answering from poisoned sketches.
    // `repair_then_query_recovers_poisoned_data` is the path that answers.
    for bound in [
        dangoron::BoundMode::Exhaustive,
        dangoron::BoundMode::PaperJump { slack: 0.0 },
    ] {
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(
            engine.execute(&x, query()).err(),
            Some(TsError::NonFinite {
                series: 1,
                column: 50
            })
        );
    }
}

#[test]
fn repair_then_query_recovers_poisoned_data() {
    // The documented path for dirty data: repair_non_finite, then query.
    let base = generators::white_noise(200, 7);
    let mut a = base.clone();
    a[99] = f64::NAN;
    let mut b = base;
    b[100] = f64::INFINITY;
    let mut x = TimeSeriesMatrix::from_rows(vec![a, b]).unwrap();
    let repaired = repair_non_finite(&mut x).unwrap();
    assert_eq!(repaired, 2);
    let engine = Dangoron::new(DangoronConfig {
        basic_window: 20,
        ..Default::default()
    })
    .unwrap();
    let res = engine.execute(&x, query()).unwrap();
    // Nearly identical series: every window connects after repair.
    assert!(res.matrices.iter().all(|m| m.contains(0, 1)));
}

#[test]
fn extreme_magnitudes_do_not_panic() {
    // 1e300-scale values overflow intermediate squared sums to infinity;
    // engines must degrade to "no edge", never panic or emit non-finite.
    let huge: Vec<f64> = (0..200).map(|t| 1e300 * ((t as f64) * 0.1).sin()).collect();
    let tiny: Vec<f64> = (0..200)
        .map(|t| 1e-300 * ((t as f64) * 0.1).cos())
        .collect();
    let normal = generators::white_noise(200, 5);
    let x = TimeSeriesMatrix::from_rows(vec![huge, tiny, normal]).unwrap();
    for engine in engines() {
        let ms = engine.execute(&x, query()).unwrap();
        for m in &ms {
            for e in m.edges() {
                assert!(e.value.is_finite(), "{}", engine.name());
            }
        }
    }
    let engine = Dangoron::new(DangoronConfig {
        basic_window: 20,
        ..Default::default()
    })
    .unwrap();
    let res = engine.execute(&x, query()).unwrap();
    for m in &res.matrices {
        for e in m.edges() {
            assert!(e.value.is_finite());
        }
    }
}

#[test]
fn dropped_subscriber_never_poisons_the_session_or_stalls_other_tenants() {
    // The serving tier's failure case: a subscriber that vanishes without
    // unsubscribing. The daemon must shed it on the next delta push; the
    // session it watched keeps absorbing appends, and *other* tenants'
    // sessions never even notice.
    use serve::{Registry, ServeClient};
    use std::sync::Arc;
    use std::time::Duration;

    let cfg = DangoronConfig {
        basic_window: 20,
        ..Default::default()
    };
    let full = generators::clustered_matrix(6, 300, 2, 0.5, 17).unwrap();
    let addr = serve::spawn_local(Arc::new(Registry::new(None)), None)
        .unwrap()
        .to_string();

    let mut owner = ServeClient::connect(&addr, Duration::from_secs(10)).unwrap();
    owner
        .open(
            "watched",
            &full.slice_columns(0, 100).unwrap(),
            60,
            20,
            0.8,
            &cfg,
        )
        .unwrap();
    let mut tenant = ServeClient::connect(&addr, Duration::from_secs(10)).unwrap();
    tenant
        .open(
            "tenant",
            &full.slice_columns(0, 100).unwrap(),
            40,
            20,
            0.8,
            &cfg,
        )
        .unwrap();

    // Three subscribers on the watched session; all vanish unread.
    for _ in 0..3 {
        let mut sub = ServeClient::connect(&addr, Duration::from_secs(10)).unwrap();
        sub.subscribe("watched").unwrap();
        sub.disconnect();
    }

    // Appends to the watched session must keep acking (the dead sinks are
    // shed, not waited on), and the other tenant stays fully serviceable
    // throughout.
    for (from, to) in [(100, 180), (180, 240), (240, 300)] {
        let ack = owner
            .append("watched", &full.slice_columns(from, to).unwrap())
            .unwrap();
        assert_eq!(ack.covered_cols, to);
        let reply = tenant.query("tenant", 40, 20, 0.8).unwrap();
        assert!(reply.n_windows > 0, "other tenant starved");
    }

    // The watched session's answers are still exact after shedding.
    let reply = owner.query("watched", 60, 20, 0.8).unwrap();
    let fresh = Dangoron::new(cfg.clone())
        .unwrap()
        .execute(
            &full,
            SlidingQuery {
                start: 0,
                end: 300,
                window: 60,
                step: 20,
                threshold: 0.8,
            },
        )
        .unwrap();
    let n_fresh: usize = fresh.matrices.iter().map(|m| m.n_edges()).sum();
    assert_eq!(reply.edges.len(), n_fresh);
    for ((w, e), (fw, fe)) in reply.edges.iter().zip(
        fresh
            .matrices
            .iter()
            .enumerate()
            .flat_map(|(w, m)| m.edges().iter().map(move |e| (w as u32, e))),
    ) {
        assert_eq!((*w, e.i, e.j), (fw, fe.i, fe.j));
        assert_eq!(e.value.to_bits(), fe.value.to_bits());
    }
}

#[test]
fn constant_and_near_constant_series_are_handled() {
    let constant = vec![42.0; 200];
    // Near-constant: variance ~1e-30, numerically at the edge.
    let near: Vec<f64> = (0..200).map(|t| 42.0 + 1e-15 * (t % 2) as f64).collect();
    let live = generators::white_noise(200, 11);
    let x = TimeSeriesMatrix::from_rows(vec![constant, near, live]).unwrap();
    for engine in engines() {
        let ms = engine.execute(&x, query()).unwrap();
        for m in &ms {
            assert!(!m.contains(0, 2), "{}: constant series edge", engine.name());
            for e in m.edges() {
                assert!(e.value.is_finite());
            }
        }
    }
}
