//! Wire-protocol robustness: decoding must be total. Every frame type
//! round-trips; every truncation, byte mutation, length-field corruption
//! and random-garbage payload returns `Err` or a well-formed message —
//! never a panic, and never an allocation sized by an unverified count.

use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, DangoronConfig, PairStorage, PruningStats};
use dist::proto::{self, Assignment, Hello, Message, ShardResult, WorkerMode};
use proptest::prelude::*;
use sketch::output::{Edge, EdgeRule};
use sketch::SlidingQuery;
use tsdata::generators;

/// One representative of every frame type, with every optional branch of
/// the config exercised across the set.
fn specimens() -> Vec<Message> {
    let full_config = DangoronConfig {
        basic_window: 20,
        bound: BoundMode::PaperJump { slack: 0.125 },
        storage: PairStorage::OnDemand,
        horizontal: Some(HorizontalConfig {
            n_pivots: 3,
            strategy: PivotStrategy::Explicit(vec![0, 4, 7]),
        }),
        threads: 2,
        edge_rule: EdgeRule::Absolute,
    };
    let plain_config = DangoronConfig {
        basic_window: 10,
        bound: BoundMode::Exhaustive,
        storage: PairStorage::Precomputed,
        horizontal: Some(HorizontalConfig {
            n_pivots: 2,
            strategy: PivotStrategy::Random { seed: 9 },
        }),
        threads: 1,
        edge_rule: EdgeRule::Positive,
    };
    let query = SlidingQuery {
        start: 0,
        end: 200,
        window: 60,
        step: 20,
        threshold: 0.75,
    };
    let mut stats = PruningStats::default();
    stats.record_jump(5);
    stats.record_jump(2);
    stats.n_pairs = 15;
    stats.evaluated = 40;
    vec![
        Message::Hello(Hello::local()),
        Message::Load(generators::clustered_matrix(6, 40, 2, 0.5, 3).unwrap()),
        Message::Assign(Assignment {
            shard_id: 3,
            ranks: 10..25,
            mode: WorkerMode::StreamingReplay {
                initial_cols: 100,
                chunk_cols: 40,
            },
            config: full_config,
            query,
        }),
        Message::Assign(Assignment {
            shard_id: 4,
            ranks: 0..15,
            mode: WorkerMode::Batch,
            config: plain_config,
            query,
        }),
        Message::Result(ShardResult {
            shard_id: 7,
            ranks: 0..15,
            prepare_s: 0.25,
            query_s: 1.5,
            stats,
            edges: vec![
                (
                    0,
                    Edge {
                        i: 1,
                        j: 2,
                        value: 0.987,
                    },
                ),
                (
                    3,
                    Edge {
                        i: 0,
                        j: 5,
                        value: -0.25,
                    },
                ),
            ],
        }),
        Message::Error(11, "shard exploded".into()),
        Message::Ping(u64::MAX),
        Message::Pong(0),
        Message::Progress {
            assignment_id: 9,
            frontier: 123_456,
        },
        Message::Steal { assignment_id: 9 },
        Message::StealGrant {
            assignment_id: 9,
            new_end: 777,
        },
    ]
}

/// Structural equality down to `f64` bit patterns.
fn same(a: &Message, b: &Message) -> bool {
    match (a, b) {
        (Message::Hello(x), Message::Hello(y)) => x == y,
        (Message::Load(x), Message::Load(y)) => {
            x.n_series() == y.n_series()
                && x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Message::Assign(x), Message::Assign(y)) => {
            x.shard_id == y.shard_id
                && x.ranks == y.ranks
                && x.mode == y.mode
                && x.config == y.config
                && x.query == y.query
        }
        (Message::Result(x), Message::Result(y)) => {
            x.shard_id == y.shard_id
                && x.ranks == y.ranks
                && x.prepare_s.to_bits() == y.prepare_s.to_bits()
                && x.query_s.to_bits() == y.query_s.to_bits()
                && x.stats == y.stats
                && x.edges.len() == y.edges.len()
                && x.edges.iter().zip(&y.edges).all(|((wa, ea), (wb, eb))| {
                    wa == wb
                        && ea.i == eb.i
                        && ea.j == eb.j
                        && ea.value.to_bits() == eb.value.to_bits()
                })
        }
        (Message::Error(xi, xt), Message::Error(yi, yt)) => xi == yi && xt == yt,
        (Message::Ping(x), Message::Ping(y)) => x == y,
        (Message::Pong(x), Message::Pong(y)) => x == y,
        (
            Message::Progress {
                assignment_id: xa,
                frontier: xf,
            },
            Message::Progress {
                assignment_id: ya,
                frontier: yf,
            },
        ) => xa == ya && xf == yf,
        (Message::Steal { assignment_id: x }, Message::Steal { assignment_id: y }) => x == y,
        (
            Message::StealGrant {
                assignment_id: xa,
                new_end: xe,
            },
            Message::StealGrant {
                assignment_id: ya,
                new_end: ye,
            },
        ) => xa == ya && xe == ye,
        _ => false,
    }
}

#[test]
fn every_frame_type_round_trips() {
    for msg in specimens() {
        let decoded = proto::decode(&proto::encode(&msg))
            .unwrap_or_else(|e| panic!("round trip of {msg:?} failed: {e}"));
        assert!(same(&msg, &decoded), "{msg:?} != {decoded:?}");
    }
}

#[test]
fn every_truncation_of_every_frame_type_is_rejected() {
    // Exhaustive over all strict prefixes: decoding must return Err (a
    // shorter well-formed message would mean trailing bytes in the
    // original, which decode also rejects) and must never panic.
    for msg in specimens() {
        let full = proto::encode(&msg);
        for cut in 0..full.len() {
            assert!(
                proto::decode(&full[..cut]).is_err(),
                "{msg:?} truncated to {cut}/{} bytes decoded",
                full.len()
            );
        }
    }
}

#[test]
fn result_edges_out_of_window_i_j_order_are_rejected() {
    // The coordinator's merge relies on (window, i, j) order, so decode
    // refuses a Result that breaks it: a repeat, a step back, or i ≥ j.
    let e = |w, i, j| (w, Edge { i, j, value: 0.5 });
    let result = |edges| {
        Message::Result(ShardResult {
            shard_id: 1,
            ranks: 0..10,
            prepare_s: 0.1,
            query_s: 0.2,
            stats: PruningStats::default(),
            edges,
        })
    };
    let sorted = vec![e(0, 0, 4), e(0, 1, 2), e(2, 0, 1)];
    assert!(proto::decode(&proto::encode(&result(sorted))).is_ok());
    for bad in [
        vec![e(0, 1, 2), e(0, 1, 2)],
        vec![e(0, 1, 2), e(0, 0, 4)],
        vec![e(2, 0, 1), e(0, 1, 2)],
        vec![e(0, 2, 2)],
        vec![e(0, 3, 1)],
    ] {
        let err = proto::decode(&proto::encode(&result(bad.clone())));
        assert!(err.is_err(), "{bad:?} accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_frames_never_panic(which in 0usize..11, at_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let msg = &specimens()[which];
        let mut payload = proto::encode(msg);
        let at = ((payload.len() - 1) as f64 * at_frac) as usize;
        payload[at] ^= xor;
        // A flipped byte may still decode (e.g. inside an f64 payload) —
        // but it must decode to a *message*, not a panic or an abort.
        let _ = proto::decode(&payload);
    }

    #[test]
    fn random_garbage_never_panics(len in 0usize..256, seed in 0u64..1_000_000) {
        // SplitMix-ish garbage, including hostile first bytes (the tag
        // range) and hostile length fields by chance.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            payload.push(state as u8);
        }
        let _ = proto::decode(&payload);
    }

    #[test]
    fn corrupted_count_fields_are_rejected_not_allocated(count in 0u64..=u64::MAX) {
        // A Result frame whose trailing edge-count field is overwritten
        // with an arbitrary value: unless it names the true count, decode
        // must reject it (truncation or trailing bytes), and a huge value
        // must be caught by the length check before any allocation.
        let msg = Message::Result(ShardResult {
            shard_id: 1,
            ranks: 0..3,
            prepare_s: 0.1,
            query_s: 0.2,
            stats: PruningStats::default(),
            edges: vec![(
                0,
                Edge {
                    i: 0,
                    j: 1,
                    value: 0.5,
                },
            )],
        });
        let mut payload = proto::encode(&msg);
        let edge_bytes = 20;
        let at = payload.len() - edge_bytes - 8;
        payload[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let out = proto::decode(&payload);
        if count == 1 {
            prop_assert!(out.is_ok());
        } else {
            prop_assert!(out.is_err(), "count={count} accepted");
        }
    }
}
