//! Property tests for the `SKTP` wire protocol: every frame type
//! round-trips through encode → frame → decode, and malformed bytes
//! always come back as protocol errors — never panics, never hangs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sketchtree_server::wire::{
    read_frame, Frame, Request, Response, Stats, WireError, DEFAULT_MAX_FRAME,
};
use sketchtree_tree::{Label, Tree};
use std::io::Cursor;

/// Random ordered labeled trees over a small batch-local alphabet.
fn arb_tree(labels: u32) -> impl Strategy<Value = Tree> {
    let leaf = (0u32..labels).prop_map(|l| Tree::leaf(Label(l)));
    leaf.prop_recursive(4, 32, 4, move |inner| {
        (0u32..labels, prop::collection::vec(inner, 1..=4))
            .prop_map(|(l, children)| Tree::node(Label(l), children))
    })
}

/// Every request variant, with arbitrary contents.
fn arb_request() -> impl Strategy<Value = Request> {
    let labels = || prop::collection::vec("[a-z]{1,8}", 1..6);
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        Just(Request::Snapshot),
        Just(Request::Shutdown),
        prop::collection::vec("\\PC{0,40}", 0..5).prop_map(Request::IngestXml),
        (labels(), prop::collection::vec(arb_tree(5), 0..4)).prop_map(|(mut labels, trees)| {
            // The tree strategy draws labels from 0..5; pad the name
            // table so every index is valid.
            while labels.len() < 5 {
                labels.push(format!("pad{}", labels.len()));
            }
            Request::IngestTrees { labels, trees }
        }),
        (any::<bool>(), "\\PC{0,30}")
            .prop_map(|(unordered, pattern)| Request::Count { unordered, pattern }),
        "\\PC{0,40}".prop_map(Request::Expr),
        (0u32..1000).prop_map(|limit| Request::HeavyHitters { limit }),
        any::<bool>().prop_map(|json| Request::Metrics { json }),
    ]
}

/// Every response variant, with arbitrary contents.
fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::ShuttingDown),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(trees, patterns, total_trees, total_patterns)| Response::Ingested {
                trees,
                patterns,
                total_trees,
                total_patterns,
            }
        ),
        (-1e12f64..1e12).prop_map(Response::Estimate),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| {
            Response::Stats(Stats {
                trees_processed: a,
                patterns_processed: b,
                labels: c,
                memory_bytes: a ^ b,
                max_pattern_edges: b % 17,
                s1: 25,
                s2: 7,
                virtual_streams: 229,
                topk: 50,
            })
        }),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..20).prop_map(|entries| {
            Response::HeavyHitters(entries.into_iter().map(|(v, f)| (v, f as i64)).collect())
        }),
        (any::<u64>()).prop_map(|bytes| Response::SnapshotDone { bytes }),
        // Exposition payloads: newline-heavy, `{}`-quoted label text.
        "(\\PC|\\n){0,120}".prop_map(Response::Metrics),
        "\\PC{0,60}".prop_map(Response::Error),
    ]
}

fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    sketchtree_server::wire::write_frame(&mut buf, kind, payload).expect("vec write");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → write_frame → read_frame → decode is the identity on
    /// every request variant.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = frame_bytes(req.kind(), &req.encode());
        let Frame::Msg { kind, payload } =
            read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).expect("valid frame")
        else {
            prop_assert!(false, "frame did not read back");
            unreachable!()
        };
        prop_assert_eq!(Request::decode(kind, &payload).expect("valid payload"), req);
    }

    /// Same identity for every response variant.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let bytes = frame_bytes(resp.kind(), &resp.encode());
        let Frame::Msg { kind, payload } =
            read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).expect("valid frame")
        else {
            prop_assert!(false, "frame did not read back");
            unreachable!()
        };
        prop_assert_eq!(Response::decode(kind, &payload).expect("valid payload"), resp);
        // The server's in-place encoder emits the same bytes.
        let mut in_place = Vec::new();
        resp.encode_frame_into(&mut in_place).expect("encodable");
        prop_assert_eq!(in_place, bytes);
    }

    /// Any prefix of a valid frame is Truncated (or Eof for the empty
    /// prefix), never a panic or a bogus success.
    #[test]
    fn prefixes_truncate(req in arb_request(), frac in 0.0f64..1.0) {
        let bytes = frame_bytes(req.kind(), &req.encode());
        let cut = ((bytes.len() as f64) * frac) as usize;
        match read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME) {
            Ok(Frame::Eof) => prop_assert_eq!(cut, 0, "Eof only on the empty prefix"),
            Err(WireError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut {}: {:?}", cut, other),
        }
    }
}

/// Deterministic mutation fuzz: flip random bytes in valid frames and in
/// their payloads; every outcome must be a clean `Ok` or `Err`, and the
/// reader must consume input without blocking (a `Cursor` cannot block,
/// so termination here is the no-hang guarantee at the parsing layer).
#[test]
fn mutated_frames_never_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_F422);
    let seeds: Vec<Vec<u8>> = vec![
        frame_bytes(Request::Ping.kind(), &Request::Ping.encode()),
        {
            let r = Request::IngestXml(vec!["<a><b/></a>".into(); 3]);
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let t = Tree::node(Label(0), vec![Tree::leaf(Label(1)), Tree::leaf(Label(0))]);
            let r = Request::IngestTrees {
                labels: vec!["x".into(), "y".into()],
                trees: vec![t.clone(), t],
            };
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let r = Request::Count { unordered: false, pattern: "A(B,C)".into() };
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let r = Response::HeavyHitters(vec![(1, 2), (3, -4), (5, 6)]);
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let r = Request::Metrics { json: true };
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let r = Response::Metrics(
                "# TYPE sktp_frames_total counter\nsktp_frames_total{direction=\"in\"} 12\n"
                    .into(),
            );
            frame_bytes(r.kind(), &r.encode())
        },
        {
            let r = Response::Stats(Stats {
                trees_processed: 9,
                patterns_processed: 81,
                labels: 3,
                memory_bytes: 1 << 20,
                max_pattern_edges: 4,
                s1: 25,
                s2: 7,
                virtual_streams: 229,
                topk: 50,
            });
            frame_bytes(r.kind(), &r.encode())
        },
    ];
    let mut decoded = 0u32;
    let mut rejected = 0u32;
    for seed in &seeds {
        for _ in 0..2_000 {
            let mut bytes = seed.clone();
            // 1–8 random single-byte mutations.
            for _ in 0..rng.gen_range(1usize..=8) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = (rng.gen::<u32>() & 0xFF) as u8;
            }
            // Occasionally truncate or extend as well.
            match rng.gen_range(0u32..4) {
                0 => {
                    let keep = rng.gen_range(0..=bytes.len());
                    bytes.truncate(keep);
                }
                1 => bytes.extend((0..rng.gen_range(1usize..16)).map(|_| 0xAAu8)),
                _ => {}
            }
            match read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME) {
                Ok(Frame::Msg { kind, payload }) => {
                    // Both decoders must handle arbitrary payloads for
                    // arbitrary kinds without panicking.
                    match (Request::decode(kind, &payload), Response::decode(kind, &payload)) {
                        (Ok(_), _) | (_, Ok(_)) => decoded += 1,
                        _ => rejected += 1,
                    }
                }
                Ok(Frame::Eof) | Ok(Frame::Idle) | Err(_) => rejected += 1,
            }
        }
    }
    // The sweep must have exercised both paths.
    assert!(decoded > 0, "no mutant survived — mutation too destructive?");
    assert!(rejected > 0, "every mutant survived — guards not firing?");
}

/// A mutated frame that *decodes* must re-encode to a frame that decodes
/// to the same value (decode is a partial inverse of encode even on
/// hostile input).
#[test]
fn surviving_mutants_reencode_stably() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let base = {
        let r = Request::IngestXml(vec!["<a/>".into(), "<b/>".into()]);
        frame_bytes(r.kind(), &r.encode())
    };
    for _ in 0..4_000 {
        let mut bytes = base.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = (rng.gen::<u32>() & 0xFF) as u8;
        if let Ok(Frame::Msg { kind, payload }) =
            read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME)
        {
            if let Ok(req) = Request::decode(kind, &payload) {
                let rebytes = frame_bytes(req.kind(), &req.encode());
                let Ok(Frame::Msg { kind: k2, payload: p2 }) =
                    read_frame(&mut Cursor::new(&rebytes), DEFAULT_MAX_FRAME)
                else {
                    panic!("re-encoded frame must read back");
                };
                assert_eq!(Request::decode(k2, &p2).expect("re-decode"), req);
            }
        }
    }
}
