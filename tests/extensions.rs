//! Integration tests for the extension features through the facade:
//! snapshots, windows, error bounds, expression text, concurrent handles
//! and reader-based ingestion.

use sketchtree::datagen::{Dataset, StreamSpec};
use sketchtree::{
    parse_expr, read_snapshot, write_snapshot, SharedSketchTree, SketchTree, SketchTreeConfig,
    SynopsisConfig, WindowedSketchTree, XmlSketchTree,
};

fn config() -> SketchTreeConfig {
    SketchTreeConfig {
        max_pattern_edges: 3,
        synopsis: SynopsisConfig {
            s1: 40,
            s2: 7,
            virtual_streams: 31,
            topk: 10,
            independence: 5,
            ..SynopsisConfig::default()
        },
        ..SketchTreeConfig::default()
    }
}

#[test]
fn snapshot_roundtrip_through_facade() {
    let mut st = SketchTree::new(config());
    let spec = StreamSpec {
        dataset: Dataset::Dblp,
        n_trees: 200,
        seed: 1,
    };
    let trees = spec.generate(st.labels_mut());
    for t in &trees {
        st.ingest(t);
    }
    let bytes = write_snapshot(&st);
    let restored = read_snapshot(&bytes).expect("valid snapshot");
    for q in ["article(author)", "inproceedings(title)", "author"] {
        assert_eq!(
            st.count_ordered(q).unwrap(),
            restored.count_ordered(q).unwrap(),
            "{q}"
        );
    }
    // Expression text evaluates identically.
    let e = parse_expr("COUNT_ord(article(author)) - COUNT_ord(article(year))").unwrap();
    assert_eq!(st.estimate(&e).unwrap(), restored.estimate(&e).unwrap());
}

#[test]
fn reader_ingestion_equals_string_ingestion() {
    let xml = "<a><b>v</b></a><c/><a><b>w</b></a>".repeat(40);
    let mut via_string = XmlSketchTree::new(config());
    via_string.ingest_xml(&xml).unwrap();
    let mut via_reader = XmlSketchTree::new(config());
    let n = via_reader
        .ingest_reader(std::io::BufReader::with_capacity(
            64,
            std::io::Cursor::new(xml.into_bytes()),
        ))
        .unwrap();
    assert_eq!(n as u64, via_string.trees_processed());
    for q in ["a(b)", "b(v)", "a(b(w))"] {
        assert_eq!(
            via_string.count_ordered(q).unwrap(),
            via_reader.count_ordered(q).unwrap(),
            "{q}"
        );
    }
}

#[test]
fn bounded_estimates_order_sensibly() {
    let mut st = SketchTree::new(SketchTreeConfig {
        synopsis: SynopsisConfig {
            topk: 0,
            ..config().synopsis
        },
        ..config()
    });
    let spec = StreamSpec {
        dataset: Dataset::Treebank,
        n_trees: 300,
        seed: 3,
    };
    let trees = spec.generate(st.labels_mut());
    for t in &trees {
        st.ingest(t);
    }
    let frequent = st.count_ordered_bounded("S(NP,VP)").unwrap();
    let rare = st.count_ordered_bounded("SBARQ(WRB,SQ)").unwrap();
    assert!(frequent.estimate > rare.estimate);
    assert!(
        frequent.epsilon < rare.epsilon,
        "frequent {frequent:?} rare {rare:?}"
    );
    assert!(frequent.display().contains('%'));
}

#[test]
fn window_and_whole_history_disagree_after_shift() {
    let mut whole = SketchTree::new(config());
    let mut window = WindowedSketchTree::new(config(), 50);
    let (a, b, c) = {
        let l = window.labels_mut();
        (l.intern("A"), l.intern("B"), l.intern("C"))
    };
    for name in ["A", "B", "C"] {
        whole.labels_mut().intern(name);
    }
    use sketchtree::Tree;
    let old_shape = Tree::node(a, vec![Tree::leaf(b)]);
    let new_shape = Tree::node(a, vec![Tree::leaf(c)]);
    for _ in 0..100 {
        whole.ingest(&old_shape);
        window.ingest(&old_shape);
    }
    for _ in 0..60 {
        whole.ingest(&new_shape);
        window.ingest(&new_shape);
    }
    // Whole history still sees ~100 A(B); the window sees none.
    let whole_ab = whole.count_ordered("A(B)").unwrap();
    let window_ab = window.count_ordered("A(B)").unwrap();
    assert!(whole_ab > 60.0, "whole {whole_ab}");
    assert!(window_ab.abs() < 10.0, "window {window_ab}");
}

#[test]
fn shared_handle_concurrent_mixed_workload() {
    let st = SharedSketchTree::new(SketchTree::new(config()));
    let (a, b) = st.with_labels(|l| (l.intern("A"), l.intern("B")));
    use sketchtree::Tree;
    let tree = Tree::node(a, vec![Tree::leaf(b)]);
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let st = st.clone();
            let tree = tree.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    st.ingest_batch(std::slice::from_ref(&tree));
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let st = st.clone();
            std::thread::spawn(move || {
                let mut last = -1.0f64;
                for _ in 0..50 {
                    let v = st.count_ordered("A(B)").expect("valid");
                    assert!(v >= -50.0);
                    last = v;
                }
                last
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(st.trees_processed(), 400);
}

#[test]
fn expression_text_through_facade() {
    let mut st = XmlSketchTree::new(SketchTreeConfig {
        track_exact: true,
        ..config()
    });
    let mut xml = String::new();
    for _ in 0..60 {
        xml.push_str("<p><q/><r/></p>");
    }
    for _ in 0..25 {
        xml.push_str("<p><r/><q/></p>");
    }
    st.ingest_xml(&xml).unwrap();
    let e = parse_expr("COUNT_ord(p(q,r)) - COUNT_ord(p(r,q))").unwrap();
    assert_eq!(st.exact_value(&e).unwrap(), 35.0);
    let est = st.estimate(&e).unwrap();
    assert!((est - 35.0).abs() < 20.0, "est {est}");
    // The unordered count covers both orders.
    let u = parse_expr("COUNT(p(q,r))").unwrap();
    assert_eq!(st.exact_value(&u).unwrap(), 85.0);
}
