//! Allocation micro-bench for the ingest hot path.
//!
//! The wire-speed insert path — sign cache, top-k estimate scratch — and
//! the server's batch pipeline around it (enumeration arena, value
//! buffers, summary observation) are designed to touch the allocator
//! zero times once warm.  These tests pin that property with a counting
//! global allocator: a warm-up pass grows every reusable buffer, then a
//! measured pass over the *same* stream must allocate nothing.
//!
//! Ignored by default (`cargo test -p sketchtree-bench -- --ignored`):
//! the global allocator hook taxes every other test in the binary, so it
//! lives alone in this integration-test crate.
//!
//! This file is an integration test, outside the library's
//! `#![forbid(unsafe_code)]`: a `GlobalAlloc` impl is unavoidably
//! unsafe, and the unsafety is confined to delegating to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated on this thread while `COUNTING` is set.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Number of allocator calls on this thread while `COUNTING` is set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Gate so unrelated test-harness allocation is not charged.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: every method delegates directly to `System`; the bookkeeping
// uses const-initialized thread-locals, which never allocate on access,
// so the hook cannot recurse into itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    COUNTING.with(|c| {
        if c.get() {
            ALLOCATED.with(|a| a.set(a.get() + bytes as u64));
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on, returning (bytes, calls).
fn count_allocations<F: FnOnce()>(f: F) -> (u64, u64) {
    ALLOCATED.with(|a| a.set(0));
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATED.with(Cell::get), ALLOCATIONS.with(Cell::get))
}

/// A DBLP-like fingerprint stream: heavy repetition (the regime the sign
/// cache exists for) plus a long distinct tail.
fn workload() -> Vec<u64> {
    let mut vals = Vec::with_capacity(40_000);
    let mut x = 0x5EED_1234u64;
    for _ in 0..40_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = x >> 33;
        let v = if r % 10 < 7 { r % 2_048 } else { r % 500_000 };
        vals.push(v.wrapping_mul(0x9E3779B97F4A7C15));
    }
    vals
}

#[test]
#[ignore = "alloc-counting micro-bench; run with -- --ignored"]
fn slab_insert_path_allocates_zero_bytes_after_warmup() {
    use sketchtree_sketch::{StreamSynopsis, SynopsisConfig, TopKMode};

    let vals = workload();
    for topk_mode in [TopKMode::Paper, TopKMode::Filter] {
        let mut syn = StreamSynopsis::new(SynopsisConfig::default());
        syn.set_topk_mode(topk_mode);
        // Warm-up: grows the sign cache, the top-k heaps and their hash
        // indexes, and the estimate scratch to steady-state capacity.
        for &v in &vals {
            syn.insert(v);
        }
        // Measured pass over the same stream: the hot path must be
        // allocation-free per element.
        let (bytes, calls) = count_allocations(|| {
            for &v in &vals {
                syn.insert(v);
            }
        });
        assert_eq!(
            (bytes, calls),
            (0, 0),
            "slab insert path ({topk_mode:?}) allocated {bytes} bytes in {calls} calls over {} \
             elements",
            vals.len()
        );
    }
}

#[test]
#[ignore = "alloc-counting micro-bench; run with -- --ignored"]
fn shared_batch_ingest_allocates_nothing_after_warmup() {
    use sketchtree_core::{CoreMetrics, SharedSketchTree, SketchTree, SketchTreeConfig};
    use sketchtree_datagen::{Dataset, StreamSpec};
    use sketchtree_metrics::Registry;

    // The server's path: prebuilt trees in batches of 8 through
    // `SharedSketchTree::ingest_batch` (enumerate under the shared lock,
    // apply under the exclusive lock), summary on, default geometry —
    // bare, and with the core metrics attached as `serve` runs it, so the
    // per-tree and per-window histogram observations are covered too.
    use sketchtree_sketch::TopKMode;
    for (with_metrics, topk_mode) in [
        (false, TopKMode::Paper),
        (true, TopKMode::Paper),
        (false, TopKMode::Filter),
        (true, TopKMode::Filter),
    ] {
        let mut st = SketchTree::new(SketchTreeConfig::default());
        st.set_topk_mode(topk_mode);
        let trees = StreamSpec {
            dataset: Dataset::Dblp,
            n_trees: 400,
            seed: 11,
        }
        .generate(st.labels_mut());
        let shared = SharedSketchTree::new(st);
        if with_metrics {
            shared.attach_metrics(CoreMetrics::register(&Registry::new()));
        }
        let pass = || {
            for batch in trees.chunks(8) {
                shared.ingest_batch(batch);
            }
        };
        // Two warm-up passes: the first grows the enumeration arena, the
        // value buffers and the scratch pool; the second lets the top-k
        // trackers settle on the stream's heavy hitters.
        pass();
        pass();
        let (bytes, calls) = count_allocations(pass);
        assert_eq!(
            (bytes, calls),
            (0, 0),
            "batch ingest ({topk_mode:?}, metrics attached: {with_metrics}) allocated {bytes} \
             bytes in {calls} calls over {} trees",
            trees.len()
        );
    }
}
