#!/usr/bin/env sh
# Full pre-merge gate: build, test, doc-build, doc-link check, then run
# the workspace's own static analyzer (sketchtree-lint).  Exits non-zero
# on the first failure, and on any undocumented lint finding — see
# docs/lints.md for the rules and for how to document a deliberate
# exception.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --all-targets"
cargo build --workspace --all-targets

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> doc link check"
# The checker is an ordinary test (tests/doc_links.rs) so it also runs in
# the plain test sweep above; invoking it by name here makes a broken
# link fail the gate with its own banner instead of drowning in the
# workspace test noise.
cargo test --quiet -p sketchtree --test doc_links

echo "==> batch-parity (server batch ingest == per-tree ingest, byte for byte)"
# SharedSketchTree::ingest_batch — the server's path — must produce a
# snapshot byte-identical to per-tree SketchTree::ingest, over random
# batch splits (some spanning several lock windows), with top-k run on
# every value and with top-k sampled.  The property test runs in the
# sweep above; naming it here gives batch-path regressions their own
# banner.
cargo test --quiet -p sketchtree-core --lib batch_parity_across_random_splits

echo "==> hotpath-parity (allocation-free ingest path == legacy path)"
# The wire-speed ingest path (arena enumeration, batch fingerprinting,
# sign cache, fused restore delta, flattened counter slab) must stay
# bit-identical to the straightforward per-pattern pipeline it replaced,
# which lives on as a test-only oracle: same values in the same order,
# byte-identical synopsis state.  Together with batch-parity this pins
# the server's batch path to the specification.
cargo test --quiet -p sketchtree-core --lib fast_ingest_path_matches_legacy_observer_path

echo "==> alloc-free (warm ingest hot path touches the allocator zero times)"
# A counting global allocator pins the zero-allocation property of the
# slab insert path and of the server's batch ingest, bare and with the
# core metrics attached (so histogram observations on the per-tree path
# stay allocation-free too).  The tests are #[ignore]d in the sweep above
# because the allocator hook taxes every test in their binary.
cargo test --quiet -p sketchtree-bench --test alloc_hotpath -- --ignored

echo "==> synopsis merge parity (shard-split vs sequential ingest)"
# Merging shard synopses must be byte-identical to sequential ingest
# with top-k off (and totals-preserving with it on), across random
# split points and label interning orders.  Both the property test and
# the cross-interning unit test run in the sweep above; naming them
# here gives merge regressions their own banner.
cargo test --quiet -p sketchtree-core --test core_props merge_parity_property
cargo test --quiet -p sketchtree-core --lib merge_is_exact_across_different_interning_orders

echo "==> standing-query parity (pushed == ad-hoc, bit-for-bit)"
# A pushed EstimateUpdate must be bit-identical to an ad-hoc COUNT of
# the same pattern at the same synopsis epoch.  The property test runs
# in the sweep above; naming it here gives any divergence between the
# compiled-plan path and the ad-hoc path its own banner.
cargo test --quiet -p sketchtree-standing --test parity \
    pushed_estimates_are_bit_identical_to_adhoc_at_same_epoch

echo "==> loadgen-smoke (mixed-load harness end-to-end + BENCH schema)"
# One short open-loop run against an in-process server: the emitted
# report must pass the BENCH_loadgen_*.json schema (every percentile
# field present), carry non-empty histograms for every op kind, and show
# monotone epochs on pushed standing-query updates.  The schema unit
# tests prove the validator still *rejects* malformed reports — a
# validator that accepts anything is a green gate that checks nothing.
cargo test --quiet -p sketchtree --test loadgen_smoke
cargo test --quiet -p sketchtree-loadgen schema_
cargo test --quiet -p sketchtree-loadgen missing_

echo "==> wal-recovery (crash-injection: any truncation point, bit-identical)"
# Power-cut drills over the durability subsystem: the truncation-sweep
# proptest (recovered synopsis byte-identical to the acked prefix at ANY
# cut byte), checkpoint-atomicity regressions (garbage tmp never goes
# live), corrupt-checkpoint quarantine + rebuild-from-WAL, and the
# end-to-end abort/restart parity drill.  All run in the sweep above;
# naming the suite here gives a durability regression its own banner.
cargo test --quiet -p sketchtree-server --test crash_injection
cargo test --quiet -p sketchtree-wal --lib every_truncation_point_recovers_the_intact_prefix

echo "==> workspace lint gates (L6 lock-order, L7 blocking, L8 epoch, L9 spec-drift, A0 stale allows)"
# The graph-aware workspace rules each get a named gate so a regression
# fails under its own banner, and the seeded-bug self-tests prove each
# pass still *fires* — a silently dead pass is a green gate that
# enforces nothing.
cargo test --quiet -p sketchtree --test lint_clean l6_lock_order_is_clean
cargo test --quiet -p sketchtree --test lint_clean l7_blocking_under_lock_is_clean
cargo test --quiet -p sketchtree --test lint_clean l8_epoch_determinism_is_clean
cargo test --quiet -p sketchtree --test lint_clean l9_spec_drift_is_clean
cargo test --quiet -p sketchtree-lint --test seeded_bugs l6_
cargo test --quiet -p sketchtree-lint --test seeded_bugs l7_
cargo test --quiet -p sketchtree-lint --test seeded_bugs l8_
cargo test --quiet -p sketchtree-lint --test seeded_bugs l9_
# A0: an allow naming a rule no pass reports (a retired id such as L4,
# or a typo) is itself a finding, so stale markers cannot linger.
cargo test --quiet -p sketchtree-lint --test seeded_bugs a0_

echo "==> sketchtree-lint"
# --show-allowed keeps the documented exceptions visible in CI logs so
# reviewers can see what has been excused and why.
cargo run --quiet -p sketchtree-lint -- --show-allowed

echo "ok: build + tests + lint all clean"
