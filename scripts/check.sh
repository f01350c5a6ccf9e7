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
# every value and with top-k sampled, in both top-k modes (Paper, Filter).  The property test runs in the
# sweep above; naming it here gives batch-path regressions their own
# banner.
cargo test --quiet -p sketchtree-core --lib batch_parity_across_random_splits

echo "==> hotpath-parity (allocation-free ingest path == legacy path)"
# The wire-speed ingest path (arena enumeration, batch fingerprinting,
# sign cache, fused restore delta, flattened counter slab) must stay
# bit-identical to the straightforward per-pattern pipeline it replaced,
# which lives on as a test-only oracle: same values in the same order,
# byte-identical synopsis state, in both top-k modes.  Together with batch-parity this pins
# the server's batch path to the specification.
cargo test --quiet -p sketchtree-core --lib fast_ingest_path_matches_legacy_observer_path

echo "==> alloc-free (warm ingest hot path touches the allocator zero times)"
# A counting global allocator pins the zero-allocation property of the
# slab insert path and of the server's batch ingest, in both top-k modes,
# bare and with the core metrics attached (so histogram observations on the per-tree path
# stay allocation-free too).  The tests are #[ignore]d in the sweep above
# because the allocator hook taxes every test in their binary.
cargo test --quiet -p sketchtree-bench --test alloc_hotpath -- --ignored

echo "==> topk-filter (delete condition bit for bit; Filter == its reference)"
# The Filter mode counts a tracked value's occurrence in the top-k heap
# and skips the sketches, so the counters must hold n_v - f_v of every
# value: after random streams, mid-stream snapshot restores and shard
# merges, with each shard built under either mode before and after its
# restore (so mixed-mode merges and mode switches are covered), each
# partition's counters equal a fresh bank fed exactly that, bit for
# bit.  The second test pins the ingest path in
# both modes to the straightforward references of topk::reference (the
# published Algorithm 4, and the Filter rule stated on top of it).
cargo test --quiet -p sketchtree-sketch --test sketch_props delete_condition_holds_bit_for_bit
cargo test --quiet -p sketchtree-sketch --lib ingest_path_matches_the_topk_references

echo "==> integer-edges (counters and frequencies at the i64 edges)"
# Estimators, health gauges and the top-k filter at counters and tracked
# frequencies near i64::MAX / i64::MIN: squares in i128, term sums
# widened only on overflow, the signed per-sketch estimate, saturating
# tracked-frequency increments and checked expression coefficients.  The
# L3 seeded-bug self-tests prove the lint still flags an unchecked `*` or
# `+` on a counter or frequency in those functions.
cargo test --quiet -p sketchtree-sketch --lib -- \
    self_join_estimates_square_counters_beyond_i64 \
    estimate_with_signs_survives_a_counter_at_i64_min \
    signed_estimate_matches_the_integer_product \
    compiled_evaluation_matches_the_oracle_at_the_integer_edges \
    wide_term_sums_match_the_oracle_wherever_i64_fits \
    a_product_of_two_streams_at_two_to_the_62_stays_positive \
    coefficient_overflow_is_an_error_not_a_panic \
    filter_saturates_a_tracked_frequency_at_i64_max \
    increment_sifts_down_and_saturates
cargo test --quiet -p sketchtree-lint --test seeded_bugs l3_

echo "==> estimator-theory (Eq. 1/2/6/7 and the product estimator on the production ξ row kernel)"
# The paper's estimator moments (Equations 1, 2, 6 and 7, the AMS second
# moment and the Appendix C product estimator), Monte-Carlo'd over the
# families of one SketchBank with signs from signs_into, the row kernel
# every insert and estimate runs.  The second test pins the production
# point estimate (signs_into + estimate_point_with_signs_into) to the
# Horner oracle of bank::oracle, bit for bit up to the sign of a zero,
# over random streams at every independence degree from 4 to 64.
cargo test --quiet -p sketchtree-sketch --test theory_checks
cargo test --quiet -p sketchtree-sketch --lib production_point_estimate_matches_the_oracle

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
# compiled-plan path and the ad-hoc path its own banner.  The second
# test grows the label universe every batch (as value labels do) and
# checks that resolved simple plans compile exactly once.
cargo test --quiet -p sketchtree-standing --test parity \
    pushed_estimates_are_bit_identical_to_adhoc_at_same_epoch
cargo test --quiet -p sketchtree-standing --test parity \
    pushed_estimates_stay_bit_identical_while_the_label_universe_grows

echo "==> push fan-out (ack first, then one hand-off and one write per connection per epoch)"
# Each broadcast hands a subscriber connection one queue item holding all
# of its updates for the epoch, in ascending id order; a full queue evicts
# every subscription of that connection and no other's.  The pusher writes
# the epoch as back-to-back standalone 0x8C frames, byte-identical to
# per-update frames, and a raw reader on a connection that also carries
# requests must see only well-formed frames, strictly increasing epochs
# per subscription and values bit-identical to ad-hoc answers.  The
# broadcast runs after the ack: on a connection that subscribes and
# ingests, each Ingested / MergeDone reply precedes its epoch's updates
# and a merge pushes once; a batch whose sender leaves before its ack
# still pushes; an in-process ingest surfaces with the next wire ingest.
cargo test --quiet -p sketchtree-server --lib subs::tests::
cargo test --quiet -p sketchtree-server --lib \
    wire::tests::an_encoded_epoch_is_the_concatenation_of_standalone_update_frames
cargo test --quiet -p sketchtree --test standing_e2e \
    raw_pushed_frames_stay_standalone_while_requests_interleave
cargo test --quiet -p sketchtree --test standing_e2e \
    the_ack_precedes_its_epochs_pushes_and_a_merge_pushes_once
cargo test --quiet -p sketchtree --test standing_e2e \
    a_batch_whose_sender_leaves_before_the_ack_still_pushes
cargo test --quiet -p sketchtree --test standing_e2e \
    an_in_process_ingest_surfaces_with_the_next_wire_ingest

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
# The suite also pins the log's batch format to the SKTP IngestTrees
# payload: a log written by the WAL crate's former batch codec (a hex
# fixture) decodes and replays byte-identically; with the log on, the
# appended frame is the IngestTrees payload as received; and an IngestXml
# batch past the decoder's 2^20-label cap is refused and leaves no trace,
# with the log on and off.  The wire tests below cover the payload codec
# itself: shapes round-trip, every truncation and hostile count is
# refused, and the server's cap check refuses what the decoder refuses.
cargo test --quiet -p sketchtree-server --test crash_injection
cargo test --quiet -p sketchtree-wal --lib every_truncation_point_recovers_the_intact_prefix
cargo test --quiet -p sketchtree-server --lib -- \
    wire::tests::ingest_trees_payload_roundtrips_shapes \
    wire::tests::ingest_trees_payload_rejects_malformed_input \
    wire::tests::the_ingest_caps_refuse_what_the_decoder_refuses

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
