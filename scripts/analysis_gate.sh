#!/usr/bin/env bash
# analysis_gate.sh — the static-analysis gate.
#
# benchmark/run.sh keeps the perf claims honest; this gate keeps the
# *soundness* claims honest (and the public surface small). Four tiers,
# all cheap enough for CI:
#
#   lints          cargo fmt --all -- --check (the format step CI runs),
#                  cargo clippy --workspace --all-targets -D warnings, and
#                  rustdoc with -D warnings (a doc link to an item that
#                  stopped being public fails here instead of rotting).
#
#   surface        one rule over the whole tree: every `pub` fn, method,
#                  struct, enum, trait, type alias, const and static before
#                  its file's test tail (the first `#[cfg(test)]` at the
#                  start of a line), in crates/*/src and crates/shims/*/src,
#                  has a caller outside tests. A caller is a non-comment
#                  line before its file's test tail, in examples/, src/,
#                  benchmark/src/ or a crates/*/src file other than the
#                  defining one; for a shim item, the test code of every
#                  other package counts too, since a shim exists to serve
#                  it. Examples and the benchmark count because they are the
#                  programs that define what is public. The match is
#                  qualified wherever the call form allows: an associated
#                  fn or const must appear as `Type::name`, a free item by
#                  its path or through a `use` (a `use` alone, re-exports
#                  included, is never a caller); only a method call
#                  (`.name(`) matches by name. scripts/surface.awk holds
#                  the rule and scripts/surface_allowlist.txt the items
#                  exempt from it, each with one reason from a closed set
#                  (a type in a called item's signature, a fixture or
#                  reference an integration test compares against, a trait
#                  item users implement); an entry that names nothing or
#                  whose item now has a caller fails. The tier is proven to
#                  bite on a scratch copy of the tree: a planted uncalled
#                  `pub fn` and a planted entry naming nothing must each be
#                  reported, and nothing else. Blind spots left: enum
#                  variants and struct fields are not items here, and a
#                  method name shared across types passes on any type's
#                  call site; a trait counts as called only where its name
#                  appears on a code line, so a trait used only through a
#                  method call after a `use` is reported uncalled while it is
#                  still depended on.
#
#   audit          every crate root must pin its unsafe posture: either
#                  #![forbid(unsafe_code)] or
#                  #![deny(unsafe_op_in_unsafe_fn)], and every `unsafe`
#                  block or impl in a deny-posture crate (core, par —
#                  every other crate, the engine and trisolve included,
#                  forbids unsafe code outright) must carry a SAFETY
#                  comment within the three lines above it.
#
#   checkers       the machine-checked soundness suites: the interleave
#                  model checker's own tests, the par/sched protocol
#                  models — including the poison-aware wait/barrier
#                  models, the level-completion protocol the wavefront
#                  and the fused, claimed copy-back run on, and the join
#                  protocol of a caller-run region (a helper registers
#                  while the region word is open, the dispatcher closes it
#                  when its own share returns and waits for exactly the
#                  helpers that joined), whose mutation tests prove the
#                  checker still catches corrupted protocols —
#                  the fault-injection chaos suite (every injected failure
#                  mode must resolve typed and recoverable, `y` untouched),
#                  the plan-soundness
#                  verifier's suites (whose seeded schedule mutations
#                  prove the verifier still rejects unsound plans;
#                  `verify_artifacts` is the only judge of a loaded plan,
#                  the store's codec only parses a record and checks that
#                  its own fields agree), and
#                  the staged planner's equivalence proof
#                  (staged_equivalence: the stage-1 floor bounds every
#                  parallel price as computed, so stopping a plan build
#                  at the gate changes no decision and no price).
#
#                  Six of those are what the plan's one claim stream
#                  stands on, and are run again by name so that a rename
#                  or a filter can not drop them silently (a name that
#                  matches no test fails the gate): the chunked-claim
#                  hand-off model (a worker whose grab ends at the last
#                  slot grabs no more) and its two mutations, a chunk
#                  walked back to front and a claim loop that leaves one
#                  slot early (interleave_models), the stream equivalence proptest
#                  (every stream-backed variant x workers x claim grain,
#                  bit for bit, stamped counts exact), and the three
#                  stream mutation kills (soundness: a flag-stream class
#                  byte flipped new -> old, two order entries swapped
#                  across a true dependence, a truncated `ends`). Beside
#                  them, the stream without class bytes (every reference a
#                  true dependence): rejected over anti, unwritten and
#                  intra references under every stream-backed variant and
#                  against a census that counts them, accepted iff every
#                  reference is a true dependence and then run like the
#                  oracle, equal to its all-`NewValue` byte form, run
#                  under both gates, and round-tripped by the v10 store,
#                  which refuses v7, v8 and v9 ones typed (and a warm start
#                  from a v8 or a v9 one is a traced cold start). The §2.3
#                  strip-mined run, which no plan selects, is named too:
#                  on a non-injective loop it matches the oracle at any
#                  block size up to the write gap and fails typed past
#                  it. A row's reference count
#                  is checked only where the region reads the row: a
#                  loop disagreeing with its plan is rejected by the
#                  region under every stream-backed variant, claim source,
#                  fallback policy and deadline, with the mismatch in the
#                  first, a middle or the last claim slot, and still
#                  fails typed naming the first mismatching slot in claim
#                  order, `y` untouched, no fault counted, traced or
#                  flight-recorded, no span left for the next profile
#                  (terms_mismatch). Two more
#                  run by name for the profiler: its buffer-recycling
#                  harvest equals a verbatim copy of the old harvest on
#                  random timelines, and a faulted or rejected solve
#                  leaves no spans in the next profile (the arena is reset
#                  on the fault and rejection paths only, not before every
#                  solve). Two
#                  more for the sequential path that bypasses admission:
#                  a held engine refuses a parallel solve typed while it
#                  serves a sequential one, and a profiled sequential
#                  solve is exactly one work span made from its stats.
#                  The fingerprint's collision proptest and its crafted
#                  row-split pair run by name too: the plan key is the
#                  cache's and the store's, and a lane that stopped
#                  separating edits would alias plans silently.
#                  And the paper's application on the engine: both halves
#                  of the ILU(0) preconditioner on every Table-1 operator,
#                  planned parallel, the backward half's `finish` hook
#                  inside the stream executors, bit for bit.
#                  And the caller-run region's join protocol, every test
#                  of its model by name: sound, a late helper's poison, the
#                  deadline's abandon-before-abort rule, and the kills —
#                  a registration after close calls a dead job, a close
#                  before the dispatcher's share is exhausted loses
#                  iterations, a dispatcher that does not wait for a
#                  joined helper races it, an abort that did not abandon
#                  the gate tears `y`.
#                  And the one pricing function: a plan's features priced
#                  under its build model are its prices and under any
#                  other model a fresh stage-2 price, bit for bit (the
#                  extended gate proptest and the clamped-critical-path
#                  structure), and a stored plan whose features its census
#                  cannot produce is rejected typed, one case per rule.
#                  And the one region driver, under both of its gates:
#                  the flag gate and the level gate each match the oracle
#                  at every claim grain, the one claim function covers
#                  every index once, in increasing order per worker, on
#                  real threads at every chunk size,
#                  the profiler's spans keep their shape (a flag region's
#                  work spans carry no level, a level region's name
#                  distinct levels and its boundary waits exactly the
#                  levels crossed), and an injected panic or a wedged
#                  solve resolves typed on every parallel variant — and,
#                  with faults polled once per claim, a panic half a claim
#                  deep and a deadline expiring mid-region resolve typed
#                  too. Each triangular loop's row folds (the sequential
#                  kernel's and the parallel executor's) are the trait's
#                  default bodies bit for bit.
#                  And the one selection: an adaptive evaluation names as
#                  its challenger exactly the variant a replan under the
#                  refined model builds, names nothing when that variant
#                  was rejected (even with a third kind clearing the
#                  margin), and a gated plan pays one replan per reopening
#                  of its floor; end to end, the mispriced engine promotes
#                  the measured-cheaper variant.
#                  And a store that carries structure, not decisions: a
#                  plan's selection under its build model is the plan
#                  itself (the identity above), so a store written under
#                  an engine's own model restores every plan; one written
#                  under another model (the Table-1 factors planned on the
#                  Multimax preset) restores only what the loading
#                  engine's model selects, its decisions equal a cold
#                  engine's, every skipped plan is rebuilt cold, and every
#                  output is the oracle's, and every restored plan carries
#                  the loading model's prices (a cold engine's, bit for
#                  bit; the stored `Arc` when they already were); a plan
#                  record with one byte flipped, dropped or inserted
#                  (length prefix and checksum re-sealed), and a whole
#                  store with one byte so mutated anywhere after its
#                  version word (checksum re-sealed), fails typed or loads
#                  verified plans, never a panic. The rules the codec gave
#                  up are killed in artifact mode, by name: level offsets
#                  on a flag stream, a wavefront stream without an order,
#                  a level count off the critical path, classified
#                  references past the total, and a claim stream where the
#                  variant runs none.
#
# The last line before the verdict prints scripts/code_lines.sh's total,
# for information: the count is not gated.
#
# Exit nonzero on any violation, loudly.

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
say() { printf '%s\n' "$*"; }
violation() { say "analysis_gate: FAIL: $*" >&2; fail=1; }

# --- lints ------------------------------------------------------------------

say "analysis_gate: rustfmt (check only)"
cargo fmt --all -- --check ||
  violation "cargo fmt --all -- --check reported unformatted code"

say "analysis_gate: clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings ||
  violation "clippy reported warnings"

say "analysis_gate: rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet ||
  violation "rustdoc reported warnings"

# --- surface ----------------------------------------------------------------

say "analysis_gate: every public item has a caller outside tests"
surface_tier() { # tree root; prints one line per violation
  (
    cd "$1"
    # shellcheck disable=SC2046 # one argument per source path
    awk -f scripts/surface.awk scripts/surface_allowlist.txt \
      $(find examples src tests benchmark/src crates -name '*.rs' | sort)
  )
}
surface=$(surface_tier .)
if [ -n "$surface" ]; then
  while IFS= read -r miss; do violation "surface: $miss"; done <<<"$surface"
fi

# The tier bites: on a scratch copy, an uncalled `pub fn` and an allowlist
# entry naming nothing are each reported, alone.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
tar -cf - examples src tests benchmark/src crates scripts | tar -xf - -C "$scratch"
bites() { # the one violation (a fixed string) the scratch copy must report
  local got
  got=$(surface_tier "$scratch")
  if [ "$(grep -c . <<<"$got")" -ne 1 ] || ! grep -qF "$1" <<<"$got"; then
    violation "surface tier did not report exactly '$1' on a planted copy: ${got:-nothing}"
  fi
}
planted=crates/sparse/src/vec_ops.rs
sed -i '1i pub fn surface_gate_planted() {}' "$scratch/$planted"
bites 'sparse::vec_ops::surface_gate_planted has no caller outside tests'
cp "$planted" "$scratch/$planted"
echo 'sparse::surface_gate_planted (a) names nothing' >>"$scratch/scripts/surface_allowlist.txt"
bites 'sparse::surface_gate_planted names nothing'

# --- audit ------------------------------------------------------------------

say "analysis_gate: unsafe posture audit"
for root in crates/*/src/lib.rs crates/*/src/main.rs crates/shims/*/src/lib.rs src/lib.rs; do
  [ -f "$root" ] || continue
  if ! grep -Eq '^#!\[(forbid\(unsafe_code\)|deny\(unsafe_op_in_unsafe_fn\))\]' "$root"; then
    violation "$root: crate root declares neither forbid(unsafe_code) nor deny(unsafe_op_in_unsafe_fn)"
  fi
done

# In deny-posture crates, every `unsafe` keyword outside a comment must have
# a SAFETY comment in the (possibly multi-line) comment block that ends
# within the three lines above it (the block may sit above the head of a
# multi-line statement). `unsafe fn` declarations document their contract
# in their rustdoc (`# Safety` section), which the same walk accepts.
audit=$(awk '
  FNR == 1 { delete comment }
  /^[[:space:]]*\/\// { comment[FNR] = $0; next }
  /(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)/ {
    ok = 0
    # `unsafe fn`/`unsafe trait` declarations carry their contract in
    # rustdoc (`# Safety`); the posture lint forces their bodies back
    # through explicit `unsafe {}` blocks, which this walk does check.
    if ($0 ~ /unsafe (fn|trait)/) ok = 1
    top = FNR - 1
    while (top > FNR - 3 && !(top in comment)) top--
    for (l = top; !ok && (l in comment); l--)
      if (comment[l] ~ /SAFETY|# Safety/) ok = 1
    # One SAFETY comment covers an adjacent cluster of unsafe lines.
    if (FILENAME == lastfile && FNR - lastok <= 1) ok = 1
    if (ok) { lastfile = FILENAME; lastok = FNR }
    else printf "%s:%d: unsafe without a SAFETY comment above it\n", FILENAME, FNR
  }
' $(find crates/core/src crates/par/src -name '*.rs'))
if [ -n "$audit" ]; then
  while IFS= read -r miss; do violation "$miss"; done <<<"$audit"
fi

# --- checkers ---------------------------------------------------------------

say "analysis_gate: interleave checker self-tests"
cargo test -q -p interleave ||
  violation "interleave checker self-tests failed"

say "analysis_gate: synchronization protocol models (par, sched)"
cargo test -q -p doacross-par --test interleave_models ||
  violation "par protocol models failed (ready flags / spin barrier / poison protocol)"
cargo test -q -p doacross-par --test completion_models ||
  violation "par protocol models failed (level completion counts / fused copy-back / commit-or-abort gate)"
cargo test -q -p doacross-par --test join_models ||
  violation "par protocol models failed (caller-run region: register / close / wait)"
cargo test -q -p doacross-sched --test interleave_models ||
  violation "sched protocol models failed (free-pool bitmask)"

say "analysis_gate: fault-containment chaos suite (failpoint injection)"
cargo test -q -p doacross-engine --test chaos ||
  violation "chaos suite failed (injected faults must resolve typed and recoverable)"

say "analysis_gate: plan-soundness verifier (mutation kills + equivalence)"
cargo test -q -p doacross-verify ||
  violation "verifier suites failed"
cargo test -q -p doacross-trisolve --test verify_table1 ||
  violation "Table 1 plan-soundness acceptance failed"

# The claim stream's own proofs, by name: `--exact` plus a count check, so
# a test that was renamed away fails here instead of passing vacuously.
say "analysis_gate: claim-stream proofs, by name"
# The output is captured before it is searched: `grep -q` reading a pipe
# exits at its match, and the test binary's next write would then fail
# under `pipefail` and turn a passing test into a violation.
named() { # package, test target ("lib" for the crate's unit tests), test name
  local target=(--test "$2") out
  [ "$2" = lib ] && target=(--lib)
  if ! out=$(cargo test -q -p "$1" "${target[@]}" -- --exact "$3" 2>&1) ||
    ! grep -q '^test result: ok. 1 passed' <<<"$out"; then
    violation "$1 ${target[*]}: '$3' did not run and pass"
  fi
}
named doacross-par interleave_models chunked_claims_walked_in_slot_order_never_deadlock_or_race
named doacross-par interleave_models mutation_chunk_walked_back_to_front_is_a_deadlock
named doacross-par interleave_models mutation_claim_loop_leaving_one_slot_early_strands_the_gate
named doacross-verify proptest_equivalence accepted_schedules_execute_like_the_oracle
named doacross-verify soundness kills_dropped_flag
named doacross-verify soundness kills_claim_order_inversion
named doacross-verify soundness kills_truncated_ends
named doacross-verify soundness kills_classless_stream_over_mixed_references
named doacross-verify soundness artifact_mode_kills_a_classless_stream_under_a_mixed_census
named doacross-verify proptest_equivalence classless_streams_are_accepted_iff_every_reference_is_a_true_dependence
named doacross-core lib wavefront::tests::all_new_value_bytes_and_none_give_equal_streams
named doacross-core lib wavefront::tests::classless_streams_match_sequential_under_both_gates
named doacross-core lib wavefront::tests::a_rejected_region_names_the_first_mismatch_in_claim_order
named doacross-engine terms_mismatch a_loop_disagreeing_with_its_plan_is_rejected_typed_by_the_region
for t in classless_and_class_byte_streams_round_trip \
  v7_stores_are_rejected_with_a_typed_version_error \
  v8_stores_are_rejected_with_a_typed_version_error \
  v9_stores_are_rejected_with_a_typed_version_error; do
  named doacross-plan lib "persist::tests::$t"
done
for t in v8_stores_fail_typed_and_warm_start_traces_a_clean_cold_start \
  v9_stores_fail_typed_and_warm_start_traces_a_clean_cold_start; do
  named doacross-engine adaptive "$t"
done
named preprocessed-doacross proptest_doacross blocked_runs_duplicate_writers_up_to_the_write_gap

# The profiler's recycling harvest against a verbatim copy of the old one,
# and the fault path that is now the only arena reset, by name.
say "analysis_gate: profile harvest equivalence and fault hygiene, by name"
named doacross-obs proptests harvest_equals_the_reference_harvest
named doacross-engine chaos a_fault_leaves_no_spans_in_the_next_profile

# The observability state's plain fields are correct only while every
# writer holds its one lock: concurrent observed, profiled tenants lose no
# count; a solve's two events take consecutive sequence numbers in one
# push; concurrent emitters leave the trace ring one contiguous run of
# sequence numbers; one thread keeps the whole ring and every older event
# is counted dropped.
say "analysis_gate: the solve ledger under concurrent tenants, by name"
named doacross-engine observed_tenants concurrent_observed_tenants_lose_no_count
named doacross-engine observed_tenants one_thread_keeps_the_whole_trace_ring
named doacross-obs lib trace::tests::one_push_takes_consecutive_numbers_in_order
named doacross-obs proptests trace_ring_wraps_without_tearing_under_concurrency

# A stored record's fixed-width fields (processors, census counters, the
# linear subscript, prices, features), each set to every edge value.
say "analysis_gate: persist header-field fuzz, by name"
named doacross-plan lib persist::tests::every_fixed_width_field_set_to_an_edge_value_fails_typed_or_loads_verified_plans

# A sequential plan bypasses admission: a held engine refuses a parallel
# solve typed and still serves a sequential one, and a profiled sequential
# solve is exactly one work span made from its stats, by name.
say "analysis_gate: the sequential path bypasses admission, by name"
named doacross-engine throughput_stress saturated_admission_fails_typed_and_recovers
named doacross-engine profile a_profiled_sequential_solve_is_one_work_span_made_from_its_stats

# The plan key's collision properties: single-word edits, row splits and
# wide subscripts change both hash streams, and the crafted row-split pair
# keeps separating each stream, by name.
say "analysis_gate: fingerprint collision properties, by name"
for t in single_edits_change_both_streams \
  an_element_moved_across_a_row_boundary_changes_both_streams \
  a_subscript_at_or_above_2_pow_32_never_aliases_its_low_bits; do
  named doacross-plan proptest_fingerprint "$t"
done
named doacross-plan lib fingerprint::tests::row_boundary_split_perturbs_both_streams

say "analysis_gate: the preconditioner's two prepared loops, by name"
named doacross-trisolve lib precond::tests::table1_halves_plan_parallel_on_the_preset_engine_and_match_bitwise

# The two row folds: each triangular loop's `fold_terms` override (the
# sequential kernel's) returns the trait's default body bit for bit, its
# `fold_terms_with` override (the parallel executor's) returns the default
# body's bits with the default body's operand calls, the fallback replay of
# a faulted triangular solve runs the first, and the row-bucketed triplet
# build matches the sort-based build it replaced, by name.
say "analysis_gate: each row-fold override is the default body, by name"
for t in each_fold_terms_override_is_the_default_body \
  table1_factor_overrides_fold_like_the_default_body \
  each_fold_terms_with_override_is_the_default_body \
  table1_factor_overrides_fold_with_like_the_default_body; do
  named doacross-trisolve fold_terms "$t"
done
named doacross-engine chaos fallback_replay_of_a_triangular_solve_is_forward_solve
named doacross-sparse lib builder::tests::bucketed_build_is_bit_identical_to_the_sort_based_build

say "analysis_gate: the caller-run region's join protocol, by name"
for t in join_protocol_is_sound \
  a_late_helper_that_dies_poisons_the_region_and_nobody_copies_back \
  a_deadline_struck_participant_commits_or_aborts_with_everyone_else \
  mutation_register_after_close_calls_a_dead_job \
  mutation_close_before_the_share_is_exhausted_loses_iterations \
  mutation_returning_without_waiting_for_a_joined_helper_is_a_race \
  mutation_aborting_without_abandoning_the_gate_tears_y; do
  named doacross-par join_models "$t"
done

say "analysis_gate: one pricing function over stored features, by name"
for t in the_gate_changes_no_decision_and_no_price \
  a_flag_price_clamped_at_the_critical_path_reprices_exactly; do
  named doacross-plan staged_equivalence "$t"
done
for t in decode_rejects_a_non_finite_or_negative_stall_weight \
  decode_rejects_a_stall_weight_above_every_edge_stalling \
  decode_rejects_wavefront_rounds_outside_the_level_bounds \
  decode_rejects_features_on_a_gated_or_stream_less_record; do
  named doacross-plan lib "persist::tests::$t"
done

say "analysis_gate: one region driver, by name"
named doacross-core lib executor::tests::mixed_pattern_matches_sequential_under_all_schedules
named doacross-core lib wavefront::tests::all_chunkings_and_schedules_agree
named doacross-par lib schedule::tests::dynamic_policies_share_work_across_concurrent_workers
for t in flat_executor_spans_reconcile_with_run_stats \
  wavefront_spans_reconcile_with_barrier_crossings; do
  named doacross-engine profile "$t"
done
for t in injected_worker_panic_fails_typed_across_every_parallel_variant \
  solve_deadline_resolves_a_wedged_solve_typed; do
  named doacross-engine chaos "$t"
done

# Faults are polled once per claim and the failpoint hits every iteration:
# a panic injected half a claim deep fails typed with `y` untouched, and a
# deadline that expires mid-region times out typed, on a wavefront with
# 15-slot claims and on a flag-priced plan, by name.
say "analysis_gate: faults at claim granularity, by name"
for t in a_panic_inside_a_claim_fails_typed_with_y_untouched \
  a_deadline_expiring_mid_region_times_out_typed; do
  named doacross-engine chaos "$t"
done

say "analysis_gate: one selection, by name"
for t in the_challenger_is_the_planners_own_choice_under_the_refined_model \
  the_plan_is_its_own_challenger_under_its_build_model \
  propose_requires_divergence_and_a_margin_winner \
  a_settled_proposal_is_not_raised_again; do
  named doacross-engine lib "adaptive::policy::tests::$t"
done
named doacross-engine adaptive mispriced_model_promotes_to_the_measured_cheaper_variant

say "analysis_gate: a store carries structure, not decisions, by name"
named doacross-engine persist a_store_written_under_another_model_restores_only_this_engines_decisions
named doacross-plan lib persist::tests::a_mutated_record_fails_typed_or_loads_verified_plans
named doacross-plan proptest_persist a_mutated_store_fails_typed_or_loads_verified_plans

say "analysis_gate: verify_artifacts is the one judge of a loaded plan, by name"
for t in artifact_mode_kills_level_offsets_on_a_flag_stream \
  artifact_mode_kills_a_wavefront_stream_without_an_order \
  artifact_mode_kills_a_level_count_off_the_critical_path \
  artifact_mode_kills_classified_references_past_the_total; do
  named doacross-verify soundness "$t"
done
named doacross-plan lib plan::tests::sync_schedule_refuses_a_stream_where_the_variant_runs_none
for t in structural_revalidation_rejects_inconsistent_records \
  decode_rejects_a_linear_subscript_past_usize; do
  named doacross-plan lib "persist::tests::$t"
done

# Stage 0: a plan the reference counts settle is the plan stage 1 would
# gate, bit for bit; it runs no census pass (two allocations fewer), names
# an out-of-bounds subscript as the census pass does, claims no dependence
# it did not count, and no stream loads against its census, by name.
say "analysis_gate: a plan the counts settle, by name"
for t in the_parallel_floor_never_decreases_as_the_critical_path_grows \
  a_plan_the_counts_settle_is_gated_at_stage_one_with_the_same_bits \
  stage_zero_settles_exactly_below_the_counts_floor; do
  named doacross-plan staged_equivalence "$t"
done
named doacross-engine zero_alloc a_cold_prepare_settled_on_counts_skips_the_census_pass_allocations
for t in out_of_bounds_subscripts_are_the_census_passs_error_and_nothing_is_cached \
  an_injective_left_hand_side_that_is_not_linear_is_classified \
  a_plan_settled_on_counts_claims_no_dependence_and_round_trips; do
  named doacross-engine settled_on_counts "$t"
done
named doacross-verify soundness artifact_mode_kills_a_stream_under_an_unclassified_census
named doacross-plan lib persist::tests::decode_rejects_a_stream_under_an_unclassified_census

say "analysis_gate: staged planner equivalence (the gate changes no decision and no price)"
cargo test -q -p doacross-plan --test staged_equivalence ||
  violation "staged planner equivalence failed (parallel floor / stage-1 gate)"

# For information, not a gate: the code-line count ROADMAP.md tracks.
say "analysis_gate: code lines (scripts/code_lines.sh): $(scripts/code_lines.sh | tail -n 1)"

# ---------------------------------------------------------------------------

if [ "$fail" -ne 0 ]; then
  say "analysis_gate: FAILED" >&2
  exit 1
fi
say "analysis_gate: OK"
