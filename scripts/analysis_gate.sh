#!/usr/bin/env bash
# analysis_gate.sh — the static-analysis gate.
#
# benchmark/run.sh keeps the perf claims honest; this gate keeps the
# *soundness* claims honest (and the public surface small). Four tiers,
# all cheap enough for CI:
#
#   lints          cargo clippy --workspace --all-targets -D warnings.
#
#   surface        every `pub fn` in the `impl` blocks of `Engine`,
#                  `PreparedLoop` and the types the engine is built from
#                  (`EngineBuilder`, `ConcurrentPlanCache`, `PlanStore`,
#                  `Obs`, `Profiler`, `PlanExecutor`) must have a caller
#                  outside tests. A call site is
#                  `.name(` or `::name(` on a non-comment line that comes
#                  before its file's first `#[cfg(test)]`, in examples/,
#                  src/, benchmark/src/ or a crates/*/src file other than
#                  the defining one. Integration tests, `#[cfg(test)]`
#                  modules and doc comments do not count: a method only
#                  they call is surface nothing ships through. Known blind
#                  spot: the match is by name, not by receiver type, so a
#                  method that shares its name with another type's method
#                  (`contains`, `config`) passes on the other's call sites.
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
#                  prove the verifier still rejects unsound plans), and
#                  the staged planner's equivalence proof
#                  (staged_equivalence: the stage-1 floor bounds every
#                  parallel price as computed, so stopping a plan build
#                  at the gate changes no decision and no price).
#
#                  Five of those are what the plan's one claim stream
#                  stands on, and are run again by name so that a rename
#                  or a filter can not drop them silently (a name that
#                  matches no test fails the gate): the chunked-claim
#                  hand-off model and its back-to-front mutation
#                  (interleave_models), the stream equivalence proptest
#                  (every stream-backed variant x workers x claim grain,
#                  bit for bit, stamped counts exact), and the three
#                  stream mutation kills (soundness: a flag-stream class
#                  byte flipped new -> old, two order entries swapped
#                  across a true dependence, a truncated `ends`). Two more
#                  run by name for the profiler: its buffer-recycling
#                  harvest equals a verbatim copy of the old harvest on
#                  random timelines, and a faulted or rejected solve
#                  leaves no spans in the next profile (the arena is reset
#                  on the fault path only, not before every solve). Two
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
#                  solve resolves typed on every parallel variant.
#                  And the one selection: an adaptive evaluation names as
#                  its challenger exactly the variant a replan under the
#                  refined model builds, names nothing when that variant
#                  was rejected (even with a third kind clearing the
#                  margin), and a gated plan pays one replan per reopening
#                  of its floor; end to end, the mispriced engine promotes
#                  the measured-cheaper variant.
#
# Exit nonzero on any violation, loudly.

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
say() { printf '%s\n' "$*"; }
violation() { say "analysis_gate: FAIL: $*" >&2; fail=1; }

# --- lints ------------------------------------------------------------------

say "analysis_gate: clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings ||
  violation "clippy reported warnings"

# --- surface ----------------------------------------------------------------

say "analysis_gate: public surface has callers outside tests"
surface() { # defining file, type name
  local def=$1 ty=$2 names corpus
  names=$(awk -v ty="$ty" '
    $0 ~ "^impl(<[^>]*>)? " ty " \\{" { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && match($0, /^    pub fn [A-Za-z_0-9]+/) { print substr($0, 12, RLENGTH - 11) }
  ' "$def")
  if [ -z "$names" ]; then
    violation "$def: no pub fn found in impl $ty"
    return
  fi
  corpus=$(find examples src benchmark/src crates/*/src -name '*.rs' ! -path "$def" -print0 |
    xargs -0 awk '
      FNR == 1 { skip = 0 }
      /#\[cfg\(test\)\]/ { skip = 1 }
      !skip && !/^[[:space:]]*\/\// { print }
    ')
  for name in $names; do
    grep -Eq "(\.|::)${name}\(" <<<"$corpus" ||
      violation "$ty::$name has no caller outside tests ($def)"
  done
}
surface crates/engine/src/engine.rs Engine
surface crates/engine/src/prepared.rs PreparedLoop
surface crates/engine/src/builder.rs EngineBuilder
surface crates/plan/src/concurrent.rs ConcurrentPlanCache
surface crates/plan/src/persist.rs PlanStore
surface crates/obs/src/lib.rs Obs
surface crates/obs/src/profile.rs Profiler
surface crates/plan/src/runtime.rs PlanExecutor

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
named() { # package, test target ("lib" for the crate's unit tests), test name
  local target=(--test "$2")
  [ "$2" = lib ] && target=(--lib)
  if ! cargo test -q -p "$1" "${target[@]}" -- --exact "$3" 2>&1 | grep -q '^test result: ok. 1 passed'; then
    violation "$1 ${target[*]}: '$3' did not run and pass"
  fi
}
named doacross-par interleave_models chunked_claims_walked_in_slot_order_never_deadlock_or_race
named doacross-par interleave_models mutation_chunk_walked_back_to_front_is_a_deadlock
named doacross-verify proptest_equivalence accepted_schedules_execute_like_the_oracle
named doacross-verify soundness kills_dropped_flag
named doacross-verify soundness kills_claim_order_inversion
named doacross-verify soundness kills_truncated_ends

# The profiler's recycling harvest against a verbatim copy of the old one,
# and the fault path that is now the only arena reset, by name.
say "analysis_gate: profile harvest equivalence and fault hygiene, by name"
named doacross-obs proptests harvest_equals_the_reference_harvest
named doacross-engine chaos a_fault_leaves_no_spans_in_the_next_profile

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
  a_subscript_at_or_above_2_pow_32_never_aliases_its_low_bits \
  structures_spread_over_eight_shards; do
  named doacross-plan proptest_fingerprint "$t"
done
named doacross-plan lib fingerprint::tests::row_boundary_split_perturbs_both_streams

say "analysis_gate: the preconditioner's two prepared loops, by name"
named doacross-trisolve lib precond::tests::table1_halves_plan_parallel_on_the_preset_engine_and_match_bitwise

# The sequential kernel's row fold: each triangular loop's `fold_terms`
# override returns the trait's default body bit for bit, the fallback replay
# of a faulted triangular solve runs it, and the row-bucketed triplet build
# matches the sort-based build it replaced, by name.
say "analysis_gate: each fold_terms override is the default body, by name"
for t in each_fold_terms_override_is_the_default_body \
  table1_factor_overrides_fold_like_the_default_body; do
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

say "analysis_gate: one selection, by name"
for t in the_challenger_is_the_planners_own_choice_under_the_refined_model \
  the_plan_is_its_own_challenger_under_its_build_model \
  propose_requires_divergence_and_a_margin_winner \
  a_settled_proposal_is_not_raised_again; do
  named doacross-adapt lib "policy::tests::$t"
done
named doacross-engine adaptive mispriced_model_promotes_to_the_measured_cheaper_variant

say "analysis_gate: staged planner equivalence (the gate changes no decision and no price)"
cargo test -q -p doacross-plan --test staged_equivalence ||
  violation "staged planner equivalence failed (parallel floor / stage-1 gate)"

# ---------------------------------------------------------------------------

if [ "$fail" -ne 0 ]; then
  say "analysis_gate: FAILED" >&2
  exit 1
fi
say "analysis_gate: OK"
