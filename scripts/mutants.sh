#!/usr/bin/env bash
# Mutation gate: every listed one-line mutation must make its named test
# fail. A surviving mutant means the test no longer guards that line; an
# old text that no longer matches exactly once means the list went stale;
# a mutant that does not build proves nothing. Any of these makes this
# script exit 1.
#
# Usage: scripts/mutants.sh [PATTERN]
#   PATTERN (optional) runs only the mutations whose line contains it.
#
# The tracked files are copied once to target/mutants/tree and built with
# their own target directory (target/mutants/target), so the working tree
# and its build are never touched. Each mutation is applied to the copy,
# only its named test runs (release profile), and the file is restored
# before the next one. Not part of scripts/check.sh: run it on changes
# that delete or move tested code.
#
# Mutation lines, one per mutant, fields separated by " @@ ":
#   file @@ old text @@ new text @@ package target test
# `target` is `lib` for a crate's unit tests or the name of an
# integration-test file; `test` is the exact test path.
set -euo pipefail
cd "$(dirname "$0")/.."

mutations() {
    cat <<'EOF'
crates/ml/src/compile.rs @@ let go_right = codes[f as usize * bl + k] > self.cut[ix]; @@ let go_right = codes[f as usize * bl + k] >= self.cut[ix]; @@ mfpa-ml compiled_parity rf_compiled_bit_identical_and_thread_invariant
crates/ml/src/compile.rs @@ let go_right = codes[f as usize * bl + k] > self.cut[ix]; @@ let go_right = codes[f as usize * bl + k] >= self.cut[ix]; @@ mfpa-ml compiled_parity gbdt_compiled_bit_identical_and_thread_invariant
crates/ml/src/compile.rs @@ let right = u8::from(self.codes[f] > c); @@ let right = u8::from(self.codes[f] >= c); @@ mfpa-ml compiled_parity sequential_scorer_matches_batch
crates/ml/src/tree.rs @@ let c = u64::from(c); @@ let c = u64::from(c.min(1)); @@ mfpa-ml binned_parity count_weighted_fit_equals_oracle_on_repeated_rows
crates/ml/src/tree.rs @@ for &r in rest { @@ for &r in rest.iter().skip(1) { @@ mfpa-ml binned_parity decision_tree_binned_equals_exact
crates/lint/src/lexer.rs @@ k + width <= r.end && sep @@ sep @@ mfpa-lint tokenizer_props depth0_scans_stay_in_range
crates/core/src/sanitize.rs @@ (self.pending.len() > depth) @@ (self.pending.len() >= depth) @@ mfpa-core lib fleet_monitor::tests::ring_window_matches_the_sorted_vec_oracle
crates/core/src/sanitize.rs @@ .partition_point(|p| p.record.borrow().day <= day); @@ .partition_point(|p| p.record.borrow().day < day); @@ mfpa-suite property_tests drive_monitor_rows_equal_offline_rows
crates/core/src/deploy.rs @@ (v < 0.0).then_some(QuarantineCause::RangeViolation) @@ (v <= 0.0).then_some(QuarantineCause::RangeViolation) @@ mfpa-suite property_tests drive_monitor_rows_equal_offline_rows
crates/core/src/deploy.rs @@ let zeroed = record.smart.get(SmartAttr::Capacity) == 0.0; @@ let zeroed = self.last_day.is_some() && record.smart.get(SmartAttr::Capacity) == 0.0; @@ mfpa-core lib sanitize::tests::sentinel_pages_are_quarantined
crates/core/src/fleet_monitor.rs @@ report.accepted += (r.kept_records + r.duplicates_collapsed) as u64; @@ report.accepted += r.kept_records as u64; @@ mfpa-core lib fleet_monitor::tests::ring_window_matches_the_sorted_vec_oracle
crates/core/src/checkpoint.rs @@ w.u64(shard.readmissions); @@ let _ = shard.readmissions; @@ mfpa-suite fleet_monitor kill_and_restore_is_bit_identical_at_every_batch_boundary
crates/core/src/fleet_monitor.rs @@ self.tick < self.degraded_until @@ self.tick <= self.degraded_until @@ mfpa-core lib fleet_monitor::tests::is_degraded_predicts_the_next_due_sweep
crates/lint/src/rules.rs @@ Panic => (Deterministic, Some("d8"), Some("d5")), @@ Panic => (Deterministic, Some("d5"), Some("d5")), @@ mfpa-lint lib tests::reachable_panic_is_d8_with_chain
EOF
}

pattern="${1:-}"
work="$PWD/target/mutants"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z | xargs -0 cp --parents -t "$tree"

sep=' @@ '
failures=0
while IFS= read -r line; do
    [[ -n "$pattern" && "$line" != *"$pattern"* ]] && continue
    rest="$line"
    file="${rest%%"$sep"*}"; rest="${rest#*"$sep"}"
    old="${rest%%"$sep"*}"; rest="${rest#*"$sep"}"
    new="${rest%%"$sep"*}"; rest="${rest#*"$sep"}"
    read -r package target test <<< "$rest"

    src="$tree/$file"
    original="$(cat "$src"; printf x)"
    original="${original%x}"
    stripped="${original//"$old"/}"
    matches=$(( (${#original} - ${#stripped}) / ${#old} ))
    if [[ "$matches" -ne 1 ]]; then
        echo "STALE    $file: old text matches $matches times: $old"
        failures=$((failures + 1))
        continue
    fi
    printf '%s' "${original/"$old"/"$new"}" > "$src"

    if [[ "$target" == lib ]]; then
        selector=(--lib)
    else
        selector=(--test "$target")
    fi
    start=$SECONDS
    run=(cargo test --release -q -p "$package" "${selector[@]}")
    if ! (cd "$tree" && "${run[@]}" --no-run) > "$work/last.log" 2>&1; then
        echo "BROKEN   $file: $old -> $new does not build (see $work/last.log)"
        failures=$((failures + 1))
    elif (cd "$tree" && "${run[@]}" -- --exact "$test") > "$work/last.log" 2>&1; then
        echo "SURVIVED $file: $old -> $new ($test)"
        failures=$((failures + 1))
    else
        echo "killed   $file: $old -> $new ($test, $((SECONDS - start)) s)"
    fi
    printf '%s' "$original" > "$src"
done < <(mutations)

if [[ "$failures" -gt 0 ]]; then
    echo "error: $failures mutation(s) survived, went stale or did not build" >&2
    exit 1
fi
echo "every mutant was killed"
