#!/usr/bin/env bash
# Repository gate: formatting, lints, tests. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

# Severities come from [workspace.lints] in the root Cargo.toml
# (warnings + clippy::all + clippy::perf are errors); no ad-hoc -D flags.
echo "== cargo clippy (workspace) =="
cargo clippy --workspace --all-targets

echo "== mfpa-lint (determinism rule catalog, DESIGN.md §8) =="
cargo build --release -q -p mfpa-lint
target/release/mfpa-lint

echo "== mfpa-lint snapshot freshness: results/lint_report.json must match a fresh scan =="
fresh_report="$(mktemp)"
trap 'rm -f "$fresh_report"' EXIT
target/release/mfpa-lint --report "$fresh_report" > /dev/null
if ! diff -q results/lint_report.json "$fresh_report" > /dev/null; then
    echo "error: results/lint_report.json is stale — run 'repro lint' and commit the diff" >&2
    diff -u results/lint_report.json "$fresh_report" | head -40 >&2 || true
    exit 1
fi
echo "snapshot is fresh"

echo "== mfpa-lint waiver ratchet: allow count may only go down =="
# Ceiling on the committed waiver count in results/lint_report.json.
# The count may only decrease over time; a PR that genuinely needs a
# new allow must bump this constant in the same commit, with a comment
# saying which waiver was added and why. History: 16 through PR 8;
# 17 since PR 9 (one d12 waiver: the slot-0 bootstrap index in
# CompiledEnsemble::from_bytes, justified in the snapshot). Unchanged
# in PR 10: the value-range rules d13-d15 landed with zero new
# waivers — every flagged site was made provable instead (is_empty
# early-returns, a right_n < 1.0 guard, one u32 annotation).
max_allows=17
n_allows="$(grep -o '"allows": [0-9]*' results/lint_report.json | awk '{s+=$2} END {print s+0}')"
if [ "$n_allows" -gt "$max_allows" ]; then
    echo "error: results/lint_report.json carries $n_allows waivers, ceiling is $max_allows" >&2
    echo "       remove the new allow or bump max_allows in scripts/check.sh with a justification" >&2
    exit 1
fi
echo "waiver count $n_allows <= ceiling $max_allows"

echo "== mfpa-lint size ratchet: lint source lines may only go down =="
# Ceiling on `cat crates/lint/src/*.rs | wc -l`, tests included. The
# count may only decrease over time; a change that genuinely needs more
# lint code must bump this constant in the same commit, with a comment
# saying what was added and why. History: set to the line count at
# which taint, dataflow and absint moved onto the shared per-function
# IR (ir.rs).
max_lint_lines=8251
n_lint_lines="$(cat crates/lint/src/*.rs | wc -l)"
if [ "$n_lint_lines" -gt "$max_lint_lines" ]; then
    echo "error: crates/lint/src holds $n_lint_lines lines, ceiling is $max_lint_lines" >&2
    echo "       remove code or bump max_lint_lines in scripts/check.sh with a justification" >&2
    exit 1
fi
echo "lint source lines $n_lint_lines <= ceiling $max_lint_lines"

echo "== mfpa-lint fixture workspace: both output formats over tests/fixtures/ws =="
fixture_ws="crates/lint/tests/fixtures/ws"
for fmt in human json; do
    # The fixture workspace contains planted violations; exit 1 is the
    # expected outcome, anything else (0 = missed, 2 = crashed) fails.
    status=0
    target/release/mfpa-lint --root "$fixture_ws" --format "$fmt" > /dev/null || status=$?
    if [ "$status" -ne 1 ]; then
        echo "error: fixture workspace lint (--format $fmt) exited $status, expected 1" >&2
        exit 1
    fi
done
echo "fixture violations reported in both formats"

echo "== mfpa-lint negative smoke: injected violations must fail the gate =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fresh_report"' EXIT
mkdir -p "$smoke_dir/crates/core/src"
printf '[workspace]\nmembers = []\n' > "$smoke_dir/Cargo.toml"
printf 'pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n' \
    > "$smoke_dir/crates/core/src/lib.rs"
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag an injected unwrap()" >&2
    exit 1
fi
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
use std::collections::HashMap;

pub fn score_fleet(scores: &HashMap<String, f64>) -> Vec<f64> {
    scores.values().cloned().collect()
}
RS
rm "$smoke_dir/crates/core/src/lib.rs"
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag HashMap iteration reaching score_fleet (d7)" >&2
    exit 1
fi
echo "injected violations caught, as expected"

echo "== dataflow negative smokes: d10/d11/d12 injections must fail the scan =="
# d10: order-sensitive f64 accumulation captured by a par-combinator
# closure — the sum depends on worker interleaving.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub fn total(rows: &[f64]) -> f64 {
    let mut total = 0.0;
    let workers = mfpa_par::Workers::from_config(0);
    let _scored = mfpa_par::ordered_map(rows, workers, |_, r| {
        total += *r;
        *r
    });
    total
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag an unordered f64 += in a par closure (d10)" >&2
    exit 1
fi
# d11: the encoder writes count (u64) then scale (f64); the decoder
# reads them swapped.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub fn encode_header(h: &(u32, u64, f64), w: &mut ByteWriter) {
    w.u32(h.0);
    w.u64(h.1);
    w.f64(h.2);
}

pub fn decode_header(rd: &mut ByteReader) -> Result<(u32, u64, f64), String> {
    let magic = rd.u32()?;
    let scale = rd.f64()?;
    let count = rd.u64()?;
    Ok((magic, count, scale))
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag a swapped encode field (d11)" >&2
    exit 1
fi
# d12: decode-reachable slice indexing whose length guard was removed.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub mod checkpoint {
    pub fn restore(data: &[u8]) -> u8 {
        super::parse_frame(data)
    }
}

fn parse_frame(data: &[u8]) -> u8 {
    data[4]
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag an unguarded decode-reachable index (d12)" >&2
    exit 1
fi
echo "d10/d11/d12 injections caught, as expected"

echo "== value-range negative smokes: d13/d14/d15 injections must fail the scan =="
# d13: counter subtraction with no proof that the window stays below
# the accumulated count — wraps to ~2^64 when it does not.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub fn score_fleet(day_count: u64, reorder_window: u64) -> u64 {
    day_count - reorder_window
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag an unproven counter subtraction (d13)" >&2
    exit 1
fi
# d14: a metrics ratio whose integer denominator may be zero.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub fn score_fleet(total_errs: u64, n_drives: u64) -> f64 {
    total_errs as f64 / n_drives as f64
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag a maybe-zero denominator (d14)" >&2
    exit 1
fi
# d15: milliseconds added to days — dimensional nonsense the type
# system cannot see.
cat > "$smoke_dir/crates/core/src/deploy.rs" <<'RS'
pub fn score_fleet(uptime_ms: u64, age_days: u64) -> u64 {
    uptime_ms + age_days
}
RS
if target/release/mfpa-lint --root "$smoke_dir" > /dev/null; then
    echo "error: mfpa-lint did not flag a cross-unit sum (d15)" >&2
    exit 1
fi
echo "d13/d14/d15 injections caught, as expected"

echo "== criterion smoke: model fit group (1 sample) =="
MFPA_BENCH_SAMPLES=1 cargo bench -p mfpa-bench --bench models -- fit

echo "== repro serve smoke: replay + crash recovery at reduced scale =="
# The serve experiment asserts the fault-tolerance contract internally
# (kill-and-restore bit-identity, quarantine of poison drives, refusal
# of a bit-flipped checkpoint); any violation panics. It writes no
# files outside its own temp checkpoint directory; the temp cwd keeps
# the log out of the tree.
cargo build --release -q -p mfpa-bench
serve_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fresh_report" "$serve_dir"' EXIT
(cd "$serve_dir" && "$OLDPWD/target/release/repro" serve --fraction 0.004 --horizon 120 > serve.log 2>&1) || {
    echo "error: repro serve smoke failed" >&2
    tail -30 "$serve_dir/serve.log" >&2
    exit 1
}
for must in "replay is bit-identical" "bit-flipped checkpoint refused"; do
    if ! grep -q "$must" "$serve_dir/serve.log"; then
        echo "error: serve smoke output is missing \"$must\"" >&2
        exit 1
    fi
done
echo "serve smoke passed (recovery bit-identical, corrupt checkpoint refused)"

echo "== compiled inference smoke: cross-process .mfpac round trip =="
# `save` compiles in one process, `load` decodes and rescores in a
# *fresh* process (the artifact is the only thing crossing), `corrupt`
# flips one bit and must be refused with a structured error.
cargo build --release -q -p mfpa-ml --example mfpac_smoke
mfpac_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fresh_report" "$serve_dir" "$mfpac_dir"' EXIT
target/release/examples/mfpac_smoke save "$mfpac_dir"
target/release/examples/mfpac_smoke load "$mfpac_dir"
target/release/examples/mfpac_smoke corrupt "$mfpac_dir"
echo "compiled round trip bit-identical across processes, corruption refused"

echo "== compiled parity proptests (interpreted == compiled, bit for bit) =="
cargo test --release -q -p mfpa-ml --test compiled_parity

echo "== evaluation scoring parity (per-drive sequential == dense, bit for bit) =="
cargo test --release -q -p mfpa-suite --test evaluation_parity

echo "== benchmark tests: unit tests and the untraced and traced --smoke runs =="
# The benchmark named by BENCHMARK.json is its own workspace and drives
# the scorer, monitor and pipeline APIs from outside; a change to those
# APIs fails here instead of in the benchmark run.
cargo test --release --offline --manifest-path crates/bench/benchmark/Cargo.toml

echo "== checkpoint and artifact integrity gate =="
# Crash recovery is bit-identical at every batch boundary and damaged
# checkpoints are refused; the seal's checksum detects every single-byte
# change and keeps its golden footers; files of an older format version
# are refused by version, not reported as damage.
cargo test --release -q -p mfpa-suite --test fleet_monitor -- \
    kill_and_restore_is_bit_identical_at_every_batch_boundary \
    corrupted_checkpoints_are_always_refused
cargo test --release -q -p mfpa-bytes -- \
    every_single_byte_change_is_detected \
    golden_footers_pin_the_format \
    seal_unseal_roundtrip_and_reject
cargo test --release -q -p mfpa-core --lib -- \
    checkpoint::tests::old_version_checkpoints_are_refused
cargo test --release -q -p mfpa-ml --test compiled_parity -- \
    mfpac_refuses_old_version_artifacts

# The workspace runs below include the histogram-vs-exhaustive-oracle
# split-search proptests (crates/ml/tests/binned_parity.rs) at both
# worker counts.
echo "== cargo test (workspace, MFPA_THREADS=1) =="
MFPA_THREADS=1 cargo test -q --workspace

echo "== cargo test (workspace, MFPA_THREADS=4) =="
MFPA_THREADS=4 cargo test -q --workspace

echo "All checks passed."
