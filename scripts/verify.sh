#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
#   scripts/verify.sh
#
# Builds the workspace, runs the test suite and checks formatting. The
# suite runs with `--no-fail-fast`, so a failing test binary does not
# stop the run and hide the failures of the binaries after it. The
# gates are cargo tests: `crates/bench/tests/gates.rs` drives the built
# `repro` binary to regenerate every committed file under results/ byte
# for byte and to check same-seed, 1-vs-4-worker and static-policy
# replay across the topology matrix; `sudc_lint::tests::
# workspace_has_no_unsuppressed_findings` fails on any lint finding
# that no reasoned `lint:allow` suppresses. The workspace builds from
# std and path crates only, so every step runs offline; a registry
# dependency fails the build. Each step prints its wall time, and the
# run its total.
set -uo pipefail

cd "$(dirname "$0")/.."
failed=0

# Microseconds since the epoch, from bash's $EPOCHREALTIME (whose
# decimal separator follows the locale).
now_us() {
    echo "${EPOCHREALTIME/[.,]/}"
}

# Prints a span of microseconds as seconds with one decimal.
seconds() {
    printf '%d.%d s' $(($1 / 1000000)) $(($1 % 1000000 / 100000))
}

# Runs one step (`step <label> <command...>`) under a header, prints
# its wall time, and returns its status.
step() {
    local label=$1 start rc
    shift
    echo "== $label =="
    start=$(now_us)
    "$@"
    rc=$?
    echo "-- $label: $(seconds $(($(now_us) - start)))"
    return $rc
}

run_start=$(now_us)

if ! step "cargo build --release --offline" cargo build --release --offline; then
    echo "FAIL: cargo build --release"
    failed=1
fi

if ! step "cargo test -q --offline --no-fail-fast" cargo test -q --offline --no-fail-fast; then
    echo "FAIL: cargo test"
    failed=1
fi

if ! step "cargo fmt --check" cargo fmt --check; then
    echo "FAIL: cargo fmt --check"
    failed=1
fi

echo "-- total: $(seconds $(($(now_us) - run_start)))"
if [ "$failed" -ne 0 ]; then
    echo "verify: FAILED"
    exit 1
fi
echo "verify: OK"
