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
# dependency fails the build.
set -uo pipefail

cd "$(dirname "$0")/.."
failed=0

echo "== cargo build --release --offline =="
if ! cargo build --release --offline; then
    echo "FAIL: cargo build --release"
    failed=1
fi

echo "== cargo test -q --offline --no-fail-fast =="
if ! cargo test -q --offline --no-fail-fast; then
    echo "FAIL: cargo test"
    failed=1
fi

echo "== cargo fmt --check =="
if ! cargo fmt --check; then
    echo "FAIL: cargo fmt --check"
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "verify: FAILED"
    exit 1
fi
echo "verify: OK"
