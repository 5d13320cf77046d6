#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
#   scripts/verify.sh
#
# Runs the full workspace build + test suite, checks formatting, runs
# the determinism gate (two same-seed `repro sim` runs of every topology
# shape — ring, klist:4, geo, split:4 — must produce byte-identical
# fault reports AND byte-identical flight-recorder traces that
# `repro trace` reads back into identical analyses, with the same
# bar for `repro sim --serve` SLO reports), runs the thread-count
# identity gate (1-worker vs 4-worker `repro sim --threads` runs of
# every matrix cell — fault-free, faulted, and serve — must byte-diff
# clean), runs the policy gate (`--policy static` must byte-match the
# default engine's fault and serve artifacts, and reactive/predictive
# runs must double-run byte-identically across the topology matrix),
# checks the committed serve capacity frontier (`repro explore serve`
# into a scratch directory must reproduce explore_serve*.{txt,csv,json}
# and BENCH_serve.json byte for byte), runs the static-analysis
# gate (`repro lint --audit determinism` must be ratchet-clean against
# results/lint_baseline.json, byte-identical across two runs, and
# match the committed results/lint_audit.json). It also regenerates every
# experiment artifact with `repro all` into a scratch directory and
# byte-diffs the 78 <id>.{txt,csv,json} files against results/.
#
# The workspace builds from std and path crates only, so every step runs
# offline; a registry dependency fails the tier-1 step. The gates run the
# binary the build step produced, under ${CARGO_TARGET_DIR:-target}; a
# gate that finds no binary there fails.
set -uo pipefail

cd "$(dirname "$0")/.."
failed=0
repro="${CARGO_TARGET_DIR:-target}/release/repro"

echo "== tier-1: cargo build --release --offline && cargo test -q --offline =="
if ! (cargo build --release --offline && cargo test -q --offline); then
    echo "FAIL: tier-1 build or tests"
    failed=1
fi

echo "== determinism gate (topology matrix × fault injection) =="
if [ -x "$repro" ]; then
    # Every topology shape must replay byte-identically under the same
    # seed, faults included: two runs of each cell are byte-diffed.
    # topology argument → artifact-id suffix (empty for the ring).
    matrix="ring: klist:4:_klist4 geo:_geo split:4:_split4"
    gate_ok=1
    for cell in $matrix; do
        topo="${cell%:*}"
        suffix="${cell##*:}"
        da="$(mktemp -d)"
        db="$(mktemp -d)"
        cell_ok=1
        for runDir in "$da" "$db"; do
            if ! "$repro" --quiet sim --faults flaky_links \
                --topology "$topo" --out-dir "$runDir" \
                --record "$runDir/trace.jsonl" >/dev/null; then
                cell_ok=0
            fi
        done
        if [ "$cell_ok" -eq 1 ]; then
            for ext in txt csv json; do
                if ! diff -q "$da/faults_flaky_links$suffix.$ext" \
                    "$db/faults_flaky_links$suffix.$ext" >/dev/null; then
                    echo "FAIL: same-seed runs differ ($topo, faults_flaky_links$suffix.$ext)"
                    cell_ok=0
                fi
            done
            # The flight-recorder trace is sim-time-stamped throughout,
            # so it must byte-diff clean too.
            if ! diff -q "$da/trace.jsonl" "$db/trace.jsonl" >/dev/null; then
                echo "FAIL: same-seed flight-recorder traces differ ($topo)"
                cell_ok=0
            fi
            # Both logs must also read back: `repro trace` exits 0 on
            # each and prints the same analysis, bar the path line.
            if ! ta="$("$repro" trace "$da/trace.jsonl")" ||
                ! tb="$("$repro" trace "$db/trace.jsonl")"; then
                echo "FAIL: repro trace cannot analyze the $topo flight logs"
                cell_ok=0
            elif [ "$(grep -v '^flight log ' <<<"$ta")" != \
                "$(grep -v '^flight log ' <<<"$tb")" ]; then
                echo "FAIL: repro trace analyses of same-seed logs differ ($topo)"
                cell_ok=0
            fi
        else
            echo "FAIL: repro sim --topology $topo did not run cleanly"
        fi
        if [ "$cell_ok" -eq 1 ]; then
            echo "ok: $topo replays byte-identically under the same seed"
        else
            gate_ok=0
        fi
        rm -rf "$da" "$db"
    done
    if [ "$gate_ok" -ne 1 ]; then
        failed=1
    fi

    # The serving layer rides the same RNG-stream discipline: two
    # same-seed serve runs of every topology shape must byte-diff clean.
    echo "== determinism gate (topology matrix × user-traffic serving) =="
    serve_ok=1
    for cell in $matrix; do
        topo="${cell%:*}"
        suffix="${cell##*:}"
        da="$(mktemp -d)"
        db="$(mktemp -d)"
        cell_ok=1
        for runDir in "$da" "$db"; do
            if ! "$repro" --quiet sim --serve steady \
                --minutes 1 --topology "$topo" --out-dir "$runDir" >/dev/null; then
                cell_ok=0
            fi
        done
        if [ "$cell_ok" -eq 1 ]; then
            for ext in txt csv json; do
                if ! diff -q "$da/serve_steady$suffix.$ext" \
                    "$db/serve_steady$suffix.$ext" >/dev/null; then
                    echo "FAIL: same-seed serve runs differ ($topo, serve_steady$suffix.$ext)"
                    cell_ok=0
                fi
            done
        else
            echo "FAIL: repro sim --serve steady --topology $topo did not run cleanly"
        fi
        if [ "$cell_ok" -eq 1 ]; then
            echo "ok: serve on $topo replays byte-identically under the same seed"
        else
            serve_ok=0
        fi
        rm -rf "$da" "$db"
    done
    if [ "$serve_ok" -ne 1 ]; then
        failed=1
    fi

    # The sharded parallel event loop must be byte-identical at every
    # worker count: a 1-worker and a 4-worker run of each matrix cell,
    # fault-free and faulted and serving, must produce byte-identical
    # output directories (manifests carry no wall clock, so whole
    # directories diff clean).
    echo "== thread-count identity gate (1 vs 4 workers) =="
    threads_ok=1
    for cell in $matrix; do
        topo="${cell%:*}"
        topo_ok=1
        for variant in "--faults none" "--faults flaky_links" "--serve steady --minutes 1"; do
            d1="$(mktemp -d)"
            d4="$(mktemp -d)"
            cell_ok=1
            for pair in "1:$d1" "4:$d4"; do
                # shellcheck disable=SC2086 # $variant is a flag list
                if ! "$repro" --quiet sim \
                    $variant --topology "$topo" --threads "${pair%%:*}" \
                    --out-dir "${pair#*:}" >/dev/null; then
                    cell_ok=0
                fi
            done
            if [ "$cell_ok" -eq 1 ]; then
                if ! diff -r "$d1" "$d4" >/dev/null; then
                    echo "FAIL: 1-thread and 4-thread runs differ ($topo, $variant)"
                    cell_ok=0
                fi
            else
                echo "FAIL: repro sim $variant --topology $topo --threads did not run cleanly"
            fi
            if [ "$cell_ok" -ne 1 ]; then
                topo_ok=0
            fi
            rm -rf "$d1" "$d4"
        done
        if [ "$topo_ok" -eq 1 ]; then
            echo "ok: $topo is byte-identical across 1 and 4 workers (fault-free, faulted, serve)"
        else
            threads_ok=0
        fi
    done
    if [ "$threads_ok" -ne 1 ]; then
        failed=1
    fi

    # Adaptive control plane, part 1 — static equivalence: an explicit
    # `--policy static` run must write the very bytes the committed
    # (pre-policy) artifacts carry, fault and serve reports alike. The
    # static controller keeps unsuffixed artifact names precisely so
    # this diff is possible.
    echo "== policy gate (static equivalence + adaptive replay) =="
    policy_ok=1
    dimp="$(mktemp -d)"
    dexp="$(mktemp -d)"
    if "$repro" --quiet sim --faults flaky_links \
        --out-dir "$dimp" >/dev/null &&
        "$repro" --quiet sim --faults flaky_links \
            --policy static --out-dir "$dexp" >/dev/null &&
        "$repro" --quiet sim --serve steady --minutes 1 \
            --out-dir "$dimp" >/dev/null &&
        "$repro" --quiet sim --serve steady --minutes 1 \
            --policy static --out-dir "$dexp" >/dev/null; then
        for f in faults_flaky_links serve_steady; do
            for ext in txt csv json; do
                if ! diff -q "$dimp/$f.$ext" "$dexp/$f.$ext" >/dev/null; then
                    echo "FAIL: --policy static diverged from the default engine ($f.$ext)"
                    policy_ok=0
                fi
            done
        done
        if [ "$policy_ok" -eq 1 ]; then
            echo "ok: --policy static is the default engine, byte for byte"
        fi
    else
        echo "FAIL: repro sim --policy static did not run cleanly"
        policy_ok=0
    fi
    rm -rf "$dimp" "$dexp"

    # Part 2 — adaptive replay: reactive and predictive runs must
    # double-run byte-identically across the topology matrix (their
    # artifacts carry a _<policy> suffix, so they can never clobber the
    # committed static copies).
    for policy in reactive predictive; do
        for cell in $matrix; do
            topo="${cell%:*}"
            suffix="${cell##*:}"
            da="$(mktemp -d)"
            db="$(mktemp -d)"
            cell_ok=1
            for runDir in "$da" "$db"; do
                if ! "$repro" --quiet sim --faults flaky_links \
                    --topology "$topo" --policy "$policy" \
                    --out-dir "$runDir" >/dev/null; then
                    cell_ok=0
                fi
            done
            if [ "$cell_ok" -eq 1 ]; then
                for ext in txt csv json; do
                    if ! diff -q "$da/faults_flaky_links${suffix}_$policy.$ext" \
                        "$db/faults_flaky_links${suffix}_$policy.$ext" >/dev/null; then
                        echo "FAIL: same-seed $policy runs differ ($topo, .$ext)"
                        cell_ok=0
                    fi
                done
            else
                echo "FAIL: repro sim --policy $policy --topology $topo did not run cleanly"
            fi
            if [ "$cell_ok" -ne 1 ]; then
                policy_ok=0
            fi
            rm -rf "$da" "$db"
        done
        if [ "$policy_ok" -eq 1 ]; then
            echo "ok: $policy replays byte-identically across the topology matrix"
        fi
    done
    if [ "$policy_ok" -ne 1 ]; then
        failed=1
    fi
else
    echo "FAIL: $repro not built; cannot run the determinism, thread-count and policy gates"
    failed=1
fi

echo "== artifact-identity gate (repro all vs results/) =="
if [ -x "$repro" ]; then
    # The committed experiment artifacts are the behaviour spec: a fresh
    # `repro all` must reproduce every <id>.{txt,csv,json} byte for byte.
    art="$(mktemp -d)"
    art_ok=1
    if "$repro" --quiet --out-dir "$art" all >/dev/null; then
        ids="$("$repro" list | awk 'NR > 1 { print $1 }')"
        checked=0
        for id in $ids; do
            for ext in txt csv json; do
                checked=$((checked + 1))
                if ! cmp -s "$art/$id.$ext" "results/$id.$ext"; then
                    echo "FAIL: repro all does not reproduce results/$id.$ext"
                    art_ok=0
                fi
            done
        done
        if [ "$checked" -eq 0 ]; then
            echo "FAIL: repro list named no experiments"
            art_ok=0
        elif [ "$art_ok" -eq 1 ]; then
            echo "ok: repro all reproduces all $checked artifact files byte for byte"
        fi
    else
        echo "FAIL: repro all did not run cleanly"
        art_ok=0
    fi
    rm -rf "$art"
    if [ "$art_ok" -ne 1 ]; then
        failed=1
    fi
else
    echo "FAIL: $repro not built; cannot run the artifact-identity gate"
    failed=1
fi

echo "== serve capacity gate (results/BENCH_serve.json) =="
if [ -f results/BENCH_serve.json ]; then
    serve_bench_ok=1
    for key in serve.requests_per_sec serve.batch_efficiency serve.shed_rate; do
        if ! grep -q "\"$key\"" results/BENCH_serve.json; then
            echo "FAIL: results/BENCH_serve.json is missing \"$key\""
            serve_bench_ok=0
        fi
    done
    # The sweep is seeded and its artifacts carry no wall clock, so a
    # fresh run must reproduce the committed frontier byte for byte.
    if [ -x "$repro" ]; then
        sv="$(mktemp -d)"
        if "$repro" --quiet explore serve --out-dir "$sv" >/dev/null; then
            for f in explore_serve explore_serve_frontier; do
                for ext in txt csv json; do
                    if ! cmp -s "$sv/$f.$ext" "results/$f.$ext"; then
                        echo "FAIL: repro explore serve does not reproduce results/$f.$ext"
                        serve_bench_ok=0
                    fi
                done
            done
            if ! cmp -s "$sv/BENCH_serve.json" results/BENCH_serve.json; then
                echo "FAIL: repro explore serve does not reproduce results/BENCH_serve.json"
                serve_bench_ok=0
            fi
        else
            echo "FAIL: repro explore serve did not run cleanly"
            serve_bench_ok=0
        fi
        rm -rf "$sv"
    else
        echo "FAIL: $repro not built; cannot rerun the serve sweep"
        serve_bench_ok=0
    fi
    if [ "$serve_bench_ok" -eq 1 ]; then
        echo "ok: repro explore serve reproduces the committed capacity frontier byte for byte"
    else
        failed=1
    fi
else
    echo "FAIL: results/BENCH_serve.json missing (run $repro explore serve)"
    failed=1
fi

echo "== static-analysis gate (repro lint --audit determinism) =="
if [ -x "$repro" ]; then
    # New violations (anything not grandfathered by the committed
    # baseline) fail; the baseline may only shrink. The determinism
    # audit rides the same invocation: the semantic pass must come out
    # ratchet-clean AND its artifact must be byte-identical across two
    # runs and match the committed results/lint_audit.json.
    la="$(mktemp -d)"
    lb="$(mktemp -d)"
    lint_ok=1
    for auditDir in "$la" "$lb"; do
        if ! "$repro" --quiet lint \
            --audit determinism --out-dir "$auditDir" >/dev/null; then
            echo "FAIL: repro lint --audit determinism found new violations"
            lint_ok=0
        fi
    done
    if [ "$lint_ok" -eq 1 ]; then
        echo "ok: workspace is ratchet-clean against results/lint_baseline.json"
        if diff -q "$la/lint_audit.json" "$lb/lint_audit.json" >/dev/null; then
            echo "ok: determinism audit is byte-identical across double runs"
        else
            echo "FAIL: two lint --audit determinism runs produced different bytes"
            lint_ok=0
        fi
        if diff -q "$la/lint_audit.json" results/lint_audit.json >/dev/null; then
            echo "ok: committed results/lint_audit.json matches the current code"
        else
            echo "FAIL: results/lint_audit.json is stale (rerun $repro lint --audit determinism)"
            lint_ok=0
        fi
    fi
    rm -rf "$la" "$lb"
    if [ "$lint_ok" -ne 1 ]; then
        failed=1
    fi
else
    echo "FAIL: $repro not built; cannot run the static-analysis gate"
    failed=1
fi

echo "== cargo fmt --check =="
if command -v rustfmt >/dev/null 2>&1; then
    if ! cargo fmt --check; then
        echo "FAIL: cargo fmt --check"
        failed=1
    fi
else
    echo "warn: rustfmt not installed; skipping format check"
fi

if [ "$failed" -ne 0 ]; then
    echo "verify: FAILED"
    exit 1
fi
echo "verify: OK"
