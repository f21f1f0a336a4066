#!/bin/sh
# docs_lint.sh — fail CI when the prose drifts from the code.
#
# 1. Every `./cmd/...` or `./examples/...` package referenced by an
#    embedded command in README.md / EXPERIMENTS.md / DESIGN.md must
#    exist and build.
# 2. Every internal/* package must carry a non-empty package doc
#    comment (the reliability story is documented at the source).
# 3. Every BENCH_*.json artifact referenced in README.md / DESIGN.md /
#    EXPERIMENTS.md must exist in the repository (a claim citing a
#    bench artifact that was never committed is drift).
# 4. Every numeric `DESIGN §N` / `DESIGN.md §N` cross-reference in the
#    docs and in Go doc comments must resolve to a real `## N.` section
#    header in DESIGN.md (non-numeric references like `§Host BLAS` are
#    out of scope).
#
# Run from the repository root: ./scripts/docs_lint.sh
set -eu

cd "$(dirname "$0")/.."
fail=0

docs="README.md EXPERIMENTS.md DESIGN.md"

# --- embedded commands must reference real, buildable packages --------
pkgs=$(grep -ho '\./\(cmd\|examples\)/[a-z0-9_]*' $docs | sort -u)
if [ -z "$pkgs" ]; then
    echo "docs_lint: no ./cmd or ./examples references found — lint is broken" >&2
    exit 1
fi
for p in $pkgs; do
    if [ ! -d "$p" ]; then
        echo "docs_lint: $docs reference $p but it does not exist" >&2
        fail=1
        continue
    fi
    if ! go build "$p" 2>/dev/null; then
        echo "docs_lint: documented package $p does not build" >&2
        go build "$p" >&2 || true
        fail=1
    fi
done
echo "docs_lint: $(echo "$pkgs" | wc -l) documented packages build"

# --- experiment selectors named in the docs must exist in the harness --
exps=$(grep -ho '\-exp [a-zA-Z0-9_]*' $docs | awk '{print $2}' | sort -u)
for e in $exps; do
    if ! grep -rq "\"$e\"" cmd/experiments internal/bench; then
        echo "docs_lint: docs mention -exp $e but the harness does not" >&2
        fail=1
    fi
done

# --- every internal package needs a package doc -----------------------
for d in internal/*/; do
    pkg=$(basename "$d")
    if ! grep -rql "^// Package $pkg" "$d"; then
        echo "docs_lint: internal/$pkg has no package doc comment" >&2
        fail=1
    fi
done
echo "docs_lint: all internal packages carry package docs"

# --- referenced BENCH artifacts must exist ----------------------------
arts=$(grep -ho 'BENCH_[a-zA-Z0-9_]*\.json' $docs | sort -u)
for a in $arts; do
    if [ ! -f "$a" ]; then
        echo "docs_lint: docs reference $a but it is not committed" >&2
        fail=1
    fi
done
echo "docs_lint: $(echo "$arts" | wc -l) referenced BENCH artifacts exist"

# --- acceptance-gated artifacts must be committed ---------------------
# These measured artifacts are written only by cmd/experiments (which
# exits 1 when one misses its bar), so no test regenerates them; a tree
# without them has lost its measured evidence.
for a in BENCH_blasft.json BENCH_throughput.json BENCH_serveobs.json; do
    if [ ! -f "$a" ]; then
        echo "docs_lint: required artifact $a is not committed" >&2
        fail=1
    fi
done
echo "docs_lint: required BENCH artifacts committed"

# --- numeric DESIGN § cross-references must resolve -------------------
secs=$( (grep -rho 'DESIGN\(\.md\)\{0,1\} §[0-9][0-9]*' $docs;
         grep -rho --include='*.go' 'DESIGN\(\.md\)\{0,1\} §[0-9][0-9]*' cmd internal examples) \
        | grep -o '§[0-9][0-9]*' | tr -d '§' | sort -nu)
for s in $secs; do
    if ! grep -q "^## $s\." DESIGN.md; then
        echo "docs_lint: cross-reference to DESIGN §$s but DESIGN.md has no '## $s.' section" >&2
        fail=1
    fi
done
echo "docs_lint: $(echo "$secs" | wc -w) DESIGN § cross-references resolve"

exit $fail
