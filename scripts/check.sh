#!/bin/sh
# check.sh is the repo's verify entrypoint: formatting, vet, build,
# tests (with the race detector, and the SSE2 and AVX assembly kernels
# without it) and the project's own static analysis.
# Run from anywhere; it cds to the repo root first.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The race detector cannot see memory accesses made from assembly, so
# -race builds run the portable Go GEMM kernels, not the SSE2 and AVX
# routines of internal/tensor/gemm_amd64.s. Run the tensor tests once
# without -race, so that every path the host has (AVX where CPUID
# reports it, SSE2, Go) is checked against the reference loops. The
# first line names the path the host selected and the paths the tests
# ran, so the log shows whether the AVX comparisons ran or were skipped.
echo "== tensor kernels (no race)"
go test -count=1 -v -run '^TestGemmKernelPath$' ./internal/tensor | grep 'GEMM kernels:'
go test -count=1 ./internal/tensor

# Every other GOARCH runs the portable kernels. Vet type-checks the
# package's test files for arm64 as well, which the build does not
# compile, so a test naming an amd64-only routine fails here. The build
# listing of every package keeps the compiler from fusing a
# multiply-add anywhere (the kernels, the cost model, the training
# stack, the Q1.15 rounding, the commands and the examples): arm64
# would then compute other bits than amd64. It replays from the build
# cache.
echo "== no fused multiply-adds (arm64)"
GOARCH=arm64 go vet ./internal/tensor
listing=$(GOARCH=arm64 go build -gcflags=-S ./... 2>&1)
if printf '%s\n' "$listing" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' >&2; then
    echo "fused multiply-adds in the arm64 build (above)" >&2
    exit 1
fi

# Data-parallel training and evaluation: the width tests compare the
# fanned-out passes at widths 1, 2, 3 and 8, bit for bit, with the
# sequential loops kept in the tests, and the buffer tests check that
# layer-owned buffers never leak between samples or clones. Repeat them
# under the race detector so a replica or slot shared by two workers
# shows up.
echo "== parallel passes (race, 10x)"
go test -race -count=10 -run '^(TestTrainEpochWidthBitIdentical|TestTrainEpochAdamWidthBitIdentical|TestAccuracyQ15WidthBitIdentical|TestLayerBuffersIsolateSamples|TestCloneSharesNoBuffer)$' ./internal/nn ./internal/quant

# Fuzz smoke: bounded runs of the GEMM kernels, the Q1.15 fake
# quantization and the max-pool layer against their bit-exact
# references, of the loader's function-body blanker against the parser
# and of its import stubs against a check with every import real, of
# the HAWAII⁺ engine under generated power-failure patterns against
# an uninterrupted run, of the parsers of outside input (model files,
# supply and budget strings, fleet scenarios), which must return a value
# or an error and never panic, and of one fleet node under generated
# event scripts, whose timeline must be monotonic and power-paired and
# whose hub metrics must equal those of its regenerated events. Plain go
# test above already ran the seed corpora; a failing input lands in the
# package's testdata/fuzz as a regression fixture. A dense failure
# pattern costs up to ~0.1 s per engine run, so minimizing each new
# corpus entry (60 s by default) would take the engine smoke's whole
# budget: it minimizes for 1 s at most. So do the model-file smoke,
# whose seed, a saved HAR model, is ~270 KB, and the node smoke, whose
# every run simulates up to five inferences twice.
echo "== fuzz smoke"
go test -run '^$' -fuzz '^FuzzGemm$' -fuzztime 10s ./internal/tensor
go test -run '^$' -fuzz '^FuzzFakeQuantize$' -fuzztime 10s ./internal/fixed
go test -run '^$' -fuzz '^FuzzMaxPool2D$' -fuzztime 10s ./internal/nn
go test -run '^$' -fuzz '^FuzzBlankBodies$' -fuzztime 10s ./internal/analysis
go test -run '^$' -fuzz '^FuzzStubImports$' -fuzztime 10s ./internal/analysis
go test -run '^$' -fuzz '^FuzzEngineFailures$' -fuzztime 10s -fuzzminimizetime 1s ./internal/hawaii
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 5s -fuzzminimizetime 1s ./internal/models
go test -run '^$' -fuzz '^FuzzParseSupply$' -fuzztime 5s ./internal/power
go test -run '^$' -fuzz '^FuzzParseBudget$' -fuzztime 5s ./internal/energy
go test -run '^$' -fuzz '^FuzzParseScenario$' -fuzztime 5s ./internal/fleet
go test -run '^$' -fuzz '^FuzzNodeTimeline$' -fuzztime 5s -fuzzminimizetime 1s ./internal/fleet

# Artifact directory shared by the SARIF and repro-smoke steps. CI sets
# CHECK_ARTIFACT_DIR to a directory it uploads; local runs use a
# throwaway temp dir.
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    tmp="$CHECK_ARTIFACT_DIR"
    mkdir -p "$tmp"
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
fi

echo "== iprunelint"
status=0
go run ./cmd/iprunelint -json ./... > "$tmp/iprunelint.json" || status=$?
cat "$tmp/iprunelint.json"
[ "$status" -eq 0 ] || exit "$status"

# Budget audit: the measured energy of an intermittent run must respect
# the same per-power-cycle bound the regionbudget analyzer proves
# statically, and the lint report above must carry zero regionbudget
# findings.
echo "== budget audit"
go run ./cmd/isim -model HAR -power weak -audit -auditlint "$tmp/iprunelint.json"

# Regenerate the findings as SARIF for code scanning and validate the
# emitter's output shape. Exit 1 means findings (already gated by the
# JSON run above); anything higher is an analyzer failure.
echo "== iprunelint sarif"
status=0
go run ./cmd/iprunelint -sarif ./... > "$tmp/iprunelint.sarif" || status=$?
[ "$status" -le 1 ] || exit "$status"
go run scripts/sarifcheck.go "$tmp/iprunelint.sarif"

# Trace-pipeline smoke test: a quick-scale fig2 regeneration must leave
# a parseable, non-empty Chrome trace artifact behind.
echo "== repro trace smoke"
go run ./cmd/repro -scale quick -artifacts "$tmp" -q fig2 > /dev/null
test -s "$tmp/fig2/trace.json"
go run scripts/jsoncheck.go "$tmp/fig2/trace.json"

# Fleet scenario smoke: the shipped scenario must validate, pass its
# assertions (ifleet run exits non-zero on a violation), and produce
# byte-identical output and traces at any fan-out width; the trace must
# be parseable JSON.
echo "== fleet smoke"
go run ./cmd/ifleet validate examples/fleet/smoke.json
go run ./cmd/ifleet run -workers 1 -trace "$tmp/fleet1.json" examples/fleet/smoke.json > "$tmp/fleet1.out"
go run ./cmd/ifleet run -workers 4 -trace "$tmp/fleet4.json" examples/fleet/smoke.json > "$tmp/fleet4.out"
cmp "$tmp/fleet1.out" "$tmp/fleet4.out"
cmp "$tmp/fleet1.json" "$tmp/fleet4.json"
go run scripts/jsoncheck.go "$tmp/fleet1.json"
cat "$tmp/fleet1.out"

# Benchmark regression gate: when at least two BENCH_<date>.json
# snapshots exist, diff the two most recent (lexical date sort) and fail
# on hot-path regressions. One snapshot alone is just a baseline.
snaps=$(ls BENCH_*.json 2>/dev/null | sort | tail -2 || true)
if [ "$(printf '%s\n' "$snaps" | grep -c .)" -ge 2 ]; then
    old=$(printf '%s\n' "$snaps" | head -1)
    new=$(printf '%s\n' "$snaps" | tail -1)
    echo "== benchdiff $old -> $new"
    go run ./cmd/benchdiff "$old" "$new"
fi

echo "OK"
