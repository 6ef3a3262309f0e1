package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, name, gemmNs string, gemmAllocs int, tableNs string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	content := fmt.Sprintf(`{
  "date": "2026-08-06",
  "benchmarks": [
    {"pkg": "iprune", "name": "BenchmarkGemm64", "iterations": 100, "ns_per_op": %s, "bytes_per_op": 0, "allocs_per_op": %d},
    {"pkg": "iprune", "name": "BenchmarkTable1Environment", "iterations": 100, "ns_per_op": %s, "bytes_per_op": 1384, "allocs_per_op": 20}
  ]
}`, gemmNs, gemmAllocs, tableNs)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestNoRegression(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := writeSnap(t, "new.json", "1050", 0, "9000") // +5% hot, macro noise ignored
	code, stdout, stderr := runDiff(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no hot-path regression") {
		t.Errorf("missing summary line:\n%s", stdout)
	}
	// The macro benchmark regressed 80% but is not gating.
	if !strings.Contains(stdout, "info ") {
		t.Errorf("macro benchmark not reported as info:\n%s", stdout)
	}
}

func TestNsRegressionFails(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := writeSnap(t, "new.json", "1200", 0, "5000") // +20% on a hot benchmark
	code, stdout, stderr := runDiff(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL ") || !strings.Contains(stderr, "regression(s)") {
		t.Errorf("regression not reported:\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

func TestAllocRegressionFailsRegardlessOfNs(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := writeSnap(t, "new.json", "990", 2, "5000") // faster but now allocating
	code, stdout, _ := runDiff(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, stdout)
	}
	if !strings.Contains(stdout, "allocs 0 -> 2") {
		t.Errorf("alloc delta not shown:\n%s", stdout)
	}
}

func TestThresholdFlag(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := writeSnap(t, "new.json", "1200", 0, "5000")
	if code, _, _ := runDiff(t, "-ns-threshold", "25", old, cur); code != 0 {
		t.Errorf("+20%% under a 25%% threshold: exit %d, want 0", code)
	}
}

func TestHotFlag(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := writeSnap(t, "new.json", "1500", 0, "5000")
	// Narrow -hot so the regressed Gemm benchmark is no longer gating.
	if code, _, _ := runDiff(t, "-hot", "NothingMatches", old, cur); code != 0 {
		t.Error("non-matching -hot must not gate")
	}
	// And widen it onto the macro benchmark, which is stable here.
	if code, _, _ := runDiff(t, "-hot", "Table1", old, cur); code != 0 {
		t.Error("stable benchmark under -hot must pass")
	}
}

func TestOperationalErrors(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	if code, _, _ := runDiff(t, old); code != 2 {
		t.Error("one arg: want exit 2")
	}
	if code, _, _ := runDiff(t, old, filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Error("missing file: want exit 2")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runDiff(t, old, bad); code != 2 {
		t.Error("malformed JSON: want exit 2")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"date":"x","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runDiff(t, old, empty); code != 2 {
		t.Error("empty snapshot: want exit 2")
	}
	if code, _, _ := runDiff(t, "-hot", "(", old, old); code != 2 {
		t.Error("bad regexp: want exit 2")
	}
}

// TestZeroBaselineHotFailsClosed pins the div-by-zero guard: a hot
// benchmark whose baseline ns/op is zero has no percentage to gate on
// and must fail rather than sail through on pct == 0.
func TestZeroBaselineHotFailsClosed(t *testing.T) {
	old := writeSnap(t, "old.json", "0", 0, "5000")
	cur := writeSnap(t, "new.json", "999999", 0, "5000") // huge, but pct would be 0
	code, stdout, stderr := runDiff(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "FAIL ") {
		t.Errorf("zero-baseline hot benchmark not failed:\n%s", stdout)
	}
	// Zero on both sides carries no signal and must not gate.
	same := writeSnap(t, "same.json", "0", 0, "5000")
	same2 := writeSnap(t, "same2.json", "0", 0, "5000")
	if code, stdout, _ := runDiff(t, same, same2); code != 0 {
		t.Errorf("zero-vs-zero: exit %d, want 0\n%s", code, stdout)
	}
}

// TestGoneHotBenchmarkFails pins the disappearance gate: deleting a hot
// benchmark from the new snapshot must fail the diff, not just log it.
func TestGoneHotBenchmarkFails(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := filepath.Join(t.TempDir(), "new.json")
	content := `{
  "date": "2026-08-07",
  "benchmarks": [
    {"pkg": "iprune", "name": "BenchmarkTable1Environment", "iterations": 100, "ns_per_op": 5000, "bytes_per_op": 1384, "allocs_per_op": 20}
  ]
}`
	if err := os.WriteFile(cur, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runDiff(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "FAIL  iprune.BenchmarkGemm64 disappeared") {
		t.Errorf("gone hot benchmark not failed:\n%s", stdout)
	}
}

func TestGoneAndNewBenchmarks(t *testing.T) {
	old := writeSnap(t, "old.json", "1000", 0, "5000")
	cur := filepath.Join(t.TempDir(), "new.json")
	content := `{
  "date": "2026-08-07",
  "benchmarks": [
    {"pkg": "iprune", "name": "BenchmarkGemm64", "iterations": 100, "ns_per_op": 1000, "bytes_per_op": 0, "allocs_per_op": 0},
    {"pkg": "iprune", "name": "BenchmarkBrandNew", "iterations": 100, "ns_per_op": 7, "bytes_per_op": 0, "allocs_per_op": 0}
  ]
}`
	if err := os.WriteFile(cur, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runDiff(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "new   BenchmarkBrandNew") || !strings.Contains(stdout, "gone  iprune.BenchmarkTable1Environment") {
		t.Errorf("new/gone benchmarks not reported:\n%s", stdout)
	}
}

// TestRetiredHotBenchmark runs in a throwaway module whose package k
// declares only BenchmarkGemmKept. A hot benchmark whose function is
// gone from k's tests is retired; one whose function still exists, or
// whose package source cannot be found, still fails when it vanishes.
func TestRetiredHotBenchmark(t *testing.T) {
	dir := t.TempDir()
	for rel, content := range map[string]string{
		"go.mod":       "module example.com/m\n\ngo 1.22\n",
		"k/k_test.go":  "package k\n\nimport \"testing\"\n\nfunc BenchmarkGemmKept(b *testing.B) {}\n",
		"k/other.go":   "package k\n\nfunc BenchmarkGemmDeleted() {}\n", // not a test file
		"k/k2_test.go": "package k\n\ntype T struct{}\n\nfunc (T) BenchmarkGemmDeleted() {}\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(dir, "k")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	snap := func(name string, benches ...string) string {
		var lines []string
		for _, b := range benches {
			pkg, bench, _ := strings.Cut(b, " ")
			lines = append(lines, fmt.Sprintf(`{"pkg": %q, "name": %q, "iterations": 1, "ns_per_op": 1000, "bytes_per_op": 0, "allocs_per_op": 0}`, pkg, bench))
		}
		path := filepath.Join(dir, name)
		content := `{"date": "x", "benchmarks": [` + strings.Join(lines, ",\n") + `]}`
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const (
		kept    = "example.com/m/k BenchmarkGemmKept"
		deleted = "example.com/m/k BenchmarkGemmDeleted/workers=1"
	)
	old := snap("old.json", kept, deleted)
	code, stdout, stderr := runDiff(t, old, snap("retired.json", kept))
	if code != 0 || !strings.Contains(stdout, "retired example.com/m/k.BenchmarkGemmDeleted/workers=1") {
		t.Errorf("deleted function: exit %d, want 0 and a retired line\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	code, stdout, _ = runDiff(t, old, snap("gone.json", deleted))
	if code != 1 || !strings.Contains(stdout, "FAIL  example.com/m/k.BenchmarkGemmKept disappeared") {
		t.Errorf("existing function: exit %d, want 1 and a FAIL line\n%s", code, stdout)
	}
	for _, pkg := range []string{"example.com/m/missing", "example.com/mother", "other.org/k"} {
		old := snap("old.json", kept, pkg+" BenchmarkGemmDeleted")
		if code, stdout, _ := runDiff(t, old, snap("new.json", kept)); code != 1 {
			t.Errorf("%s: source not found: exit %d, want 1\n%s", pkg, code, stdout)
		}
	}
}
