package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const smokePath = "../../examples/fleet/smoke.json"

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSmokeDeterministicAcrossWorkers pins the acceptance criterion:
// the shipped smoke scenario passes and its output is byte-identical
// for -workers 1 and -workers 4.
func TestSmokeDeterministicAcrossWorkers(t *testing.T) {
	code1, out1, err1 := runCmd(t, "run", "-workers", "1", smokePath)
	if code1 != 0 {
		t.Fatalf("workers=1 exit %d\nstdout:\n%s\nstderr:\n%s", code1, out1, err1)
	}
	code4, out4, _ := runCmd(t, "run", "-workers", "4", smokePath)
	if code4 != 0 {
		t.Fatalf("workers=4 exit %d", code4)
	}
	if out1 != out4 {
		t.Fatalf("output differs between -workers 1 and 4:\n--- 1:\n%s--- 4:\n%s", out1, out4)
	}
	if !strings.Contains(out1, "PASS (") {
		t.Fatalf("smoke scenario did not pass:\n%s", out1)
	}
}

func TestFailingAssertionExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "strict.json")
	scenario := `{
	  "name": "strict", "seed": 1,
	  "nodes": [{"id": "w", "model": "HAR", "supply": "weak"}],
	  "assertions": [{"type": "max-recoveries", "max": 0}]
	}`
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, "run", path)
	if code == 0 {
		t.Fatalf("violated assertion exited 0:\n%s", out)
	}
	if !strings.Contains(out, "check FAIL") {
		t.Errorf("failure not surfaced in summary:\n%s", out)
	}
}

func TestValidate(t *testing.T) {
	code, out, _ := runCmd(t, "validate", smokePath)
	if code != 0 || !strings.Contains(out, "ok") {
		t.Fatalf("validate exit %d, out %q", code, out)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","seed":1,"nodes":[{"id":"a","model":"NOPE","supply":"weak"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCmd(t, "validate", bad); code == 0 || !strings.Contains(errOut, "unknown model") {
		t.Fatalf("bad scenario: exit %d, stderr %q", code, errOut)
	}
}

func TestUsageAndTraceArtifact(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Error("no-args must exit 2")
	}
	if code, _, _ := runCmd(t, "bogus"); code != 2 {
		t.Error("unknown subcommand must exit 2")
	}
	if code, _, _ := runCmd(t, "run"); code != 2 {
		t.Error("run without a scenario must exit 2")
	}
	tracePath := filepath.Join(t.TempDir(), "fleet.json")
	if code, _, errOut := runCmd(t, "run", "-trace", tracePath, smokePath); code != 0 {
		t.Fatalf("run -trace exit %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("trace artifact is not valid JSON")
	}
	for _, id := range []string{"har-weak", "har-storm", "cks-solar"} {
		if !bytes.Contains(raw, []byte(id)) {
			t.Errorf("trace missing node section %q", id)
		}
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code, _, errOut := runCmd(t, "run", "-cpuprofile", cpu, "-memprofile", mem, smokePath); code != 0 {
		t.Fatalf("run with profiles exit %d: %s", code, errOut)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", path, err)
		}
	}
}
