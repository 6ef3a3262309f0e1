package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module named "iprune" (the analyzer
// scopes key on that module path) and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module iprune\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runLint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-dir", dir}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Add(a, b int16) int16 { return a + b }\n",
	})
	code, stdout, stderr := runLint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("clean module: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module printed findings: %s", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Scale(x float64) float64 { return x * 1.5 }\n",
	})
	code, stdout, stderr := runLint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("float in kernel package: exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "floatpurity") {
		t.Errorf("findings output missing analyzer name:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings count: %s", stderr)
	}
}

func TestExitCodeOperationalError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Broken( {\n",
	})
	code, _, stderr := runLint(t, dir, "./...")
	if code != 2 {
		t.Fatalf("syntax error: exit %d, want 2\nstderr: %s", code, stderr)
	}
	if stderr == "" {
		t.Error("syntax error reported nothing on stderr")
	}
}

func TestExitCodeBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Scale(x float64) float64 { return x * 1.5 }\n",
	})
	code, stdout, _ := runLint(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("-json emitted an empty array for a dirty module")
	}
	f := findings[0]
	if f.File != "internal/fixed/fixed.go" || f.Line == 0 || f.Analyzer != "floatpurity" || f.Message == "" {
		t.Errorf("finding fields = %+v", f)
	}

	// A clean run still emits valid JSON: an empty array, not nothing.
	clean := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Add(a, b int16) int16 { return a + b }\n",
	})
	code, stdout, _ = runLint(t, clean, "-json", "./...")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json run: exit %d, stdout %q", code, stdout)
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{"floatpurity", "warhazard", "parsafe", "floatflow", "allocflow", "errcheck", "regionbudget", "lockorder", "goleak"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
	// Each analyzer with an escape hatch names its suppression directive.
	for _, dir := range []string{"//iprune:allow-float", "//iprune:allow-conc", "//iprune:allow-budget"} {
		if !strings.Contains(stdout.String(), dir) {
			t.Errorf("-list missing directive %s:\n%s", dir, stdout.String())
		}
	}
}

func TestSARIFOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Scale(x float64) float64 { return x * 1.5 }\n",
	})
	code, stdout, stderr := runLint(t, dir, "-sarif", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "iprunelint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"floatpurity", "regionbudget", "warhazard", "directives"} {
		if !ruleIDs[want] {
			t.Errorf("rules missing %s", want)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("dirty module produced no SARIF results")
	}
	res := run.Results[0]
	if res.RuleID != "floatpurity" || res.Level != "warning" || res.Message.Text == "" {
		t.Errorf("result = %+v", res)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("%d locations", len(res.Locations))
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/fixed/fixed.go" || loc.Region.StartLine < 1 {
		t.Errorf("location = %+v", loc)
	}
	if !ruleIDs[res.RuleID] {
		t.Errorf("result rule %q not declared in rules", res.RuleID)
	}

	// A clean run still emits a complete log with an empty results array.
	clean := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": "package fixed\n\nfunc Add(a, b int16) int16 { return a + b }\n",
	})
	code, stdout, _ = runLint(t, clean, "-sarif", "./...")
	if code != 0 {
		t.Fatalf("clean -sarif run: exit %d", code)
	}
	if !strings.Contains(stdout, `"results": []`) {
		t.Errorf("clean -sarif run missing empty results array:\n%s", stdout)
	}
}

// TestSARIFGolden pins the full SARIF log of a small fixture module
// byte-for-byte (sarifcheck validates shape in check.sh; this catches
// any drift in field order, indentation, rule metadata or escaping).
// Regenerate after an intentional emitter change with:
//
//	UPDATE_SARIF_GOLDEN=1 go test ./cmd/iprunelint -run TestSARIFGolden
func TestSARIFGolden(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/fixed/fixed.go": `package fixed

//iprune:allow-floot typo exercises the directives rule
func Scale(x float64) float64 { return x * 1.5 }
`,
	})
	code, stdout, stderr := runLint(t, dir, "-sarif", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	golden := filepath.Join("testdata", "golden.sarif")
	if os.Getenv("UPDATE_SARIF_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_SARIF_GOLDEN=1): %v", err)
	}
	if stdout != string(want) {
		t.Errorf("SARIF output diverged from %s (regenerate with UPDATE_SARIF_GOLDEN=1 if intended):\ngot:\n%s\nwant:\n%s",
			golden, stdout, want)
	}
}

func TestJSONSARIFExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-sarif"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json -sarif: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr: %s", stderr.String())
	}
}
