//iprune:allow-err diagnostics print to the process stdio (or a test buffer); a failed write there has no recovery path

// Command benchdiff compares two benchmark snapshots produced by
// scripts/bench.sh and fails when the hot-path benchmarks regressed.
//
// Usage:
//
//	benchdiff [-ns-threshold 10] [-hot regexp] OLD.json NEW.json
//
// Every benchmark present in both snapshots is compared; ones matching
// -hot are gating: a ns/op increase beyond -ns-threshold percent, or
// any allocs/op increase at all (the tracing layer's zero-alloc budget),
// fails the diff. A hot benchmark whose baseline ns/op is zero or
// missing cannot be compared by percent and fails closed, and a hot
// benchmark that disappeared from the new snapshot fails too — a
// deleted benchmark must not silently drop its gate. Non-hot benchmarks
// are reported but never fail — macro benchmarks (whole pruning runs)
// jitter too much to gate on.
//
// Exit status: 0 no hot-path regression, 1 regression found, 2
// operational error (bad invocation, unreadable or malformed snapshot).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// defaultHot matches the kernel/engine benchmarks whose per-op numbers
// are stable enough to gate on: the float GEMM kernels and the float
// forward pass, Q15 deployed-accuracy probe and HAR fine-tune epoch
// built on them (whose layer-owned buffers the alloc gate holds), the
// fixed-point kernels, the HAWAII⁺ engine, the sparse formats, the cost
// simulator, the streaming trace encoder, the telemetry hub's emit path
// (whose zero-alloc budget the alloc gate enforces) and the power sweep.
const defaultHot = `Gemm|Conv|Forward|Engine|BSR|CostSim|Schedule|StreamTracer|PowerSweep|HubEmit|AccuracyQ15|TrainEpoch`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// snapshot mirrors the BENCH_<date>.json layout written by
// scripts/bench.sh.
type snapshot struct {
	Date       string  `json:"date"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op"`
}

func (b bench) key() string { return b.Pkg + "." + b.Name }

// run is main with its dependencies injected, so the exit-code contract
// is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("ns-threshold", 10, "gating ns/op regression threshold, percent")
	hotPat := fs.String("hot", defaultHot, "regexp of gating (hot-path) benchmark names")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-ns-threshold PCT] [-hot REGEXP] OLD.json NEW.json")
		return 2
	}
	hot, err := regexp.Compile(*hotPat)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: bad -hot regexp: %v\n", err)
		return 2
	}
	old, err := readSnapshot(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cur, err := readSnapshot(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	oldBy := map[string]bench{}
	for _, b := range old.Benchmarks {
		oldBy[b.key()] = b
	}

	regressions := 0
	compared := 0
	for _, nb := range cur.Benchmarks {
		ob, ok := oldBy[nb.key()]
		if !ok {
			fmt.Fprintf(stdout, "new   %-40s %12.0f ns/op (no baseline)\n", nb.Name, nb.NsPerOp)
			continue
		}
		delete(oldBy, nb.key())
		compared++
		gating := hot.MatchString(nb.Name)
		pct := 0.0
		pctOK := ob.NsPerOp > 0
		if pctOK {
			pct = 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		status := "ok   "
		fail := false
		if gating && pctOK && pct > *threshold {
			status = "FAIL "
			fail = true
		}
		if gating && !pctOK && nb.NsPerOp > 0 {
			// A zero/absent baseline gives no percentage to gate on: fail
			// closed instead of letting an unbounded regression through.
			status = "FAIL "
			fail = true
		}
		allocNote := ""
		if nb.AllocsPerOp != nil && ob.AllocsPerOp != nil && *nb.AllocsPerOp > *ob.AllocsPerOp {
			allocNote = fmt.Sprintf("  allocs %d -> %d", *ob.AllocsPerOp, *nb.AllocsPerOp)
			if gating {
				status = "FAIL "
				fail = true
			}
		}
		if !gating {
			status = "info "
		}
		if fail {
			regressions++
		}
		fmt.Fprintf(stdout, "%s %-40s %12.0f -> %12.0f ns/op (%+.1f%%)%s\n",
			status, nb.Name, ob.NsPerOp, nb.NsPerOp, pct, allocNote)
	}
	gone := make([]string, 0, len(oldBy))
	for key := range oldBy {
		gone = append(gone, key)
	}
	sort.Strings(gone)
	for _, key := range gone {
		if hot.MatchString(oldBy[key].Name) {
			// A vanished hot benchmark silently retires its gate: treat
			// the disappearance itself as a failure.
			fmt.Fprintf(stdout, "FAIL  %s disappeared from %s (hot benchmarks must not vanish)\n", key, fs.Arg(1))
			regressions++
			continue
		}
		fmt.Fprintf(stdout, "gone  %s (present in %s only)\n", key, fs.Arg(0))
	}

	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d hot-path regression(s) beyond %.0f%% ns/op or any allocs/op increase\n",
			regressions, *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmark(s) compared, no hot-path regression\n", compared)
	return 0
}

func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s holds no benchmarks", path)
	}
	return &s, nil
}
