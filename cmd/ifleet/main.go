//iprune:allow-err diagnostics print to the process stdio (or a test buffer); a failed write there has no recovery path

// Command ifleet runs declarative fleet scenarios: a JSON file describes
// a heterogeneous fleet of intermittent devices, a timed event script
// (harvest changes, brownout storms, model switches) and end-of-run
// assertions; every node runs the real HAWAII⁺ cost simulator with only
// its power layer scripted.
//
// Usage:
//
//	ifleet run [-workers N] [-trace FILE] [-cpuprofile F] [-memprofile F] scenario.json
//	ifleet validate scenario.json
//
// run simulates the scenario and prints the per-node summary, the fleet
// rollup and the assertion verdicts; output is byte-identical for any
// -workers width. It exits non-zero when an assertion fails or a node
// errors. -trace writes the Chrome trace, one section per node, by
// simulating each node again straight into the file, so memory stays
// constant however long the run. -cpuprofile and -memprofile write
// runtime/pprof profiles of the run (the heap profile is taken at its
// end). validate checks the scenario's schema, cross-references and
// assertion shapes without simulating anything.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iprune"
	"iprune/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: ifleet run [-workers N] [-trace FILE] [-cpuprofile F] [-memprofile F] scenario.json")
	fmt.Fprintln(stderr, "       ifleet validate scenario.json")
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "run":
		return runScenario(args[1:], stdout, stderr)
	case "validate":
		return validateScenario(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ifleet: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

func runScenario(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ifleet run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 1, "fan-out width across accuracy probes and node simulations (<=0: GOMAXPROCS)")
	tracePath := fs.String("trace", "", "write the merged Chrome trace (one section per node)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	sc, err := fleet.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	stopProf, err := iprune.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := simulate(sc, *workers, *tracePath, stdout, stderr)
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return code
}

// simulate runs the scenario, prints its summary and writes the trace,
// returning the exit code.
func simulate(sc *fleet.Scenario, workers int, tracePath string, stdout, stderr io.Writer) int {
	rep, err := fleet.Run(sc, fleet.Options{Workers: workers})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := rep.WriteSummary(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if tracePath != "" {
		if err := iprune.WriteArtifact(tracePath, rep.WriteTrace); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

func validateScenario(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ifleet validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	sc, err := fleet.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d nodes, %d events, %d assertions — ok\n",
		sc.Name, len(sc.Nodes), len(sc.Events), len(sc.Assertions))
	return 0
}
