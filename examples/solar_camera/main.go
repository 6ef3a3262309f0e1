// solar_camera: a solar-powered smart camera running the SQN image model
// (the paper's demo scenario). Instead of the paper's two harvested
// operating points, this example sweeps harvest power from 2 mW to 32 mW
// and plots how end-to-end inference latency, power-failure count and
// duty cycle respond — the trade the deployment engineer actually tunes
// a panel size against.
//
// The sweep uses the pretrained (unpruned) model and an iPrune-style
// block-pruned variant (one-shot, no fine-tuning) so it runs in seconds;
// see examples/quickstart for the full prune-with-recovery flow.
//
//	go run ./examples/solar_camera
package main

import (
	"fmt"
	"log"
	"strings"

	"iprune"
	"iprune/internal/core"
)

func main() {
	net, err := iprune.BuildModel("SQN", 1)
	if err != nil {
		log.Fatal(err)
	}
	// A one-shot 40% block prune stands in for a full iPrune run (this
	// example is about the power model, not accuracy).
	pruned, err := iprune.BuildModel("SQN", 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := iprune.Stats(pruned); err != nil { // installs masks
		log.Fatal(err)
	}
	core.OneShotBlocks(pruned, 0.4)

	fmt.Println("solar harvest sweep, SQN image recognition, one inference:")
	fmt.Printf("  %8s | %22s | %22s\n", "harvest", "unpruned", "pruned 40%")
	fmt.Printf("  %8s | %10s %11s | %10s %11s\n", "mW", "latency", "cycles", "latency", "cycles")
	for _, mw := range []float64{2, 4, 8, 16, 32} {
		sup := iprune.Supply{Name: fmt.Sprintf("%.0fmW", mw), Power: mw * 1e-3, Jitter: 0.1}
		u := mustSimulate(net, sup)
		p := mustSimulate(pruned, sup)
		bar := strings.Repeat("#", int(u.Latency/p.Latency*4))
		fmt.Printf("  %8.0f | %9.2fs %11d | %9.2fs %11d  speedup %s %.2fx\n",
			mw, u.Latency, u.Failures, p.Latency, p.Failures, bar, u.Latency/p.Latency)
	}

	fmt.Println("\nduty cycle (on-time share) of the pruned model:")
	for _, mw := range []float64{2, 4, 8, 16, 32} {
		sup := iprune.Supply{Name: "sweep", Power: mw * 1e-3, Jitter: 0.1}
		r := mustSimulate(pruned, sup)
		duty := r.ActiveTime / r.Latency
		fmt.Printf("  %5.0f mW: %5.1f%% %s\n", mw, 100*duty, strings.Repeat("=", int(duty*40)))
	}

	// A cloudy solar day: inference latency depends on when in the day it
	// starts, because the harvest trace moves under the capacitor.
	fmt.Println("\ncloudy 10 mW solar day (trace-driven):")
	day := iprune.SolarTrace(10e-3, 600, 4, 9)
	for _, startFrac := range []float64{0.1, 0.3, 0.5, 0.8} {
		// Shift the trace so the inference starts at this point of the day.
		shift := float64(startFrac * 600)
		tr := iprune.Trace{}
		for i := range day.Times {
			if day.Times[i] >= shift {
				tr.Times = append(tr.Times, day.Times[i]-shift)
				tr.Powers = append(tr.Powers, day.Powers[i])
			}
		}
		if len(tr.Times) < 2 {
			continue
		}
		if tr.Times[0] != 0 {
			tr.Times = append([]float64{0}, tr.Times...)
			tr.Powers = append([]float64{day.At(shift)}, tr.Powers...)
		}
		r, err := iprune.SimulateTrace(pruned, tr, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  start at %3.0f%% of day (%.1f mW): latency %7.2fs, %d power cycles\n",
			100*startFrac, 1e3*day.At(shift), r.Latency, r.Failures)
	}
}

// mustSimulate runs one simulated inference, aborting the sweep if the
// schedule cannot complete under the supply (op exceeds the buffer).
func mustSimulate(net *iprune.Network, sup iprune.Supply) iprune.SimResult {
	r, err := iprune.Simulate(net, sup, 1)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
