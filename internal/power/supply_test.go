package power

import (
	"math"
	"testing"

	"iprune/internal/obs"
)

func TestParseSupplyNamed(t *testing.T) {
	cases := []struct {
		in   string
		want Supply
	}{
		{"continuous", ContinuousPower},
		{"CONTINUOUS", ContinuousPower},
		{"strong", StrongPower},
		{"Strong", StrongPower},
		{"weak", WeakPower},
		{"WeAk", WeakPower},
	}
	for _, c := range cases {
		got, err := ParseSupply(c.in)
		if err != nil {
			t.Errorf("ParseSupply(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSupply(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSupplyCustomMilliwatts(t *testing.T) {
	cases := []struct {
		in    string
		watts float64
	}{
		{"6mW", 6e-3},
		{"6mw", 6e-3},
		{"6MW", 6e-3}, // the suffix is case-insensitive; there is no megawatt harvester
		{"0.5mW", 0.5e-3},
		{"12.75mW", 12.75e-3},
	}
	for _, c := range cases {
		got, err := ParseSupply(c.in)
		if err != nil {
			t.Errorf("ParseSupply(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Power-c.watts) > 1e-15 {
			t.Errorf("ParseSupply(%q).Power = %g, want %g", c.in, got.Power, c.watts)
		}
		if got.Continuous {
			t.Errorf("ParseSupply(%q) marked continuous", c.in)
		}
		if got.Jitter != 0.15 {
			t.Errorf("ParseSupply(%q).Jitter = %g, want paper-default 0.15", c.in, got.Jitter)
		}
		if got.Name != c.in {
			t.Errorf("ParseSupply(%q).Name = %q", c.in, got.Name)
		}
	}
}

func TestParseSupplyMalformed(t *testing.T) {
	for _, in := range []string{
		"",         // empty
		"solar",    // unknown name
		"6",        // no unit
		"6w",       // wrong unit
		"mW",       // no number
		"xmW",      // not a number
		"0mW",      // zero power cannot recharge
		"-3mW",     // negative power
		"InfmW",    // non-finite
		"-InfmW",   // non-finite
		"NaNmW",    // non-finite
		"5e-324mW", // underflows to 0 W
		"6 mW",     // interior space
		"6mWatts",  // trailing junk
	} {
		if got, err := ParseSupply(in); err == nil {
			t.Errorf("ParseSupply(%q) = %+v, want error", in, got)
		}
	}
}

// FuzzParseSupply: any string parses to a supply with finite, positive
// power, or to an error; none panics.
func FuzzParseSupply(f *testing.F) {
	for _, in := range []string{"continuous", "WeAk", "6mW", "12.75mw", "0mW", "-3mW", "InfmW", "NaNmW", "5e-324mW", "6 mW", ""} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sup, err := ParseSupply(in)
		if err == nil && !(sup.Power > 0 && !math.IsInf(sup.Power, 0)) {
			t.Fatalf("ParseSupply(%q) = %+v: power not finite and positive", in, sup)
		}
	})
}

// TestSimTraceEvents verifies the power simulator's event emission: a
// depleting draw produces failure + power-off, and the recharge that
// follows produces a charge span and the next power-on, all stamped on
// the simulator's own OnTime+OffTime clock.
func TestSimTraceEvents(t *testing.T) {
	rec := obs.NewRecorder()
	sim := NewSim(DefaultBuffer(), Supply{Name: "det", Power: 4e-3}, 1)
	sim.Trace = rec
	full := sim.Buffer.UsableEnergy()
	if failed := sim.Consume(full/2, 1e-6); failed {
		t.Fatal("half-buffer draw must not fail")
	}
	if failed := sim.Consume(full, 1e-6); !failed {
		t.Fatal("over-buffer draw must fail")
	}
	off := sim.Recharge()
	if off <= 0 {
		t.Fatal("recharge must take time")
	}
	evs := rec.Events()
	var kinds []obs.Kind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	want := []obs.Kind{obs.KindPowerOn, obs.KindFailure, obs.KindPowerOff, obs.KindCharge, obs.KindPowerOn}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	// The charge span's duration is the off-time, and the next power-on
	// lands at its end.
	charge, on := evs[3], evs[4]
	if math.Abs(charge.Dur-off) > 1e-12 {
		t.Errorf("charge dur = %g, want %g", charge.Dur, off)
	}
	if math.Abs(on.Time-(charge.Time+charge.Dur)) > 1e-12 {
		t.Errorf("power-on at %g, want end of charge %g", on.Time, charge.Time+charge.Dur)
	}
}

// TestSimNilTraceIsFree pins the disabled-path contract: with no tracer
// attached, Consume and Recharge never construct events.
func TestSimNilTraceIsFree(t *testing.T) {
	sim := NewSim(DefaultBuffer(), StrongPower, 1)
	allocs := testing.AllocsPerRun(100, func() {
		sim.Consume(1e-9, 1e-6)
	})
	if allocs != 0 {
		t.Errorf("untraced Consume allocates %.1f per call, want 0", allocs)
	}
}
