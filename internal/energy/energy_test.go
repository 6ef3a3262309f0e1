package energy

import (
	"math"
	"testing"

	"iprune/internal/power"
)

func TestDefaultBuffer(t *testing.T) {
	m := Default()
	want := power.DefaultBuffer().UsableEnergy()
	if m.BufferJ != want {
		t.Fatalf("BufferJ = %g, want %g", m.BufferJ, want)
	}
	// The paper's buffer: ½·100µF·(2.8²−2.4²) = 104 µJ.
	if math.Abs(m.BufferJ-104e-6) > 1e-12 {
		t.Fatalf("BufferJ = %g, want 104 µJ", m.BufferJ)
	}
	if m.CPUOpJ() <= 0 {
		t.Fatalf("CPUOpJ = %g, want > 0", m.CPUOpJ())
	}
}

func TestOpCostShape(t *testing.T) {
	m := Default()
	tOv, eOv := m.OpCost(1000, 512, 256, true)
	tSer, eSer := m.OpCost(1000, 512, 256, false)
	if tOv <= 0 || eOv <= 0 {
		t.Fatalf("overlapped op cost not positive: t=%g e=%g", tOv, eOv)
	}
	// Serialized preservation exposes compute + write; overlap hides the
	// smaller of the two — so serialized is never cheaper.
	if tSer < tOv || eSer < eOv {
		t.Fatalf("serialized (t=%g e=%g) cheaper than overlapped (t=%g e=%g)", tSer, eSer, tOv, eOv)
	}
	// More work costs more.
	t2, e2 := m.OpCost(2000, 1024, 512, true)
	if t2 <= tOv || e2 <= eOv {
		t.Fatalf("doubled op not more expensive: t %g→%g, e %g→%g", tOv, t2, eOv, e2)
	}
}

func TestRecoveryCostIncludesReboot(t *testing.T) {
	m := Default()
	rt, re := m.RecoveryCost(4, 1024)
	if rt < m.Dev.RebootTime {
		t.Fatalf("recovery time %g below reboot time %g", rt, m.Dev.RebootTime)
	}
	if re < m.Dev.RebootEnergy {
		t.Fatalf("recovery energy %g below reboot energy %g", re, m.Dev.RebootEnergy)
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in   string
		want Budget
		ok   bool
	}{
		{"20000ops", Budget{Ops: 20000}, true},
		{" 5 ops", Budget{Ops: 5}, true},
		{"104uJ", Budget{Joules: 104e-6}, true},
		{"1.5mJ", Budget{Joules: 1.5e-3}, true},
		{"250nJ", Budget{Joules: 250e-9}, true},
		{"2e-5J", Budget{Joules: 2e-5}, true},
		{"104", Budget{}, false},  // unit required
		{"-3uJ", Budget{}, false}, // budgets are positive
		{"0ops", Budget{}, false},
		{"NaNJ", Budget{}, false},
		{"5e-324nJ", Budget{}, false}, // underflows to 0 J
		{"", Budget{}, false},
	}
	for _, c := range cases {
		got, err := ParseBudget(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBudget(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if got.Ops != c.want.Ops || math.Abs(got.Joules-c.want.Joules) > 1e-18 {
			t.Errorf("ParseBudget(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// FuzzParseBudget: any string parses to a budget with exactly one
// dimension set (finite, positive joules or a positive op count), or to
// an error; none panics.
func FuzzParseBudget(f *testing.F) {
	for _, in := range []string{"20000ops", " 5 ops", "104uJ", "1.5mJ", "250nJ", "2e-5J", "104", "-3uJ", "0ops", "NaNJ", "5e-324nJ", ""} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		b, err := ParseBudget(in)
		joules := b.Joules > 0 && !math.IsInf(b.Joules, 0) && b.Ops == 0
		if err == nil && !joules && !(b.Ops > 0 && b.Joules == 0) {
			t.Fatalf("ParseBudget(%q) = %+v: want exactly one positive dimension", in, b)
		}
	})
}

func TestBudgetRoundTrip(t *testing.T) {
	for _, s := range []string{"20000ops", "104uJ", "1.5mJ"} {
		b, err := ParseBudget(s)
		if err != nil {
			t.Fatalf("ParseBudget(%q): %v", s, err)
		}
		b2, err := ParseBudget(b.String())
		if err != nil {
			t.Fatalf("reparse ParseBudget(%q): %v", b.String(), err)
		}
		if b2 != b {
			t.Fatalf("round trip %q → %+v → %q → %+v", s, b, b.String(), b2)
		}
	}
}

func TestFormatJ(t *testing.T) {
	cases := []struct {
		j    float64
		want string
	}{
		{104e-6, "104uJ"},
		{1.5e-3, "1.5mJ"},
		{2.5, "2.5J"},
		{250e-9, "250nJ"},
		{0, "0J"},
	}
	for _, c := range cases {
		if got := FormatJ(c.j); got != c.want {
			t.Errorf("FormatJ(%g) = %q, want %q", c.j, got, c.want)
		}
	}
}
