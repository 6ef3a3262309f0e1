package hawaii

import (
	"math"
	"testing"

	"iprune/internal/nn"
	"iprune/internal/tile"
)

// patternInjector fails at the i-th preservation boundary when bit i of
// the pattern is set (bit i%8 of byte i/8). Past the end of the pattern
// nothing fails, so every run ends.
type patternInjector struct {
	bits  []byte
	i     int
	fails int64 // set bits consumed
}

func (p *patternInjector) Fail() bool {
	if p.i >= 8*len(p.bits) {
		return false
	}
	fail := p.bits[p.i/8]>>(p.i%8)&1 == 1
	p.i++
	if fail {
		p.fails++
	}
	return fail
}

// boundaryCounter counts the preservation boundaries of a run and never
// fails.
type boundaryCounter struct{ n int }

func (c *boundaryCounter) Fail() bool { c.n++; return false }

// maxPattern caps the fuzzed failure pattern: 4096 boundaries, many times
// the test network's clean run.
const maxPattern = 512

// fuzzPruneEvery is the prune levels the fuzz input picks from: every
// n-th block of each layer pruned, 0 for none.
var fuzzPruneEvery = []int{0, 2, 3, 5}

// patternBits returns a pattern with the given boundary bits set.
func patternBits(bits ...int) []byte {
	p := make([]byte, bits[len(bits)-1]/8+1)
	for _, b := range bits {
		p[b/8] |= 1 << (b % 8)
	}
	return p
}

// FuzzEngineFailures checks HAWAII⁺'s central claim under generated
// failure patterns: an inference interrupted at any set of preservation
// boundaries commits the same ops and jobs as an uninterrupted run and
// returns bit-identical logits, failing exactly once per set bit and
// re-executing at most one op per failure.
func FuzzEngineFailures(f *testing.F) {
	engines := make([]*Engine, len(fuzzPruneEvery))
	clean := make([][]*InferResult, len(fuzzPruneEvery))
	var inputs []nn.Sample
	for i, every := range fuzzPruneEvery {
		engines[i], inputs = newTestEngine(f, 12, every)
		for _, s := range inputs {
			res, err := engines[i].Infer(s.X, nil)
			if err != nil {
				f.Fatal(err)
			}
			clean[i] = append(clean[i], res)
		}
	}

	// Seed corpus: EveryN-like patterns, an all-ones prefix, and single
	// failures at the first stage's input transform, at the first
	// convolution's finalize and at the last stage's finalize.
	for _, n := range []int{2, 3, 7} {
		var bits []int
		for b := n - 1; b < 8*maxPattern; b += n {
			bits = append(bits, b)
		}
		f.Add(uint8(1), uint8(n), patternBits(bits...))
	}
	ones := make([]byte, 64)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(uint8(0), uint8(0), ones)
	e := engines[0]
	var cnt boundaryCounter
	if _, err := e.Infer(inputs[0].X, &cnt); err != nil {
		f.Fatal(err)
	}
	firstOps := len(BuildSchedule(&e.Specs[0], e.Net.Prunables()[0].Mask(), tile.Intermittent, e.Cfg))
	f.Add(uint8(0), uint8(0), patternBits(0))
	f.Add(uint8(0), uint8(0), patternBits(1+firstOps))
	f.Add(uint8(0), uint8(0), patternBits(cnt.n-1))

	f.Fuzz(func(t *testing.T, level, sample uint8, pattern []byte) {
		if len(pattern) > maxPattern {
			pattern = pattern[:maxPattern]
		}
		li, si := int(level)%len(engines), int(sample)%len(inputs)
		want := clean[li][si]
		inj := &patternInjector{bits: pattern}
		got, err := engines[li].Infer(inputs[si].X, inj)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Logits {
			if math.Float32bits(got.Logits[i]) != math.Float32bits(want.Logits[i]) {
				t.Fatalf("logit %d: %v under failures, %v uninterrupted", i, got.Logits[i], want.Logits[i])
			}
		}
		s := got.Stats
		if s.Ops != want.Stats.Ops || s.Jobs != want.Stats.Jobs {
			t.Errorf("committed ops/jobs %d/%d, uninterrupted %d/%d", s.Ops, s.Jobs, want.Stats.Ops, want.Stats.Jobs)
		}
		if s.Failures != inj.fails || s.ReExecOps > s.Failures {
			t.Errorf("failures %d for %d set bits consumed, %d ops re-executed", s.Failures, inj.fails, s.ReExecOps)
		}
	})
}
