package fixed

import (
	"math"
	"math/rand"
	"testing"
)

// refShiftOf is shiftOf's branching loop, kept as the reference.
func refShiftOf(src []float32) int {
	var maxExp uint32
	for _, v := range src {
		if e := math.Float32bits(v) >> 23 & 0xFF; e != 0xFF && e > maxExp {
			maxExp = e
		}
	}
	if maxExp < 127 {
		return 0
	}
	return int(maxExp) - 126
}

// refFakeQuantize is FakeQuantize through FromFloat and math.Round,
// kept as the reference the branch-free rounding must match bit for
// bit.
func refFakeQuantize(data []float32) {
	shift := refShiftOf(data)
	down, up := math.Ldexp(1, -shift), math.Ldexp(1, shift)
	for i, v := range data {
		data[i] = quantizeScaled(v, down).scaled(up)
	}
}

// checkFakeQuantize requires FakeQuantize(src) to equal refFakeQuantize
// bit for bit, and shiftOf to equal refShiftOf.
func checkFakeQuantize(t *testing.T, src []float32) {
	t.Helper()
	if got, want := shiftOf(src), refShiftOf(src); got != want {
		t.Fatalf("shiftOf(%v) = %d, want %d", src, got, want)
	}
	got, want := append([]float32(nil), src...), append([]float32(nil), src...)
	FakeQuantize(got)
	refFakeQuantize(want)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("FakeQuantize: %g (%#08x) under shift %d gives %g (%#08x), want %g (%#08x)",
				src[i], math.Float32bits(src[i]), shiftOf(src), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestFakeQuantizeSpecialValues covers, under shifts from 0 to 128:
// NaNs, ±Inf, ±0 and subnormals; exact Q1.15 ties k+0.5 at both signs,
// which round away from zero (2.5 to 3, not to even 2); their float32
// neighbours; and the values that saturate at One or MinVal.
func TestFakeQuantizeSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nonFinite := []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007FFFFF), math.Float32frombits(0x80800000)}
	checkFakeQuantize(t, nonFinite)
	for _, shift := range []int{0, 1, 2, 7, 15, 16, 40, 127, 128} {
		q := func(x float64) float32 { return float32(math.Ldexp(x, shift-FracBits)) }
		// The anchor 2^shift·0.75 sets the slice's shift.
		src := append([]float32{q(0.75 * (1 << FracBits))}, nonFinite...)
		for _, k := range []float64{0, 1, 2, 3, 100, 16383, 32766} {
			for _, x := range []float64{k + 0.5, -(k + 0.5)} {
				v := q(x)
				src = append(src, v, math.Nextafter32(v, 0), math.Nextafter32(v, float32(math.Inf(int(math.Copysign(1, x))))))
			}
		}
		// Saturation within half a step below 2^15, and the values
		// nearest -2^15, which round to MinVal (-2^15 itself would set a
		// larger shift).
		src = append(src, q(32767), q(32767.25), q(32767.5), q(32767.75), q(32768)*math.Float32frombits(0x3F7FFFFF),
			q(-32767.5), q(-32767.75), q(-32768)*math.Float32frombits(0x3F7FFFFF))
		checkFakeQuantize(t, src)
		if got := shiftOf(src); got != shift {
			t.Fatalf("anchor for shift %d gave shift %d", shift, got)
		}
	}
	// A tie under shift 0 rounds away from zero, not to even.
	got := []float32{0.75, float32(2.5 / (1 << FracBits)), float32(-2.5 / (1 << FracBits))}
	FakeQuantize(got)
	if got[1] != 3.0/(1<<FracBits) || got[2] != -3.0/(1<<FracBits) {
		t.Errorf("ties ±2.5 LSB rounded to %g, %g LSB, want ±3", got[1]*(1<<FracBits), got[2]*(1<<FracBits))
	}
}

// TestFakeQuantizeMatchesReference compares random slices, mixing
// magnitudes over 80 binades with special values and random bit
// patterns, against the reference.
func TestFakeQuantizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	for trial := 0; trial < 3000; trial++ {
		src := make([]float32, rng.Intn(64))
		mag := math.Ldexp(1, rng.Intn(80)-40)
		for i := range src {
			switch rng.Intn(8) {
			case 0:
				src[i] = special[rng.Intn(len(special))]
			case 1:
				src[i] = math.Float32frombits(rng.Uint32())
			case 2: // a tie or a whole number of steps under the magnitude's shift
				src[i] = float32(math.Ldexp(float64(rng.Intn(1<<17)-1<<16)/2, -FracBits) * mag)
			default:
				src[i] = float32((rng.Float64()*2 - 1) * mag)
			}
		}
		checkFakeQuantize(t, src)
	}
}

// FuzzFakeQuantize checks FakeQuantize against the reference on
// fuzzed float32 bit patterns, up to eight values a slice; plain go
// test runs the seed corpus. Eight values hold every case a longer
// slice can (the shift is one maximum over the slice, and each value
// rounds on its own under it), and fixed-size inputs keep each run,
// and the minimizing of a new corpus entry, cheap.
func FuzzFakeQuantize(f *testing.F) {
	f.Add(uint8(4), uint32(0x3F400000), uint32(0x7F800000), uint32(0x7FC00000), uint32(0x80000000), uint32(0), uint32(0), uint32(0), uint32(0))                   // 0.75, +Inf, NaN, -0
	f.Add(uint8(4), uint32(0x40200000), uint32(0xC0200000), uint32(0x38800000), uint32(1), uint32(0), uint32(0), uint32(0), uint32(0))                            // ±2.5, 2^-14 (a tie under shift 2), a subnormal
	f.Add(uint8(8), uint32(0x7F7FFFFF), uint32(0xFF800000), uint32(0), uint32(1), uint32(0xFF7FFFFF), uint32(0x3F7FFFFF), uint32(0xBF800000), uint32(0x3F000000)) // ±MaxFloat32 (saturating under shift 128), -Inf, +0, a subnormal, 1⁻, -1, 0.5
	f.Fuzz(func(t *testing.T, n uint8, a, b, c, d, e, g, h, i uint32) {
		src := make([]float32, 0, 8)
		for _, bits := range []uint32{a, b, c, d, e, g, h, i}[:n%9] {
			src = append(src, math.Float32frombits(bits))
		}
		checkFakeQuantize(t, src)
	})
}
