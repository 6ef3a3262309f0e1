package fixed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.5, -0.5, 0.25, -0.99, 0.999, 1.0 / 3.0}
	for _, f := range cases {
		q := FromFloat(f)
		got := q.Float()
		if math.Abs(got-f) > 1.0/(1<<FracBits) {
			t.Errorf("round trip %v -> %v: error too large", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(2.0) != One {
		t.Errorf("FromFloat(2.0) = %d, want %d", FromFloat(2.0), One)
	}
	if FromFloat(-2.0) != MinVal {
		t.Errorf("FromFloat(-2.0) = %d, want %d", FromFloat(-2.0), MinVal)
	}
	if FromFloat(math.NaN()) != 0 {
		t.Errorf("FromFloat(NaN) = %d, want 0", FromFloat(math.NaN()))
	}
}

func TestAddSaturates(t *testing.T) {
	if Add(Q15(One), Q15(One)) != One {
		t.Error("positive add should saturate at One")
	}
	if Add(Q15(MinVal), Q15(MinVal)) != MinVal {
		t.Error("negative add should saturate at MinVal")
	}
	if Add(FromFloat(0.25), FromFloat(0.5)) != FromFloat(0.75) {
		t.Error("0.25+0.5 != 0.75")
	}
}

func TestSub(t *testing.T) {
	if Sub(FromFloat(0.5), FromFloat(0.25)) != FromFloat(0.25) {
		t.Error("0.5-0.25 != 0.25")
	}
	if Sub(Q15(MinVal), Q15(One)) != MinVal {
		t.Error("sub should saturate at MinVal")
	}
}

func TestMul(t *testing.T) {
	got := Mul(FromFloat(0.5), FromFloat(0.5)).Float()
	if math.Abs(got-0.25) > 1e-4 {
		t.Errorf("0.5*0.5 = %v, want 0.25", got)
	}
	got = Mul(FromFloat(-0.5), FromFloat(0.5)).Float()
	if math.Abs(got+0.25) > 1e-4 {
		t.Errorf("-0.5*0.5 = %v, want -0.25", got)
	}
	// -1 * -1 must saturate to just below +1, not wrap.
	if Mul(Q15(MinVal), Q15(MinVal)) != One {
		t.Error("(-1)*(-1) should saturate at One")
	}
}

func TestMulPropertyNoWrap(t *testing.T) {
	f := func(a, b int16) bool {
		p := Mul(Q15(a), Q15(b)).Float()
		exact := Q15(a).Float() * Q15(b).Float()
		return math.Abs(p-exact) <= 1.0/(1<<FracBits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b int16) bool {
		return Add(Q15(a), Q15(b)) == Add(Q15(b), Q15(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeSliceShift(t *testing.T) {
	src := []float32{3.5, -2.0, 0.5}
	qt := QuantizeSlice(src)
	if qt.Shift != 2 {
		t.Errorf("shift = %d, want 2 (max |3.5| needs /4)", qt.Shift)
	}
	back := qt.Dequantize()
	for i := range src {
		if math.Abs(float64(back[i]-src[i])) > 4.0/(1<<FracBits) {
			t.Errorf("dequantize[%d] = %v, want ~%v", i, back[i], src[i])
		}
	}
}

func TestQuantizeSliceInRange(t *testing.T) {
	src := []float32{0.1, -0.9, 0.999}
	qt := QuantizeSlice(src)
	if qt.Shift != 0 {
		t.Errorf("shift = %d, want 0 for in-range data", qt.Shift)
	}
	if qt.SizeBytes() != 6 {
		t.Errorf("SizeBytes = %d, want 6", qt.SizeBytes())
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(raw []float32) bool {
		// Clamp the fuzz input into a sane magnitude window; quantization
		// is only specified for finite values.
		src := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			if v < -100 {
				v = -100
			}
			src[i] = v
		}
		qt := QuantizeSlice(src)
		back := qt.Dequantize()
		tol := math.Pow(2, float64(qt.Shift)) / (1 << FracBits)
		for i := range src {
			if math.Abs(float64(back[i]-src[i])) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantizeSliceNonFinite pins that infinities saturate and NaN
// converts to zero instead of the shift search chasing +Inf forever.
// The call runs under a deadline so a hang fails fast.
func TestQuantizeSliceNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	src := []float32{0.5, inf, -inf, float32(math.NaN()), -3}
	done := make(chan Tensor, 1)
	go func() { done <- QuantizeSlice(src) }()
	var qt Tensor
	select {
	case qt = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("QuantizeSlice with an infinity did not return within 2 s")
	}
	if qt.Shift != 2 {
		t.Errorf("shift = %d, want 2 from the finite -3", qt.Shift)
	}
	want := []Q15{FromFloat(0.125), One, MinVal, 0, FromFloat(-0.75)}
	if !reflect.DeepEqual(qt.Data, want) {
		t.Errorf("data = %v, want %v", qt.Data, want)
	}
}

// TestShiftRule pins the exponent-bit shift rule to its definition: the
// number of halvings that bring the largest finite |v| below 1.
func TestShiftRule(t *testing.T) {
	halvings := func(v float32) int {
		a, n := math.Abs(float64(v)), 0
		for a >= 1 {
			a /= 2
			n++
		}
		return n
	}
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2, 0.5, 3.999, 4,
		math.Nextafter32(1, 0), math.Nextafter32(1, 2), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1e-38, 65535, 65536}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := math.Float32frombits(rng.Uint32())
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			vals = append(vals, v)
		}
	}
	for _, v := range vals {
		if got, want := shiftOf([]float32{v}), halvings(v); got != want {
			t.Errorf("shift of %g = %d, want %d", v, got, want)
		}
	}
}

// TestFakeQuantizeMatchesQuantizeSlice pins the in-place fake-quant to
// QuantizeSlice followed by Dequantize, bit for bit, and checks that it
// allocates nothing.
func TestFakeQuantizeMatchesQuantizeSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5}
	for trial := 0; trial < 300; trial++ {
		src := make([]float32, rng.Intn(40))
		mag := math.Ldexp(1, rng.Intn(80)-40)
		for i := range src {
			switch rng.Intn(6) {
			case 0:
				src[i] = special[rng.Intn(len(special))]
			case 1:
				src[i] = math.Float32frombits(rng.Uint32())
			default:
				src[i] = float32((rng.Float64()*2 - 1) * mag)
			}
		}
		want := QuantizeSlice(src).Dequantize()
		got := append([]float32(nil), src...)
		FakeQuantize(got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("trial %d: FakeQuantize(%g) = %g (%#08x), QuantizeSlice+Dequantize %g (%#08x)",
					trial, src[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	buf := make([]float32, 256)
	for i := range buf {
		buf[i] = float32(i) - 100
	}
	if n := testing.AllocsPerRun(10, func() { FakeQuantize(buf) }); n != 0 {
		t.Errorf("FakeQuantize allocates %v times per call, want 0", n)
	}
}
