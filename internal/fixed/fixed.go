// Package fixed implements the 16-bit fixed-point arithmetic used when
// deploying pruned models on the simulated MSP430-class device.
//
// The paper quantizes model parameters from 32-bit floating point to a
// 16-bit fixed-point representation for on-device inference (Section IV-A).
// We implement the common Q1.15 layout (one sign bit, fifteen fractional
// bits, values in [-1, 1)) plus per-tensor power-of-two scaling, which is
// how the TI DSP library and the LEA coprocessor operate on fractional
// data: values outside [-1, 1) are stored pre-divided by 2^shift and the
// shift is folded back after accumulation.
package fixed

import "math"

// FracBits is the number of fractional bits in the Q1.15 format.
const FracBits = 15

// One is the Q1.15 encoding of the largest representable value just
// below +1.0.
const One = 1<<FracBits - 1 // 0x7FFF

// MinVal is the Q1.15 encoding of -1.0.
const MinVal = -1 << FracBits // -0x8000

// Q15 is a 16-bit fixed-point value with 15 fractional bits.
type Q15 int16

// FromFloat converts a float to Q1.15 with saturation and
// round-to-nearest. NaN converts to zero.
//
//iprune:allow-float quantization boundary: converts trainer floats into Q1.15
func FromFloat(f float64) Q15 {
	if math.IsNaN(f) {
		return 0
	}
	v := math.Round(f * (1 << FracBits))
	if v > One {
		return Q15(One)
	}
	if v < MinVal {
		return Q15(MinVal)
	}
	return Q15(v)
}

// Float converts a Q1.15 value back to float64.
//
//iprune:allow-float dequantization boundary for calibration and reporting
func (q Q15) Float() float64 {
	return float64(q) / (1 << FracBits)
}

// Add returns a+b with saturation.
func Add(a, b Q15) Q15 {
	s := int32(a) + int32(b)
	return sat32(s)
}

// Sub returns a-b with saturation.
func Sub(a, b Q15) Q15 {
	s := int32(a) - int32(b)
	return sat32(s)
}

// Mul returns the Q1.15 product of a and b with rounding and saturation.
// The intermediate product has 30 fractional bits; we add the rounding
// constant before shifting back to 15.
func Mul(a, b Q15) Q15 {
	p := int64(a) * int64(b)
	p += 1 << (FracBits - 1) // round half up
	return sat32(int32(p >> FracBits))
}

func sat32(s int32) Q15 {
	if s > One {
		return Q15(One)
	}
	if s < MinVal {
		return Q15(MinVal)
	}
	return Q15(s)
}

// Tensor is a quantized tensor: Q1.15 data plus a power-of-two scale.
// Real value = Data[i] * 2^Shift / 2^15.
type Tensor struct {
	Data  []Q15
	Shift int // power-of-two pre-division applied before quantization
}

// QuantizeSlice converts a float32 slice into a Q15 tensor, choosing the
// smallest power-of-two shift that brings every finite value into
// [-1, 1). Infinities saturate to One and MinVal under that shift, and
// NaN converts to zero, as in FromFloat.
func QuantizeSlice(src []float32) Tensor {
	shift := shiftOf(src)
	scale := math.Ldexp(1, -shift)
	out := Tensor{Data: make([]Q15, len(src)), Shift: shift}
	for i, v := range src {
		out.Data[i] = quantizeScaled(v, scale)
	}
	return out
}

// FakeQuantize rounds every value of data in place to the float32 that
// QuantizeSlice(data).Dequantize() holds at its index: the nearest
// Q1.15 value under the slice's shift, saturated, scaled back. It
// allocates nothing, and only NaN and saturating values take a branch
// of their own (see fakeQuantize).
//
// It is not idempotent. A value in (-2^shift, -2^shift + 2^(shift-16)]
// rounds to MinVal, which stands for -2^shift, and a slice holding
// -2^shift has shift+1: rounding [-(4 - 2^-14), 2^-13] gives [-4, 2^-13]
// (shift 3), and rounding that again gives [-4, 2^-12].
func FakeQuantize(data []float32) {
	shift := shiftOf(data)
	down, up := math.Ldexp(1, FracBits-shift), math.Ldexp(1, shift-FracBits)
	for i, v := range data {
		data[i] = fakeQuantize(v, down, up)
	}
}

// fakeQuantize is one value of FakeQuantize: v times down = 2^(15-shift)
// rounded half away from zero to Q1.15 and saturated, times up =
// 2^(shift-15), as float32. It computes QuantizeSlice's rounding
// without math.Round's branches on the value:
//
//   - x = float64(v)·down is exact, and equal to FromFloat's
//     (float64(v)·2^-shift)·2^15: both products scale a 24-bit
//     significand by a power of two far inside float64's range.
//   - NaN converts to 0, x >= One to One and x <= MinVal to MinVal:
//     Round(x) is then at least One or at most MinVal, which FromFloat
//     saturates to the same values. Under the slice's shift every
//     finite |x| < 2^15, so these branches are taken almost never.
//   - Otherwise int32(x + Copysign(0.5, x)) is Round(x): x has at most
//     24 significant bits and |x| < 2^15, so when |x| >= 2^-14 the sum
//     needs at most 53 bits and is exact, and truncating it rounds half
//     away from zero; a smaller |x| sums to within 2^-14 of ±0.5 and
//     truncates to 0, as Round(x) is ±0. (In float32 the sum would not
//     be exact: 0.49999997 + 0.5 rounds to 1.)
//   - float64(q)·up is exact too, so the float32 conversion rounds the
//     value that Dequantize's q/2^15·2^shift holds.
//
//iprune:allow-float quantization boundary: rounds trainer floats through Q1.15 under a tensor's shift
func fakeQuantize(v float32, down, up float64) float32 {
	x := float64(float64(v) * down) // rounded on its own, so no target fuses it into the addition below
	if !(x > MinVal && x < One) {
		var q float64 // NaN converts to 0
		if x >= One {
			q = One
		} else if x <= MinVal {
			q = MinVal
		}
		return float32(q * up)
	}
	return float32(float64(int32(x+math.Copysign(0.5, x))) * up)
}

// shiftOf is the shift rule of QuantizeSlice and FakeQuantize: the
// smallest shift with |v| < 2^shift for every finite v in src. A finite
// float32 with biased exponent e >= 127 lies in [2^(e-127), 2^(e-126)),
// so the shift is e-126 for the largest such exponent, else 0. The
// exponent 0xFF (infinities and NaN) is left out, so the shift stays
// finite and ±Inf saturate under it. The loop has no branch on the
// data: each maximum compiles to a conditional move, and four running
// maxima keep consecutive moves from waiting on one another.
func shiftOf(src []float32) int {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		m0 = max(m0, expKey(s[0]))
		m1 = max(m1, expKey(s[1]))
		m2 = max(m2, expKey(s[2]))
		m3 = max(m3, expKey(s[3]))
	}
	for _, v := range src[i:] {
		m0 = max(m0, expKey(v))
	}
	e1 := max(m0, m1, m2, m3) >> 24 // the largest finite exponent plus 1, or 0
	if e1 < 128 {
		return 0
	}
	return int(e1) - 127
}

// expKey is v's bits without the sign, shifted left by one, plus 1<<24:
// its top byte is v's biased exponent plus 1 for a finite v, and 0 for
// the exponent 0xFF, which the addition wraps round.
func expKey(v float32) uint32 {
	return math.Float32bits(v)<<1 + 1<<24
}

// quantizeScaled converts v·scale to Q1.15, scale being a tensor's
// 2^-shift.
//
//iprune:allow-float quantization boundary: converts trainer floats into Q1.15 under a tensor's shift
func quantizeScaled(v float32, scale float64) Q15 {
	return FromFloat(float64(v) * scale)
}

// scaled returns q·scale as float32, scale being a tensor's 2^shift.
//
//iprune:allow-float dequantization boundary for fake-quant evaluation
func (q Q15) scaled(scale float64) float32 {
	return float32(q.Float() * scale)
}

// Dequantize returns the float32 values represented by the tensor.
func (t Tensor) Dequantize() []float32 {
	out := make([]float32, len(t.Data))
	scale := math.Ldexp(1, t.Shift)
	for i, q := range t.Data {
		out[i] = q.scaled(scale)
	}
	return out
}

// SizeBytes reports the storage footprint of the quantized payload
// (2 bytes per element), excluding any sparse indexing structures.
func (t Tensor) SizeBytes() int { return 2 * len(t.Data) }
