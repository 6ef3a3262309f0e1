// Package fixture exercises the floatpurity analyzer: float arithmetic
// and conversions are findings unless covered by //iprune:allow-float.
package fixture

// kernelAdd is pure integer arithmetic: no findings.
func kernelAdd(a, b int16) int16 {
	s := int32(a) + int32(b)
	return int16(s >> 1)
}

func badMul(a, b float64) float64 {
	return a * b // want `float arithmetic \(\*\) in fixed-point hot path`
}

func badConv(x int) float64 {
	return float64(x) // want `conversion to float64 in fixed-point hot path`
}

func badConv32(x int16) float32 {
	return float32(x) // want `conversion to float32 in fixed-point hot path`
}

func badCompound(x float64) float64 {
	x /= 2 // want `float arithmetic \(/=\) in fixed-point hot path`
	return x
}

func badNeg(x float32) float32 {
	return -x // want `float arithmetic \(-\) in fixed-point hot path`
}

// oneFindingPerLine: a compound float expression reports once.
func oneFindingPerLine(a, b, c float64) float64 {
	return a*b + c/a // want `float arithmetic`
}

// calibrated opts the whole function out.
//
//iprune:allow-float calibration-only fixture function
func calibrated(a float64) float64 {
	v := a * 2
	return v / 3
}

func lineDirectives(a float64) float64 {
	v := a * 2 //iprune:allow-float same-line escape hatch
	//iprune:allow-float directive-above escape hatch
	w := v / 3
	u := a - w // want `float arithmetic \(-\) in fixed-point hot path`
	return u
}

// Package-level declarations are checked too: an initializer's float
// arithmetic runs like any function body's.
var width = 4.0

var ratio = width / 2 // want `float arithmetic \(/\) in fixed-point hot path`

var halve = func(x float64) float64 { return x / 2 } // want `float arithmetic \(/\) in fixed-point hot path`
