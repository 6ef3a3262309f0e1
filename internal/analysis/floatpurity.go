package analysis

import "go/token"

// FloatPurity flags floating-point arithmetic and conversions to float
// types inside the fixed-point kernel packages. The device computes in
// Q1.15 (DESIGN.md): a float sneaking into internal/fixed, internal/tile,
// internal/sparse or the internal/hawaii engine silently breaks the
// MSP430 fidelity claim, because the simulated numerics stop matching
// what the LEA would produce. Calibration, quantization boundaries and
// reporting code opt out with //iprune:allow-float <reason>.
var FloatPurity = &Analyzer{
	Name:  "floatpurity",
	Doc:   "forbid float arithmetic and conversions in fixed-point kernel packages",
	Allow: "allow-float",
	Scope: func(path string) bool {
		switch path {
		case "iprune/internal/fixed", "iprune/internal/tile",
			"iprune/internal/sparse", "iprune/internal/hawaii":
			return true
		}
		return false
	},
	RunModule: runFloatPurity,
}

// runFloatPurity reports every float site of the function table,
// package-level declarations included.
func runFloatPurity(mp *ModulePass) {
	// One finding per source line keeps a compound expression like
	// a*b + c from reporting every sub-expression.
	reported := map[token.Position]bool{}
	for _, site := range mp.table().floats {
		pass := mp.Pass(site.pkg)
		if pass.diags == nil {
			continue // outside the scope
		}
		p := pass.Fset.Position(site.pos)
		key := token.Position{Filename: p.Filename, Line: p.Line}
		if reported[key] {
			continue
		}
		reported[key] = true
		if site.conv != nil {
			pass.Reportf(site.pos, "conversion to %s in fixed-point hot path", site.conv)
		} else {
			pass.Reportf(site.pos, "float arithmetic (%s) in fixed-point hot path", site.op)
		}
	}
}
