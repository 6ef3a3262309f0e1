// Budget audit: the dynamic half of the static-vs-measured energy
// argument. The regionbudget analyzer statically bounds every
// preserve-to-preserve region against the power-cycle buffer
// (Model.BufferJ); AuditTrace checks a recorded run's *measured*
// per-region and per-power-cycle energy against the same number, so a
// bound the analyzer proved and a draw the simulator measured can be
// cross-examined on one table. A region whose measured spend exceeds
// the static bound is a soundness violation (the analyzer under-priced
// something the run actually did); a maximum spend far below the bound
// is a precision note (the bound is real but loose).
package energy

import (
	"encoding/json"
	"fmt"
	"io"

	"iprune/internal/obs"
)

// auditTol absorbs float accumulation error in energy comparisons.
const auditTol = 1e-12

// AuditReport is the outcome of auditing one recorded run.
type AuditReport struct {
	BudgetJ float64 // the static bound: usable joules of one buffer charge

	Regions        int     // measured atomic regions (op commits, recoveries, preserves, failed attempts)
	MaxRegionJ     float64 // largest single-region draw
	MaxRegionOp    int64   // its op ordinal (-1 when none)
	MaxRegionLayer int     // its layer (-1 when none)

	Cycles    int     // completed power cycles in the trace
	MaxCycleJ float64 // largest per-cycle draw

	// StaticFindings is the number of regionbudget findings in an
	// iprunelint -json report cross-checked alongside the trace (-1 when
	// no report was given). A clean repo has 0: the static analyzer and
	// the measured run then agree that every region fits the budget.
	StaticFindings int

	// Violations are soundness failures: measured spend above the
	// static bound. An empty list means the audit passed.
	Violations []string
	// Notes are informational precision observations (bounds that held
	// with large slack).
	Notes []string
}

// SlackRatio is MaxRegionJ / BudgetJ: 1.0 means the hottest measured
// region exactly fills the static budget, small values mean the static
// bound is sound but loose for this workload.
func (r *AuditReport) SlackRatio() float64 {
	if r.BudgetJ <= 0 {
		return 0
	}
	return r.MaxRegionJ / r.BudgetJ
}

// AuditTrace audits a recorded event stream against the model's
// power-cycle budget.
//
// Region check (soundness): every atomic region the run measured — an
// op commit's draw, a recovery's draw, a standalone preservation write,
// or a failed attempt's lost draw — must fit one buffer charge; this is
// the dynamic mirror of the regionbudget analyzer's claim and of the
// cost simulator's ErrOpExceedsBuffer condition.
//
// Cycle check (accounting): a completed power cycle cannot draw more
// than one full buffer charge, plus what the harvester delivered while
// the device was on (harvestW*(1+jitter)*OnTime), plus one region's
// overshoot — the draw that *causes* a failure discovers the buffer is
// empty only at its end, so the cycle's ledger legitimately dips below
// zero by at most the largest single region. Energy is conserved, so a
// cycle above that line means the trace's accounting is broken. Pass
// harvestW = 0 for a continuous supply (the cycle check then
// degenerates to "the single cycle may draw anything" — continuous
// runs complete in one cycle fed by the wall, so only the region check
// binds).
//
//iprune:allow-float analytic audit integrates measured joules against static bounds, not device numerics
func (m Model) AuditTrace(events []obs.Event, harvestW, jitter float64) *AuditReport {
	r := &AuditReport{
		BudgetJ:        m.BufferJ,
		MaxRegionOp:    -1,
		MaxRegionLayer: -1,
		StaticFindings: -1,
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case obs.KindOpCommit, obs.KindRecovery, obs.KindPreserve, obs.KindFailure:
			if ev.Energy <= 0 {
				continue // untraced energy (step-clock traces) or free event
			}
			r.Regions++
			if ev.Energy > r.MaxRegionJ {
				r.MaxRegionJ = ev.Energy
				r.MaxRegionOp = ev.Op
				r.MaxRegionLayer = ev.Layer
			}
			if ev.Energy > m.BufferJ+auditTol {
				r.Violations = append(r.Violations, fmt.Sprintf(
					"%s (layer %d, op %d) drew %s in one region; the static bound is %s per power cycle",
					ev.Kind, ev.Layer, ev.Op, FormatJ(ev.Energy), FormatJ(m.BufferJ)))
			}
		}
	}
	stats := obs.Collect(events)
	for i := range stats.Cycles {
		c := &stats.Cycles[i]
		r.Cycles++
		if c.Energy > r.MaxCycleJ {
			r.MaxCycleJ = c.Energy
		}
		limit := m.BufferJ + float64(harvestW*(1+jitter)*c.OnTime) + r.MaxRegionJ
		if harvestW > 0 && c.Energy > limit+auditTol {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"power cycle %d drew %s but one charge plus harvest plus one region's overshoot supplies at most %s",
				i, FormatJ(c.Energy), FormatJ(limit)))
		}
	}
	if r.Regions > 0 && len(r.Violations) == 0 {
		switch ratio := r.SlackRatio(); {
		case ratio < 0.01:
			r.Notes = append(r.Notes, fmt.Sprintf(
				"static bound is loose here: hottest measured region used %.2g%% of the %s budget",
				100*ratio, FormatJ(m.BufferJ)))
		case ratio > 0.5:
			r.Notes = append(r.Notes, fmt.Sprintf(
				"hottest measured region used %.0f%% of the %s budget; schedule is near the intermittence limit",
				100*ratio, FormatJ(m.BufferJ)))
		}
	}
	return r
}

// lintFinding mirrors the JSON shape cmd/iprunelint emits with -json.
type lintFinding struct {
	Analyzer string `json:"analyzer"`
}

// CountRegionFindings reads an `iprunelint -json` report and returns
// how many of its findings came from the regionbudget analyzer — the
// static side of the audit. The budget audit expects 0 on a clean
// repo.
func CountRegionFindings(r io.Reader) (int, error) {
	var findings []lintFinding
	dec := json.NewDecoder(r)
	if err := dec.Decode(&findings); err != nil {
		return 0, fmt.Errorf("energy: parse lint report: %w", err)
	}
	n := 0
	for _, f := range findings {
		if f.Analyzer == "regionbudget" {
			n++
		}
	}
	return n, nil
}

// WriteReport renders the audit for a terminal: the bound, the measured
// maxima, the static cross-check, and every violation and note.
func (r *AuditReport) WriteReport(w io.Writer) error {
	status := "PASS"
	if len(r.Violations) > 0 || r.StaticFindings > 0 {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "budget audit: %s\n  static bound      %s per power cycle\n  measured regions  %d (max %s",
		status, FormatJ(r.BudgetJ), r.Regions, FormatJ(r.MaxRegionJ))
	if err != nil {
		return err
	}
	if r.MaxRegionOp >= 0 || r.MaxRegionLayer >= 0 {
		if _, err := fmt.Fprintf(w, " at layer %d op %d", r.MaxRegionLayer, r.MaxRegionOp); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, ", %.3g%% of bound)\n  power cycles      %d (max draw %s)\n",
		100*r.SlackRatio(), r.Cycles, FormatJ(r.MaxCycleJ)); err != nil {
		return err
	}
	if r.StaticFindings >= 0 {
		if _, err := fmt.Fprintf(w, "  static findings   %d regionbudget finding(s) in lint report\n", r.StaticFindings); err != nil {
			return err
		}
	}
	for _, v := range r.Violations {
		if _, err := fmt.Fprintf(w, "  VIOLATION: %s\n", v); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Failed reports whether the audit found soundness violations or the
// cross-checked static report carried regionbudget findings.
func (r *AuditReport) Failed() bool {
	return len(r.Violations) > 0 || r.StaticFindings > 0
}
