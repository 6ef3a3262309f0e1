package report

import (
	"fmt"
	"strings"

	"iprune/internal/hawaii"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// RenderTable1 prints the experimental-environment table (paper Table I).
func RenderTable1() string {
	d := DeviceProfile()
	b := power.DefaultBuffer()
	var sb strings.Builder
	fmt.Fprintf(&sb, "TABLE I — SPECIFICATIONS OF THE (SIMULATED) EXPERIMENTAL ENVIRONMENT\n")
	fmt.Fprintf(&sb, "  Hardware\n")
	fmt.Fprintf(&sb, "    Platform            %s\n", d.Name)
	fmt.Fprintf(&sb, "    Volatile memory     %d KB SRAM\n", d.VMBytes/1024)
	fmt.Fprintf(&sb, "    Non-volatile memory %d KB FRAM\n", d.NVMBytes/1024)
	fmt.Fprintf(&sb, "    MAC latency         %.1f ns   NVM write %.2f us/B   NVM read %.2f us/B\n",
		d.MACTime*1e9, d.NVMWritePerByte*1e6, d.NVMReadPerByte*1e6)
	fmt.Fprintf(&sb, "  Energy\n")
	fmt.Fprintf(&sb, "    Switch on/off       %.1f V / %.1f V\n", b.VOn, b.VOff)
	fmt.Fprintf(&sb, "    Capacitance         %.0f uF (%.0f uJ usable per cycle)\n", b.CapF*1e6, b.UsableEnergy()*1e6)
	for _, s := range Supplies() {
		fmt.Fprintf(&sb, "    %-10s power    %g mW\n", s.Name, s.Power*1e3)
	}
	return sb.String()
}

// RenderTable2 prints the application characteristics (paper Table II)
// with the paper's values alongside.
func RenderTable2(results []*AppResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TABLE II — TINYML APPLICATIONS (measured | paper)\n")
	fmt.Fprintf(&sb, "  %-4s %-28s %13s %15s %15s %18s\n",
		"App", "Layers", "Size KB", "MACs K", "Acc.Out K", "Diversity")
	for _, r := range results {
		u := r.Variants[0]
		p := PaperTable2[r.App]
		counts := u.Net.LayerCounts()
		var parts []string
		for _, k := range []string{"CONV", "POOL", "FC"} {
			if counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s x %d", k, counts[k]))
			}
		}
		divLabel := tile.DiversityLabel(r.Diversity)
		fmt.Fprintf(&sb, "  %-4s %-28s %5d | %5d %6d | %6d %6d | %6d %9s | %-6s\n",
			r.App, strings.Join(parts, ", "),
			u.SizeBytes/1024, p.SizeKB,
			u.Counts.MACs/1000, p.MACsK,
			u.Counts.Jobs/1000, p.OutputsK,
			divLabel, p.Diversity)
	}
	return sb.String()
}

// RenderTable3 prints the pruned-model characteristics (paper Table III)
// with the paper's values alongside.
func RenderTable3(results []*AppResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TABLE III — CHARACTERISTICS OF THE PRUNED MODELS (measured | paper)\n")
	fmt.Fprintf(&sb, "  %-4s %-8s %14s %15s %15s %16s\n",
		"App", "Model", "Accuracy %", "Size KB", "MACs K", "Acc.Out K")
	for _, r := range results {
		for _, v := range r.Variants {
			p := PaperTable3[r.App][v.Name]
			fmt.Fprintf(&sb, "  %-4s %-8s %6.1f | %5.1f %6d | %6d %6d | %6d %7d | %6d\n",
				r.App, v.Name,
				v.AccuracyQ*100, p.Accuracy,
				v.SizeBytes/1024, p.SizeKB,
				v.Counts.MACs/1000, p.MACsK,
				v.Counts.Jobs/1000, p.OutputsK)
		}
	}
	return sb.String()
}

// RenderFig2 prints the latency-breakdown comparison (paper Figure 2).
func RenderFig2(app string, conventional, intermittent hawaii.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIGURE 2 — %s unpruned: active-latency breakdown\n", app)
	row := func(label string, r hawaii.Result) {
		total := r.Break.ReadTime + r.Break.WriteTime + r.Break.ComputeTime + r.Break.OverheadTime
		if total == 0 {
			total = 1
		}
		fmt.Fprintf(&sb, "  %-26s NVM-read %5.1f%%  NVM-write %5.1f%%  compute %5.1f%%  overhead %5.1f%%  (active %.3fs)\n",
			label,
			100*r.Break.ReadTime/total, 100*r.Break.WriteTime/total,
			100*r.Break.ComputeTime/total, 100*r.Break.OverheadTime/total,
			r.ActiveTime)
	}
	row("(a) continuously-powered", conventional)
	row("(b) intermittently-powered", intermittent)
	sb.WriteString("  paper: (a) reads+compute dominate; (b) NVM writes dominate\n")
	return sb.String()
}

// RenderFig5 prints per-app, per-supply latencies with speedup
// annotations (paper Figure 5).
func RenderFig5(results []*AppResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIGURE 5 — INTERMITTENT INFERENCE LATENCY (seconds per end-to-end inference)\n")
	fmt.Fprintf(&sb, "  %-4s %-11s %12s %12s %12s   %s\n", "App", "Supply", "Unpruned", "ePrune", "iPrune", "iPrune speedup vs (ePrune, Unpruned)")
	var minE, maxE, minU, maxU float64
	first := true
	for _, r := range results {
		for _, sup := range Supplies() {
			u := r.Variants[0].Latency[sup.Name].Latency
			e := r.Variants[1].Latency[sup.Name].Latency
			i := r.Variants[2].Latency[sup.Name].Latency
			se, su := e/i, u/i
			if first {
				minE, maxE, minU, maxU = se, se, su, su
				first = false
			}
			minE, maxE = minF(minE, se), maxF(maxE, se)
			minU, maxU = minF(minU, su), maxF(maxU, su)
			fmt.Fprintf(&sb, "  %-4s %-11s %12.3f %12.3f %12.3f   %.2fx, %.2fx\n",
				r.App, sup.Name, u, e, i, se, su)
		}
	}
	fmt.Fprintf(&sb, "  measured speedup ranges: vs ePrune %.2f–%.2fx (paper %.1f–%.1fx), vs Unpruned %.2f–%.2fx (paper %.1f–%.1fx)\n",
		minE, maxE, PaperFig5.VsEPruneLo, PaperFig5.VsEPruneHi,
		minU, maxU, PaperFig5.VsUnprunedLo, PaperFig5.VsUnprunedHi)
	return sb.String()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RenderLayerTable prints the per-layer lowering of an app with each
// layer's accelerator-output count under every variant's masks.
func RenderLayerTable(r *AppResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s layer lowering (per-layer accelerator outputs by variant)\n", r.App)
	cfg := tile.DefaultConfig()
	perVariant := make([][]int64, len(r.Variants))
	for i, v := range r.Variants {
		specs := tile.SpecsFromNetwork(v.Net, cfg)
		perVariant[i] = tile.LayerJobs(v.Net, specs, cfg)
	}
	fmt.Fprintf(&sb, "  %-10s %-4s %-22s %10s %10s %10s\n", "layer", "kind", "GEMM (MxKxN, tile)", "Unpruned", "ePrune", "iPrune")
	for i := range r.Specs {
		s := &r.Specs[i]
		fmt.Fprintf(&sb, "  %-10s %-4s %4dx%-5dx%-5d %d/%d/%d %10d %10d %10d\n",
			s.Name, s.Kind, s.M, s.K, s.N, s.TM, s.TK, s.TN,
			perVariant[0][i], perVariant[1][i], perVariant[2][i])
	}
	return sb.String()
}
