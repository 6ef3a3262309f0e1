package main

import (
	"bytes"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"iprune/internal/analysis"
)

// The lint workload analyzes a generated Go module whose module path is
// iprune, so the path-scoped analyzers (floatpurity on internal/fixed,
// errcheck on internal/...) apply to it as they do to the repository.
// Every source file is a header followed by slots. A slot is one small
// declaration that renders to the same number of lines whether or not
// its finding is planted, so every planted finding's line is known.

type slotKind int

const (
	slotFloat  slotKind = iota // internal/fixed: floatpurity when planted
	slotErr                    // internal/store: errcheck when planted
	slotAlloc                  // internal/kern: hotalloc when planted
	slotNVM                    // internal/kern: nvmdiscipline when planted
	slotBudget                 // internal/kern: regionbudget when planted
	slotFold                   // filler kinds below never carry a finding
	slotName
	slotBox
	slotValid
	slotScale
)

// plantLine is the line within a plantable slot that carries its finding.
var plantLine = map[slotKind]struct {
	offset   int
	analyzer string
}{
	slotFloat:  {2, "floatpurity"},
	slotErr:    {2, "errcheck"},
	slotAlloc:  {6, "hotalloc"},
	slotNVM:    {2, "nvmdiscipline"},
	slotBudget: {3, "regionbudget"}, // an unbounded hot loop, reported at the function
}

type slot struct {
	kind    slotKind
	id      int // unique across the corpus: names the declaration
	c       int // seeded constant
	ref     int // slotScale: the id of the fixed.Mul it calls
	planted bool
	rev     int // bumped by every edit of the slot
}

func (s slot) lines() []string {
	doc := func(format string) string { return fmt.Sprintf(format, s.id) + fmt.Sprintf(" (rev %d).", s.rev) }
	pick := func(clean, planted string) string {
		if s.planted {
			return planted
		}
		return clean
	}
	switch s.kind {
	case slotFloat:
		return []string{
			doc("// Mul%d multiplies two Q15 values"),
			fmt.Sprintf("func Mul%d(a, b int16) int32 {", s.id),
			pick("\tp := int32(a) * int32(b)", "\tp := int32(float64(a) * float64(b))"),
			fmt.Sprintf("\treturn p>>15 + %d", s.c),
			"}",
		}
	case slotErr:
		return []string{
			doc("// Flush%d writes one record"),
			fmt.Sprintf("func Flush%d(k int) error {", s.id),
			pick(fmt.Sprintf("\t_ = save(k + %d)", s.c), fmt.Sprintf("\tsave(k + %d)", s.c)),
			"\treturn check(k)",
			"}",
		}
	case slotAlloc:
		return []string{
			doc("// Sum%d accumulates xs through a scratch buffer"),
			"//",
			"//iprune:hotpath",
			fmt.Sprintf("func Sum%d(xs [8]int32, buf []int32) int32 {", s.id),
			"\tvar s int32",
			"\tfor _, x := range xs {",
			pick("\t\ttmp := buf[:1]", "\t\ttmp := make([]int32, 1)"),
			fmt.Sprintf("\t\ttmp[0] = x + %d", s.c),
			"\t\ts += tmp[0]",
			"\t}",
			"\treturn s",
			"}",
		}
	case slotBudget:
		return []string{
			doc("// Scan%d sums a window of samples"),
			"//",
			"//iprune:hotpath",
			fmt.Sprintf("func Scan%d(xs []int32, w [8]int32) int32 {", s.id),
			"\tvar s int32",
			pick("\tfor _, x := range w {", "\tfor _, x := range xs {"),
			fmt.Sprintf("\t\ts += x + %d", s.c),
			"\t}",
			"\treturn s",
			"}",
		}
	case slotNVM:
		return []string{
			doc("// Bump%d advances the persisted counter"),
			fmt.Sprintf("func Bump%d(st *State, v int64) {", s.id),
			pick(fmt.Sprintf("\tst.commit(v + %d)", s.c), fmt.Sprintf("\tst.Count = v + %d", s.c)),
			"\tst.touch()",
			"}",
		}
	case slotFold:
		return []string{
			doc("// Fold%d folds xs into a checksum"),
			fmt.Sprintf("func Fold%d(xs []int) int {", s.id),
			"\tt := 0",
			"\tfor i, x := range xs {",
			"\t\tif x%3 == 0 {",
			fmt.Sprintf("\t\t\tt += i * %d", s.c),
			"\t\t} else {",
			"\t\t\tt ^= x",
			"\t\t}",
			"\t}",
			"\treturn t",
			"}",
		}
	case slotName:
		return []string{
			doc("// Name%d labels x"),
			fmt.Sprintf("func Name%d(x int) string {", s.id),
			fmt.Sprintf("\treturn \"n%d-\" + strconv.Itoa(x+%d)", s.id, s.c),
			"}",
		}
	case slotBox:
		return []string{
			doc("// Box%d is a guarded counter"),
			fmt.Sprintf("type Box%d struct {", s.id),
			"\tmu sync.Mutex",
			"\tv  int",
			"}",
			"",
			"// Add adds d and returns the new value.",
			fmt.Sprintf("func (b *Box%d) Add(d int) int {", s.id),
			"\tb.mu.Lock()",
			"\tdefer b.mu.Unlock()",
			fmt.Sprintf("\tb.v += d + %d", s.c),
			"\treturn b.v",
			"}",
		}
	case slotValid:
		return []string{
			doc("// Valid%d rejects values above its limit"),
			fmt.Sprintf("func Valid%d(x int) error {", s.id),
			fmt.Sprintf("\tif x > %d {", s.c),
			fmt.Sprintf("\t\treturn errors.New(\"valid%d: value too large\")", s.id),
			"\t}",
			"\treturn nil",
			"}",
		}
	case slotScale:
		return []string{
			doc("// Scale%d scales through the fixed-point kernel"),
			fmt.Sprintf("func Scale%d(a, b int16) int32 {", s.id),
			fmt.Sprintf("\treturn fixed.Mul%d(a, b) + %d", s.ref, s.c),
			"}",
		}
	}
	panic(fmt.Sprintf("perfbench: unknown slot kind %d", s.kind))
}

type corpusFile struct {
	rel    string   // module-relative path
	header []string // lines before the first slot
	slots  []slot
}

func (f *corpusFile) render() []byte {
	var b bytes.Buffer
	for _, l := range f.header {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, s := range f.slots {
		b.WriteByte('\n')
		for _, l := range s.lines() {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// plantable reports whether the file's slots can carry findings.
func (f *corpusFile) plantable() bool {
	if len(f.slots) == 0 {
		return false
	}
	_, ok := plantLine[f.slots[0].kind]
	return ok
}

// finding is one diagnostic by analyzer, module-relative file and line.
type finding struct {
	analyzer, file string
	line           int
}

func (f finding) String() string { return fmt.Sprintf("%s:%d: %s", f.file, f.line, f.analyzer) }

// corpus is the generated module: its files and the standard-library
// packages they import.
type corpus struct {
	files []*corpusFile
	std   []string
}

const (
	corpusKernelFiles = 3 // files per plantable package
	corpusKernelSlots = 6
	corpusUtilPkgs    = 6 // clean packages importing fixed and the stdlib
	corpusUtilFiles   = 3
	corpusUtilSlots   = 8
	corpusPlantProb   = 0.3 // initial share of planted slots
	editToggleProb    = 0.6 // share of edits that plant or remove a finding
)

// newCorpus generates the module for a seed.
func newCorpus(seed int64) *corpus {
	rng := rand.New(rand.NewSource(mix(seed, -2)))
	c := &corpus{std: []string{"errors", "math", "strconv", "sync"}}
	id := 0
	newSlot := func(k slotKind) slot {
		id++
		return slot{kind: k, id: id, c: 1 + rng.Intn(997)}
	}
	static := func(rel string, lines ...string) {
		c.files = append(c.files, &corpusFile{rel: rel, header: lines})
	}
	static("go.mod", "module iprune", "", "go 1.22")
	static("internal/store/base.go",
		"// Package store persists records.",
		"package store",
		"",
		`import "errors"`,
		"",
		`var errFull = errors.New("store: full")`,
		"",
		"func save(k int) error {",
		"\tif k < 0 {",
		"\t\treturn errFull",
		"\t}",
		"\treturn nil",
		"}",
		"",
		"func check(k int) error { return save(k - 1) }")
	static("internal/kern/state.go",
		"// Package kern holds the device kernels.",
		"package kern",
		"",
		"// State is the FRAM-resident progress record.",
		"type State struct {",
		"\t//iprune:nvm",
		"\tCount   int64",
		"\tscratch int64",
		"}",
		"",
		"// commit is the only sanctioned writer of Count.",
		"//",
		"//iprune:nvm-api",
		"func (s *State) commit(v int64) { s.Count = v }",
		"",
		"func (s *State) touch() { s.scratch++ }")

	var muls []int
	for _, pkg := range []struct {
		name  string
		kinds []slotKind
	}{
		{"fixed", []slotKind{slotFloat}},
		{"store", []slotKind{slotErr}},
		{"kern", []slotKind{slotAlloc, slotNVM, slotBudget}},
	} {
		for k := 0; k < corpusKernelFiles; k++ {
			f := &corpusFile{rel: fmt.Sprintf("internal/%s/%s%d.go", pkg.name, pkg.name[:1], k), header: []string{"package " + pkg.name}}
			for j := 0; j < corpusKernelSlots; j++ {
				s := newSlot(pkg.kinds[rng.Intn(len(pkg.kinds))])
				s.planted = rng.Float64() < corpusPlantProb
				if s.kind == slotFloat {
					muls = append(muls, s.id)
				}
				f.slots = append(f.slots, s)
			}
			c.files = append(c.files, f)
		}
	}
	fillers := []slotKind{slotFold, slotName, slotBox, slotValid, slotScale}
	for u := 0; u < corpusUtilPkgs; u++ {
		for k := 0; k < corpusUtilFiles; k++ {
			f := &corpusFile{rel: fmt.Sprintf("internal/u%d/f%d.go", u, k), header: []string{
				fmt.Sprintf("package u%d", u),
				"",
				"import (",
				"\t\"errors\"",
				"\t\"math\"",
				"\t\"strconv\"",
				"\t\"sync\"",
				"",
				"\t\"iprune/internal/fixed\"",
				")",
				"",
				"var (",
				"\t_ = errors.New",
				"\t_ = strconv.Itoa",
				"\t_ = fixed.Mul1",
				"\t_ sync.Mutex",
				")",
				"",
				"const _ = math.MaxInt16",
			}}
			for j := 0; j < corpusUtilSlots; j++ {
				s := newSlot(fillers[rng.Intn(len(fillers))])
				s.ref = muls[rng.Intn(len(muls))]
				f.slots = append(f.slots, s)
			}
			c.files = append(c.files, f)
		}
	}
	return c
}

// expected returns the findings the corpus plants, sorted.
func (c *corpus) expected() []finding {
	var out []finding
	for _, f := range c.files {
		line := len(f.header) + 1
		for _, s := range f.slots {
			line++ // the blank line before each slot
			if p, ok := plantLine[s.kind]; ok && s.planted {
				out = append(out, finding{analyzer: p.analyzer, file: f.rel, line: line + p.offset})
			}
			line += len(s.lines())
		}
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].file != fs[b].file {
			return fs[a].file < fs[b].file
		}
		if fs[a].line != fs[b].line {
			return fs[a].line < fs[b].line
		}
		return fs[a].analyzer < fs[b].analyzer
	})
}

// edit applies op i's single-file edit and returns the file it changed.
// A toggle plants or removes one finding; any other edit changes a
// comment, which leaves the findings as they were but still changes the
// file's hash.
func (c *corpus) edit(seed int64, i int) *corpusFile {
	rng := rand.New(rand.NewSource(mix(seed, i)))
	var pool []*corpusFile
	toggle := rng.Float64() < editToggleProb
	for _, f := range c.files {
		if len(f.slots) > 0 && (!toggle || f.plantable()) {
			pool = append(pool, f)
		}
	}
	f := pool[rng.Intn(len(pool))]
	s := &f.slots[rng.Intn(len(f.slots))]
	s.rev++
	if toggle {
		s.planted = !s.planted
	}
	return f
}

func (c *corpus) write(root string) error {
	for _, f := range c.files {
		if err := writeFile(root, f); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(root string, f *corpusFile) error {
	path := filepath.Join(root, filepath.FromSlash(f.rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, f.render(), 0o644)
}

// checkFindings compares the analyzers' findings with the planted set.
// Each finding must occur exactly as often as it is planted, so a
// repeated diagnostic fails as well as a missing or an extra one.
func checkFindings(got, want []finding) error {
	count := map[finding]int{}
	for _, g := range got {
		count[g]++
	}
	for _, w := range want {
		count[w]--
	}
	var problems []string
	for f, n := range count {
		switch {
		case n < 0:
			problems = append(problems, fmt.Sprintf("missing %s", f))
		case n > 0:
			problems = append(problems, fmt.Sprintf("%d unexpected %s", n, f))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("lint findings differ from the planted set: %s", strings.Join(problems, "; "))
	}
	return nil
}

type lintRunner struct {
	e              *env
	root, cacheDir string
	c              *corpus

	// Traced-run counts of op 0.
	stats0    analysis.CacheStats
	findings0 int
}

// setupLint writes the seeded corpus and fills the summaries cache with
// one cold run.
func setupLint(e *env, t *tracer) (runner, error) {
	r := &lintRunner{e: e, root: filepath.Join(e.dir, "lint"), cacheDir: filepath.Join(e.dir, "lint-cache"), c: newCorpus(e.seed)}
	r.close() // every set-up starts cold, without an earlier one's files or cache
	if err := r.c.write(r.root); err != nil {
		return nil, err
	}
	got, _, _, err := r.lint(nil)
	if err != nil {
		return nil, err
	}
	if err := checkFindings(got, r.c.expected()); err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	if t != nil {
		if err := r.timeAnalyzers(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// timeAnalyzers runs each analyzer alone over the freshly loaded, cold
// corpus, three times.
func (r *lintRunner) timeAnalyzers(t *tracer) error {
	loader, err := analysis.NewLoader(r.root, "")
	if err != nil {
		return err
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		for _, a := range analysis.All() {
			t.timed("analysis."+a.Name, func() { analysis.Run([]*analysis.Analyzer{a}, pkgs, loader.Directives()) })
		}
	}
	return nil
}

func (r *lintRunner) close() {
	os.RemoveAll(r.root)
	os.RemoveAll(r.cacheDir)
}

// lint loads the corpus and runs every analyzer with the summaries cache
// on, at the default width, as check.sh runs iprunelint. It returns the
// findings, the cache accounting and the host time of the calls.
func (r *lintRunner) lint(t *tracer) ([]finding, analysis.CacheStats, time.Duration, error) {
	var loader *analysis.Loader
	var pkgs []*analysis.Package
	var err error
	t0 := time.Now()
	t.timed("analysis.load", func() {
		if loader, err = analysis.NewLoader(r.root, ""); err == nil {
			pkgs, err = loader.Load("./...")
		}
	})
	if err != nil {
		return nil, analysis.CacheStats{}, 0, err
	}
	for _, p := range pkgs {
		if len(p.Errs) > 0 {
			return nil, analysis.CacheStats{}, 0, fmt.Errorf("%s: %v", p.Path, p.Errs[0])
		}
	}
	cache := &analysis.Cache{Dir: r.cacheDir, Root: r.root}
	var diags []analysis.Diagnostic
	t.timed("analysis.run", func() {
		diags = analysis.RunCached(analysis.All(), pkgs, loader.Directives(), cache, loader.Packages())
		diags = append(diags, loader.Directives().Problems...)
	})
	d := time.Since(t0)
	out := make([]finding, 0, len(diags))
	for _, dg := range diags {
		rel, err := filepath.Rel(r.root, dg.Pos.Filename)
		if err != nil {
			rel = dg.Pos.Filename
		}
		out = append(out, finding{analyzer: dg.Analyzer, file: filepath.ToSlash(rel), line: dg.Pos.Line})
	}
	return out, cache.Stats, d, nil
}

func (r *lintRunner) op(i int, t *tracer) (time.Duration, error) {
	if err := writeFile(r.root, r.c.edit(r.e.seed, i)); err != nil {
		return 0, err
	}
	top := t.begin("lint.op")
	got, stats, d, err := r.lint(t)
	t.end(top)
	if err != nil {
		return d, err
	}
	if err := checkFindings(got, r.c.expected()); err != nil {
		return d, fmt.Errorf("after edit %d: %w", i, err)
	}
	if t == nil {
		return d, nil
	}
	if i == 0 {
		r.stats0, r.findings0 = stats, len(got)
	}
	// The standard-library share of loading: a fresh source importer
	// type-checks the corpus's stdlib imports on their own.
	var ierr error
	t.timed("analysis.stdlib", func() {
		imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
		for _, p := range r.c.std {
			if _, err := imp.Import(p); err != nil {
				ierr = err
			}
		}
	})
	return d, ierr
}

func (r *lintRunner) layers(t *tracer, m map[string]float64) {
	m["analysis.load_ms"] = median(t.durs("analysis.load"))
	m["analysis.run_ms"] = median(t.durs("analysis.run"))
	m["analysis.stdlib_ms"] = median(t.durs("analysis.stdlib"))
	for _, a := range analysis.All() {
		m["analysis."+a.Name+"_ms"] = median(t.durs("analysis." + a.Name))
	}
	m["analysis.reanalyzed"] = float64(r.stats0.Misses)
	m["analysis.reused"] = float64(r.stats0.Hits)
	m["analysis.findings"] = float64(r.findings0)
}

func (r *lintRunner) report(io.Writer) {}
