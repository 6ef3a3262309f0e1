//iprune:allow-err diagnostics print to the process stdio (or a test buffer); a failed write there has no recovery path

// Command iprunelint runs the repository's custom static analyzers over
// the given packages and reports findings as file:line:col diagnostics.
//
// Usage:
//
//	iprunelint [-list] [-json] [-sarif] [-dir DIR] [packages]
//
// Packages default to ./... relative to the module root, which is found
// by walking up from -dir (default: the working directory). The
// analyzers and the directives steering them are documented in
// internal/analysis and in the "Static analysis & invariants" section
// of README.md.
//
// With -json, findings are emitted as a JSON array of
// {file,line,col,analyzer,message} objects (file paths module-root
// relative) so CI tooling can post-process them; an empty run prints
// "[]". With -sarif, findings are emitted as a SARIF 2.1.0 log with one
// rule per analyzer, suitable for GitHub code scanning upload; -json
// and -sarif are mutually exclusive.
//
// Exit status: 0 clean, 1 findings reported, 2 operational error
// (unparseable source, type-check failure, bad invocation).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iprune/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is the -json wire form of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is main with its dependencies injected, so the exit-code contract
// (0 clean, 1 findings, 2 operational error) is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iprunelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	dir := fs.String("dir", "", "directory to resolve the module root from (default: working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(stderr, "iprunelint: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
			if a.Allow != "" {
				fmt.Fprintf(stdout, "%-14s   suppress with //iprune:%s <reason>\n", "", a.Allow)
			}
		}
		return 0
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(root, "")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	broken := false
	for _, pkg := range pkgs {
		for _, perr := range pkg.Errs {
			broken = true
			fmt.Fprintln(stderr, perr)
		}
	}
	if broken {
		return 2
	}

	diags := analysis.Run(analysis.All(), pkgs, loader.Directives())
	diags = append(diags, loader.Directives().Problems...)
	analysis.Sort(diags)
	for i, d := range diags {
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(r)
			diags[i] = d
		}
	}

	if *asSARIF {
		if err := writeSARIF(stdout, diags, analysis.All()); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else if *asJSON {
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "iprunelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from start (or the working directory when
// empty) to the nearest go.mod.
func findModuleRoot(start string) (string, error) {
	dir := start
	if dir == "" {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("iprunelint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
