package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrCheck flags call statements that silently discard an error result.
// The repro pipeline writes models, CSVs and reports to disk; a dropped
// error there means a truncated artifact is presented as a successful
// paper reproduction. Printing helpers whose error is documented to be
// unreachable (fmt printing to stdout/stderr, strings.Builder and
// bytes.Buffer writes) are excluded; anything else either gets handled
// or carries an explicit //iprune:allow-err <reason>.
var ErrCheck = &Analyzer{
	Name:  "errcheck",
	Doc:   "error returns must not be silently discarded",
	Allow: "allow-err",
	Scope: func(path string) bool {
		return strings.HasPrefix(path, "iprune/internal/") || strings.HasPrefix(path, "iprune/cmd/")
	},
	Run: runErrCheck,
}

func runErrCheck(pass *Pass) {
	check := func(call *ast.CallExpr) {
		if call == nil || !returnsError(pass, call) || excludedCall(pass, call) {
			return
		}
		pass.Reportf(call.Pos(), "error return of %s is discarded (handle it or assign to _ explicitly)", calleeName(pass, call))
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ := n.X.(*ast.CallExpr)
				check(call)
			case *ast.DeferStmt:
				check(n.Call)
			case *ast.GoStmt:
				check(n.Call)
			case *ast.AssignStmt:
				checkBlankClose(pass, n)
			}
			return true
		})
	}
}

// checkBlankClose flags `_ = x.Close()`. A plain blank assignment is an
// accepted explicit discard for most calls, but Close is where buffered
// sinks surface their flush error: discarding it — even visibly — lets a
// truncated trace or CSV artifact pass as a successful run. Such sites
// must handle the error (see obs.WriteFile) or carry //iprune:allow-err.
func checkBlankClose(pass *Pass, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN || len(n.Rhs) != 1 {
		return
	}
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok || !returnsError(pass, call) {
		return
	}
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Name() != "Close" {
		return
	}
	pass.Reportf(call.Pos(), "error return of %s is blank-discarded: Close surfaces buffered-write failures, so dropping it can hide a truncated artifact (handle it or annotate //iprune:allow-err)", calleeName(pass, call))
}

// returnsError reports whether the call yields an error (alone or as part
// of a result tuple). Conversions and builtins never do.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// calleeName renders the called function for the diagnostic.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := staticCallee(pass.Info, call); fn != nil {
		return fn.FullName()
	}
	return "call"
}

// excludedCall applies the never-fails allowlist.
func excludedCall(pass *Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		return false
	}
	name := fn.FullName()
	switch name {
	case "fmt.Print", "fmt.Printf", "fmt.Println":
		return true
	case "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
		// Writing to the process's own stdio or an in-memory buffer
		// never produces an error worth handling; other writers do.
		if len(call.Args) == 0 {
			return false
		}
		if t := pass.Info.Types[call.Args[0]].Type; t != nil {
			switch t.String() {
			case "*strings.Builder", "*bytes.Buffer":
				return true
			}
		}
		if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" &&
				(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
				return true
			}
		}
		return false
	}
	if strings.HasPrefix(name, "(*strings.Builder).Write") ||
		strings.HasPrefix(name, "(*bytes.Buffer).Write") {
		return true
	}
	return false
}
