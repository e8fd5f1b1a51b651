package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"ndsearch/internal/lint/analysis"
)

// CloseCheckConfig scopes the closecheck analyzer.
type CloseCheckConfig struct {
	// Types are the fully qualified names ("pkg/path.Type") whose
	// constructed values own resources (worker pools, mmaps, file
	// handles) and must be Closed.
	Types []string
	// AllPackages are import-path prefixes (examples/) where non-test
	// code is also checked; elsewhere only _test.go files are.
	AllPackages []string
}

// CloseCheck returns the analyzer that keeps tests and examples from
// leaking goroutine pools and mapped files: constructing one of the
// configured types (engine.Engine, engine.Compactor,
// snapshot.PagedIndex) in a test or example without a reachable Close
// is flagged. Only direct constructor calls are tracked — New*, Open*,
// Load* functions declared in the type's own package — so local
// helpers that register t.Cleanup internally stay out of scope. A
// value that escapes the constructing function — returned or passed to
// another call — transfers ownership and passes, and an error-expected
// construction (`_, err := New(bad)`) is exempt because the
// constructor fails before the value owns anything.
func CloseCheck(cfg CloseCheckConfig) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "closecheck",
		Doc: "flag Engine/Batcher/PagedIndex constructions in tests and examples " +
			"with no reachable Close (resource-cleanup invariant)",
		Run: func(pass *analysis.Pass) error {
			runCloseCheck(cfg, pass)
			return nil
		},
	}
}

func runCloseCheck(cfg CloseCheckConfig, pass *analysis.Pass) {
	wholePkg := false
	for _, prefix := range cfg.AllPackages {
		if pass.PkgPath == prefix || strings.HasPrefix(pass.PkgPath, prefix+"/") ||
			strings.HasPrefix(pass.PkgPath, prefix) {
			wholePkg = true
		}
	}
	for _, file := range pass.Files {
		if !wholePkg && !pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCloses(cfg, pass, fd)
		}
	}
}

// targetTypeName resolves the configured name of the closable type a
// call constructs, or "" if the call is not a constructor for one. A
// constructor is a New*/Open*/Load* function declared in the type's own
// package; anything else returning the type is a helper assumed to
// manage cleanup itself (t.Cleanup in test fixtures).
func targetTypeName(cfg CloseCheckConfig, pass *analysis.Pass, call *ast.CallExpr) string {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if !strings.HasPrefix(fn.Name(), "New") && !strings.HasPrefix(fn.Name(), "Open") &&
		!strings.HasPrefix(fn.Name(), "Load") {
		return ""
	}
	tv, ok := pass.Info.Types[call]
	if !ok {
		return ""
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return ""
		}
		t = tuple.At(0).Type()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg() != fn.Pkg() {
		return ""
	}
	name := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if member(cfg.Types, name) {
		return name
	}
	return ""
}

func checkFuncCloses(cfg CloseCheckConfig, pass *analysis.Pass, fd *ast.FuncDecl) {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		typeName := targetTypeName(cfg, pass, call)
		if typeName == "" {
			return true
		}
		short := typeName[strings.LastIndex(typeName, "/")+1:]
		switch parent := parents[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "%s constructed and discarded; it owns resources — "+
				"assign it and defer Close", short)
		case *ast.AssignStmt:
			dest := assignDestFor(parent, call)
			id, ok := dest.(*ast.Ident)
			if !ok {
				return true // stored into a field/map: tracked elsewhere
			}
			if id.Name == "_" {
				// `_, err := New(bad)` asserts the constructor fails;
				// only a fully discarded result is a leak.
				for _, lhs := range parent.Lhs {
					if other, ok := lhs.(*ast.Ident); ok && other.Name != "_" {
						return true
					}
				}
				pass.Reportf(call.Pos(), "%s assigned to _; it owns resources — "+
					"keep it and defer Close", short)
				return true
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				return true
			}
			if !closedOrEscapes(pass, fd.Body, obj, call) {
				pass.Reportf(call.Pos(), "%s is never Closed in %s; defer %s.Close() "+
					"(or hand it to t.Cleanup)", short, fd.Name.Name, id.Name)
			}
		}
		return true
	})
}

// assignDestFor maps the call back to its destination expression in the
// assignment: `x, err := f()` has one RHS fanning out to two LHS, where
// the first is the constructed value.
func assignDestFor(s *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	if len(s.Lhs) == 0 {
		return nil
	}
	if len(s.Rhs) == len(s.Lhs) {
		for i, rhs := range s.Rhs {
			if ast.Unparen(rhs) == call {
				return s.Lhs[i]
			}
		}
	}
	return s.Lhs[0]
}

// closedOrEscapes reports whether obj is closed in body (x.Close
// mentioned anywhere, including defer and t.Cleanup(x.Close)) or
// escapes the function (returned, or passed as a call argument, or
// reassigned into another place), after the constructing call.
func closedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, ctor *ast.CallExpr) bool {
	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.Info.Uses[id] == obj
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		switch s := n.(type) {
		case *ast.SelectorExpr:
			if s.Sel.Name == "Close" && usesObj(s.X) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if usesObj(r) {
					found = true
				}
			}
		case *ast.CallExpr:
			if s == ctor {
				return true
			}
			for _, a := range s.Args {
				if usesObj(a) {
					found = true
				}
			}
		case *ast.AssignStmt:
			// `x.field = eng` or `m[k] = eng`: ownership moved.
			for _, r := range s.Rhs {
				if usesObj(r) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
