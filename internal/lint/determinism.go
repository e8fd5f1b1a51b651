package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ndsearch/internal/lint/analysis"
)

// DeterminismConfig scopes the determinism analyzer.
type DeterminismConfig struct {
	// AllowWallClock reports whether a file may read wall-clock time or
	// the unseeded math/rand source: benchmarks and examples that print
	// timings, and servers that enforce real deadlines. _test.go files
	// are always allowed.
	AllowWallClock func(pkgPath, filename string) bool
}

// Determinism returns the analyzer enforcing the byte-identical-results
// invariant (DESIGN.md §4/§7/§10): identical inputs must produce
// identical outputs across the serial, parallel, and paged paths. It flags
//
//   - iteration over a map whose body leaks iteration order into an
//     order-sensitive sink — appending to a slice that is never sorted
//     afterwards in the same function, printing/encoding/writing,
//     accumulating into a float, or sending on a channel. Iterations
//     that only count, sum integers, or fill other maps are
//     order-insensitive and pass.
//   - time.Now outside allowlisted files: wall-clock reads make output
//     depend on when a run happened.
//   - package-level math/rand functions (rand.Intn, rand.Shuffle, ...):
//     they draw from the process-global source, so results change run
//     to run. Seeded generators via rand.New(rand.NewSource(seed))
//     pass.
func Determinism(cfg DeterminismConfig) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc: "flag map-iteration order leaking into results and unseeded " +
			"time/rand sources (byte-identical-results invariant, DESIGN.md §4)",
		Run: func(pass *analysis.Pass) error {
			runDeterminism(cfg, pass)
			return nil
		},
	}
}

func runDeterminism(cfg DeterminismConfig, pass *analysis.Pass) {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Package).Filename
		allowWall := pass.IsTestFile(file) ||
			(cfg.AllowWallClock != nil && cfg.AllowWallClock(pass.PkgPath, filename))

		if !allowWall {
			checkWallClock(pass, file)
		}
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			checkMapRanges(pass, body)
		})
	}
}

func checkWallClock(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" {
				pass.Reportf(call.Pos(), "time.Now makes output wall-clock dependent; "+
					"inject the timestamp, or suppress with //ndvet:ignore determinism <reason> "+
					"if this only feeds timing stats")
			}
		case "math/rand", "math/rand/v2":
			if fn.Signature().Recv() != nil {
				return true // methods on an explicitly seeded *rand.Rand
			}
			switch fn.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				return true // constructors take an explicit seed
			}
			pass.Reportf(call.Pos(), "rand.%s draws from the unseeded process-global source; "+
				"use rand.New(rand.NewSource(seed)) so runs are reproducible", fn.Name())
		}
		return true
	})
}

// checkMapRanges inspects every map-range statement directly inside
// body (nested function literals get their own call via
// forEachFuncBody) and reports order-sensitive sinks in the loop body.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	walkShallow(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rs)
		return true
	})
}

// walkShallow visits the nodes of body without descending into nested
// function literals.
func walkShallow(body ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

func checkMapRangeBody(pass *analysis.Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) {
	mapName := types.ExprString(rs.X)
	walkShallow(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if dest, ok := appendDest(pass, s); ok {
				if declaredWithin(pass, s.Lhs[0], rs.Body) {
					// A slice created fresh inside the loop body never
					// carries order across iterations.
					return true
				}
				if !sortedAfter(pass, enclosing, rs.End(), dest) {
					pass.Reportf(s.Pos(), "map iteration over %s appends to %s in nondeterministic "+
						"order and %s is never sorted in this function; sort the map's keys first, "+
						"or sort %s before it is used", mapName, dest, dest, dest)
				}
				return true
			}
			if isFloatAccumulation(pass, s) {
				pass.Reportf(s.Pos(), "float accumulation inside iteration over map %s: "+
					"float addition is order-sensitive, so the result depends on map iteration "+
					"order; iterate sorted keys", mapName)
			}
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside iteration over map %s leaks "+
				"nondeterministic iteration order to the receiver; iterate sorted keys", mapName)
		case *ast.CallExpr:
			if name, bad := orderSensitiveCall(pass, s); bad {
				pass.Reportf(s.Pos(), "%s inside iteration over map %s emits output in "+
					"nondeterministic order; iterate sorted keys", name, mapName)
			}
		}
		return true
	})
}

// declaredWithin reports whether e is an identifier whose declaration
// lies inside body.
func declaredWithin(pass *analysis.Pass, e ast.Expr, body *ast.BlockStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && body.Pos() <= obj.Pos() && obj.Pos() < body.End()
}

// appendDest matches `dest = append(dest, ...)` (or dest := / dest op)
// and returns the destination's printed expression.
func appendDest(pass *analysis.Pass, s *ast.AssignStmt) (string, bool) {
	for i, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "append") {
			continue
		}
		li := i
		if len(s.Lhs) != len(s.Rhs) {
			li = 0
		}
		if li < len(s.Lhs) {
			return types.ExprString(s.Lhs[li]), true
		}
	}
	return "", false
}

// isFloatAccumulation matches `x += e`, `x -= e`, `x *= e`, `x /= e`,
// and `x = x + e` where x has a float type.
func isFloatAccumulation(pass *analysis.Pass, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs := s.Lhs[0]
	if !isFloat(pass.Info.TypeOf(lhs)) {
		return false
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		bin, ok := ast.Unparen(s.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		lstr := types.ExprString(lhs)
		return types.ExprString(bin.X) == lstr || types.ExprString(bin.Y) == lstr
	}
	return false
}

// orderSensitiveCall reports calls that emit ordered output: the fmt
// print family and Write/Encode/Log-shaped methods.
func orderSensitiveCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name(), true
	}
	if fn.Signature().Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode",
			"Print", "Printf", "Println", "Log", "Logf":
			return "method " + fn.Name(), true
		}
	}
	return "", false
}

// sortedAfter reports whether dest is passed to a sort call positioned
// after pos within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, dest string) bool {
	found := false
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := callee(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		isSort := false
		switch fn.Pkg().Path() {
		case "sort":
			switch fn.Name() {
			case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
				isSort = true
			}
		case "slices":
			isSort = strings.HasPrefix(fn.Name(), "Sort")
		}
		if isSort && types.ExprString(call.Args[0]) == dest {
			found = true
		}
		return true
	})
	return found
}
