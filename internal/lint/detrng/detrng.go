// Package detrng polices the determinism contract of the execution
// engine: statevec, cluster, backend, recognize, fuse and noise must
// produce draw-for-draw identical results for a fixed seed, across runs,
// process restarts and node counts. Three constructs silently break
// that and are banned here: wall-clock reads (time.Now/Since), the
// global math/rand source (unseeded, process-global, lock-contended —
// internal/rng exists instead), and map iteration feeding results
// (Go randomises range order per run by design).
//
// The one legitimate wall-clock use — timing a result for reporting —
// goes through perfmodel.Clock, outside the contract, which the
// finding names; a site that must read the clock itself is waived with
// //lint:ignore detrng <reason>. Map ranges that only
// collect keys into a slice that is subsequently sorted (the
// sorted-iteration idiom) are recognised and allowed.
package detrng

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/lint/analysis"
)

// deterministic names the packages under the contract.
var deterministic = map[string]bool{
	"statevec":  true,
	"cluster":   true,
	"backend":   true,
	"recognize": true,
	"fuse":      true,
	"noise":     true,
}

// Analyzer bans nondeterminism sources in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "detrng",
	Doc: "deterministic-execution packages must not read wall clocks, global rand or map order\n\n" +
		"In packages statevec, cluster, backend, recognize, fuse and noise: forbids\n" +
		"time.Now/time.Since calls, any import of math/rand or math/rand/v2,\n" +
		"and ranging over a map unless the loop only collects keys/values into\n" +
		"a slice that is later sorted in the same function. Reported timings\n" +
		"go through perfmodel.Clock.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !deterministic[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "deterministic package imports %s; use repro/internal/rng with an explicit seed", path)
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && isTimeFunc(pass, sel) {
				pass.Reportf(node.Pos(), "wall-clock read (time.%s) in a deterministic package; results must not depend on when they run (time a report with perfmodel.Clock)", sel.Sel.Name)
			}
		case *ast.FuncDecl:
			if node.Body != nil {
				checkMapRanges(pass, node)
			}
			return true
		}
		return true
	})
	return nil, nil
}

// isTimeFunc reports whether sel is time.Now or time.Since.
func isTimeFunc(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "time"
}

// checkMapRanges flags map-order-dependent range loops in one function.
func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sortedCollect(pass, fd, rng) {
			return true
		}
		pass.Reportf(rng.Pos(), "map iteration order feeds results in a deterministic package; collect keys and sort, or iterate a canonical slice")
		return true
	})
}

// sortedCollect recognises the sorted-iteration idiom: the range body
// is a single `s = append(s, ...)` and s is later an argument to a
// sort package call in the same function.
func sortedCollect(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	target := pass.TypesInfo.ObjectOf(lhs)
	if target == nil {
		return false
	}
	return sortedAfter(pass, fd, target, rng.End())
}

// sortedAfter reports whether obj is an argument of a sort.* call
// positioned after pos.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok || pn.Imported().Path() != "sort" {
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(aid) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
