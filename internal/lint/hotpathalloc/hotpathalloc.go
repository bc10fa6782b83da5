// Package hotpathalloc enforces the zero-steady-state-allocation
// contract on functions annotated with a //qemu:hotpath directive: the
// statevec kernels, fuse block replay, the cluster bit-permutation mover
// and the fft stage drivers. PR 2 bought those paths their
// allocation-free sweeps; this analyzer makes the property structural
// instead of benchmark-archaeological.
//
// Inside an annotated function the analyzer rejects the allocating
// constructs that creep back in during refactors: make, new and append
// calls, slice/map composite literals, calls into package fmt, and
// function literals that escape (anything other than a literal passed
// directly as a call argument — the kernel-dispatch idiom the parallel
// runners rely on, whose allocation is owned by the runner, not the
// kernel).
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Directive is the comment that opts a function into the check.
const Directive = "//qemu:hotpath"

// Analyzer rejects allocating constructs in //qemu:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "functions annotated //qemu:hotpath must not allocate\n\n" +
		"Flags make/new/append calls, slice and map composite literals, fmt\n" +
		"calls and escaping function literals inside functions whose doc\n" +
		"comment carries a //qemu:hotpath directive.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

// isHotPath reports whether the function's doc comment carries the
// directive on a line of its own.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Function literals in direct call-argument position are the kernel
	// dispatch idiom (s.parallelRange(n, func(lo, hi){...})); collect
	// them first so the walk can exempt them.
	allowedLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				allowedLits[fl] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			switch fun := node.Fun.(type) {
			case *ast.Ident:
				if isBuiltin(pass, fun) && (fun.Name == "make" || fun.Name == "new" || fun.Name == "append") {
					pass.Reportf(node.Pos(), "hot path calls %s; //qemu:hotpath functions must not allocate", fun.Name)
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						pass.Reportf(node.Pos(), "hot path calls fmt.%s; //qemu:hotpath functions must not allocate", fun.Sel.Name)
					}
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(node.Pos(), "hot path builds a slice literal; //qemu:hotpath functions must not allocate")
			case *types.Map:
				pass.Reportf(node.Pos(), "hot path builds a map literal; //qemu:hotpath functions must not allocate")
			}
		case *ast.FuncLit:
			if !allowedLits[node] {
				pass.Reportf(node.Pos(), "hot path creates an escaping closure; pass function literals directly to a runner instead")
			}
		}
		return true
	})
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
