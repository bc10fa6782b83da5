package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// reachAllowed is the code under internal/ that no program reaches but a
// test needs, each entry with the reason it stays. A key is a package path
// below repro/internal/ (every function in it) or a function as reachName
// prints it. Entries are roots of a second walk, so the helpers an oracle
// calls need no entry of their own.
var reachAllowed = map[string]string{
	"circgen":                    "fixture package: the circuit families the fuzz targets and property tests draw from",
	"lint/analysis/analysistest": "fixture package: the analyzers' golden-file harness",

	"experiments.GateSweep":            "fixture: the gate-sweep workload's circuit, pinned by the fuse and backend tests",
	"experiments.ClusterShard":         "fixture: the cluster-shard workload's circuit, pinned by the backend tests",
	"experiments.NoiseTraj":            "fixture: the noise-traj workload's circuit, pinned by the backend tests",
	"experiments.CompileAutoWorkloads": "fixture: the cold-compile corpus of the backend allocation test and BenchmarkCompileAuto",

	"linalg.Expm":                 "oracle: the exact evolution exp(-iH dt) the Trotter tests of ising compare against",
	"linalg.Matrix.ConjTranspose": "test helper: the Hermitian checks of linalg and ising",
	"linalg.Matrix.IsUnitary":     "test helper: the unitarity checks of linalg, gates, ising and qpe",
	"linalg.Matrix.MaxAbsDiff":    "test helper: the matrix comparisons of linalg and ising",
	"linalg.Matrix.Scale":         "test helper: builds -iH dt for Expm in the ising tests",

	"cluster.Cluster.Placement": "test observer: the backend and cluster tests read a register's placement with it",
	"statevec.Factored.Dense":   "oracle: the dense product the factored bodies and fuse's factored blocks are checked against",
	"recognize.Plan.Describe":   "test helper: the recognize and experiments tests print a plan with it on failure",
}

// TestInternalCodeIsReachable type-checks the module and the benchmark
// module and walks every reference from the programs' roots: each main
// (cmd/*, examples/*, benchmark), the exported API of the root repro
// package, package-level var initialisers, init functions, and every
// method that implements an interface method (a call through an interface
// names no concrete method). A function in internal/ the walk never
// reaches is dead and goes, unless a test compares against it; then it
// sits in reachAllowed with its reason.
func TestInternalCodeIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the benchmark module; skipped in -short")
	}
	l := analysis.NewLoader()
	pkgs, err := l.Load("repro/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	l.Dir = filepath.Join("..", "..", "benchmark")
	bench, err := l.Load(".")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	r := newReach(append(pkgs, bench...))

	var dead []*fnDecl
	for _, d := range r.unreached() {
		if reachAllowed[d.name] == "" && reachAllowed[d.pkg] == "" {
			dead = append(dead, d)
		}
	}
	for key := range reachAllowed {
		var found bool
		for _, d := range r.decls {
			if d.name == key || d.pkg == key {
				found = true
				if d.name == key && r.reached[d.fn] {
					t.Errorf("%s: %s is on reachAllowed but a program reaches it: drop the entry", d.pos, key)
				}
				r.visit(d)
			}
		}
		if !found {
			t.Errorf("reachAllowed names %s, which is no function or package under internal/: drop the entry", key)
		}
	}
	r.walk()
	for _, d := range dead {
		if !r.reached[d.fn] {
			t.Errorf("%s: %s is reached by no program: delete it, or move it into a _test.go file if a test compares against it", d.pos, d.name)
		}
	}
}

// fnDecl is one function declaration of the loaded packages.
type fnDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
	info *types.Info
	pkg  string // package path below repro/internal/, or "" outside it
	name string // reachName
	pos  token.Position
}

// reach is a walk over the references between function declarations.
type reach struct {
	decls   map[*types.Func]*fnDecl
	reached map[*types.Func]bool
	work    []ast.Node
	infos   []*types.Info
}

// newReach indexes the packages' function declarations and walks from the
// program roots.
func newReach(pkgs []*analysis.Package) *reach {
	r := &reach{decls: make(map[*types.Func]*fnDecl), reached: make(map[*types.Func]bool)}
	implemented := interfaceMethods(pkgs)
	for _, p := range pkgs {
		rel, internal := strings.CutPrefix(p.PkgPath, "repro/internal/")
		if !internal {
			rel = ""
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					pos := p.Fset.Position(d.Pos())
					if i := strings.Index(pos.Filename, "/internal/"); i >= 0 {
						pos.Filename = pos.Filename[i+1:]
					}
					fd := &fnDecl{fn: fn, decl: d, info: p.Info, pkg: rel, name: reachName(rel, fn), pos: pos}
					r.decls[fn] = fd
					isMain := p.Types.Name() == "main" && d.Recv == nil && d.Name.Name == "main"
					isInit := d.Recv == nil && d.Name.Name == "init"
					isAPI := p.PkgPath == "repro" && d.Name.IsExported()
					if isMain || isInit || isAPI || implemented(fn) {
						r.visit(fd)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.work = append(r.work, d)
						r.infos = append(r.infos, p.Info)
					}
				}
			}
		}
	}
	r.walk()
	return r
}

// visit marks a declaration reached and queues its body.
func (r *reach) visit(d *fnDecl) {
	r.reached[d.fn] = true
	r.work = append(r.work, d.decl)
	r.infos = append(r.infos, d.info)
}

// walk drains the queue, visiting every declared function a queued node
// names.
func (r *reach) walk() {
	for len(r.work) > 0 {
		n, info := r.work[len(r.work)-1], r.infos[len(r.infos)-1]
		r.work, r.infos = r.work[:len(r.work)-1], r.infos[:len(r.infos)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					if d := r.decls[fn.Origin()]; d != nil && !r.reached[d.fn] {
						r.visit(d)
					}
				}
			}
			return true
		})
	}
}

// unreached returns the declarations under internal/ the walk has not
// reached, sorted by position.
func (r *reach) unreached() []*fnDecl {
	var out []*fnDecl
	for fn, d := range r.decls {
		if d.pkg != "" && !r.reached[fn] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out
}

// reachName prints a function as pkg.Func or pkg.Type.Method, with pkg
// the package path below repro/internal/.
func reachName(pkg string, fn *types.Func) string {
	switch t := receiver(fn).(type) {
	case nil:
		return pkg + "." + fn.Name()
	case *types.Named:
		return pkg + "." + t.Obj().Name() + "." + fn.Name()
	default:
		return pkg + "." + t.String() + "." + fn.Name()
	}
}

// receiver returns a method's receiver type with any pointer removed, or
// nil for a plain function.
func receiver(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// interfaceMethods returns a predicate: whether a pointer to a method's
// receiver type (whose method set holds the value receiver's too)
// implements an interface with a method of that name, among every
// interface the packages and their whole import closure declare or spell
// out.
func interfaceMethods(pkgs []*analysis.Package) func(*types.Func) bool {
	byName := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				byName[name] = append(byName[name], it)
			}
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT)
	// errors.Is and errors.As call Unwrap through an interface the errors
	// package spells inside its functions, where this walk does not look.
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	seen := make(map[*types.Package]bool)
	var declared func(*types.Package)
	declared = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			declared(imp)
		}
	}
	for _, p := range pkgs {
		declared(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return func(fn *types.Func) bool {
		t := receiver(fn)
		if t == nil {
			return false
		}
		for _, it := range byName[fn.Name()] {
			if types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}
}
