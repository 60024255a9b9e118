package hsas_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist holds the production declarations that no entry point
// reaches but that stay, each with the reason it stays. Keys name a
// declaration as its package path relative to the module, a dot, and the
// name; a method adds its receiver's type name.
var reachAllowlist = map[string]string{
	"internal/core.Reconfigurator.Observe":     "README.md's uncompiled reconfiguration example calls it",
	"internal/core.Reconfigurator.Step":        "README.md's uncompiled reconfiguration example calls it",
	"internal/core.Result.Table":               "README.md's uncompiled example prints a run's table with it",
	"internal/platform.Platform.WithPowerMode": "BenchmarkAblationPowerMode sweeps the power modes with it",
}

// TestProductionCodeIsReachable fails on every top-level declaration of the
// module that no production entry point reaches, so code only tests call
// cannot be compiled into the program unnoticed. It type-checks every
// package that the module and the perfbench module build, and walks from
// the roots: every main and init function, every package-level variable
// and every declaration the hsas facade exports. A reached declaration
// reaches every package-level object and method its source names. A method
// called only through an interface is named nowhere, so a method of a
// reached type also counts as reached when some interface in the program,
// the standard library's included, declares a method of that name and
// signature; so do the constants of a reached type.
func TestProductionCodeIsReachable(t *testing.T) {
	listed := goListDeps(t, ".")
	listed = append(listed, goListDeps(t, "perfbench")...)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return src.Import(path)
	})

	type decl struct {
		name     string // as reachAllowlist keys it
		pos      token.Position
		node     ast.Node
		info     *types.Info
		inModule bool // declared in the hsas module, not in perfbench
	}
	decls := map[types.Object]*decl{}
	var (
		roots        []types.Object
		methods      []*types.Func                // every method the listed packages declare
		ifaceMethods = map[string][]*types.Func{} // by name
		consts       []*types.Const
		blanks       []*decl
	)
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaceMethods[m.Name()] = append(ifaceMethods[m.Name()], m)
		}
	}
	for _, lp := range listed {
		if lp.Standard || checked[lp.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, "hsas"), "/")
		if rel == "" {
			rel = "hsas"
		}
		add := func(id *ast.Ident, node ast.Node, qual string) types.Object {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" {
				return nil
			}
			pos := fset.Position(id.Pos())
			if r, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = r
			}
			decls[obj] = &decl{rel + "." + qual + id.Name, pos, node, info, lp.Module.Path == "hsas"}
			return obj
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						obj := add(d.Name, d, "")
						if d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main" ||
							lp.ImportPath == "hsas" && d.Name.IsExported() {
							roots = append(roots, obj)
						}
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch r := recv.(type) {
					case *ast.IndexExpr:
						recv = r.X
					case *ast.IndexListExpr:
						recv = r.X
					}
					obj := add(d.Name, d, recv.(*ast.Ident).Name+".")
					methods = append(methods, obj.(*types.Func))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := add(s.Name, s, "")
							if lp.ImportPath == "hsas" && s.Name.IsExported() {
								roots = append(roots, obj)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								obj := add(id, s, "")
								switch obj := obj.(type) {
								case *types.Var:
									roots = append(roots, obj)
								case *types.Const:
									consts = append(consts, obj)
									if lp.ImportPath == "hsas" && id.IsExported() {
										roots = append(roots, obj)
									}
								}
								if obj == nil && d.Tok == token.VAR {
									// A blank variable still runs its initializer.
									blanks = append(blanks, &decl{node: s, info: info})
								}
							}
						}
					}
				}
			}
		}
	}
	// Interfaces of the packages the module imports count too: a method
	// named String, Error, ServeHTTP or MarshalJSON is called from there.
	seen := map[*types.Package]bool{}
	var walkPkg func(p *types.Package)
	walkPkg = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, q := range p.Imports() {
			walkPkg(q)
		}
	}
	for _, p := range checked {
		walkPkg(p)
	}

	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), roots...)
	visit := func(d *decl) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			used := d.info.Uses[id]
			switch u := used.(type) {
			case *types.Func:
				used = u.Origin()
			case *types.Var:
				used = u.Origin()
			}
			if used != nil && decls[used] != nil && !reached[used] {
				work = append(work, used)
			}
			return true
		})
	}
	for _, d := range blanks {
		visit(d)
	}
	walk := func() {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			if _, ok := obj.(*types.TypeName); ok {
				for _, m := range methods {
					if recvTypeName(m) == obj && declaredByInterface(m, ifaceMethods[m.Name()]) {
						work = append(work, m)
					}
				}
				for _, c := range consts {
					if n, ok := c.Type().(*types.Named); ok && n.Obj() == obj {
						work = append(work, c)
					}
				}
			}
			if d := decls[obj]; d != nil {
				visit(d)
			}
		}
	}
	walk()

	// An allowlisted declaration stays, and so does what it uses.
	allowed := map[string]bool{}
	for obj, d := range decls {
		if _, ok := reachAllowlist[d.name]; ok {
			allowed[d.name] = true
			if reached[obj] {
				t.Errorf("%s is reached; drop it from reachAllowlist", d.name)
			}
			work = append(work, obj)
		}
	}
	for name := range reachAllowlist {
		if !allowed[name] {
			t.Errorf("reachAllowlist names %s, which is not declared", name)
		}
	}
	walk()

	var missed []string
	for obj, d := range decls {
		if !reached[obj] && d.inModule {
			missed = append(missed, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("%s is reached by no production entry point", m)
	}
}

// declaredByInterface reports whether one of the interface methods
// has m's signature, so that m may be called through that interface.
func declaredByInterface(m *types.Func, ifaceMethods []*types.Func) bool {
	for _, im := range ifaceMethods {
		if types.Identical(m.Type(), im.Type()) {
			return true
		}
	}
	return false
}

// recvTypeName returns the type name of method m's receiver base type.
func recvTypeName(m *types.Func) types.Object {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goListDeps lists the packages ./... needs in the module at dir, each
// after the packages it imports.
func goListDeps(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}
