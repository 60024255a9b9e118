package hsas_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
// cannot be compiled into the program unnoticed. It walks the program
// (loadProgram) from the roots: every main and init function, every
// package-level variable and every declaration the hsas facade exports. A
// reached declaration reaches every package-level object and method its
// source names. A method called only through an interface is named
// nowhere, so a method of a reached type also counts as reached when some
// interface in the program, the standard library's included, declares a
// method of that name and signature; so do the constants of a reached
// type.
func TestProductionCodeIsReachable(t *testing.T) {
	prog := loadProgram(t)

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
	for _, cp := range prog.pkgs {
		info, pkg := cp.info, cp.types
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
		add := func(id *ast.Ident, node ast.Node, qual string) types.Object {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" {
				return nil
			}
			decls[obj] = &decl{cp.rel + "." + qual + id.Name, prog.position(id.Pos()), node, info, cp.inModule}
			return obj
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						obj := add(d.Name, d, "")
						if d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main" ||
							cp.path == "hsas" && d.Name.IsExported() {
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
							if cp.path == "hsas" && s.Name.IsExported() {
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
									if cp.path == "hsas" && id.IsExported() {
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
	for _, cp := range prog.pkgs {
		walkPkg(cp.types)
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

// fieldAllowlist holds the exported fields that no production code
// writes but that stay, each with the reason it stays. Keys name a field
// as its package path relative to the module, a dot, its struct type's
// name, a dot and the field's name.
var fieldAllowlist = map[string]string{
	"internal/core.CharacterizeConfig.Context": "the facade's cancellation input for Characterize",
	"internal/sim.CNN.C":                       "the CNN-in-the-loop runs put trained classifiers in the loop through it",
}

// TestExportedFieldsAreSet fails on every exported field of a struct type
// the module declares that no production code writes, so an option that
// nothing but tests sets, and the branch it selects, cannot stay in the
// program unnoticed. Production code is the program of loadProgram. A
// write is a composite-literal key, a positional literal of the field's
// struct, the target of an assignment, ++ or --, or &x.F; a target
// writes every field it selects, so res.Stats.Jobs += n writes Stats
// too. The fields of a JSON-decoded type, a struct with json tags or a
// type reachable from one through its fields, are set by a decoder and
// exempt.
func TestExportedFieldsAreSet(t *testing.T) {
	prog := loadProgram(t)

	type field struct {
		name string // as fieldAllowlist keys it
		pos  token.Position
		of   *types.Struct
	}
	fields := map[*types.Var]*field{}
	tagged := map[*types.Struct]bool{}
	for _, cp := range prog.pkgs {
		if !cp.inModule {
			continue
		}
		for _, f := range cp.files {
			named := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					st := cp.info.TypeOf(n).(*types.Struct)
					name := cmp.Or(named[n], "struct")
					for i := 0; i < st.NumFields(); i++ {
						if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
							tagged[st] = true
						}
						if v := st.Field(i); v.Exported() {
							fields[v] = &field{cp.rel + "." + name + "." + v.Name(), prog.position(v.Pos()), st}
						}
					}
				}
				return true
			})
		}
	}

	// A JSON decoder sets the fields of a tagged struct and of every
	// struct reachable from it through fields.
	exempt := map[*types.Struct]bool{}
	var decoded func(typ types.Type)
	decoded = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Named:
			decoded(typ.Origin().Underlying())
		case *types.Pointer:
			decoded(typ.Elem())
		case *types.Slice:
			decoded(typ.Elem())
		case *types.Array:
			decoded(typ.Elem())
		case *types.Map:
			decoded(typ.Key())
			decoded(typ.Elem())
		case *types.Struct:
			if exempt[typ] {
				return
			}
			exempt[typ] = true
			for i := 0; i < typ.NumFields(); i++ {
				decoded(typ.Field(i).Type())
			}
		}
	}
	for st := range tagged {
		decoded(st)
	}

	written := map[*types.Var]bool{}
	for _, cp := range prog.pkgs {
		info := cp.info
		var target func(e ast.Expr)
		target = func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						written[sel.Obj().(*types.Var).Origin()] = true
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							// A positional literal writes every field.
							for i := 0; i < st.NumFields(); i++ {
								written[st.Field(i).Origin()] = true
							}
							break
						}
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, e := range n.Lhs {
							target(e)
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if e != nil {
								target(e)
							}
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	var unset []string
	for v, f := range fields {
		declared[f.name] = true
		set := written[v] || exempt[f.of]
		if _, ok := fieldAllowlist[f.name]; ok {
			if set {
				t.Errorf("%s is set; drop it from fieldAllowlist", f.name)
			}
			continue
		}
		if !set {
			unset = append(unset, f.pos.String()+": "+f.name)
		}
	}
	for name := range fieldAllowlist {
		if !declared[name] {
			t.Errorf("fieldAllowlist names %s, which is not declared", name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is written by no production code", u)
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

// program is the production code of the module and of the perfbench
// module, type-checked: every non-test file of every package that ./...
// builds in either.
type program struct {
	fset *token.FileSet
	wd   string
	pkgs []*checkedPackage // each after the packages it imports
}

// checkedPackage is one type-checked package of the program.
type checkedPackage struct {
	path     string // import path
	rel      string // path relative to the module root, "hsas" for the root
	inModule bool   // in the hsas module, not in perfbench
	files    []*ast.File
	info     *types.Info
	types    *types.Package
}

// position returns p's position with the file name relative to the
// module root.
func (prog *program) position(p token.Pos) token.Position {
	pos := prog.fset.Position(p)
	if r, err := filepath.Rel(prog.wd, pos.Filename); err == nil {
		pos.Filename = r
	}
	return pos
}

var (
	programOnce   sync.Once
	loadedProgram *program
	programErr    error
)

// loadProgram type-checks the program once per test binary and returns
// it; the tests that read it must not change it.
func loadProgram(t *testing.T) *program {
	t.Helper()
	programOnce.Do(func() { loadedProgram, programErr = checkProgram() })
	if programErr != nil {
		t.Fatal(programErr)
	}
	return loadedProgram
}

func checkProgram() (*program, error) {
	listed, err := goListDeps(".")
	if err != nil {
		return nil, err
	}
	bench, err := goListDeps("perfbench")
	if err != nil {
		return nil, err
	}
	listed = append(listed, bench...)

	prog := &program{fset: token.NewFileSet()}
	if prog.wd, err = os.Getwd(); err != nil {
		return nil, err
	}
	src := importer.ForCompiler(prog.fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return src.Import(path)
	})
	for _, lp := range listed {
		if lp.Standard || checked[lp.ImportPath] != nil {
			continue
		}
		cp := &checkedPackage{
			path:     lp.ImportPath,
			rel:      strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, "hsas"), "/"),
			inModule: lp.Module.Path == "hsas",
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		if cp.rel == "" {
			cp.rel = "hsas"
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		if cp.types, err = (&types.Config{Importer: imp}).Check(lp.ImportPath, prog.fset, cp.files, cp.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = cp.types
		prog.pkgs = append(prog.pkgs, cp)
	}
	return prog, nil
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
func goListDeps(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
