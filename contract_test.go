package hsas_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFacadeMatchesContract enforces the facade's contract (see the
// package doc): hsas.go exports exactly the names that README.md or a
// program under examples/ uses. An export nobody documents fails here, and
// so does a README reference to a name the facade does not export (the
// README's code is not compiled, the examples are).
func TestFacadeMatchesContract(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "hsas.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{string(readme)}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		docs = append(docs, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	ref := regexp.MustCompile(`\bhsas\.([A-Z]\w*)`)
	for _, doc := range docs {
		for _, m := range ref.FindAllStringSubmatch(doc, -1) {
			used[m[1]] = true
		}
	}
	for name := range exported {
		if !used[name] {
			t.Errorf("hsas.%s is exported but neither README.md nor examples/ uses it", name)
		}
	}
	for name := range used {
		if !exported[name] {
			t.Errorf("README.md or examples/ uses hsas.%s, which hsas.go does not export", name)
		}
	}
}
