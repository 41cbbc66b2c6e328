package commoverlap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions that no program calls but
// that stay on purpose, each with the reason. Some share their name with a
// used function of another package, so the scan below cannot flag them;
// they are listed all the same, to keep one list of them.
var testOnlyAllowed = map[string]string{
	"sim.FIFO":               "the reference tie-break policy that the same-time lane tests compare dispatch order against",
	"mat.SpectralProjector":  "the exact eigenprojector the purification tests check canonical purification against",
	"mat.JacobiEigen":        "the eigensolver behind SpectralProjector",
	"mat.Matrix.IsSymmetric": "JacobiEigen's check that its input is symmetric",
	"cache.Store.Publish":    "the counter export that a Prometheus-text /metrics endpoint for serve is to read",
	"bench.Kernel":           "the one-call kernel timing that the benchmark module's test checks its hand-built kernel jobs against",
	"faults.Injector.Events": "the fault log, which the fault-determinism tests compare run against run",
	"metrics.Registry.Value": "the registry's lookup by name, through which six packages' tests read their counters",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in internal/ or cmd/ is named by no identifier outside its own
// declaration in any non-test Go file of the module, the benchmark module
// and the examples included: such a name is API that only tests run. The
// match is by name, as a reader's grep would be, so a method shares its
// uses with every other method of that name; the check can miss an unused
// method but never flags a used one.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key  string // package name, receiver type and name: "sim.Gate.Fire"
		name string
		self int // identifiers with this name inside the declaration
	}
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			self := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
					self++
				}
				return true
			})
			decls = append(decls, decl{key, fd.Name.Name, self})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	for k := range testOnlyAllowed {
		if !declared[k] {
			t.Errorf("testOnlyAllowed lists %s, which is not an exported function of internal/ or cmd/", k)
		}
	}
	var unused []string
	for _, d := range decls {
		if uses[d.name] > d.self {
			continue
		}
		if _, ok := testOnlyAllowed[d.key]; ok {
			continue
		}
		unused = append(unused, d.key)
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no program names it; delete it, or add it to testOnlyAllowed with the reason it stays", k)
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
