package linesearch_test

import (
	"bufio"
	"bytes"
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
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadExportsAllowlist names the exported identifiers that no non-test
// code references but that stay on purpose, one per line with a reason.
const deadExportsAllowlist = "testdata/dead_exports.txt"

// TestNoDeadExports type-checks the non-test code of every package in
// this module and in perfbench/ (a separate module that imports the
// internal packages) and lists every exported package-level identifier
// and exported method that no non-test code references. A method
// through which its type satisfies an interface is not dead: it may be
// called through that interface. The list must match the allowlist
// exactly, so a new dead export fails here, and so does an allowlist
// entry that has since been deleted or gained a caller.
//
// Options get the same treatment: an exported field of an exported
// struct type whose name ends in Config is dead when no non-test code
// outside its own package names it, because then no caller can set
// it and it is a constant in disguise.
//
// The module's packages are type-checked from source; the standard
// library is imported from the compiler's export data (one
// `go list -export` call), which is much faster than re-checking
// net/http and its dependencies from source.
func TestNoDeadExports(t *testing.T) {
	allow := readAllowlist(t, deadExportsAllowlist)

	// The module's packages, dependencies first (go list -deps order).
	var pkgs []listedPackage
	local := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range goList(t, dir, "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard", "./...") {
			if !p.Standard && !local[p.ImportPath] {
				local[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	// Export data for the standard packages the module imports directly;
	// each file carries every type those packages refer to.
	var std []string
	stdSeen := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			if !local[imp] && !stdSeen[imp] {
				stdSeen[imp] = true
				std = append(std, imp)
			}
		}
	}
	args := []string{"-export", "-json=ImportPath,Export"}
	if raceBuild() {
		// Reuse the race-instrumented build the test binary came from
		// instead of compiling the standard library a second time.
		args = append(args, "-race")
	}
	exports := map[string]string{}
	for _, p := range goList(t, ".", append(args, std...)...) {
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		local: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exports[path])
		}),
	}
	used := map[types.Object]bool{}
	namedOutside := map[types.Object]bool{} // struct fields named outside their package
	var ifaces []*types.Interface
	var checked []*types.Package
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.local[p.ImportPath] = pkg
		checked = append(checked, pkg)
		for _, obj := range info.Uses {
			used[origin(obj)] = true
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				namedOutside[origin(v)] = true
			}
		}
		for _, tv := range info.Types { // interface literals, e.g. in type assertions
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, namedInterfaces(checked)...)

	// Every exported identifier of the module with no non-test use.
	dead := map[types.Object]string{}
	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				dead[obj] = pkg.Path() + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					dead[m] = pkg.Path() + "." + name + "." + m.Name()
				}
			}
		}
	}

	// Every exported field of an exported ...Config struct that no
	// non-test code outside its package names.
	deadFields := map[string]bool{}
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !namedOutside[f] {
					dead[f] = pkg.Path() + "." + name + "." + f.Name()
					deadFields[dead[f]] = true
				}
			}
		}
	}

	// Methods through which some module type satisfies an interface.
	deadNames := map[string]bool{}
	for obj := range dead {
		if fn, ok := obj.(*types.Func); ok {
			deadNames[fn.Name()] = true
		}
	}
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !mentionsAny(it, deadNames) || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						delete(dead, origin(sel.Obj()))
					}
				}
			}
		}
	}

	var got []string
	for _, name := range dead {
		got = append(got, name)
	}
	sort.Strings(got)
	for _, name := range got {
		if _, ok := allow[name]; ok {
			continue
		}
		if deadFields[name] {
			t.Errorf("%s is a config field that no non-test code outside its package sets or reads: make it a constant, or add it to %s with a reason", name, deadExportsAllowlist)
		} else {
			t.Errorf("%s is exported but no non-test code uses it: delete it, move it into the _test.go file that uses it, or add it to %s with a reason", name, deadExportsAllowlist)
		}
	}
	for name := range allow {
		if !slices.Contains(got, name) {
			t.Errorf("%s is listed in %s but is no longer an unused export: remove the entry", name, deadExportsAllowlist)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// goList runs `go list` in dir and decodes its stream of JSON objects.
func goList(t *testing.T, dir string, args ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// moduleImporter serves the module's packages from the ones already
// type-checked and everything else from export data.
type moduleImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.local[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// origin maps a method or field of an instantiated generic type back to
// the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedInterfaces returns every non-generic named interface with
// methods declared in pkgs or in any package they import, plus error.
func namedInterfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

func mentionsAny(it *types.Interface, names map[string]bool) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if names[it.Method(i).Name()] {
			return true
		}
	}
	return false
}

// readAllowlist parses lines of the form "<qualified name> <reason>";
// blank lines and lines starting with # are ignored.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
