// Package lint holds the repository's two source checks as ordinary tests:
// cursorclose (a value with a Close method obtained from an Open-style call
// is closed on every path) and lockorder (mutexes are acquired in one order
// across a package). Each check runs over every package of the module — its
// in-package test files included, and its external test package — and over
// a corpus under testdata whose `// want "regexp"` comments name the
// findings it must make.
//
// Packages are type-checked from source with go/types: module packages from
// their directories, the standard library from GOROOT. A package that fails
// to load or type-check fails the test; it is never read as "no findings".
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// unit is one type-checked package: a package together with its in-package
// test files, or an external test package.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// reportFunc delivers one finding of a check.
type reportFunc func(pos token.Pos, format string, args ...any)

// check is one source check over a unit.
type check func(u *unit, report reportFunc)

// loader type-checks packages from source. It keeps parsed files and the
// module packages it has imported, so each is read once per test.
type loader struct {
	fset    *token.FileSet
	root    string // directory holding go.mod
	modPath string
	std     types.Importer
	parsed  map[string]*ast.File
	imports map[string]*types.Package // module packages, without test files
	builds  map[string]*build.Package
}

func newLoader(t *testing.T) *loader {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(root) == root {
			t.Fatal("no go.mod above the test directory")
		}
		root = filepath.Dir(root)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		t.Fatal("go.mod has no module line")
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: string(m[1]),
		std:     importer.ForCompiler(fset, "source", nil),
		parsed:  map[string]*ast.File{},
		imports: map[string]*types.Package{},
		builds:  map[string]*build.Package{},
	}
}

// load type-checks the package in dir with its in-package test files and,
// when there is one, its external test package against that result — so an
// external test sees what export_test.go files add, as under go test.
func (l *loader) load(dir, path string) ([]*unit, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	base, err := l.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...), l.importer(nil), true)
	if err != nil {
		return nil, err
	}
	units := []*unit{base}
	if len(bp.XTestGoFiles) > 0 {
		x, err := l.check(path+"_test", dir, bp.XTestGoFiles, l.importer(base.pkg), true)
		if err != nil {
			return nil, err
		}
		units = append(units, x)
	}
	return units, nil
}

// check parses and type-checks one unit. Only the units the checks read
// keep function bodies and type information; imports need declarations.
func (l *loader) check(path, dir string, names []string, imp types.Importer, full bool) (*unit, error) {
	u := &unit{fset: l.fset}
	for _, name := range names {
		name = filepath.Join(dir, name)
		f := l.parsed[name]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[name] = f
		}
		u.files = append(u.files, f)
	}
	if full {
		u.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	conf := types.Config{Importer: imp, IgnoreFuncBodies: !full}
	pkg, err := conf.Check(path, l.fset, u.files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	u.pkg = pkg
	return u, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importer resolves the imports of one unit. Module packages are checked
// from their directories. For an external test package, under is the
// package it tests, with its test files; the module packages that import
// it, directly or not, are checked again against it, as the go tool
// rebuilds a package's dependents for its tests.
func (l *loader) importer(under *types.Package) types.Importer {
	pkgs := l.imports
	var base types.Importer
	var reaches func(path string) bool // path imports under
	if under != nil {
		pkgs = map[string]*types.Package{under.Path(): under}
		base = l.importer(nil)
		memo := map[string]bool{under.Path(): true}
		reaches = func(path string) bool {
			r, ok := memo[path]
			if !ok {
				if bp, err := l.build(path); err == nil {
					for _, imp := range bp.Imports {
						if r = l.inModule(imp) && reaches(imp); r {
							break
						}
					}
				}
				memo[path] = r
			}
			return r
		}
	}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if !l.inModule(path) {
			return l.std.Import(path)
		}
		if under != nil && !reaches(path) {
			return base.Import(path)
		}
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		bp, err := l.build(path)
		if err != nil {
			return nil, err
		}
		u, err := l.check(path, bp.Dir, bp.GoFiles, imp, false)
		if err != nil {
			return nil, err
		}
		pkgs[path] = u.pkg
		return u.pkg, nil
	}
	return imp
}

func (l *loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// build lists the files and imports of the module package at path.
func (l *loader) build(path string) (*build.Package, error) {
	if bp := l.builds[path]; bp != nil {
		return bp, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	bp, err := build.ImportDir(dir, 0)
	if err == nil {
		l.builds[path] = bp
	}
	return bp, err
}

// finding is one report of a check: where ("file:line") and what.
type finding struct{ at, msg string }

func (f finding) String() string { return f.at + ": " + f.msg }

// run applies c to u and returns its findings.
func run(u *unit, c check) []finding {
	var out []finding
	c(u, func(pos token.Pos, format string, args ...any) {
		p := u.fset.Position(pos)
		out = append(out, finding{fmt.Sprintf("%s:%d", p.Filename, p.Line), fmt.Sprintf(format, args...)})
	})
	return out
}

// modulePackage is one directory of the module that may hold a package.
type modulePackage struct{ dir, path string }

// modulePackages lists the module's directories with their import paths,
// as ./... expands. testdata, hidden and underscore directories are
// skipped, as the go tool skips them.
func (l *loader) modulePackages() ([]modulePackage, error) {
	var out []modulePackage
	err := filepath.WalkDir(l.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, dir)
		path := l.modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		out = append(out, modulePackage{dir, path})
		return nil
	})
	return out, err
}

// TestTreeIsClean runs both checks over every package of the module: each
// directory's package with its in-package tests, and its external test
// package.
func TestTreeIsClean(t *testing.T) {
	l := newLoader(t)
	mps, err := l.modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	packages := 0
	for _, mp := range mps {
		units, err := l.load(mp.dir, mp.path)
		if _, none := err.(*build.NoGoError); none {
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", mp.path, err)
			continue
		}
		packages++
		for _, u := range units {
			for _, c := range []check{cursorClose, lockOrder} {
				for _, f := range run(u, c) {
					t.Error(f)
				}
			}
		}
	}
	if packages == 0 {
		t.Fatal("no package of the module was checked")
	}
	t.Logf("%d packages checked", packages)
}

// TestExpandPatterns pins the walk that stands for ./...: it reaches the
// module root and packages at depth, and no testdata corpus.
func TestExpandPatterns(t *testing.T) {
	l := newLoader(t)
	mps, err := l.modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		l.modPath:                    false,
		l.modPath + "/internal/wire": false,
		l.modPath + "/internal/lint": false,
		l.modPath + "/cmd/mixserve":  false,
	}
	for _, mp := range mps {
		if _, ok := want[mp.path]; ok {
			want[mp.path] = true
		}
		if strings.Contains(mp.path, "/testdata") {
			t.Errorf("walk entered a testdata directory: %s", mp.dir)
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("walk missed %s (got %d directories)", path, len(mps))
		}
	}
}

// TestLoadWirePackage type-checks a real module package with its test files
// and its external test package, and requires the type information the
// checks rely on: method selections resolved in the package's own files.
func TestLoadWirePackage(t *testing.T) {
	l := newLoader(t)
	units, err := l.load(filepath.Join(l.root, "internal", "wire"), l.modPath+"/internal/wire")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("got %d units, want the package and its external test package", len(units))
	}
	if name := units[0].pkg.Name(); name != "wire" {
		t.Errorf("base unit is package %q, want wire", name)
	}
	if name := units[1].pkg.Name(); name != "wire_test" {
		t.Errorf("external unit is package %q, want wire_test", name)
	}
	found := false
	for _, f := range units[0].files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s := units[0].info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					found = true
				}
			}
			return !found
		})
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no method selection resolved; type information unusable")
	}
}

// TestLoadFailureIsError pins what a package that does not type-check does:
// it fails the load. A check over partial type information finds nothing
// and would otherwise pass.
func TestLoadFailureIsError(t *testing.T) {
	_, err := newLoader(t).load("testdata/broken", "corpus/broken")
	if err == nil {
		t.Fatal("testdata/broken type-checked without error")
	}
}

// runCorpus checks the package in dir (its test files included) with c and
// matches the findings against the `// want "regexp"` comments of its
// files: each quoted pattern expects one finding on its line whose message
// it matches, and every finding must be expected.
func runCorpus(t *testing.T, dir string, c check) {
	t.Helper()
	units, err := newLoader(t).load(dir, "corpus/"+filepath.Base(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		wants := map[string][]*regexp.Regexp{} // by "file:line"
		for _, f := range u.files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text, ok := strings.CutPrefix(cm.Text, "// want ")
					if !ok {
						continue
					}
					p := u.fset.Position(cm.Pos())
					at := fmt.Sprintf("%s:%d", p.Filename, p.Line)
					for text = strings.TrimSpace(text); text != ""; text = strings.TrimSpace(text) {
						q, err := strconv.QuotedPrefix(text)
						if err != nil {
							t.Fatalf("%s: malformed want comment: %v", at, err)
						}
						text = text[len(q):]
						s, _ := strconv.Unquote(q)
						wants[at] = append(wants[at], regexp.MustCompile(s))
					}
				}
			}
		}
		for _, f := range run(u, c) {
			rxs := wants[f.at]
			i := 0
			for i < len(rxs) && !rxs[i].MatchString(f.msg) {
				i++
			}
			if i == len(rxs) {
				t.Errorf("unexpected finding: %s", f)
				continue
			}
			wants[f.at] = append(rxs[:i], rxs[i+1:]...)
		}
		for at, rxs := range wants {
			for _, rx := range rxs {
				t.Errorf("%s: no finding matching %q", at, rx)
			}
		}
	}
}
