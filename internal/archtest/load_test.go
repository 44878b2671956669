// Package archtest holds the repository's architecture rules as one Go test:
// the one-path-per-job guards, the doc-comment rule, the rule that every
// product name has a product caller, and the check that CI's -run patterns
// still name tests. It parses and type-checks the module's non-test sources
// with the standard library alone; test files are parsed, not type-checked.
package archtest

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the parsed and type-checked module.
type module struct {
	root   string // absolute directory holding go.mod
	path   string // module path, from go.mod
	fset   *token.FileSet
	pkgs   []*pkg          // sorted by dir
	byPath map[string]*pkg // by import path
	info   *types.Info     // shared by every non-test file
	std    types.ImporterFrom
}

// pkg is one directory's package.
type pkg struct {
	path     string // import path, e.g. hps/internal/memps
	dir      string // module-relative, slash-separated, e.g. internal/memps
	files    []*file
	tests    []*file // every _test.go file, whatever its build tags
	types    *types.Package
	checking bool
}

// file is one parsed source file.
type file struct {
	name    string // module-relative, slash-separated
	ast     *ast.File
	pkg     *pkg
	test    bool
	imports map[string]string // local name -> import path
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// load parses and type-checks the module once per test binary.
func load(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = loadModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func loadModule() (*module, error) {
	root, modPath, err := findModule()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{
		root:   root,
		path:   modPath,
		fset:   fset,
		byPath: map[string]*pkg{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return m.parseDir(dir)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].dir < m.pkgs[j].dir })
	for _, p := range m.pkgs {
		if len(p.files) == 0 {
			continue
		}
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// findModule walks up from the working directory to go.mod.
func findModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		f, err := os.Open(filepath.Join(dir, "go.mod"))
		if err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod names no module", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// parseDir parses the package in dir, if it has one: the non-test files the
// default build context selects, and every _test.go file.
func (m *module) parseDir(dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	p := &pkg{path: m.path + "/" + rel, dir: rel}
	if rel == "." {
		p.path, p.dir = m.path, ""
	}
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, name := range bp.GoFiles {
		f, err := m.parseFile(p, filepath.Join(dir, name), false)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	for _, name := range tests {
		f, err := m.parseFile(p, name, true)
		if err != nil {
			return err
		}
		p.tests = append(p.tests, f)
	}
	if len(p.files)+len(p.tests) == 0 {
		return nil
	}
	m.pkgs = append(m.pkgs, p)
	m.byPath[p.path] = p
	return nil
}

func (m *module) parseFile(p *pkg, name string, test bool) (*file, error) {
	a, err := parser.ParseFile(m.fset, name, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.root, name)
	if err != nil {
		return nil, err
	}
	f := &file{name: filepath.ToSlash(rel), ast: a, pkg: p, test: test, imports: map[string]string{}}
	for _, imp := range a.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		f.imports[local] = path
	}
	return f, nil
}

// check type-checks p's non-test files, importing module packages from
// source through m and the standard library through the source importer.
func (m *module) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	var errs []error
	conf := types.Config{Importer: m, Error: func(err error) { errs = append(errs, err) }}
	files := make([]*ast.File, len(p.files))
	for i, f := range p.files {
		files[i] = f.ast
	}
	tp, _ := conf.Check(p.path, m.fset, files, m.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", p.path, errors.Join(errs...))
	}
	p.types = tp
	return tp, nil
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.byPath[path]; p != nil {
		return m.check(p)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// under reports whether p's directory is dir or below it.
func (p *pkg) under(dir string) bool {
	return p.dir == dir || strings.HasPrefix(p.dir, dir+"/")
}

// product reports whether p is product code: under internal/ or cmd/.
func (p *pkg) product() bool { return p.under("internal") || p.under("cmd") }

// sources returns the non-test files of the packages keep selects, with the
// test files too when tests is set.
func (m *module) sources(tests bool, keep func(*pkg) bool) []*file {
	var out []*file
	for _, p := range m.pkgs {
		if !keep(p) {
			continue
		}
		out = append(out, p.files...)
		if tests {
			out = append(out, p.tests...)
		}
	}
	return out
}

// where prints pos as a module-relative file:line.
func (m *module) where(pos token.Pos) string {
	p := m.fset.Position(pos)
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// qualified resolves id to the import path of the package that declares what
// it names, or "" for a local name. Non-test files answer from the type
// checker. Test files answer by syntax: a selector on an imported package
// name gives that package, any other selector nothing, and any other
// identifier in an in-package test file is taken to be the package's own.
func (m *module) qualified(f *file, sels map[*ast.Ident]string, id *ast.Ident) string {
	if !f.test {
		obj := m.info.Uses[id]
		if obj == nil {
			obj = m.info.Defs[id]
		}
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		return obj.Pkg().Path()
	}
	if path, ok := sels[id]; ok {
		return path
	}
	if f.inPackage() {
		return f.pkg.path
	}
	return ""
}

// inPackage reports whether f belongs to its directory's package itself,
// not to an external _test package.
func (f *file) inPackage() bool { return !strings.HasSuffix(f.ast.Name.Name, "_test") }

// selectorPaths maps each selector's Sel in f to the import path of the
// package its X names, or to "" when X is not an imported package name.
func selectorPaths(f *file) map[*ast.Ident]string {
	out := map[*ast.Ident]string{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			out[s.Sel] = ""
			if x, ok := s.X.(*ast.Ident); ok && x.Obj == nil {
				out[s.Sel] = f.imports[x.Name]
			}
		}
		return true
	})
	return out
}
