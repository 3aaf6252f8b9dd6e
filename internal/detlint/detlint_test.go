package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// This file is an analysistest-style golden harness: every package under
// testdata/src/<analyzer>/ is type-checked and run through its analyzer,
// and `// want "regex"` comments must match the produced diagnostics
// line-for-line — unexpected findings and unmatched expectations both
// fail. (golang.org/x/tools/go/analysis/analysistest itself is
// unavailable in the offline build container.)

func TestMapRangeGolden(t *testing.T)   { runGolden(t, MapRange, "maprange") }
func TestWallTimeGolden(t *testing.T)   { runGolden(t, WallTime, "walltime") }
func TestGlobalRandGolden(t *testing.T) { runGolden(t, GlobalRand, "globalrand") }
func TestFloatRangeGolden(t *testing.T) { runGolden(t, FloatRange, "floatrange") }

func TestHotAllocGolden(t *testing.T)       { runGolden(t, HotAlloc, "hotalloc") }
func TestGoroutineWriteGolden(t *testing.T) { runGolden(t, GoroutineWrite, "goroutinewrite") }

// TestWallTimeMainExempt pins the package-main exemption: the same calls
// that fail in a library package are legal in a main.
func TestWallTimeMainExempt(t *testing.T) {
	diags := analyze(t, WallTime, filepath.Join("testdata", "src", "walltime_main"))
	if len(diags) != 0 {
		t.Fatalf("walltime flagged package main: %v", diags)
	}
}

func runGolden(t *testing.T, a *Analyzer, dir string) {
	pkgdir := filepath.Join("testdata", "src", dir)
	diags := analyze(t, a, pkgdir)

	wants, err := collectWants(pkgdir)
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[*want]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !matched[w] && w.re.MatchString(d.Message) {
				matched[w] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("no diagnostic at %s matching %q", key, w.re)
			}
		}
	}
}

// analyze type-checks one testdata package (std-library imports only)
// and runs a single analyzer over it.
func analyze(t *testing.T, a *Analyzer, pkgdir string) []Diagnostic {
	t.Helper()
	filenames, err := goFilesIn(pkgdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(filenames) == 0 {
		t.Fatalf("no Go files in %s", pkgdir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkgdir, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", pkgdir, err)
	}
	pkg := &Package{
		Path:  pkgdir,
		Dir:   pkgdir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Annot: IndexAnnotations(fset, files),
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

type want struct {
	re *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants scans a package directory for `// want "regex"` comments,
// keyed by "file.go:line". Multiple quoted regexes on one line expect
// multiple diagnostics.
func collectWants(pkgdir string) (map[string][]*want, error) {
	filenames, err := goFilesIn(pkgdir)
	if err != nil {
		return nil, err
	}
	wants := make(map[string][]*want)
	fset := token.NewFileSet()
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					expr := arg[1]
					if expr == "" {
						expr = strings.ReplaceAll(arg[2], `\"`, `"`)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regex %q: %v", key, expr, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants, nil
}
