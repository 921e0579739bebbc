// Command introvet is the repo's determinism linter: a small
// go/analysis-style multichecker over the packages whose output is
// promised to be bit-reproducible (the solver and everything its
// results flow through). Three checks:
//
//   - rangemap: a `for range` over a map. Go randomizes map iteration
//     order, so any result-affecting traversal must either sort what
//     it collects or be provably order-independent — and must say so
//     with an annotation (below).
//   - walltime: a call to time.Now or time.Since. Wall-clock reads
//     are fine for reporting elapsed time but must never feed a
//     result; each use is annotated with why it is benign.
//   - rand: any import of math/rand or math/rand/v2. There is no
//     deterministic use of a global-seeded generator in a solver;
//     none is allowed at all.
//
// A finding is suppressed by an annotation comment on the offending
// line or the line directly above it:
//
//	//introvet:allow <reason>
//
// The reason is mandatory: an allow without one is itself reported.
// The annotations are the point — `introvet` turns "we promise the
// solver is deterministic" into a checked inventory of every place
// that promise depends on a human argument.
//
// Usage:
//
//	introvet [pkg-dir ...]    # default: the determinism-critical set
//
// Packages are typechecked leniently: stdlib imports resolve for
// real; in-repo imports are faked, which leaves identifiers from
// other packages untyped. Locally declared map types — the only kind
// a package can range over in its own result paths — always resolve,
// so the rangemap check does not lose findings to the fake imports.
// Test files are skipped: tests may sort, shuffle and time freely.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultPackages is the determinism-critical set: the solver, the
// bitset layer under it, the cut-shortcut strategy that edits the
// constraint graph before solving, and the selection layer, whose
// decision log is cached and sent on the wire.
var defaultPackages = []string{
	"internal/pta",
	"internal/bits",
	"internal/cutshortcut",
	"internal/introspect",
	"internal/analysis",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("introvet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root := fs.String("root", ".", "repository root the default package dirs are relative to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		for _, p := range defaultPackages {
			dirs = append(dirs, filepath.Join(*root, p))
		}
	}

	var findings []finding
	for _, dir := range dirs {
		fl, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(errOut, "introvet:", err)
			return 2
		}
		findings = append(findings, fl...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].msg < findings[j].msg
	})
	for _, f := range findings {
		fmt.Fprintf(out, "%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "introvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

type finding struct {
	pos token.Position
	msg string
}

// checkDir parses, typechecks and checks one package directory.
func checkDir(dir string) ([]finding, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}

	// Lenient typecheck: type errors from faked in-repo imports are
	// expected and ignored; the Info survives for everything that did
	// resolve, which includes every locally declared map type.
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: lenientImporter{fset: fset},
		Error:    func(error) {},
	}
	conf.Check(dir, fset, files, info) // error deliberately dropped

	var findings []finding
	for _, f := range files {
		allowed, reasonless := allowLines(fset, f)
		findings = append(findings, reasonless...)
		report := func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			if allowed[p.Line] || allowed[p.Line-1] {
				return
			}
			findings = append(findings, finding{pos: p, msg: msg})
		}
		checkFile(f, info, report)
	}
	return findings, nil
}

// allowLines collects the lines carrying an //introvet:allow
// annotation (with a reason) and reports annotations missing one.
func allowLines(fset *token.FileSet, f *ast.File) (map[int]bool, []finding) {
	allowed := map[int]bool{}
	var reasonless []finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//introvet:allow")
			if !ok {
				continue
			}
			p := fset.Position(c.Pos())
			if strings.TrimSpace(rest) == "" {
				reasonless = append(reasonless, finding{pos: p,
					msg: "introvet:allow without a reason; state why this use is deterministic"})
				continue
			}
			allowed[p.Line] = true
		}
	}
	return allowed, reasonless
}

// checkFile walks one file and reports rangemap, walltime and rand
// findings through report.
func checkFile(f *ast.File, info *types.Info, report func(token.Pos, string)) {
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil {
			if path == "math/rand" || path == "math/rand/v2" {
				report(imp.Pos(), fmt.Sprintf("import of %s: no randomness in a deterministic solver", path))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					report(n.For, "range over map: iteration order is randomized; sort, or annotate why order cannot affect results")
				}
			}
		case *ast.SelectorExpr:
			if isTimeClock(n, info) {
				report(n.Pos(), fmt.Sprintf("call of time.%s: wall-clock reads must not feed results; annotate why this one is benign", n.Sel.Name))
			}
		}
		return true
	})
}

// isTimeClock reports whether sel is time.Now or time.Since, resolved
// through the typechecker when possible and falling back to the
// unaliased import syntactically.
func isTimeClock(sel *ast.SelectorExpr, info *types.Info) bool {
	if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := info.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == "time"
	}
	return id.Name == "time"
}

// lenientImporter resolves stdlib imports for real (their types make
// the checks sharper — notably time's) and fakes everything else with
// an empty package, so in-repo dependencies don't need compiling.
type lenientImporter struct {
	fset *token.FileSet
}

func (l lenientImporter) Import(path string) (*types.Package, error) {
	if pkg, err := importer.ForCompiler(l.fset, "gc", nil).Import(path); err == nil {
		return pkg, nil
	}
	pkg := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	pkg.MarkComplete()
	return pkg, nil
}
