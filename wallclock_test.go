package immortaldb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClockDirs are the engine's packages: everything that must wait and
// read time through Options.Clock (an itime.Timeline), never the OS clock,
// so that a SimClock governs all of it.
var wallClockDirs = []string{
	".", "internal/wal", "internal/lock", "internal/tsb", "internal/hist",
	"internal/stamp", "internal/buffer", "internal/cow", "internal/repl",
	"internal/server", "internal/client", "internal/admit", "internal/catalog",
	"internal/sqlish", "internal/wire", "internal/storage/...",
}

// wallClockCalls are the time package functions that read or wait on the OS
// clock.
var wallClockCalls = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true,
	"NewTicker": true, "Tick": true, "Now": true, "Since": true, "Until": true,
}

// wallClockAllowed names the functions that must read the OS clock, and why.
var wallClockAllowed = map[string]string{
	"internal/client/client.go:withRetryBudget": "compares a context deadline, which the context package sets on the OS clock",
	"internal/client/client.go:applyDeadline":   "translates a context deadline from the OS clock onto the connection's timeline",
}

// TestEngineReadsNoWallClock parses the engine's non-test sources and fails
// on every call that reads or waits on the OS clock directly.
func TestEngineReadsNoWallClock(t *testing.T) {
	files := goSources(t, wallClockDirs)
	if len(files) < 50 {
		t.Fatalf("found only %d source files: the directory list is stale", len(files))
	}
	var bad []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !wallClockCalls[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != timePkg {
					return true
				}
				if fn != nil {
					if _, ok := wallClockAllowed[path+":"+fn.Name.Name]; ok {
						return true
					}
				}
				bad = append(bad, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
				return true
			})
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s reads the OS clock; wait and read time on Options.Clock instead", b)
	}
}

// goSources lists the non-test Go files under dirs, each a directory or a
// "dir/..." tree. A tree walk skips hidden directories and testdata.
func goSources(t *testing.T, dirs []string) []string {
	t.Helper()
	var files []string
	for _, d := range dirs {
		root, recursive := strings.CutSuffix(d, "/...")
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if path != root && (!recursive || strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// ablationUsers are the only places outside the root package that may set
// Options.Ablation: the paper's experiments and their one command.
var ablationUsers = []string{"internal/repro/", "cmd/benchfig6/"}

// TestAblationsStayFenced parses every non-test source of the module and of
// the benchmark module (bench/) and fails on each mention of Ablation — a
// selector, a field key or the type — outside the root package and
// ablationUsers: the paper's rejected alternatives are not deployment
// settings, so no server, tool, example or benchmark may set one.
func TestAblationsStayFenced(t *testing.T) {
	files := goSources(t, []string{"./..."})
	if len(files) < 80 || !slices.ContainsFunc(files, func(p string) bool { return strings.HasPrefix(filepath.ToSlash(p), "bench/") }) {
		t.Fatalf("found only %d source files, or none under bench/: the walk is broken", len(files))
	}
	var bad []string
	fset := token.NewFileSet()
	for _, path := range files {
		path = filepath.ToSlash(path)
		if !strings.Contains(path, "/") || slices.ContainsFunc(ablationUsers, func(u string) bool { return strings.HasPrefix(path, u) }) {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "Ablation" {
				bad = append(bad, fset.Position(id.Pos()).String())
			}
			return true
		})
	}
	for _, b := range bad {
		t.Errorf("%s: Options.Ablation outside the engine's tests and %v; it is not a production setting", b, ablationUsers)
	}
}
