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

// engineDirs are the engine's packages: everything that must wait and read
// time through Options.Clock (an itime.Timeline), never the OS clock, so that
// a SimClock governs all of it; and that must read and write files through
// Options.FS (a vfs.FS), never the os package, so that a SimFS holds all of it.
var engineDirs = []string{
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
	for _, b := range forbiddenSelectors(t, engineSources(t), "time", wallClockCalls, wallClockAllowed) {
		t.Errorf("%s reads the OS clock; wait and read time on Options.Clock instead", b)
	}
}

// osFileCalls are the os package functions that open, create, list, inspect,
// resize or remove files and directories.
var osFileCalls = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "Remove": true,
	"RemoveAll": true, "Rename": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "ReadDir": true, "ReadFile": true, "WriteFile": true,
	"Stat": true, "Truncate": true,
}

// TestEngineTouchesNoOSFiles parses the engine's non-test sources outside
// internal/storage/vfs, the one package that implements the real disk, and
// fails on every os file call: everything else reaches files through
// Options.FS, so that a simulated disk sees every byte.
func TestEngineTouchesNoOSFiles(t *testing.T) {
	files := slices.DeleteFunc(engineSources(t), func(p string) bool {
		return strings.HasPrefix(filepath.ToSlash(p), "internal/storage/vfs/")
	})
	for _, b := range forbiddenSelectors(t, files, "os", osFileCalls, nil) {
		t.Errorf("%s touches the OS disk; go through Options.FS (a vfs.FS) instead", b)
	}
}

// engineSources lists the non-test sources under engineDirs.
func engineSources(t *testing.T) []string {
	t.Helper()
	files := goSources(t, engineDirs)
	if len(files) < 50 {
		t.Fatalf("found only %d source files: the directory list is stale", len(files))
	}
	return files
}

// forbiddenSelectors parses files and returns, sorted, every use of
// pkg.Name with names[Name] set, where pkg is the name a file imports
// importPath under. Uses inside a function that allowed lists as
// "path:function" are skipped.
func forbiddenSelectors(t *testing.T, files []string, importPath string, names map[string]bool, allowed map[string]string) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
				pkg = importPath
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !names[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
					return true
				}
				if fn != nil {
					if _, ok := allowed[path+":"+fn.Name.Name]; ok {
						return true
					}
				}
				bad = append(bad, fset.Position(sel.Pos()).String()+": "+importPath+"."+sel.Sel.Name)
				return true
			})
		}
	}
	sort.Strings(bad)
	return bad
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
