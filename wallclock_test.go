package immortaldb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	files := goSources(t, engineDirs, false)
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

// goSources lists the Go files under dirs, each a directory or a "dir/..."
// tree: the test files if tests is set, else the non-test files. A tree walk
// skips hidden directories and testdata.
func goSources(t *testing.T, dirs []string, tests bool) []string {
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
			if strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == tests {
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

// docCodeSpan is a Markdown inline code span; docTestName is a test,
// fuzz-target or benchmark function name, or a name prefix ending in "*".
var (
	docCodeSpan = regexp.MustCompile("`([^`]+)`")
	docTestName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)\w*\*?$`)
)

// TestDocsNameRealCode reads DESIGN.md and README.md and fails on each inline
// code span that names code which does not exist: an internal/… or cmd/…
// path or a *.go file (a bare file name is a root file), or a Test, Fuzz or
// Benchmark function name (or "Prefix*") that no test file of the module or
// of bench/ declares.
func TestDocsNameRealCode(t *testing.T) {
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range goSources(t, []string{"./..."}, true) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
	}
	if !funcs["TestDocsNameRealCode"] {
		t.Fatal("the test-file walk did not find this test: it is broken")
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank out fenced code blocks, keeping their lines for numbering.
		lines := strings.Split(string(b), "\n")
		fenced := false
		for i, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				lines[i] = ""
			} else if fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range docCodeSpan.FindAllStringSubmatchIndex(text, -1) {
			fields := strings.Fields(text[m[2]:m[3]])
			if len(fields) == 0 {
				continue
			}
			ref, _, _ := strings.Cut(strings.TrimPrefix(fields[0], "./"), ":") // drop a :line suffix
			name, _, _ := strings.Cut(ref, "/")                                // drop a /subtest suffix
			var missing bool
			switch {
			case docTestName.MatchString(name):
				missing = !declares(funcs, name)
			case strings.HasPrefix(ref, "internal/") || strings.HasPrefix(ref, "cmd/") || strings.HasSuffix(ref, ".go"):
				_, err := os.Stat(strings.TrimRight(ref, "./*")) // internal/... and cmd/* name their root
				missing = err != nil
			}
			if missing {
				t.Errorf("%s:%d: `%s` names no file, package or test function", doc, strings.Count(text[:m[0]], "\n")+1, text[m[2]:m[3]])
			}
		}
	}
}

// declares reports whether funcs holds name, or for "Prefix*" a name with
// that prefix.
func declares(funcs map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// ablationUsers is the only place outside the root package that may set
// Options.Ablation: the paper's experiments, whose command (cmd/benchpaper)
// chooses among them without naming a field.
var ablationUsers = []string{"internal/repro/"}

// TestAblationsStayFenced parses every non-test source of the module and of
// the benchmark module (bench/) and fails on each mention of Ablation — a
// selector, a field key or the type — outside the root package and
// ablationUsers: the paper's rejected alternatives are not deployment
// settings, so no server, tool, example or benchmark may set one.
func TestAblationsStayFenced(t *testing.T) {
	files := goSources(t, []string{"./..."}, false)
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
