package immortaldb_test

import (
	"bufio"
	"os"
	"sort"
	"strings"
	"testing"

	"immortaldb/internal/obs"
	// Registered for their metrics: every package that registers one is
	// linked in, so the map covers the whole registry.
	_ "immortaldb/internal/repl"
	_ "immortaldb/internal/server"
)

const (
	metricMapBegin = "<!-- metric map: generated from the obs registry by TestMetricMap; on drift it prints the table to paste here -->\n"
	metricMapEnd   = "<!-- end of metric map -->\n"
)

// TestMetricMap renders every registered metric with its type and help text
// and fails if DESIGN.md's metric map says anything else.
func TestMetricMap(t *testing.T) {
	var prom strings.Builder
	obs.WriteMetrics(&prom)
	help := map[string]string{}
	var rows []string
	sc := bufio.NewScanner(strings.NewReader(prom.String()))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = strings.ReplaceAll(text, "|", `\|`)
		} else if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			rows = append(rows, "| `"+name+"` | "+kind+" | "+help[name]+" |\n")
		}
	}
	if len(rows) < 50 {
		t.Fatalf("registry lists only %d metrics: a registering package is not linked in", len(rows))
	}
	sort.Strings(rows)
	want := metricMapBegin + "\n| metric | type | meaning |\n|---|---|---|\n" + strings.Join(rows, "") + "\n" + metricMapEnd

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	i, j := strings.Index(doc, metricMapBegin), strings.Index(doc, metricMapEnd)
	if i < 0 || j < i {
		t.Fatal("DESIGN.md has no generated metric map")
	}
	if got := doc[i : j+len(metricMapEnd)]; got != want {
		t.Errorf("DESIGN.md's metric map has drifted from the registry; replace it with:\n%s", want)
	}
}
