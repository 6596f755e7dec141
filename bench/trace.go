package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one recorded interval: a root span per operation, child spans
// around each public call the operation makes. Times are nanoseconds since
// the tracer was created. Parent is an index into the tracer's span slice,
// or -1 for a root.
type span struct {
	Name   int
	Op     int
	Parent int
	Start  int64
	End    int64
}

// tracer records spans in memory from the benchmark's own code, around the
// calls into each layer. It is used by one goroutine at a time: the traced
// pass runs a single client. While off, begin and end cost one branch each,
// so the measured window runs the same code with tracing off.
type tracer struct {
	on    bool
	t0    time.Time
	names []string
	// Spans are kept in fixed-size chunks: growing one slice would copy
	// tens of megabytes at a time in the middle of the traced pass.
	chunks [][]span
	n      int
	ops    int
	root   int // index of the open root span, -1 when none
}

const spanChunk = 1 << 15

func (t *tracer) push(s span) int {
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, s)
	t.n++
	return t.n - 1
}

func (t *tracer) at(i int) *span { return &t.chunks[i/spanChunk][i%spanChunk] }

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// name registers a span name and returns its id.
func (t *tracer) name(s string) int {
	for i, n := range t.names {
		if n == s {
			return i
		}
	}
	t.names = append(t.names, s)
	return len(t.names) - 1
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of one operation.
func (t *tracer) beginOp(name int) {
	if !t.on {
		return
	}
	t.ops++
	t.root = t.push(span{Name: name, Op: t.ops, Parent: -1, Start: t.now()})
}

func (t *tracer) endOp() {
	if !t.on {
		return
	}
	t.at(t.root).End = t.now()
	t.root = -1
}

// begin opens a child of the current operation's root span and returns its
// index for end; -1 while tracing is off.
func (t *tracer) begin(name int) int {
	if !t.on {
		return -1
	}
	return t.push(span{Name: name, Op: t.ops, Parent: t.root, Start: t.now()})
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.at(i).End = t.now()
	}
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover. Children may overlap each other and may stick out of the
// parent; only their union inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = parent.Start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		if x[0] > reach {
			reach = x[0]
		}
		covered += x[1] - reach
		reach = x[1]
	}
	return parent.End - parent.Start - covered
}

// spanSummary is what the traced pass reports for one span name: how many
// were recorded and their median duration; for a root span also the median
// self time, which is the harness's own overhead inside the operation.
type spanSummary struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	MedianUs float64 `json:"median_us"`
	SelfUs   float64 `json:"self_median_us,omitempty"`
}

// summariseSpans groups the recorded spans by name. Children always follow
// their root in the slice, which is how the per-root child lists are built.
func (t *tracer) summariseSpans() []spanSummary {
	durs := make([][]int64, len(t.names))
	selfs := make([][]int64, len(t.names))
	var children []span
	for i := 0; i < t.n; {
		root := *t.at(i)
		children = children[:0]
		j := i + 1
		for ; j < t.n && t.at(j).Parent == i; j++ {
			c := *t.at(j)
			durs[c.Name] = append(durs[c.Name], c.End-c.Start)
			children = append(children, c)
		}
		durs[root.Name] = append(durs[root.Name], root.End-root.Start)
		selfs[root.Name] = append(selfs[root.Name], selfTime(root, children))
		i = j
	}
	var out []spanSummary
	for id, name := range t.names {
		if len(durs[id]) == 0 {
			continue
		}
		s := spanSummary{Name: name, N: len(durs[id]), MedianUs: summarise(durs[id]).P50us}
		if len(selfs[id]) > 0 {
			s.SelfUs = summarise(selfs[id]).P50us
		}
		out = append(out, s)
	}
	return out
}

// traceFileOpsPerName caps how many operations per root span name go into
// the trace file. Every span stays in memory for the summaries; the file is
// for reading individual operations, and a full pass would be hundreds of
// megabytes of JSON.
const traceFileOpsPerName = 500

type traceFileSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceFile struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Note     string          `json:"note"`
	Summary  []spanSummary   `json:"summary"`
	Spans    []traceFileSpan `json:"spans"`
}

// write stores the trace as JSON: summary, which covers every recorded span,
// and the first traceFileOpsPerName operations of each rung span by span.
func (t *tracer) write(path, workload string, seed int64, summary []spanSummary) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     "times are ns since the traced pass began; parent and id index this file's spans; summary covers every recorded span, spans the first operations of each rung",
		Summary:  summary,
	}
	kept := make([]int, len(t.names))
	for i := 0; i < t.n; {
		j := i + 1
		for j < t.n && t.at(j).Parent == i {
			j++
		}
		if root := t.at(i); kept[root.Name] < traceFileOpsPerName {
			kept[root.Name]++
			rootID := len(tf.Spans)
			for k := i; k < j; k++ {
				s := t.at(k)
				parent := -1
				if k > i {
					parent = rootID
				}
				tf.Spans = append(tf.Spans, traceFileSpan{
					ID: len(tf.Spans), Parent: parent, Op: s.Op,
					Name: t.names[s.Name], StartNs: s.Start, EndNs: s.End,
				})
			}
		}
		i = j
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
