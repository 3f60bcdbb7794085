package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call from the harness into a layer's public
// function. Spans are recorded from the benchmark's own files only, kept
// in memory, and written out when the run ends.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's origin
	End    int64
	Parent int32 // index of the enclosing span, -1 for an op's root
	Op     int32 // op identifier shared by every span of one op
}

// tracer records the spans of one goroutine: ops there run one after
// another, so a stack gives each span its parent. A nil tracer records
// nothing, which is how untraced runs share the traced code path.
type tracer struct {
	origin time.Time
	tid    int
	spans  []span
	stack  []int32
	op     int32
}

func newTracer(origin time.Time, tid int) *tracer {
	return &tracer{origin: origin, tid: tid, spans: make([]span, 0, 1<<14), op: -1}
}

// beginOp opens the root span of a new op and returns the op identifier.
func (t *tracer) beginOp(name string) int32 {
	if t == nil {
		return -1
	}
	t.op++
	t.stack = t.stack[:0]
	t.begin(name)
	return t.op
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: t.op})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.origin))
}

// selfTimes returns each span's duration minus the part its direct
// children cover. Children of one parent never overlap here (one
// goroutine, one stack), so the covered part is the sum of their
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// opSelf sums self time per (op, span name): the time an op spent in a
// layer, wherever in the op the calls were.
func opSelf(spans []span) map[int32]map[string]int64 {
	self := selfTimes(spans)
	out := make(map[int32]map[string]int64)
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]int64)
			out[s.Op] = m
		}
		m[s.Name] += self[i]
	}
	return out
}

// maxTraceEvents caps one trace file; a serve_hot run records far more
// spans than a viewer needs, and the metrics use the in-memory spans.
const maxTraceEvents = 40000

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the tracers' spans as a Chrome trace_event
// document (load it in about:tracing or Perfetto) and returns the path.
func writeChromeTrace(dir, workload string, tracers []*tracer) (string, error) {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int           `json:"spine_dropped_spans"`
	}{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, t := range tracers {
		for i, s := range t.spans {
			if i >= maxTraceEvents/len(tracers) { // each lane keeps its earliest spans
				doc.Dropped += len(t.spans) - i
				break
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: s.Name, Cat: "spine", Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: 1, TID: t.tid,
				Args: map[string]int{"op": int(s.Op), "span": i, "parent": int(s.Parent)},
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
