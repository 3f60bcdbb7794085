package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"a lone span is all self time", []span{{Name: "op", Start: 0, End: 100, Parent: -1}}, []int64{100}},
		{"children are taken out of the parent", []span{
			{Name: "op", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 10, End: 30, Parent: 0},
			{Name: "b", Start: 40, End: 90, Parent: 0},
		}, []int64{30, 20, 50}},
		{"a grandchild comes out of its parent only", []span{
			{Name: "op", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 10, End: 60, Parent: 0},
			{Name: "a.inner", Start: 20, End: 50, Parent: 1},
		}, []int64{50, 20, 30}},
		{"two ops do not mix", []span{
			{Name: "op", Start: 0, End: 10, Parent: -1, Op: 0},
			{Name: "op", Start: 10, End: 30, Parent: -1, Op: 1},
			{Name: "a", Start: 12, End: 17, Parent: 1, Op: 1},
		}, []int64{10, 15, 5}},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: selfTimes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOpSelfSumsByName(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 3},
		{Name: "lower", Start: 10, End: 20, Parent: 0, Op: 3},
		{Name: "lower", Start: 30, End: 50, Parent: 0, Op: 3},
	}
	got := opSelf(spans)[3]
	if got["lower"] != 30 || got["op"] != 70 {
		t.Errorf("opSelf = %v, want lower 30 and op 70", got)
	}
}

// The tracer gives each span the enclosing one as parent, a nil tracer
// records nothing, and the written file is a trace_event document.
func TestTracerAndChromeFile(t *testing.T) {
	var none *tracer
	none.beginOp("op")
	none.begin("x")
	none.end()

	tr := newTracer(time.Now(), 7)
	id := tr.beginOp("op")
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.end()
	tr.end()
	if id != 0 || len(tr.spans) != 3 {
		t.Fatalf("op id %d, %d spans, want 0 and 3", id, len(tr.spans))
	}
	for i, want := range []int32{-1, 0, 1} {
		if tr.spans[i].Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, tr.spans[i].Name, tr.spans[i].Parent, want)
		}
		if tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}

	path, err := writeChromeTrace(t.TempDir(), "unit", []*tracer{tr})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "inner" || doc.TraceEvents[2].Ph != "X" ||
		doc.TraceEvents[2].TID != 7 || doc.TraceEvents[2].Args["parent"] != 1 {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}
