package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The exporter emits the Chrome trace_event "JSON object format": a
// top-level object with a traceEvents array. Cores map to pid 0 (one tid
// per core), the bus to pid 1, and one cycle is rendered as one
// microsecond so Perfetto's zoom levels behave sensibly. Every payload
// field is mirrored into args so ReadChrome can reconstruct the events.

const (
	pidCores = 0
	pidBus   = 1
)

// chromeEvent and chromeTrace are the document's shape: ReadChrome decodes
// into them, and WriteChrome writes their MarshalIndent rendering directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         uint64        `json:"droppedEvents,omitempty"`
}

// WriteChrome writes events, plus metadata naming the processes and the
// core threads that appear in them, to w as a Chrome trace_event JSON
// document. dropped, if non-zero, is recorded in the top-level
// droppedEvents field.
//
// The bytes are json.MarshalIndent's rendering of a chromeTrace with a
// one-space indent, written one event at a time: the exporter holds one
// event's bytes and each distinct op's JSON string, never the document.
func WriteChrome(w io.Writer, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w) // keeps the first write error for Flush
	bw.WriteString("{\n \"traceEvents\": [")
	var line []byte // the element being written
	sep := "\n"
	emit := func() {
		bw.WriteString(sep)
		bw.Write(line)
		sep = ",\n"
	}
	meta := func(pid, tid int, key, name string) {
		line = append(line[:0], "  {\n   \"name\": \""...)
		line = append(line, key...)
		line = append(line, "\",\n   \"ph\": \"M\",\n   \"ts\": 0,\n   \"pid\": "...)
		line = strconv.AppendInt(line, int64(pid), 10)
		line = append(line, ",\n   \"tid\": "...)
		line = strconv.AppendInt(line, int64(tid), 10)
		line = append(line, ",\n   \"args\": {\n    \"name\": \""...)
		line = append(line, name...)
		line = append(line, "\"\n   }\n  }"...)
		emit()
	}
	meta(pidCores, 0, "process_name", "cores")
	meta(pidBus, 0, "process_name", "bus")
	seen := map[int]bool{}
	for _, e := range events {
		if e.Kind == KindBusGrant || seen[e.Core] {
			continue
		}
		seen[e.Core] = true
		meta(pidCores, e.Core, "thread_name", "core "+strconv.Itoa(e.Core))
	}
	quoted := map[string][]byte{} // op -> its JSON string
	for _, e := range events {
		op, ok := quoted[e.Op]
		if !ok {
			op, _ = json.Marshal(e.Op) // a string always marshals
			quoted[e.Op] = op
		}
		line = append(line[:0], "  {\n   \"name\": "...)
		if e.Kind == KindStall { // "stall:" needs no escaping
			line = append(line, `"stall:`...)
			line = append(line, op[1:]...)
		} else {
			line = append(line, op...)
		}
		line = append(line, ",\n   \"cat\": \""...)
		line = append(line, e.Kind.String()...)
		line = append(line, "\",\n   \"ph\": \"X\",\n   \"ts\": "...)
		line = strconv.AppendUint(line, e.Cycle, 10)
		line = append(line, ",\n   \"dur\": "...)
		line = strconv.AppendUint(line, max(e.Dur, 1), 10)
		pid := pidCores
		if e.Kind == KindBusGrant {
			pid = pidBus
		}
		line = append(line, ",\n   \"pid\": "...)
		line = strconv.AppendInt(line, int64(pid), 10)
		line = append(line, ",\n   \"tid\": "...)
		line = strconv.AppendInt(line, int64(e.Core), 10)
		line = append(line, ",\n   \"args\": {\n    \"cycle\": "...)
		line = strconv.AppendUint(line, e.Cycle, 10)
		line = append(line, ",\n    \"op\": "...)
		line = append(line, op...)
		if e.PC >= 0 {
			line = append(line, ",\n    \"pc\": "...)
			line = strconv.AppendInt(line, int64(e.PC), 10)
		}
		if e.Q >= 0 {
			line = append(line, ",\n    \"q\": "...)
			line = strconv.AppendInt(line, int64(e.Q), 10)
		}
		if e.Val != 0 {
			line = append(line, ",\n    \"val\": "...)
			line = strconv.AppendUint(line, e.Val, 10)
		}
		line = append(line, "\n   }\n  }"...)
		emit()
	}
	bw.WriteString("\n ],\n \"displayTimeUnit\": \"ms\"")
	if dropped != 0 {
		bw.WriteString(",\n \"droppedEvents\": ")
		bw.Write(strconv.AppendUint(line[:0], dropped, 10))
	}
	bw.WriteString("\n}")
	return bw.Flush()
}

// ReadChrome parses a document produced by WriteChrome back into events
// (metadata records are skipped). It exists so tests and tools can
// round-trip traces without a browser.
func ReadChrome(data []byte) ([]Event, uint64, error) {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, 0, fmt.Errorf("trace: bad chrome document: %w", err)
	}
	var out []Event
	for _, ce := range doc.TraceEvents {
		if ce.Ph != "X" {
			continue
		}
		kind, ok := KindFromString(ce.Cat)
		if !ok {
			return nil, 0, fmt.Errorf("trace: unknown event category %q", ce.Cat)
		}
		e := Event{Cycle: ce.Ts, Kind: kind, Core: ce.Tid, PC: -1, Q: -1}
		if ce.Dur > 1 || kind == KindStall {
			e.Dur = ce.Dur
		}
		if op, ok := ce.Args["op"].(string); ok {
			e.Op = op
		}
		if pc, ok := ce.Args["pc"].(float64); ok {
			e.PC = int(pc)
		}
		if q, ok := ce.Args["q"].(float64); ok {
			e.Q = int(q)
		}
		if v, ok := ce.Args["val"].(float64); ok {
			e.Val = uint64(v)
		}
		out = append(out, e)
	}
	return out, doc.Dropped, nil
}
