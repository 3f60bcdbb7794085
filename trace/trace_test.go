package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"unsafe"
)

// A ring of capacity k fed n events holds the last min(n, k) of them,
// oldest first, and counts the rest as dropped. This is what lets a test
// derive any smaller ring's contents from one whole-run recording.
func TestBufferKeepsLatest(t *testing.T) {
	for _, row := range []struct{ n, k int }{
		{3, 4},   // n < k
		{4, 4},   // n = k
		{5, 4},   // n = k+1
		{100, 7}, // n >> k: the ring wraps many times
		{6, 1},   // k = 1
	} {
		b := NewBuffer(row.k)
		var fed []Event
		for i := 1; i <= row.n; i++ {
			e := Event{Cycle: uint64(i), Kind: KindIssue, PC: i, Q: -1, Op: "add"}
			fed = append(fed, e)
			b.Add(e)
		}
		kept := min(row.n, row.k)
		if b.Cap() != row.k || b.Len() != kept {
			t.Errorf("n=%d k=%d: cap %d, len %d, want %d, %d", row.n, row.k, b.Cap(), b.Len(), row.k, kept)
		}
		if got, want := b.Events(), fed[row.n-kept:]; !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d k=%d: events are not the last %d fed, oldest first\n got %+v\nwant %+v", row.n, row.k, kept, got, want)
		}
		if want := uint64(max(0, row.n-row.k)); b.Dropped() != want {
			t.Errorf("n=%d k=%d: dropped %d, want %d", row.n, row.k, b.Dropped(), want)
		}
	}
}

func TestBufferDefaultCap(t *testing.T) {
	if got := NewBuffer(0).Cap(); got != DefaultCap {
		t.Errorf("cap = %d, want %d", got, DefaultCap)
	}
	if got := NewBuffer(-5).Cap(); got != DefaultCap {
		t.Errorf("cap = %d, want %d", got, DefaultCap)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 1, Kind: KindIssue, Core: 0, PC: 0, Q: -1, Op: "movi"},
		{Cycle: 2, Kind: KindQueueOp, Core: 0, PC: 1, Q: 3, Op: "produce", Val: 41},
		{Cycle: 2, Kind: KindBusGrant, Core: 1, PC: -1, Q: -1, Op: "BusRdX", Val: 0x1040},
		{Cycle: 3, Dur: 7, Kind: KindStall, Core: 1, PC: 2, Q: -1, Op: "queue-empty"},
		{Cycle: 9, Kind: KindRetire, Core: 1, PC: -1, Q: -1, Op: "writeback", Val: 41},
	}
	var out bytes.Buffer
	if err := WriteChrome(&out, events, 5); err != nil {
		t.Fatal(err)
	}
	buf := out.Bytes()

	// The document must be the Chrome "JSON object format": a top-level
	// object whose traceEvents entries all carry ph and a dur >= 1 for
	// complete events.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Dropped     uint64           `json:"droppedEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Dropped != 5 {
		t.Errorf("droppedEvents = %d, want 5", doc.Dropped)
	}
	var complete int
	for _, ce := range doc.TraceEvents {
		ph, _ := ce["ph"].(string)
		switch ph {
		case "M":
			continue
		case "X":
			complete++
			if dur, _ := ce["dur"].(float64); dur < 1 {
				t.Errorf("complete event %v has dur < 1", ce)
			}
		default:
			t.Errorf("unexpected phase %q in %v", ph, ce)
		}
	}
	if complete != len(events) {
		t.Errorf("%d complete events in JSON, want %d", complete, len(events))
	}

	got, dropped, err := ReadChrome(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 5 {
		t.Errorf("ReadChrome dropped = %d, want 5", dropped)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

// referenceChrome is the exporter as it was first written: build every
// event as a chromeEvent with an args map, then marshal and indent the
// whole document. WriteChrome must produce its bytes exactly.
func referenceChrome(events []Event, dropped uint64) ([]byte, error) {
	doc := chromeTrace{DisplayTimeUnit: "ms", Dropped: dropped}
	seen := map[int]bool{}
	meta := func(pid, tid int, key, name string) chromeEvent {
		return chromeEvent{
			Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		}
	}
	doc.TraceEvents = append(doc.TraceEvents,
		meta(pidCores, 0, "process_name", "cores"),
		meta(pidBus, 0, "process_name", "bus"))
	for _, e := range events {
		if e.Kind == KindBusGrant || seen[e.Core] {
			continue
		}
		seen[e.Core] = true
		doc.TraceEvents = append(doc.TraceEvents,
			meta(pidCores, e.Core, "thread_name", fmt.Sprintf("core %d", e.Core)))
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Op, Cat: e.Kind.String(), Ph: "X", Ts: e.Cycle, Dur: e.Dur,
			Pid: pidCores, Tid: e.Core, Args: map[string]any{"cycle": e.Cycle},
		}
		if ce.Dur == 0 {
			ce.Dur = 1
		}
		if e.Kind == KindBusGrant {
			ce.Pid = pidBus
		}
		if e.Kind == KindStall {
			ce.Name = "stall:" + e.Op
		}
		ce.Args["op"] = e.Op
		if e.PC >= 0 {
			ce.Args["pc"] = e.PC
		}
		if e.Q >= 0 {
			ce.Args["q"] = e.Q
		}
		if e.Val != 0 {
			ce.Args["val"] = e.Val
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	return json.MarshalIndent(&doc, "", " ")
}

// hardOps are op strings JSON must escape or replace, plus the empty op.
var hardOps = []string{`say "hi"`, `back\slash`, "<tag>", "a&b", "line\u2028sep", "né", "bad\xffutf8", ""}

func checkAgainstReference(t *testing.T, name string, events []Event, dropped uint64) {
	t.Helper()
	want, err := referenceChrome(events, dropped)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteChrome(&got, events, dropped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: WriteChrome differs from the reference\n got %s\nwant %s", name, got.Bytes(), want)
	}
}

func TestWriteChromeMatchesReference(t *testing.T) {
	var edge []Event
	for i, op := range hardOps {
		edge = append(edge, Event{Cycle: uint64(i), Kind: KindIssue, Core: i % 3, PC: 0, Q: -1, Op: op})
	}
	for k := Kind(0); k <= numKinds; k++ { // numKinds renders as "unknown"
		for _, pq := range []int{-1, 0} {
			for _, dur := range []uint64{0, 1} {
				edge = append(edge, Event{Cycle: 0, Dur: dur, Kind: k, Core: int(k), PC: pq, Q: pq, Op: hardOps[int(k)%len(hardOps)]})
			}
		}
	}
	for _, dropped := range []uint64{0, 9} {
		checkAgainstReference(t, fmt.Sprintf("edge cases, dropped %d", dropped), edge, dropped)
		checkAgainstReference(t, fmt.Sprintf("no events, dropped %d", dropped), nil, dropped)
	}

	rng := rand.New(rand.NewSource(33))
	ops := append([]string{"add", "queue-empty", "BusRdX", "writeback"}, hardOps...)
	for i := 0; i < 300; i++ {
		events := make([]Event, rng.Intn(40))
		for j := range events {
			events[j] = randomEvent(rng, ops)
			// Few cores, and PC, Q and Val often at the values the
			// exporter leaves out.
			events[j].Core %= 4
			if rng.Intn(2) == 0 {
				events[j].PC, events[j].Q, events[j].Val = -1, -1, 0
			}
		}
		checkAgainstReference(t, fmt.Sprintf("seed 33, case %d", i), events, uint64(rng.Intn(2)*rng.Intn(1000)))
	}
}

// exportSample is a DefaultCap ring's worth of events shaped like a
// simulator's: four cores, a few dozen ops, every kind.
func exportSample() []Event {
	rng := rand.New(rand.NewSource(1))
	ops := make([]string, 53)
	for i := range ops {
		ops[i] = "op" + strconv.Itoa(i)
	}
	events := make([]Event, DefaultCap)
	for i := range events {
		e := Event{Cycle: uint64(i), Kind: Kind(rng.Intn(int(numKinds))), Core: rng.Intn(4),
			PC: -1, Q: -1, Op: ops[rng.Intn(len(ops))]}
		switch e.Kind {
		case KindIssue:
			e.PC = rng.Intn(64)
		case KindQueueOp:
			e.PC, e.Q, e.Val = rng.Intn(64), rng.Intn(8), rng.Uint64()>>40
		case KindRetire, KindBusGrant:
			e.Val = rng.Uint64() >> 40
		case KindStall:
			e.Dur = uint64(1 + rng.Intn(100))
		}
		events[i] = e
	}
	return events
}

// An export holds one event's bytes at a time and each op's JSON string,
// so its allocations do not grow with the event count. The document-
// building exporter took about 14 allocations and 2 000 bytes an event.
func TestWriteChromeAllocationCeiling(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	events := exportSample()
	if err := WriteChrome(io.Discard, events, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteChrome(io.Discard, events, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(events))
	if allocs := float64(after.Mallocs-before.Mallocs) / n; allocs > 0.25 {
		t.Errorf("%.2f allocations an event, want at most 0.25", allocs)
	}
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / n; bytes > 32 {
		t.Errorf("%.1f bytes allocated an event, want at most 32", bytes)
	}
}

func BenchmarkWriteChrome(b *testing.B) {
	events := exportSample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChrome(io.Discard, events, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, _, err := ReadChrome([]byte("not json")); err == nil {
		t.Error("ReadChrome accepted garbage")
	}
	bad := []byte(`{"traceEvents":[{"ph":"X","cat":"martian","ts":1}]}`)
	if _, _, err := ReadChrome(bad); err == nil {
		t.Error("ReadChrome accepted an unknown category")
	}
}

// randomEvent draws an event inside the ranges the ring keeps exactly:
// Core, PC and Q fit in int32, and Op is one of a few names.
func randomEvent(rng *rand.Rand, ops []string) Event {
	return Event{
		Cycle: rng.Uint64(),
		Dur:   rng.Uint64() >> uint(rng.Intn(64)),
		Kind:  Kind(rng.Intn(int(numKinds))),
		Core:  int(int32(rng.Uint32())),
		PC:    int(int32(rng.Uint32())),
		Q:     int(int32(rng.Uint32())),
		Op:    ops[rng.Intn(len(ops))],
		Val:   rng.Uint64(),
	}
}

func TestAddAndRecordRoundTrip(t *testing.T) {
	ops := []string{"add", "writeback", "queue-empty", "BusRdX", "", "op(200)"}
	for _, ringCap := range []int{1, 7, 64} {
		rng := rand.New(rand.NewSource(int64(ringCap)))
		viaAdd, viaRecord := NewBuffer(ringCap), NewBuffer(ringCap)
		var all []Event
		// Several wraps of the ring, so the overwrite path is compared too.
		for i := 0; i < 5*ringCap+3; i++ {
			e := randomEvent(rng, ops)
			all = append(all, e)
			viaAdd.Add(e)
			viaRecord.Record(e.Kind, e.Cycle, e.Dur, e.Core, e.PC, e.Q, viaRecord.Name(e.Op), e.Val)
		}
		want := all[len(all)-ringCap:]
		for name, b := range map[string]*Buffer{"Add": viaAdd, "Record": viaRecord} {
			if got := b.Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("cap %d, via %s: events differ from the last %d recorded\n got %+v\nwant %+v", ringCap, name, ringCap, got, want)
			}
			if b.Dropped() != uint64(len(all)-ringCap) {
				t.Errorf("cap %d, via %s: dropped %d, want %d", ringCap, name, b.Dropped(), len(all)-ringCap)
			}
		}
	}
}

func TestNameIsSharedWithAdd(t *testing.T) {
	b := NewBuffer(4)
	b.Add(Event{Op: "produce"})
	id := b.Name("produce")
	if again := b.Name("produce"); again != id {
		t.Errorf("Name(%q) = %d, then %d", "produce", id, again)
	}
	if other := b.Name("consume"); other == id {
		t.Errorf("two ops share Name %d", id)
	}
	b.Record(KindQueueOp, 9, 0, 1, 2, 3, id, 4)
	if got := b.Events()[1]; got.Op != "produce" {
		t.Errorf("Record with Add's Name reads back op %q", got.Op)
	}
}

// Past 65 535 distinct names a buffer still records every event, and the
// new ones read back with the overflow op; names it already holds keep
// theirs.
func TestNameBound(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < maxNames; i++ {
		if id := b.Name(strconv.Itoa(i)); int(id) != i {
			t.Fatalf("name %d got ID %d", i, id)
		}
	}
	b.Add(Event{Op: "one too many"})
	b.Add(Event{Op: "0"})
	evs := b.Events()
	if evs[0].Op != "(too many op names)" || evs[1].Op != "0" {
		t.Errorf("past the bound ops read back %q, %q", evs[0].Op, evs[1].Op)
	}
	if b.Name("another") != b.Name("one too many") || b.Name("another") != 1<<16-1 {
		t.Errorf("names past the bound get %d and %d, want the last Name", b.Name("another"), b.Name("one too many"))
	}
	if len(b.names) != 1<<16 {
		t.Errorf("name table holds %d entries, want %d", len(b.names), 1<<16)
	}
}

// The ring's element type must stay small and pointer-free: that is what
// keeps a DefaultCap ring at 2 560 KiB and out of the garbage collector's
// scan.
func TestRecordIsPointerFree(t *testing.T) {
	var r rec
	if size := unsafe.Sizeof(r); size > 40 {
		t.Errorf("ring element is %d bytes, want at most 40", size)
	}
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if ty := reflect.TypeOf(NewBuffer(1).evs).Elem(); walk(ty) {
		t.Errorf("ring element %v holds a pointer", ty)
	}
}
