package trace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

func TestBufferKeepsLatest(t *testing.T) {
	b := NewBuffer(4)
	for i := 1; i <= 6; i++ {
		b.Add(Event{Cycle: uint64(i), Kind: KindIssue, PC: i, Q: -1, Op: "add"})
	}
	if b.Cap() != 4 {
		t.Errorf("cap = %d, want 4", b.Cap())
	}
	if b.Len() != 4 {
		t.Errorf("len = %d, want 4", b.Len())
	}
	if b.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", b.Dropped())
	}
	evs := b.Events()
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first)", i, evs[i].Cycle, want)
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
	buf, err := ChromeJSON(events, 5)
	if err != nil {
		t.Fatal(err)
	}

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
