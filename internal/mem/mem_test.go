package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := New()
	if got := m.Read8(0x1000); got != 0 {
		t.Errorf("unwritten word = %d, want 0", got)
	}
	m.Write8(0x1000, 42)
	if got := m.Read8(0x1000); got != 42 {
		t.Errorf("read back %d, want 42", got)
	}
	// Unaligned addresses resolve to the containing word.
	m.Write8(0x2003, 7)
	if got := m.Read8(0x2000); got != 7 {
		t.Errorf("unaligned write landed wrong: %d", got)
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr, val uint64) bool {
		m.Write8(addr, val)
		return m.Read8(addr) == val && m.Read8(addr&^7) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatorNonOverlapping(t *testing.T) {
	a := NewAllocator(0x1000, 128)
	r1 := a.Alloc("a", 100)
	r2 := a.Alloc("b", 1)
	r3 := a.Alloc("c", 4096)
	regs := []Region{r1, r2, r3}
	for i, r := range regs {
		if r.Base%128 != 0 {
			t.Errorf("region %d base %#x not aligned", i, r.Base)
		}
		if r.Size%128 != 0 {
			t.Errorf("region %d size %#x not aligned", i, r.Size)
		}
		for j, s := range regs {
			if i == j {
				continue
			}
			if r.Base < s.End() && s.Base < r.End() {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
	if got := len(a.Regions()); got != 3 {
		t.Errorf("Regions() returned %d entries, want 3", got)
	}
}

func TestAllocatorBadAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment accepted")
		}
	}()
	NewAllocator(0, 100)
}

func TestRegionContains(t *testing.T) {
	r := Region{Name: "x", Base: 0x100, Size: 0x80}
	if !r.Contains(0x100) || !r.Contains(0x17f) {
		t.Error("Contains misses interior")
	}
	if r.Contains(0xff) || r.Contains(0x180) {
		t.Error("Contains includes exterior")
	}
	if r.End() != 0x180 {
		t.Errorf("End = %#x", r.End())
	}
}

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation adds its own (it turns append(t, make(...)...) back into
// a temporary slice, for one).
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("allocation counts are pinned without the race detector")
			}
		}
	}
}

// TestPageTableGrowsGeometrically: an image written front to back must not
// reallocate its page table once per page (which copies pages²/2 entries).
// The budget is the pages themselves, the Memory, and the handful of tables
// a doubling table goes through.
func TestPageTableGrowsGeometrically(t *testing.T) {
	skipUnderRace(t)
	const pages = 256
	for _, base := range []uint64{0, uint64(maxDirectPages) << (pageShift + 3)} {
		got := testing.AllocsPerRun(5, func() {
			m := New()
			for p := uint64(0); p < pages; p++ {
				m.Write8(base+p<<(pageShift+3), p)
			}
		})
		if got > pages+12 {
			t.Errorf("window at %#x: %d sequentially written pages cost %.0f allocations, want at most %d",
				base, pages, got, pages+12)
		}
	}
}

// forkAddr draws an address from one of the three places a word can live:
// a few pages of the low window, a few pages of the high window (anchored
// by whichever image touches it first — parent and child must agree), and
// the far map below and beyond it.
func forkAddr(rng *rand.Rand) uint64 {
	const hiBase = uint64(maxDirectPages+100) << (pageShift + 3)
	off := uint64(rng.Intn(6*pageWords)) * 8
	switch rng.Intn(4) {
	case 0:
		return hiBase + off
	case 1:
		if rng.Intn(2) == 0 {
			return hiBase - 8*(1+uint64(rng.Intn(64))) // below the anchor
		}
		return hiBase + uint64(maxDirectPages)<<(pageShift+3) + off%512
	default:
		return off
	}
}

// model is a Memory and the map that says what it must hold.
type model struct {
	m    *Memory
	want map[uint64]uint64
}

func (x *model) write(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		a := forkAddr(rng)
		v := rng.Uint64() | 1
		x.m.Write8(a, v)
		x.want[a] = v
	}
}

func (x *model) fork() *model {
	c := &model{m: x.m.Fork(), want: make(map[uint64]uint64, len(x.want))}
	for a, v := range x.want {
		c.want[a] = v
	}
	return c
}

// check reads every address any image of the family ever wrote, so a write
// that leaked from a relative shows up as a word this image's model lacks.
func (x *model) check(t *testing.T, name string, family ...*model) {
	t.Helper()
	for _, f := range append(family, x) {
		for a := range f.want {
			if got, want := x.m.Read8(a), x.want[a]; got != want {
				t.Fatalf("%s: word at %#x = %#x, want %#x", name, a, got, want)
			}
		}
	}
}

// digest is an FNV-1a hash over the words the model says the image holds,
// in address order.
func (x *model) digest() uint64 {
	addrs := make([]uint64, 0, len(x.want))
	for a := range x.want {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := fnv.New64a()
	var buf [16]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[:8], a)
		binary.LittleEndian.PutUint64(buf[8:], x.m.Read8(a))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestForkProperty checks Fork against a map model over all three storage
// classes: a child reads what its parent held, its writes reach neither the
// parent nor a sibling forked before or after them, a fork of a fork behaves
// the same one level down, and the parent's words hash the same after a
// thousand child writes.
func TestForkProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parent := &model{m: New(), want: map[uint64]uint64{}}
		if seed%2 == 0 {
			// Odd seeds leave the parent without a high window or far map,
			// so the children anchor their own.
			parent.write(rng, 2000)
		} else {
			for i := 0; i < 500; i++ {
				a, v := uint64(rng.Intn(3*pageWords))*8, rng.Uint64()|1
				parent.m.Write8(a, v)
				parent.want[a] = v
			}
		}
		before := parent.digest()

		early := parent.fork()
		child := parent.fork()
		child.check(t, "fresh child")
		child.write(rng, 1000)
		late := parent.fork()
		early.write(rng, 300)
		late.write(rng, 300)

		if got := parent.digest(); got != before {
			t.Fatalf("seed %d: parent digest %#x after child writes, was %#x", seed, got, before)
		}
		parent.check(t, "parent", early, child, late)
		child.check(t, "child", parent, early, late)
		early.check(t, "sibling forked before", parent, child, late)
		late.check(t, "sibling forked after", parent, child, early)

		// A fork of a fork: the child is now a parent and stays unwritten.
		mid := child.digest()
		grand := child.fork()
		grand.check(t, "fresh grandchild", parent, early, late)
		grand.write(rng, 1000)
		if got := child.digest(); got != mid {
			t.Fatalf("seed %d: child digest %#x after grandchild writes, was %#x", seed, got, mid)
		}
		child.check(t, "child under a grandchild", grand)
		grand.check(t, "grandchild", parent, child, early, late)
		parent.check(t, "parent under a grandchild", grand)
	}
}

// TestForkCopiesOnlyWrittenPages: the point of Fork is that a child pays
// for the pages it writes, not for the image it starts from.
func TestForkCopiesOnlyWrittenPages(t *testing.T) {
	skipUnderRace(t)
	parent := New()
	for p := uint64(0); p < 128; p++ {
		parent.Write8(p<<(pageShift+3), p+1)
	}
	got := testing.AllocsPerRun(10, func() {
		c := parent.Fork()
		c.Write8(5<<(pageShift+3)+8, 1) // copies page 5
		c.Write8(5<<(pageShift+3)+16, 2)
		c.Write8(200<<(pageShift+3), 3) // a page the parent never had
		c.Write8(200<<(pageShift+3)+8, 4)
	})
	// Memory, table, bitmap; one copied page; the grown table and one new page.
	if got > 6 {
		t.Errorf("fork + writes to two pages cost %.0f allocations, want at most 6", got)
	}
}
