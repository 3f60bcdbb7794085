// Package mem provides the functional (value-carrying) memory image shared
// by all cores, plus a simple region allocator used by workloads to lay
// out their data. Timing is modeled elsewhere; this package answers "what
// value does this address hold once the access completes".
package mem

import "fmt"

// pageShift sizes a memory page at 512 words (4 KiB), and maxDirectPages
// caps each paged window at 256 MiB of address space. Workload images are
// laid out contiguously from a low base, so a paged array keeps the
// functional memory sparse without putting a hash map on the simulator's
// hottest path (every load/store resolution reads or writes it); addresses
// beyond the cap fall back to a map so arbitrary 64-bit addresses stay
// usable. The page is small because a fork copies a whole page on its first
// write to it, and a run writes a few words into one or two 4 KiB blocks.
const (
	pageShift      = 9
	pageWords      = 1 << pageShift
	pageMask       = pageWords - 1
	maxDirectPages = 1 << 16
)

// page is one page of words. Tables hold pages by pointer, 8 bytes an
// entry, so a fork's copy of its parent's tables stays small, and a masked
// index into the array needs no bounds check.
type page [pageWords]uint64

// Memory is a sparse 64-bit-word-addressable functional memory. Addresses
// are byte addresses; accesses are 8-byte aligned words (the simulator's
// ISA moves 64-bit values only).
//
// Two paged windows cover the simulator's real traffic: the low window
// starts at address zero (program/workload images), and the high window
// anchors itself at the first out-of-window page written (the software
// queue region sits at a fixed high base, far from the data image).
// Anything outside both windows falls back to the far map.
type Memory struct {
	pages   []*page // low window: pages [0, maxDirectPages)
	hiBase  uint64  // first page of the high window (valid when hiPages != nil)
	hiPages []*page // high window: pages [hiBase, hiBase+maxDirectPages)
	far     map[uint64]uint64

	// owned and hiOwned mark, one bit per page of the window, the pages of
	// a Fork that are its own; the others still alias the parent's, and the
	// first write to one copies it. Pages past a bitmap's end are owned (an
	// image that is nobody's fork has no bitmaps).
	owned, hiOwned []uint64
}

// New returns an empty memory image.
func New() *Memory { return &Memory{} }

// Fork returns a copy-on-write child of m: it reads what m holds and keeps
// its own writes, copying a page the first time it writes to it. Any
// number of goroutines may fork and read m at once; m itself must not be
// written after its first Fork, since its children alias its pages.
func (m *Memory) Fork() *Memory {
	n, h := len(m.pages), len(m.hiPages)
	// One table and one bitmap, carved for both windows; the capacity
	// limits make a window that grows reallocate instead of overrunning
	// its neighbour.
	table := make([]*page, n+h)
	copy(table, m.pages)
	copy(table[n:], m.hiPages)
	nw := (n + 63) / 64
	bits := make([]uint64, nw+(h+63)/64)
	c := &Memory{pages: table[:n:n], hiBase: m.hiBase, owned: bits[:nw:nw], hiOwned: bits[nw:]}
	if m.hiPages != nil {
		c.hiPages = table[n:]
	}
	if m.far != nil {
		c.far = make(map[uint64]uint64, len(m.far))
		for w, v := range m.far {
			c.far[w] = v
		}
	}
	return c
}

// Read8 returns the 8-byte word at addr (0 if never written).
func (m *Memory) Read8(addr uint64) uint64 {
	w := addr >> 3
	pn := w >> pageShift
	if pn < uint64(len(m.pages)) {
		if p := m.pages[pn]; p != nil {
			return p[w&pageMask]
		}
		return 0
	}
	if pn < maxDirectPages {
		return 0
	}
	if hi := pn - m.hiBase; hi < uint64(len(m.hiPages)) {
		if p := m.hiPages[hi]; p != nil {
			return p[w&pageMask]
		}
		return 0
	}
	return m.far[w]
}

// Write8 stores an 8-byte word at addr.
func (m *Memory) Write8(addr, val uint64) {
	w := addr >> 3
	pn := w >> pageShift
	table, owned := &m.pages, m.owned
	if pn >= maxDirectPages {
		if m.hiPages == nil {
			// Anchor the high window at the first high page touched.
			m.hiBase = pn
			m.hiPages = make([]*page, 0, 16)
		}
		if pn -= m.hiBase; pn >= maxDirectPages {
			if m.far == nil {
				m.far = make(map[uint64]uint64)
			}
			m.far[w] = val
			return
		}
		table, owned = &m.hiPages, m.hiOwned
	}
	if t := *table; pn < uint64(len(t)) {
		if p := t[pn]; p != nil && owns(owned, pn) {
			p[w&pageMask] = val
			return
		}
	}
	ownPage(table, owned, pn)[w&pageMask] = val
}

// owns reports whether page i of a window, if present, is the image's own.
func owns(owned []uint64, i uint64) bool {
	return i>>6 >= uint64(len(owned)) || owned[i>>6]>>(i&63)&1 != 0
}

// ownPage is Write8's slow path: it grows the window's table to reach page
// i (geometrically, so an image written front to back copies its table
// O(log pages) times) and installs a page this image owns, a copy of the
// parent's when it had one.
func ownPage(table *[]*page, owned []uint64, i uint64) *page {
	t := *table
	if i >= uint64(len(t)) {
		t = append(t, make([]*page, i+1-uint64(len(t)))...)
		*table = t
	}
	p := new(page)
	if q := t[i]; q != nil {
		*p = *q
	}
	t[i] = p
	if i>>6 < uint64(len(owned)) {
		owned[i>>6] |= 1 << (i & 63)
	}
	return p
}

// Region is a contiguous chunk of the address space.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Allocator hands out non-overlapping regions, cache-line aligned.
type Allocator struct {
	next    uint64
	align   uint64
	regions []Region
}

// NewAllocator returns an allocator starting at base with the given
// alignment (typically the L2 line size).
func NewAllocator(base, align uint64) *Allocator {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d must be a power of two", align))
	}
	return &Allocator{next: (base + align - 1) &^ (align - 1), align: align}
}

// Alloc reserves size bytes and returns the region.
func (a *Allocator) Alloc(name string, size uint64) Region {
	size = (size + a.align - 1) &^ (a.align - 1)
	r := Region{Name: name, Base: a.next, Size: size}
	a.next += size
	a.regions = append(a.regions, r)
	return r
}

// Regions returns all allocated regions in allocation order.
func (a *Allocator) Regions() []Region { return append([]Region(nil), a.regions...) }
