package memsys

// streamCache models SYNCOPTI's small fully-associative stream cache
// (paper §5): filled by reverse-mapping forwarded lines to (queue, slot)
// pairs, hit entries invalidated by the consume that reads them, fills
// ignored when full.
//
// A (queue, slot) key is a position in the queue's circular buffer, so each
// queue keeps its entries in one array indexed by slot modulo the queue
// depth, allocated on the queue's first fill. Two slots that share a cell
// are never both unconsumed: the producer reaches slot s+depth only after
// the bulk ACK for s. The controller fills only unconsumed slots, and a
// consume takes its slot's entry, so a cell never holds a stale one.
type streamCache struct {
	capacity int
	n        int // entries held
	depth    uint64
	cells    [][]scCell // per queue, nil until its first fill

	Hits uint64
}

// scCell holds one entry; tag is its slot+1, 0 when the cell is empty.
type scCell struct{ tag, v uint64 }

func newStreamCache(entries, queues, depth int) *streamCache {
	return &streamCache{capacity: entries, depth: uint64(depth), cells: make([][]scCell, queues)}
}

// fill inserts an item; full caches drop fills.
func (sc *streamCache) fill(q int, slot uint64, v uint64) {
	if sc.n >= sc.capacity {
		return
	}
	if sc.cells[q] == nil {
		sc.cells[q] = make([]scCell, sc.depth)
	}
	c := &sc.cells[q][slot%sc.depth]
	if c.tag != slot+1 {
		sc.n++
	}
	*c = scCell{slot + 1, v}
}

// take returns and invalidates the entry for (q, slot) if present.
func (sc *streamCache) take(q int, slot uint64) (uint64, bool) {
	cells := sc.cells[q]
	if cells == nil {
		return 0, false
	}
	c := &cells[slot%sc.depth]
	if c.tag != slot+1 {
		return 0, false
	}
	c.tag = 0
	sc.n--
	sc.Hits++
	return c.v, true
}
