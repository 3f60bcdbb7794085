package memsys

// streamCache models SYNCOPTI's small fully-associative stream cache
// (paper §5): filled by reverse-mapping forwarded lines to (queue, slot)
// pairs, hit entries invalidated by the consume that reads them, fills
// ignored when full.
type streamCache struct {
	capacity int
	entries  map[uint64]uint64 // key(q,slot) -> value

	Hits uint64
}

func newStreamCache(entries int) *streamCache {
	return &streamCache{capacity: entries, entries: make(map[uint64]uint64)}
}

func scKey(q int, slot uint64) uint64 { return uint64(q)<<32 | slot }

// fill inserts an item; full caches drop fills.
func (sc *streamCache) fill(q int, slot uint64, v uint64) {
	if len(sc.entries) < sc.capacity {
		sc.entries[scKey(q, slot)] = v
	}
}

// take returns and invalidates the entry for (q, slot) if present.
func (sc *streamCache) take(q int, slot uint64) (uint64, bool) {
	k := scKey(q, slot)
	v, ok := sc.entries[k]
	if ok {
		delete(sc.entries, k)
		sc.Hits++
	}
	return v, ok
}
