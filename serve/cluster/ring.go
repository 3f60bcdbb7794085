// Package cluster turns independent hfserve replicas into a sharded
// serving tier with cache peering. Determinism plus content addressing
// (hfstream.Spec.Key) is the whole trick: any replica can serve any
// key, and a peer's cached bytes are byte-identical to a local
// simulation, so the cluster needs routing and fill — never coherence.
//
// The package provides two pieces: Ring, a consistent-hash ring that
// assigns every Spec.Key an ordered owner list with minimal movement
// when replicas join or leave, and Peering, the serve.Peer
// implementation that fills local misses from owner shards over the
// /v1/peer HTTP tier and publishes fresh results back — with bounded
// timeouts, per-peer failure counters and down-marking so a dead or
// slow peer degrades to local compute instead of failing requests.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-replica virtual-node count. 64 points
// per replica keeps the balance spread within a few percent for small
// clusters while the ring stays tiny (a 16-replica ring is 1024
// points).
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over replica IDs. A changed
// membership is a new NewRing over the new ID list; the property the
// tests pin is that only keys adjacent to the changed replica's points
// move.
type Ring struct {
	ids    []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV avalanches poorly on short structured inputs ("r0#17"), which
	// skews vnode placement badly enough to unbalance small rings; a
	// splitmix64 finalizer restores uniform dispersion.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the given replica IDs with vnodes virtual
// nodes per replica (<= 0 selects DefaultVirtualNodes). IDs must be
// non-empty and unique.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(ids))
	sorted := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty replica id")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate replica id %q", id)
		}
		seen[id] = true
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	r := &Ring{ids: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for _, id := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(i)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit FNV) break on id so the
		// ring order is fully deterministic across replicas.
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// IDs returns the ring's replica IDs in sorted order.
func (r *Ring) IDs() []string { return append([]string(nil), r.ids...) }

// Size reports the replica count.
func (r *Ring) Size() int { return len(r.ids) }

// Owners returns up to n distinct replicas in ring order starting at
// the key's owner (the first ring point at or after the key's hash,
// wrapping at the top) — the owner first, then the replicas a clustered
// store replicates to and a fill fails over to.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(owners) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			owners = append(owners, p.id)
		}
	}
	return owners
}
