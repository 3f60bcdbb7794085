package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func mustRing(t *testing.T, ids []string) *Ring {
	t.Helper()
	r, err := NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// owner is the first of key's owners: the replica a lookup lands on.
func owner(r *Ring, key string) string { return r.Owners(key, 1)[0] }

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Error("duplicate id accepted")
	}
}

// TestRingDeterminism: the ring is a pure function of the membership
// set — construction order must not matter, because every replica
// builds its own ring from its own config and they all have to agree.
func TestRingDeterminism(t *testing.T) {
	a := mustRing(t, []string{"r0", "r1", "r2"})
	b := mustRing(t, []string{"r2", "r0", "r1"})
	for _, key := range ringKeys(1000) {
		ka, kb := a.Owners(key, 2), b.Owners(key, 2)
		if len(ka) != 2 || len(kb) != 2 || ka[0] != kb[0] || ka[1] != kb[1] {
			t.Fatalf("key %q: owners %v vs %v across construction orders", key, ka, kb)
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := mustRing(t, []string{"r0", "r1", "r2"})
	for _, key := range ringKeys(200) {
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners, want 3", key, len(owners))
		}
		if owners[0] == owners[1] || owners[0] == owners[2] || owners[1] == owners[2] {
			t.Fatalf("key %q: duplicate owners %v", key, owners)
		}
		if owners[0] != owner(r, key) {
			t.Fatalf("key %q: Owners(3)[0]=%q but Owners(1)[0]=%q", key, owners[0], owner(r, key))
		}
		// Requests past the replica count clamp to it.
		if got := r.Owners(key, 99); len(got) != 3 {
			t.Fatalf("key %q: Owners(99) returned %d", key, len(got))
		}
	}
}

// TestRingBalance: with virtual nodes, no replica's ownership share
// strays wildly from fair. The bound is loose (half to double the fair
// share) — it catches a broken hash or placement, not statistical
// wobble.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("replica-%d", i)
		}
		r := mustRing(t, ids)
		keys := ringKeys(20000)
		counts := make(map[string]int, n)
		for _, key := range keys {
			counts[owner(r, key)]++
		}
		fair := float64(len(keys)) / float64(n)
		for id, got := range counts {
			share := float64(got) / fair
			if share < 0.5 || share > 2.0 {
				t.Errorf("%d replicas: %s owns %.2fx its fair share (%d keys)", n, id, share, got)
			}
		}
		if len(counts) != n {
			t.Errorf("%d replicas: only %d ever own a key", n, len(counts))
		}
	}
}

// TestRingMinimalMovementOnJoin: when a replica joins, the only keys
// that change owner are the ones the joiner takes — no key moves
// between two pre-existing replicas. The moved fraction stays near
// 1/(n+1).
func TestRingMinimalMovementOnJoin(t *testing.T) {
	before := mustRing(t, []string{"r0", "r1", "r2"})
	after := mustRing(t, []string{"r0", "r1", "r2", "r3"})
	keys := ringKeys(20000)
	moved := 0
	for _, key := range keys {
		was, now := owner(before, key), owner(after, key)
		if was == now {
			continue
		}
		moved++
		if now != "r3" {
			t.Fatalf("key %q moved %s -> %s, not to the joiner", key, was, now)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys, want roughly 1/4", 100*frac)
	}
}

// TestRingMinimalMovementOnLeave: when a replica leaves, only its keys
// move — everyone else's assignment is untouched, so a replica death
// invalidates no surviving replica's cache locality.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	before := mustRing(t, []string{"r0", "r1", "r2", "r3"})
	after := mustRing(t, []string{"r0", "r2", "r3"})
	keys := ringKeys(20000)
	moved := 0
	for _, key := range keys {
		was, now := owner(before, key), owner(after, key)
		if was == "r1" {
			if now == "r1" {
				t.Fatalf("key %q still owned by removed replica", key)
			}
			moved++
			continue
		}
		if was != now {
			t.Fatalf("key %q moved %s -> %s though its owner stayed in the ring", key, was, now)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("leave moved %.1f%% of keys, want roughly 1/4", 100*frac)
	}
}

// TestRingAddRemoveRoundTrip: leaving and rejoining restores the exact
// assignment — placement depends only on membership, not history.
func TestRingAddRemoveRoundTrip(t *testing.T) {
	orig := mustRing(t, []string{"r0", "r1", "r2"})
	smaller := mustRing(t, []string{"r0", "r1"})
	back := mustRing(t, append(smaller.IDs(), "r2"))
	for _, key := range ringKeys(2000) {
		if owner(orig, key) != owner(back, key) {
			t.Fatalf("key %q: owner changed across remove+add round trip", key)
		}
	}
}
