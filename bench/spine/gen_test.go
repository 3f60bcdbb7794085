package main

import (
	"reflect"
	"testing"
)

// Every generated list derives from the seed alone: the same seed gives
// the same ops, another seed other ops.
func TestOpListsAreSeeded(t *testing.T) {
	owners := make([][]int, 114)
	for i := range owners {
		owners[i] = []int{i % 3, (i + 1) % 3}
	}
	gens := map[string]func(seed int64) any{
		"matrix2":   func(s int64) any { return passOps(s, "matrix2", 0, 3, 63) },
		"referee":   func(s int64) any { return refereeOps(s, 0, 3, 28) },
		"serve_hot": func(s int64) any { return hotOps(s, 0, 3, 1, 72, 500) },
		"serve_mix": func(s int64) any { return mixOps(s, 0, 3, 114, 2) },
		"cluster3":  func(s int64) any { return clusterOps(s, 0, 3, 2, owners) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave two different op lists", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
	// Rounds and measuring processes of one seed differ too.
	if reflect.DeepEqual(passOps(7, "matrix2", 0, 0, 63), passOps(7, "matrix2", 0, 1, 63)) {
		t.Error("rounds 0 and 1 gave the same pass order")
	}
	if reflect.DeepEqual(passOps(7, "matrix2", 0, 0, 63), passOps(7, "matrix2", 1, 0, 63)) {
		t.Error("parts 0 and 1 gave the same pass order")
	}
}

func TestPassCoversEveryCellOnce(t *testing.T) {
	seen := make(map[int]int)
	for _, op := range passOps(1, "ncore", 0, 0, 63) {
		seen[op.Cell]++
	}
	if len(seen) != 63 {
		t.Fatalf("pass covers %d of 63 cells", len(seen))
	}
	modes := make(map[[2]any]int)
	for _, op := range refereeOps(1, 0, 0, 28) {
		modes[[2]any{op.Cell, op.Mode}]++
	}
	if len(modes) != 56 {
		t.Fatalf("referee pass has %d distinct (cell, mode) ops, want 56", len(modes))
	}
}

// serve_mix: per key one cold op and three hits after it, a quarter of the
// ops cold, a quarter of the cold ones streamed, every key with one client.
func TestMixOpsShape(t *testing.T) {
	lists := mixOps(3, 0, 0, 114, 2)
	owner := make(map[int]int)
	for c, ops := range lists {
		if len(ops) != 4*57 {
			t.Fatalf("client %d has %d ops, want %d", c, len(ops), 4*57)
		}
		cold, streamed := 0, 0
		state := make(map[int]int) // ops seen per key
		for _, op := range ops {
			if prev, ok := owner[op.Cell]; ok && prev != c {
				t.Fatalf("key %d is used by clients %d and %d", op.Cell, prev, c)
			}
			owner[op.Cell] = c
			first := state[op.Cell] == 0
			state[op.Cell]++
			if first != (op.Want == "miss") {
				t.Fatalf("key %d: op %d of the key wants %q", op.Cell, state[op.Cell], op.Want)
			}
			if op.Want == "miss" {
				cold++
				if op.Kind == opStream {
					streamed++
				}
			} else if op.Kind != opRun {
				t.Fatalf("key %d: a hit is streamed", op.Cell)
			}
		}
		if cold != 57 || streamed != 14 {
			t.Errorf("client %d: %d cold ops of which %d streamed, want 57 and 14", c, cold, streamed)
		}
		for k, n := range state {
			if n != 4 {
				t.Errorf("key %d has %d ops, want 4", k, n)
			}
		}
	}
	if len(owner) != 114 {
		t.Errorf("%d of 114 keys are used", len(owner))
	}
}

// cluster3: per key a miss at the primary owner, then a peer fill and a hit
// at the one replica that does not own it.
func TestClusterOpsShape(t *testing.T) {
	owners := make([][]int, 114)
	for i := range owners {
		owners[i] = []int{i % 3, (i + 2) % 3}
	}
	for c, ops := range clusterOps(3, 0, 0, 2, owners) {
		if len(ops) != 3*57 {
			t.Fatalf("client %d has %d ops, want %d", c, len(ops), 3*57)
		}
		step := make(map[int]int)
		for _, op := range ops {
			want := []string{"miss", "peer", "hit"}[step[op.Cell]]
			if op.Want != want {
				t.Fatalf("key %d: op %d of the key wants %q, designed %q", op.Cell, step[op.Cell], op.Want, want)
			}
			own := owners[op.Cell]
			switch want {
			case "miss":
				if op.Replica != own[0] {
					t.Fatalf("key %d: the miss goes to r%d, the primary owner is r%d", op.Cell, op.Replica, own[0])
				}
			default:
				if op.Replica == own[0] || op.Replica == own[1] {
					t.Fatalf("key %d: the %s goes to r%d, which owns the key", op.Cell, want, op.Replica)
				}
			}
			step[op.Cell]++
		}
	}
}

func TestCellLists(t *testing.T) {
	for name, want := range map[string]int{"matrix": 63, "ncore": 63, "referee": 28, "hot": 72, "mix": 114} {
		var cells []cell
		switch name {
		case "matrix":
			cells = matrixCells()
		case "ncore":
			cells = ncoreCells()
		case "referee":
			cells = refereeCells()
		case "hot":
			cells = hotCells()
		case "mix":
			cells = mixCells()
		}
		if len(cells) != want {
			t.Errorf("%s: %d cells, want %d", name, len(cells), want)
		}
		keys := make(map[string]bool)
		for _, c := range cells {
			k, err := c.Spec.Key()
			if err != nil {
				t.Errorf("%s: %s: %v", name, c, err)
			}
			keys[k] = true
		}
		if len(keys) != len(cells) {
			t.Errorf("%s: %d distinct keys for %d cells", name, len(keys), len(cells))
		}
	}
}
