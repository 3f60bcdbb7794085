package hfstream

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestSpecCanonicalAliases(t *testing.T) {
	// Every member of an alias class must canonicalize to the same bytes
	// and therefore the same key.
	classes := [][]Spec{
		{
			{Bench: "wc", Design: "SYNCOPTI"},
		},
		{
			{Bench: "wc", Single: true},
		},
		{
			{Bench: "fir", Design: "NETQUEUE_2hop"},
		},
		{
			{Bench: "fft2", Design: "HEAVYWT"},
		},
		{
			// the suffix is omitted at the point's own core count
			{Bench: "fft2", Design: "MPMC"},
			{Bench: "fft2", Design: "MPMC_4CORE"},
		},
		{
			{Bench: "fft2", Design: "MPMC_Q64_3CORE"},
		},
	}
	// The design name is the one carrier of a core count: every
	// "_<k>CORE" name is its own class, with its own key.
	for _, b := range Benchmarks() {
		for _, d := range append(Designs(), RegMapped(), NetQueue(2), CentralizedStore(centralConsumeToUse)) {
			for k := 3; k <= 8; k++ {
				name := fmt.Sprintf("%s_%dCORE", d.Name(), k)
				if got := d.WithCores(k).Name(); got != name {
					t.Errorf("%s.WithCores(%d) is named %s, want %s", d.Name(), k, got, name)
				}
				classes = append(classes, []Spec{{Bench: b.Name(), Design: name}})
			}
		}
	}
	keys := map[string]string{}
	for _, class := range classes {
		var first []byte
		for i, s := range class {
			c, err := s.Canonical()
			if err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			n, _ := s.Normalize()
			if nn, err := n.Normalize(); err != nil || nn != n {
				t.Errorf("Normalize not idempotent on %+v: %+v then %+v (%v)", s, n, nn, err)
			}
			if i == 0 {
				first = c
			} else if string(c) != string(first) {
				t.Errorf("alias %+v canonicalized to %s, class canonical is %s", s, c, first)
			}
		}
		k, err := class[0].Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between classes %s and %s", prev, first)
		}
		keys[k] = string(first)
	}
}

func TestSpecCanonicalIsCompactAndOrdered(t *testing.T) {
	c, err := Spec{Bench: "wc", Design: "HEAVYWT_3CORE"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"bench":"wc","design":"HEAVYWT_3CORE"}`; string(c) != want {
		t.Fatalf("canonical form %s, want %s", c, want)
	}
	// JSON field order must survive a decode/encode cycle through Spec.
	var s Spec
	if err := json.Unmarshal([]byte(`{"single":false,"design":"HEAVYWT_3CORE","bench":"wc"}`), &s); err != nil {
		t.Fatal(err)
	}
	c2, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c2) != string(c) {
		t.Fatalf("field order and an explicit zero value canonicalized differently: %s vs %s", c2, c)
	}
}

func TestSpecKeyShape(t *testing.T) {
	k, err := Spec{Bench: "wc", Design: "EXISTING"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k) {
		t.Fatalf("key %q is not lowercase hex SHA-256", k)
	}
	k2, _ := Spec{Bench: "wc", Design: "MEMOPTI"}.Key()
	if k == k2 {
		t.Fatal("different specs share a key")
	}
}

// TestSpecKeyAllocationCeiling: a key is a name check, a design lookup,
// one JSON marshal and one hash, and every served request pays for one.
// Building the smallest benchmark takes 27 allocations, so the ceiling
// fails as soon as validating a name constructs anything.
func TestSpecKeyAllocationCeiling(t *testing.T) {
	for _, spec := range []Spec{
		{Bench: "fft2", Design: "SYNCOPTI_SC+Q64"},
		{Bench: "wc", Single: true},
		{Bench: "fir", Design: "HEAVYWT_4CORE"},
	} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := spec.Key(); err != nil {
				t.Fatal(err)
			}
		})
		if got > 12 {
			t.Errorf("%+v: Key made %.0f allocations, want at most 12", spec, got)
		}
	}
}

// TestSpecKeyMemo: a key served from the memo is the hash of the canonical
// form, for every spec the catalog admits and for an alias spelling, cold
// and warm, from many goroutines at once (run it under -race). The catalog
// fits the memo with room to spare.
func TestSpecKeyMemo(t *testing.T) {
	want := map[Spec]string{}
	add := func(s Spec) {
		n, err := s.Normalize()
		if err != nil {
			return // a suffix the point does not take, such as MPMC_2CORE
		}
		c, err := n.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(c)
		want[s] = hex.EncodeToString(sum[:])
	}
	for _, b := range Benchmarks() {
		add(Spec{Bench: b.Name(), Single: true})
		for _, d := range append(Designs(), RegMapped(), CentralizedStore(centralConsumeToUse), MPMC, MPMCQ64, NetQueue(2)) {
			add(Spec{Bench: b.Name(), Design: d.Name()})
			for k := 2; k <= 8; k++ {
				add(Spec{Bench: b.Name(), Design: fmt.Sprintf("%s_%dCORE", d.Name(), k)})
			}
		}
	}
	add(Spec{Bench: "wc", Design: "HEAVYWT_03CORE"})
	if want[Spec{Bench: "wc", Design: "HEAVYWT_03CORE"}] != want[Spec{Bench: "wc", Design: "HEAVYWT_3CORE"}] {
		t.Fatal("an alias spelling hashed apart from its canonical name")
	}
	distinct := map[string]bool{}
	for _, k := range want {
		distinct[k] = true
	}
	if len(distinct) > keyMemoCap/2 {
		t.Errorf("the catalog has %d keys, more than half the memo's cap of %d", len(distinct), keyMemoCap)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ { // the first pass may fill the memo, the second reads it
				for s, w := range want {
					if k, err := s.Key(); err != nil || k != w {
						t.Errorf("%+v: Key = %q, %v; want %q", s, k, err, w)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyMemoCap: the memo keeps no more than keyMemoCap keys however many
// distinct specs arrive, as "NETQUEUE_<h>hop" takes any hop count.
func TestKeyMemoCap(t *testing.T) {
	var m keyMemo
	for i := 0; i < keyMemoCap+10; i++ {
		m.store(Spec{Bench: "wc", Design: fmt.Sprintf("NETQUEUE_%dhop", i+1)}, "k")
	}
	if len(m.m) != keyMemoCap {
		t.Fatalf("memo holds %d keys, want the cap %d", len(m.m), keyMemoCap)
	}
	if _, ok := m.load(Spec{Bench: "wc", Design: fmt.Sprintf("NETQUEUE_%dhop", keyMemoCap+5)}); ok {
		t.Fatal("a spec past the cap was kept")
	}
}

func TestSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		frag string // required error fragment
	}{
		{"empty", Spec{}, "unknown benchmark"},
		{"unknown bench", Spec{Bench: "nope", Design: "EXISTING"}, "unknown benchmark"},
		{"unknown design", Spec{Bench: "wc", Design: "nope"}, "unknown design"},
		{"missing design", Spec{Bench: "wc"}, "unknown design"},
		{"single with design", Spec{Bench: "wc", Design: "EXISTING", Single: true}, "must not name a design"},
		{"suffix past the cap", Spec{Bench: "wc", Design: "HEAVYWT_9CORE"}, "out of range 3..8"},
		{"stacked suffix", Spec{Bench: "wc", Design: "HEAVYWT_3CORE_4CORE"}, "unknown design"},
		{"dual-core suffix", Spec{Bench: "wc", Design: "HEAVYWT_2CORE"}, "unknown design"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize succeeded, want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q missing fragment %q", tc.name, err, tc.frag)
		}
		if _, err := tc.spec.Canonical(); err == nil {
			t.Errorf("%s: Canonical succeeded, want error", tc.name)
		}
		if _, err := tc.spec.Key(); err == nil {
			t.Errorf("%s: Key succeeded, want error", tc.name)
		}
	}
}
