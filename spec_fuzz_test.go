package hfstream

import (
	"encoding/json"
	"regexp"
	"testing"
)

var keyShape = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzSpec drives the request schema with arbitrary names: nothing
// panics, a spec either fails Normalize, Canonical and Key alike or
// passes all three, normalizing is idempotent, the key does not depend
// on how the JSON was spelled (field order, explicit zero values), and
// the canonical form decodes back to the spec it was rendered from.
func FuzzSpec(f *testing.F) {
	for _, s := range []Spec{
		// the alias classes and the rejects of spec_test.go
		{Bench: "wc", Design: "SYNCOPTI"},
		{Bench: "wc", Single: true},
		{Bench: "fir", Design: "NETQUEUE_2hop"},
		{Bench: "fft2", Design: "HEAVYWT"},
		{Bench: "fft2", Design: "MPMC"},
		{Bench: "fft2", Design: "MPMC_4CORE"},
		{Bench: "fft2", Design: "MPMC_Q64_3CORE"},
		{Bench: "wc", Design: "HEAVYWT_3CORE"},
		{Bench: "fir", Design: "SYNCOPTI_SC+Q64_8CORE"},
		{Bench: "bzip2", Design: "HEAVYWT_CENTRAL"},
		{},
		{Bench: "nope", Design: "EXISTING"},
		{Bench: "wc", Design: "nope"},
		{Bench: "wc"},
		{Bench: "wc", Design: "EXISTING", Single: true},
		{Bench: "wc", Design: "HEAVYWT_9CORE"},
		{Bench: "wc", Design: "HEAVYWT_3CORE_4CORE"},
		{Bench: "wc", Design: "HEAVYWT_2CORE"},
		{Bench: "wc", Design: "NETQUEUE_0hop"},
		{Bench: "wc", Design: "_3CORE"},
	} {
		f.Add(s.Bench, s.Design, s.Single)
	}
	f.Fuzz(func(t *testing.T, bench, design string, single bool) {
		s := Spec{Bench: bench, Design: design, Single: single}
		n, err := s.Normalize()
		c, cerr := s.Canonical()
		k, kerr := s.Key()
		if (err == nil) != (cerr == nil) || (err == nil) != (kerr == nil) {
			t.Fatalf("%+v: Normalize, Canonical and Key disagree: %v / %v / %v", s, err, cerr, kerr)
		}
		if err != nil {
			return
		}
		if nn, err := n.Normalize(); err != nil || nn != n {
			t.Fatalf("%+v: Normalize not idempotent: %+v then %+v (%v)", s, n, nn, err)
		}
		if !keyShape.MatchString(k) {
			t.Fatalf("%+v: key %q is not lowercase hex SHA-256", s, k)
		}

		// The same request spelled two ways on the wire: fields omitted
		// when zero and in declaration order, then every field explicit
		// and in reverse order.
		terse, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		verbose, err := json.Marshal(struct {
			Single bool   `json:"single"`
			Design string `json:"design"`
			Bench  string `json:"bench"`
		}{single, design, bench})
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range [][]byte{terse, verbose, c} {
			var d Spec
			if err := json.Unmarshal(doc, &d); err != nil {
				t.Fatalf("%s does not decode: %v", doc, err)
			}
			dk, err := d.Key()
			if err != nil || dk != k {
				t.Fatalf("%s keys to %s (%v), the spec it spells to %s", doc, dk, err, k)
			}
		}
		// The canonical form is a fixed point: it decodes to the
		// normalized spec, which renders the same bytes.
		var back Spec
		if err := json.Unmarshal(c, &back); err != nil {
			t.Fatal(err)
		}
		if back != n {
			t.Fatalf("canonical %s decodes to %+v, want the normalized %+v", c, back, n)
		}
		if c2, err := back.Canonical(); err != nil || string(c2) != string(c) {
			t.Fatalf("canonical %s re-renders as %s (%v)", c, c2, err)
		}
	})
}
