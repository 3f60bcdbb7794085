package exp

import (
	"context"
	"testing"
)

// TestFig7ConsumerMatchesProducerOverall reproduces the paper's remark:
// "the overall performance of the consumer core was the same as for the
// producer, except that its component breakdowns differed".
func TestFig7ConsumerMatchesProducerOverall(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	prod, err := Fig7Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Fig7Consumer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SYNCOPTI", "EXISTING"} {
		p, c := prod.NormTotal(name), cons.NormTotal(name)
		// Both cores finish the pipeline together, so totals track within
		// a modest band even though their breakdowns differ.
		if ratio := c / p; ratio < 0.75 || ratio > 1.33 {
			t.Errorf("%s: consumer/producer norm ratio %.3f, want near 1", name, ratio)
		}
	}
}
