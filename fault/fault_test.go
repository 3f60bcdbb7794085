package fault

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestKindClass(t *testing.T) {
	delay := []Kind{BusDelay, ForwardDelay, RecircStorm, SAAckDelay}
	loss := []Kind{ForwardDrop, StaleOccupancy, SACreditDrop, SADataDrop}
	for _, k := range delay {
		if k.Class() != ClassDelay {
			t.Errorf("%s: want delay class", k)
		}
	}
	for _, k := range loss {
		if k.Class() != ClassLoss {
			t.Errorf("%s: want loss class", k)
		}
	}
	if len(delay)+len(loss) != int(numKinds) {
		t.Fatalf("kind coverage: %d+%d != %d", len(delay), len(loss), numKinds)
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var got Kind
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Errorf("round trip %s: got %s", k, got)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Error("want error for unknown kind name")
	}
}

func TestEventValidate(t *testing.T) {
	good := []Event{
		{Kind: BusDelay, Nth: 1, Delay: 1},
		{Kind: BusDelay, Nth: 9, Delay: MaxDelay},
		{Kind: RecircStorm, Nth: 3, Count: MaxStorm},
		{Kind: ForwardDrop, Nth: 2},
		{Kind: SADataDrop, Nth: 1},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", e, err)
		}
	}
	bad := []Event{
		{Kind: Kind(99), Nth: 1},
		{Kind: BusDelay, Nth: 0, Delay: 5},
		{Kind: BusDelay, Nth: 1, Delay: 0},
		{Kind: BusDelay, Nth: 1, Delay: MaxDelay + 1},
		{Kind: RecircStorm, Nth: 1, Count: 0},
		{Kind: RecircStorm, Nth: 1, Count: MaxStorm + 1},
		{Kind: ForwardDrop, Nth: 1, Delay: 3},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("%+v: want validation error", e)
		}
	}
}

func TestRandomPlansDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := RandomDelay(seed, 4), RandomDelay(seed, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: RandomDelay not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid delay plan: %v", seed, err)
		}
		if a.HasLoss() {
			t.Fatalf("seed %d: delay plan contains loss event", seed)
		}
		la, lb := RandomLoss(seed), RandomLoss(seed)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("seed %d: RandomLoss not deterministic", seed)
		}
		if err := la.Validate(); err != nil {
			t.Fatalf("seed %d: invalid loss plan: %v", seed, err)
		}
		if !la.HasLoss() || la.Class() != ClassLoss {
			t.Fatalf("seed %d: loss plan not loss-class", seed)
		}
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if d := in.BusDelay(1); d != 0 {
		t.Error("nil BusDelay")
	}
	if drop, d := in.ForwardFate(1, 0); drop || d != 0 {
		t.Error("nil ForwardFate")
	}
	if in.AckSwallowed(1, 0) {
		t.Error("nil AckSwallowed")
	}
	if drop, d := in.CreditFate(1, 0); drop || d != 0 {
		t.Error("nil CreditFate")
	}
	if in.DataDropped(1, 0) {
		t.Error("nil DataDropped")
	}
	if n := in.RecircStorm(1); n != 0 {
		t.Error("nil RecircStorm")
	}
	if in.Fired() || in.LossFired() || in.Shots() != nil || in.ShotStrings() != nil {
		t.Error("nil introspection")
	}
}

func TestOccurrenceTrigger(t *testing.T) {
	p := Plan{Events: []Event{{Kind: BusDelay, Nth: 3, Delay: 40}}}
	in := p.Injector()
	if d := in.BusDelay(10); d != 0 {
		t.Fatal("fired on 1st grant")
	}
	if d := in.BusDelay(11); d != 0 {
		t.Fatal("fired on 2nd grant")
	}
	if d := in.BusDelay(12); d != 40 {
		t.Fatalf("3rd grant: got delay %d, want 40", d)
	}
	if d := in.BusDelay(13); d != 0 {
		t.Fatal("fired twice")
	}
	shots := in.Shots()
	if len(shots) != 1 || shots[0].Cycle != 12 || shots[0].Delay != 40 {
		t.Fatalf("shots: %+v", shots)
	}
	if in.LossFired() {
		t.Error("delay fault marked as loss")
	}
}

func TestSharedSiteCounter(t *testing.T) {
	// ForwardDelay and ForwardDrop share the forward-delivery site: the
	// 1st delivery fires the delay, the 2nd the drop.
	p := Plan{Events: []Event{
		{Kind: ForwardDelay, Nth: 1, Delay: 25},
		{Kind: ForwardDrop, Nth: 2},
	}}
	in := p.Injector()
	drop, delay := in.ForwardFate(100, 3)
	if drop || delay != 25 {
		t.Fatalf("1st delivery: drop=%v delay=%d", drop, delay)
	}
	drop, delay = in.ForwardFate(200, 5)
	if !drop || delay != 0 {
		t.Fatalf("2nd delivery: drop=%v delay=%d", drop, delay)
	}
	if !in.LossFired() {
		t.Error("LossFired false after drop")
	}
}

func TestStickyDrops(t *testing.T) {
	p := Plan{Events: []Event{{Kind: ForwardDrop, Nth: 2}}}
	in := p.Injector()
	if drop, _ := in.ForwardFate(1, 7); drop {
		t.Fatal("dropped before trigger")
	}
	if drop, _ := in.ForwardFate(2, 7); !drop {
		t.Fatal("trigger occurrence not dropped")
	}
	// Severed queue keeps dropping; other queues are unaffected.
	if drop, _ := in.ForwardFate(3, 7); !drop {
		t.Fatal("sticky drop did not persist on q7")
	}
	if drop, _ := in.ForwardFate(4, 8); drop {
		t.Fatal("unrelated queue dropped")
	}
	if n := len(in.Shots()); n != 2 {
		t.Fatalf("want 2 shots (one per destroyed message), got %d", n)
	}
}

func TestStickyCreditAndData(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: SACreditDrop, Nth: 1},
		{Kind: SADataDrop, Nth: 2},
	}}
	in := p.Injector()
	if drop, _ := in.CreditFate(1, 2); !drop {
		t.Fatal("credit trigger not dropped")
	}
	if drop, _ := in.CreditFate(2, 2); !drop {
		t.Fatal("credit drop not sticky")
	}
	if in.DataDropped(3, 4) {
		t.Fatal("data dropped before trigger")
	}
	if !in.DataDropped(4, 4) {
		t.Fatal("data trigger not dropped")
	}
	if !in.DataDropped(5, 4) {
		t.Fatal("data drop not sticky")
	}
	if in.DataDropped(6, 5) {
		t.Fatal("unrelated data queue dropped")
	}
}

func TestAckSwallowSticky(t *testing.T) {
	p := Plan{Events: []Event{{Kind: StaleOccupancy, Nth: 1}}}
	in := p.Injector()
	if !in.AckSwallowed(1, 0) {
		t.Fatal("ack trigger not swallowed")
	}
	if !in.AckSwallowed(2, 0) {
		t.Fatal("ack swallow not sticky")
	}
	if in.AckSwallowed(3, 1) {
		t.Fatal("unrelated ack queue swallowed")
	}
}

func TestCreditDelayViaSharedSite(t *testing.T) {
	p := Plan{Events: []Event{{Kind: SAAckDelay, Nth: 2, Delay: 77}}}
	in := p.Injector()
	if drop, d := in.CreditFate(1, 0); drop || d != 0 {
		t.Fatal("fired early")
	}
	drop, d := in.CreditFate(2, 0)
	if drop || d != 77 {
		t.Fatalf("2nd credit: drop=%v delay=%d", drop, d)
	}
	if in.LossFired() {
		t.Error("delay marked as loss")
	}
}

func TestRecircStormTrigger(t *testing.T) {
	p := Plan{Events: []Event{{Kind: RecircStorm, Nth: 2, Count: 5}}}
	in := p.Injector()
	if n := in.RecircStorm(1); n != 0 {
		t.Fatal("fired early")
	}
	if n := in.RecircStorm(2); n != 5 {
		t.Fatalf("got %d extra recircs, want 5", n)
	}
	if n := in.RecircStorm(3); n != 0 {
		t.Fatal("fired twice")
	}
}

func TestPlanStringAndShotString(t *testing.T) {
	p := Plan{Seed: 7, Events: []Event{
		{Kind: BusDelay, Nth: 3, Delay: 120},
		{Kind: ForwardDrop, Nth: 2},
	}}
	if got := p.String(); got != "seed=7[bus-delay@3+120 forward-drop@2]" {
		t.Errorf("Plan.String: %q", got)
	}
	s := Shot{Kind: ForwardDrop, Cycle: 1042, Queue: 3}
	if got := s.String(); got != "forward-drop@cycle 1042 q3" {
		t.Errorf("Shot.String: %q", got)
	}
}

// TestLossSeversOnlyItsOwnKindAndQueue: over all eight kinds, a fired
// loss event severs exactly its own (kind, queue) — every other queue at
// its site and every queue at every other site keeps delivering — and a
// fired delay event severs nothing.
func TestLossSeversOnlyItsOwnKindAndQueue(t *testing.T) {
	// dropped runs one operation at site s for queue q and reports
	// whether the injector destroyed it.
	dropped := func(in *Injector, s, q int) bool {
		switch s {
		case siteBus:
			in.BusDelay(9)
		case siteForward:
			drop, _ := in.ForwardFate(9, q)
			return drop
		case siteAck:
			return in.AckSwallowed(9, q)
		case siteCredit:
			drop, _ := in.CreditFate(9, q)
			return drop
		case siteData:
			return in.DataDropped(9, q)
		case siteRecirc:
			in.RecircStorm(9)
		}
		return false
	}
	const hit, other = 3, 4
	for k := Kind(0); k < numKinds; k++ {
		e := Event{Kind: k, Nth: 1}
		switch {
		case k == RecircStorm:
			e.Count = 2
		case k.Class() == ClassDelay:
			e.Delay = 5
		}
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
		in := Plan{Events: []Event{e}}.Injector()
		loss := k.Class() == ClassLoss
		if got := dropped(in, site(k), hit); got != loss {
			t.Fatalf("%s: firing operation dropped=%v, want %v", k, got, loss)
		}
		if !in.Fired() || in.LossFired() != loss {
			t.Fatalf("%s: Fired=%v LossFired=%v", k, in.Fired(), in.LossFired())
		}
		for round := 0; round < 2; round++ { // severed is sticky, spared stays spared
			for s := 0; s < numSites; s++ {
				for _, q := range []int{hit, other} {
					want := loss && s == site(k) && q == hit
					if got := dropped(in, s, q); got != want {
						t.Errorf("%s fired on q%d: site %d q%d dropped=%v, want %v", k, hit, s, q, got, want)
					}
				}
			}
		}
	}
}
