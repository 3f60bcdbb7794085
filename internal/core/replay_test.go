package core

import (
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/isa"
	"hfstream/internal/port"
	"hfstream/internal/stats"
)

// routeMem is a memory port whose operations travel a fixed route: the
// n-th operation's token waits hop cycles in each region of routes[n] (the
// last route repeats) and then completes. tick moves every token the way
// the fabric does before the cores tick, so a core stalled on a token sees
// its Loc change mid-stall.
type routeMem struct {
	accepts bool
	hop     uint64
	routes  [][]stats.Bucket
	toks    []routed
}

type routed struct {
	tok   *port.Token
	start uint64
	route []stats.Bucket
}

func newRouteMem(hop uint64, routes ...[]stats.Bucket) *routeMem {
	return &routeMem{accepts: true, hop: hop, routes: routes}
}

func (m *routeMem) op(cycle uint64) *port.Token {
	r := m.routes[0]
	if len(m.routes) > 1 {
		m.routes = m.routes[1:]
	}
	t := port.NewToken(r[0])
	m.toks = append(m.toks, routed{tok: t, start: cycle, route: r})
	return t
}

func (m *routeMem) tick(cycle uint64) {
	for _, r := range m.toks {
		if r.tok.DoneAt != port.Pending {
			continue
		}
		if i := (cycle - r.start) / m.hop; i < uint64(len(r.route)) {
			r.tok.Loc = r.route[i]
		} else {
			r.tok.Complete(cycle, r.start)
		}
	}
}

func (m *routeMem) CanAccept() bool                         { return m.accepts }
func (m *routeMem) Load(cycle, addr uint64) *port.Token     { return m.op(cycle) }
func (m *routeMem) Store(cycle, addr, v uint64) *port.Token { return m.op(cycle) }
func (m *routeMem) Fence(cycle uint64) *port.Token          { return m.op(cycle) }

var preL2ToBus = []stats.Bucket{stats.PreL2, stats.L2, stats.Bus}

// TestReplayLockstep is the licence for Core.Replay: two cores run one
// program against identical ports, one always ticked, the other replayed
// whenever Replay accepts the cycle, and after every cycle they must agree
// on every counter a result reports. Rows whose stall depends on another
// component must never be replayed.
func TestReplayLockstep(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func(b *asm.Builder)
		// stream, when set, builds each core's stream port (default: an
		// empty fakeStream); release, when set, runs before every cycle
		// to let a blocked port through.
		stream  func() *fakeStream
		release func(m *routeMem, s *fakeStream, cycle uint64)
		stall   StallReason // must be charged at least one cycle
		replays bool        // whether Replay must accept some cycle
	}{
		{name: "token moves PreL2 to L2 to BUS", stall: StallToken, replays: true,
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				b.Ld(2, 1, 0)
				b.Add(3, 2, 2)
				b.Halt()
			}},
		{name: "mul operand latency", stall: StallOperand, replays: true,
			prog: func(b *asm.Builder) {
				b.MovI(1, 3)
				for i := 0; i < 4; i++ {
					b.Mul(1, 1, 1)
				}
				b.Halt()
			}},
		{name: "waw", stall: StallWAW, replays: true,
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				b.Ld(2, 1, 0)
				b.MovI(2, 7)
				b.Halt()
			}},
		{name: "17 loads against the default limit of 16", stall: StallLoadLimit, replays: true,
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				for r := 2; r < 2+17; r++ {
					b.Ld(isa.Reg(r), 1, int64(8*r))
				}
				b.Halt()
			}},
		{name: "queue-full", stall: StallQueueFull,
			stream: func() *fakeStream { return &fakeStream{queues: map[int][]uint64{}, reject: true} },
			release: func(_ *routeMem, s *fakeStream, cycle uint64) {
				s.reject = cycle < 20
			},
			prog: func(b *asm.Builder) {
				b.MovI(1, 5)
				b.Produce(0, 1)
				b.Halt()
			}},
		{name: "queue-empty", stall: StallQueueEmpty,
			release: func(_ *routeMem, s *fakeStream, cycle uint64) {
				if cycle == 20 {
					s.queues[0] = append(s.queues[0], 9)
				}
			},
			prog: func(b *asm.Builder) {
				b.Consume(1, 0)
				b.Add(2, 1, 1)
				b.Halt()
			}},
		{name: "ozq-full", stall: StallOzQFull,
			release: func(m *routeMem, _ *fakeStream, cycle uint64) { m.accepts = cycle >= 20 },
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				b.Ld(2, 1, 0)
				b.Halt()
			}},
		{name: "fence", stall: StallFence,
			release: func(m *routeMem, _ *fakeStream, cycle uint64) { m.accepts = cycle >= 20 },
			prog: func(b *asm.Builder) {
				b.Fence()
				b.Halt()
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			b := asm.NewBuilder("lockstep")
			tc.prog(b)
			prog := b.MustProgram()
			mems := [2]*routeMem{newRouteMem(4, preL2ToBus), newRouteMem(4, preL2ToBus)}
			strms := [2]*fakeStream{newFakeStream(), newFakeStream()}
			if tc.stream != nil {
				strms = [2]*fakeStream{tc.stream(), tc.stream()}
			}
			ticked := New(0, p, prog, mems[0], strms[0])
			replayed := New(0, p, prog, mems[1], strms[1])

			replays := 0
			for cycle := uint64(1); ; cycle++ {
				if cycle > 500 {
					t.Fatalf("did not finish (pc=%d stall=%v)", ticked.LastPC, ticked.LastStall)
				}
				for i := range mems {
					if tc.release != nil {
						tc.release(mems[i], strms[i], cycle)
					}
					mems[i].tick(cycle)
				}
				ticked.Tick(cycle)
				if replayed.Replay(cycle) {
					replays++
				} else {
					replayed.Tick(cycle)
				}
				assertSameCounters(t, cycle, ticked, replayed)
				if ticked.Done(cycle) != replayed.Done(cycle) {
					t.Fatalf("cycle %d: Done %v ticked, %v replayed", cycle, ticked.Done(cycle), replayed.Done(cycle))
				}
				if ticked.Done(cycle) {
					break
				}
			}
			if ticked.Stalls[tc.stall] == 0 {
				t.Errorf("never stalled on %v: %s", tc.stall, ticked.Stalls.Summary())
			}
			if tc.replays && replays == 0 {
				t.Error("Replay never accepted a cycle: the row does not exercise it")
			}
			if !tc.replays && replays != 0 {
				t.Errorf("Replay accepted %d cycles of a stall another component ends", replays)
			}
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if ticked.Reg(r) != replayed.Reg(r) {
					t.Errorf("r%d = %d ticked, %d replayed", r, ticked.Reg(r), replayed.Reg(r))
				}
			}
		})
	}
}

func assertSameCounters(t *testing.T, cycle uint64, a, b *Core) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Breakdown != b.Breakdown || a.Stalls != b.Stalls ||
		a.StallRegions != b.StallRegions || a.LastStall != b.LastStall || a.LastPC != b.LastPC {
		t.Fatalf("cycle %d: ticked and replayed cores differ:\n"+
			"ticked   cycles=%d stalls=%v regions=%v breakdown=%v last=%v pc=%d\n"+
			"replayed cycles=%d stalls=%v regions=%v breakdown=%v last=%v pc=%d",
			cycle, a.Cycles, a.Stalls, a.StallRegions.Cycles, a.Breakdown.Cycles, a.LastStall, a.LastPC,
			b.Cycles, b.Stalls, b.StallRegions.Cycles, b.Breakdown.Cycles, b.LastStall, b.LastPC)
	}
}

// TestReplayRefusesTheNextDueCycle: a token stall is replayed only while
// no tracked token is due; on the cycle its token completes, Replay must
// leave the cycle to Tick.
func TestReplayRefusesTheNextDueCycle(t *testing.T) {
	m := newRouteMem(5, []stats.Bucket{stats.L2})
	b := asm.NewBuilder("due")
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	c.SetReg(1, 0x100)
	m.tick(1)
	c.Tick(1) // ld issues; add stalls on its fresh token
	m.tick(2)
	c.Tick(2) // zero issue: memory-token
	for cycle := uint64(3); cycle < 6; cycle++ {
		m.tick(cycle)
		if !c.Replay(cycle) {
			t.Fatalf("cycle %d: Replay refused a memory-token stall with nothing due", cycle)
		}
	}
	m.tick(6) // the load completes at 6
	if c.Replay(6) {
		t.Fatal("Replay accepted the cycle the blocking token completes")
	}
}

// TestDrainChargesLowestRegisterThenIssueOrder pins drainBucket's rule: a
// halted core's drain cycle goes to the pending token of the lowest-
// numbered register, not to the oldest token, and only then to the
// fire-and-forget tokens in issue order.
func TestDrainChargesLowestRegisterThenIssueOrder(t *testing.T) {
	// Issue order: store (MEM, oldest), load into r9 (L3), load into r3
	// (BUS, youngest). The store outlives both loads, r9 outlives r3.
	m := newRouteMem(1,
		[]stats.Bucket{stats.Mem, stats.Mem, stats.Mem, stats.Mem, stats.Mem, stats.Mem, stats.Mem, stats.Mem},
		[]stats.Bucket{stats.L3, stats.L3, stats.L3, stats.L3, stats.L3},
		[]stats.Bucket{stats.Bus, stats.Bus})
	b := asm.NewBuilder("drain")
	b.St(1, 0, 1)
	b.Ld(9, 1, 8)
	b.Ld(3, 1, 16)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	c.SetReg(1, 0x100)
	var got []stats.Bucket
	for cycle := uint64(1); !c.Done(cycle - 1); cycle++ {
		if cycle > 50 {
			t.Fatal("core did not drain")
		}
		m.tick(cycle)
		before := c.StallRegions
		c.Tick(cycle)
		for bk := range before.Cycles {
			if c.StallRegions.Cycles[bk] != before.Cycles[bk] {
				got = append(got, stats.Bucket(bk))
			}
		}
	}
	// All four issue at cycle 1; the r3 load completes at 3, the r9 load
	// at 6 and the store at 9, so cycles 2..8 drain.
	want := []stats.Bucket{stats.Bus, stats.L3, stats.L3, stats.L3, stats.Mem, stats.Mem, stats.Mem}
	if len(got) != len(want) {
		t.Fatalf("drain charged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain charged %v, want %v", got, want)
		}
	}
}
