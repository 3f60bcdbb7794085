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
// its Loc change mid-stall. Its refusals are sticky, like the controller's
// OzQ: whoever flips accepts moves epoch.
type routeMem struct {
	accepts bool
	epoch   uint64
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
func (m *routeMem) Refusal() (epoch, count *uint64, sticky bool) {
	return &m.epoch, nil, true
}

// refusingStream is a fakeStream that implements port.Refuser the way the
// sync array does: a refused operation bumps refusals and repeats until
// epoch moves, which whoever changes the port's answer must do. With budget
// set, a refusal is the array's port budget: no counter, never sticky.
type refusingStream struct {
	*fakeStream
	epoch, refusals uint64
	budget          bool
}

func (s *refusingStream) Produce(cycle uint64, q int, v uint64) (*port.Token, bool) {
	return s.count(s.fakeStream.Produce(cycle, q, v))
}

func (s *refusingStream) Consume(cycle uint64, q int) (*port.Token, bool) {
	return s.count(s.fakeStream.Consume(cycle, q))
}

func (s *refusingStream) count(tok *port.Token, ok bool) (*port.Token, bool) {
	if !ok && !s.budget {
		s.refusals++
	}
	return tok, ok
}

func (s *refusingStream) Refusal() (epoch, count *uint64, sticky bool) {
	if s.budget {
		return nil, nil, false
	}
	return &s.epoch, &s.refusals, true
}

// refuseUntil makes the stream refuse every operation before cycle, moving
// its epoch on the cycle it lets them through.
func refuseUntil(at uint64) func(*routeMem, *refusingStream, uint64) {
	return func(_ *routeMem, s *refusingStream, cycle uint64) {
		s.reject = cycle < at
		if cycle == at {
			s.epoch++
		}
	}
}

// ozqFullUntil does the same for the memory port.
func ozqFullUntil(at uint64) func(*routeMem, *refusingStream, uint64) {
	return func(m *routeMem, _ *refusingStream, cycle uint64) {
		m.accepts = cycle >= at
		if cycle == at {
			m.epoch++
		}
	}
}

var preL2ToBus = []stats.Bucket{stats.PreL2, stats.L2, stats.Bus}

// TestReplayLockstep is the licence for Core.Replay: two cores run one
// program against identical ports, one always ticked, the other replayed
// whenever Replay accepts the cycle, and after every cycle they must agree
// on every counter a result reports, the ports' refusal counters included.
// A refusal is replayed only while the refusing port's epoch holds still,
// and only if the port implements port.Refuser and calls it sticky.
func TestReplayLockstep(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func(b *asm.Builder)
		// stream, when set, builds each core's stream port (default: an
		// empty refusingStream); plain hands the core the bare fakeStream,
		// which does not implement port.Refuser. release, when set, runs
		// before every cycle to let a blocked port through.
		stream  func() *refusingStream
		plain   bool
		release func(m *routeMem, s *refusingStream, cycle uint64)
		stall   StallReason // must be charged at least one cycle
		replays bool        // whether Replay must accept some cycle
		// tickAt, when set, is a cycle inside a replayed stall on which the
		// port's epoch moves: Replay must refuse exactly that cycle.
		tickAt uint64
		// drainDue, when set, is the cycle the halted core's last token
		// completes: its drain cycles before then are charged through
		// FastForward, the way sim.Run's idle jump does. The mem's
		// single-region route keeps every drain cycle alike.
		drainDue uint64
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
		{name: "queue-full", stall: StallQueueFull, replays: true,
			release: refuseUntil(20),
			prog:    produceThenHalt},
		{name: "queue-full, port without Refusal", stall: StallQueueFull, plain: true,
			release: refuseUntil(20),
			prog:    produceThenHalt},
		{name: "queue-full, only the port budget refuses", stall: StallQueueFull,
			stream: func() *refusingStream {
				return &refusingStream{fakeStream: newFakeStream(), budget: true}
			},
			release: refuseUntil(20),
			prog:    produceThenHalt},
		{name: "queue-full, epoch moves mid-stall", stall: StallQueueFull, replays: true, tickAt: 10,
			release: func(m *routeMem, s *refusingStream, cycle uint64) {
				refuseUntil(20)(m, s, cycle)
				if cycle == 10 {
					s.epoch++ // an in-flight item landed: the producer's view is still full
				}
			},
			prog: produceThenHalt},
		{name: "queue-empty", stall: StallQueueEmpty, replays: true,
			release: func(_ *routeMem, s *refusingStream, cycle uint64) {
				if cycle == 20 {
					s.queues[0] = append(s.queues[0], 9)
					s.epoch++
				}
			},
			prog: func(b *asm.Builder) {
				b.Consume(1, 0)
				b.Add(2, 1, 1)
				b.Halt()
			}},
		{name: "ozq-full", stall: StallOzQFull, replays: true,
			release: ozqFullUntil(20),
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				b.Ld(2, 1, 0)
				b.Halt()
			}},
		{name: "fence", stall: StallFence, replays: true,
			release: ozqFullUntil(20),
			prog: func(b *asm.Builder) {
				b.Fence()
				b.Halt()
			}},
		// The load issues at 20 and completes after 3 hops of 4 cycles.
		{name: "halt after a refusal, drain fast-forwarded", stall: StallHalted, replays: true, drainDue: 32,
			release: refuseUntil(20),
			prog: func(b *asm.Builder) {
				b.MovI(1, 0x100)
				b.Produce(0, 1)
				b.Ld(2, 1, 0)
				b.Halt()
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			b := asm.NewBuilder("lockstep")
			tc.prog(b)
			prog := b.MustProgram()
			route := preL2ToBus
			if tc.drainDue != 0 {
				route = []stats.Bucket{stats.L2, stats.L2, stats.L2}
			}
			mems := [2]*routeMem{newRouteMem(4, route), newRouteMem(4, route)}
			strms := [2]*refusingStream{{fakeStream: newFakeStream()}, {fakeStream: newFakeStream()}}
			if tc.stream != nil {
				strms = [2]*refusingStream{tc.stream(), tc.stream()}
			}
			ports := [2]port.Stream{strms[0], strms[1]}
			if tc.plain {
				ports = [2]port.Stream{strms[0].fakeStream, strms[1].fakeStream}
			}
			ticked := New(0, p, prog, mems[0], ports[0])
			replayed := New(0, p, prog, mems[1], ports[1])

			replays := 0
			replayedAt := map[uint64]bool{}
			drained := false
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
					replayedAt[cycle] = true
				} else {
					replayed.Tick(cycle)
				}
				assertSameCounters(t, cycle, ticked, replayed)
				assertSameRefusals(t, cycle, strms)
				if ticked.Done(cycle) != replayed.Done(cycle) {
					t.Fatalf("cycle %d: Done %v ticked, %v replayed", cycle, ticked.Done(cycle), replayed.Done(cycle))
				}
				if ticked.Done(cycle) {
					break
				}
				if replayed.LastStall == StallHalted && cycle+1 < tc.drainDue {
					n := tc.drainDue - cycle - 1
					for k := uint64(1); k <= n; k++ {
						mems[0].tick(cycle + k)
						ticked.Tick(cycle + k)
					}
					replayed.FastForward(n)
					cycle += n
					assertSameCounters(t, cycle, ticked, replayed)
					assertSameRefusals(t, cycle, strms)
					drained = true
				}
			}
			if ticked.Stalls[tc.stall] == 0 {
				t.Errorf("never stalled on %v: %s", tc.stall, ticked.Stalls.Summary())
			}
			if tc.replays && replays == 0 {
				t.Error("Replay never accepted a cycle: the row does not exercise it")
			}
			if !tc.replays && replays != 0 {
				t.Errorf("Replay accepted %d cycles of a stall the port does not call sticky", replays)
			}
			if tc.tickAt != 0 && (!replayedAt[tc.tickAt-1] || replayedAt[tc.tickAt] || !replayedAt[tc.tickAt+1]) {
				t.Errorf("cycles %d, %d, %d replayed %v, %v, %v: want only the epoch's move ticked", tc.tickAt-1, tc.tickAt, tc.tickAt+1,
					replayedAt[tc.tickAt-1], replayedAt[tc.tickAt], replayedAt[tc.tickAt+1])
			}
			if tc.drainDue != 0 && !drained {
				t.Error("the drain was never fast-forwarded: the row does not exercise it")
			}
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if ticked.Reg(r) != replayed.Reg(r) {
					t.Errorf("r%d = %d ticked, %d replayed", r, ticked.Reg(r), replayed.Reg(r))
				}
			}
		})
	}
}

func produceThenHalt(b *asm.Builder) {
	b.MovI(1, 5)
	b.Produce(0, 1)
	b.Halt()
}

func assertSameRefusals(t *testing.T, cycle uint64, s [2]*refusingStream) {
	t.Helper()
	if s[0].refusals != s[1].refusals {
		t.Fatalf("cycle %d: %d refusals counted ticked, %d replayed", cycle, s[0].refusals, s[1].refusals)
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
