package hfstream

import (
	"errors"
	"fmt"
	"testing"
)

// mpmcWorkload builds P producer and C consumer programs sharing queue 0
// under the ticket discipline: N items total, producer i contributing
// values (i+nP)*3+1 for its tickets, consumer j storing an
// order-sensitive prefix checksum of its N/C tickets at 0x8000+8j. It
// also returns the expected checksums.
func mpmcWorkload(t *testing.T, p, c, n int) ([]*Program, []uint64) {
	t.Helper()
	if n%p != 0 || n%c != 0 {
		t.Fatalf("N=%d not divisible by P=%d and C=%d", n, p, c)
	}
	progs := make([]*Program, 0, p+c)
	for i := 0; i < p; i++ {
		src := fmt.Sprintf(`
		movi r1, %d
		movi r2, %d
		movi r3, %d
	loop:
		produce q0, r1
		add  r1, r1, r2
		addi r3, r3, -1
		bnez r3, loop
		halt
	`, i*3+1, p*3, n/p)
		progs = append(progs, mustCompile(t, fmt.Sprintf("p%d", i), src))
	}
	want := make([]uint64, c)
	for j := 0; j < c; j++ {
		src := fmt.Sprintf(`
		movi r1, 0
		movi r2, 0
		movi r5, %d
		movi r6, %d
	loop:
		consume r3, q0
		add  r1, r1, r3
		add  r2, r2, r1
		addi r5, r5, -1
		bnez r5, loop
		st   [r6+0], r2
		halt
	`, n/c, 0x8000+8*j)
		progs = append(progs, mustCompile(t, fmt.Sprintf("c%d", j), src))
		var acc uint64
		for i := 0; i < n/c; i++ {
			acc += uint64((i*c+j)*3 + 1)
			want[j] += acc
		}
	}
	return progs, want
}

// Every design that claims MPMC support must reproduce the functional
// interpreter's ticket semantics bit for bit, across fan-in, fan-out and
// full MPMC topologies; SYNCOPTI must refuse with the typed error rather
// than run its colliding slot counters.
func TestRunProgramsMPMCMatchesInterpret(t *testing.T) {
	if testing.Short() {
		t.Skip("MPMC design sweep")
	}
	topologies := []struct{ p, c, n int }{
		{2, 1, 24}, // fan-in
		{1, 2, 24}, // fan-out
		{2, 2, 24}, // full MPMC
		{4, 2, 24}, // wide fan-in, 6 cores
	}
	accept := []Design{Existing, MemOpti, HeavyWT, MPMCQ64}
	reject := []Design{SyncOpti, SyncOptiQ64, SyncOptiSC, SyncOptiSCQ64}
	for _, topo := range topologies {
		progs, want := mpmcWorkload(t, topo.p, topo.c, topo.n)
		oracle, err := Interpret(progs, nil)
		if err != nil {
			t.Fatalf("%dP%dC: oracle: %v", topo.p, topo.c, err)
		}
		for j, w := range want {
			if got := oracle(uint64(0x8000 + 8*j)); got != w || w == 0 {
				t.Fatalf("%dP%dC: oracle checksum %d = %d, want %d", topo.p, topo.c, j, got, w)
			}
		}
		for _, d := range accept {
			run, err := RunPrograms(d, progs, nil)
			if err != nil {
				t.Errorf("%dP%dC on %s: %v", topo.p, topo.c, d.Name(), err)
				continue
			}
			for j, w := range want {
				if got := run.Read(uint64(0x8000 + 8*j)); got != w {
					t.Errorf("%dP%dC on %s: consumer %d checksum = %d, want %d",
						topo.p, topo.c, d.Name(), j, got, w)
				}
			}
		}
		if topo.p == 1 && topo.c == 1 {
			continue
		}
		for _, d := range reject {
			_, err := RunPrograms(d, progs, nil)
			var me *MPMCUnsupportedError
			if !errors.As(err, &me) {
				t.Errorf("%dP%dC on %s: err = %v, want MPMCUnsupportedError",
					topo.p, topo.c, d.Name(), err)
				continue
			}
			if me.Design != d.Name() || len(me.Queues) != 1 || me.Queues[0] != 0 {
				t.Errorf("%dP%dC on %s: error detail %+v", topo.p, topo.c, d.Name(), me)
			}
		}
	}
}

// SupportsMPMC is one rule (every point but SYNCOPTI); it must agree with
// what the machine each name builds can do — software queues, the
// synchronization array, or no in-memory queue controller — on every form
// DesignByName accepts.
func TestSupportsMPMCEveryName(t *testing.T) {
	var names []string
	for _, n := range DesignNames() {
		switch n {
		case "NETQUEUE_<h>hop":
			names = append(names, "NETQUEUE_1hop", "NETQUEUE_3hop")
		case "<design>_<k>CORE":
		default:
			names = append(names, n, n+"_6CORE")
		}
	}
	for _, name := range names {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		simCfg := d.cfg.SimConfig()
		want := d.cfg.SoftwareQueues() || simCfg.UseSyncArray || !simCfg.Mem.HWQueues
		if d.SupportsMPMC() != want {
			t.Errorf("%s: SupportsMPMC() = %v, want %v", name, d.SupportsMPMC(), want)
		}
	}
}

// An endpoint count that does not divide the queue depth must fail
// cleanly everywhere: the software lowering and the syncarray both reject
// it instead of letting slot ownership drift across wraps.
func TestRunProgramsMPMCBadEndpointCount(t *testing.T) {
	progs, _ := mpmcWorkload(t, 3, 1, 24) // 3 does not divide 32 slots
	for _, d := range []Design{Existing, HeavyWT} {
		if _, err := RunPrograms(d, progs, nil); err == nil {
			t.Errorf("%s accepted 3 producers on a 32-slot queue", d.Name())
		}
	}
}
