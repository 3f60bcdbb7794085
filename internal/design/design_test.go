package design

import (
	"testing"
)

func TestNames(t *testing.T) {
	cases := map[string]Config{
		"EXISTING":        ExistingConfig(),
		"MEMOPTI":         MemOptiConfig(),
		"SYNCOPTI":        SyncOptiConfig(),
		"SYNCOPTI_Q64":    SyncOptiQ64Config(),
		"SYNCOPTI_SC":     SyncOptiSCConfig(),
		"SYNCOPTI_SC+Q64": SyncOptiSCQ64Config(),
		"HEAVYWT":         HeavyWTConfig(),
	}
	for want, cfg := range cases {
		if cfg.Name() != want {
			t.Errorf("Name = %q, want %q", cfg.Name(), want)
		}
	}
}

func TestLayoutsValid(t *testing.T) {
	for _, cfg := range []Config{
		ExistingConfig(), MemOptiConfig(), SyncOptiConfig(),
		SyncOptiQ64Config(), SyncOptiSCConfig(), SyncOptiSCQ64Config(),
		HeavyWTConfig(),
	} {
		if err := cfg.Layout().Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name(), err)
		}
		sc := cfg.SimConfig()
		if err := sc.Mem.Validate(); err != nil {
			t.Errorf("%s sim config: %v", cfg.Name(), err)
		}
	}
}

func TestMechanismFlags(t *testing.T) {
	if !ExistingConfig().SoftwareQueues() || !MemOptiConfig().SoftwareQueues() {
		t.Error("EXISTING/MEMOPTI must lower to software queues")
	}
	if SyncOptiConfig().SoftwareQueues() || HeavyWTConfig().SoftwareQueues() {
		t.Error("SYNCOPTI/HEAVYWT must not lower")
	}
	if c := MemOptiConfig().SimConfig(); !c.Mem.WriteForward || c.Mem.HWQueues {
		t.Error("MEMOPTI flags wrong")
	}
	if c := SyncOptiConfig().SimConfig(); !c.Mem.HWQueues || !c.Mem.WriteForward {
		t.Error("SYNCOPTI flags wrong")
	}
	if c := HeavyWTConfig().SimConfig(); !c.UseSyncArray || c.Mem.HWQueues {
		t.Error("HEAVYWT flags wrong")
	}
	if c := SyncOptiSCQ64Config(); c.QueueDepth != 64 || c.QLU != 16 || c.StreamCacheEntries != 64 {
		t.Error("SC+Q64 parameters wrong")
	}
}

func TestFourPointsOrder(t *testing.T) {
	pts := FourPoints()
	want := []string{"HEAVYWT", "SYNCOPTI", "MEMOPTI", "EXISTING"}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, w := range want {
		if pts[i].Name() != w {
			t.Errorf("point %d = %s, want %s", i, pts[i].Name(), w)
		}
	}
}

func TestExtensionConfigs(t *testing.T) {
	rm := RegMappedConfig()
	if rm.Name() != "REGMAPPED" || !rm.SimConfig().Core.RegMappedQueues {
		t.Error("REGMAPPED config wrong")
	}
	cs := CentralizedStoreConfig(4)
	if cs.SimConfig().SA.ConsumeToUse != 4 {
		t.Error("centralized store latency not applied")
	}
	for _, hops := range []int{1, 2, 4, 8} {
		nq := NetQueueConfig(hops)
		if err := nq.Layout().Validate(); err != nil {
			t.Errorf("NETQUEUE %d hops: %v", hops, err)
		}
		sc := nq.SimConfig()
		if sc.SA.InterconnectLatency != hops {
			t.Errorf("NETQUEUE %d hops: latency %d", hops, sc.SA.InterconnectLatency)
		}
		if sc.SA.Depth != hops*netQueueBufsPerHop {
			t.Errorf("NETQUEUE %d hops: depth %d", hops, sc.SA.Depth)
		}
	}
	to := SyncOptiConfig()
	to.ProbeTimeout = 99
	if to.SimConfig().Mem.ConsumeTimeout != 99 {
		t.Error("probe timeout not applied")
	}
}

func TestBusKnobs(t *testing.T) {
	c := ExistingConfig()
	c.BusCPB = 4
	c.BusWidth = 128
	c.BusPipelined = false
	sc := c.SimConfig()
	if sc.Mem.Bus.CPB != 4 || sc.Mem.Bus.WidthBytes != 128 || sc.Mem.Bus.Pipelined {
		t.Error("bus knobs not forwarded")
	}
	h := HeavyWTConfig()
	h.InterconnectLat = 10
	if got := h.SimConfig().SA.InterconnectLatency; got != 10 {
		t.Errorf("interconnect latency = %d", got)
	}
}
