package sim

import (
	"testing"

	"hfstream/internal/bus"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
)

// No run in the goldens ends with a bus request still queued (the bus
// grants one every cycle its address path is free), so the pending-request
// part of a Diagnosis is pinned here on a fabric whose bus never ticks.
func TestDiagnoseBusPending(t *testing.T) {
	fab, err := memsys.NewFabric(memsys.DefaultParams(queue.Layout{NumQueues: 2, Depth: 64, QLU: 8, LineBytes: 128}), mem.New(), 2)
	if err != nil {
		t.Fatal(err)
	}
	fab.Bus().Submit(5, &bus.Req{Kind: bus.Read, Addr: 0x1040, Src: 0})
	fab.Bus().Submit(6, &bus.Req{Kind: bus.Probe, Src: 0, Q: 1})
	fab.Bus().Submit(7, &bus.Req{Kind: bus.WriteForward, Addr: 0x400000000080, Src: 1, Q: 1})
	d := diagnose("watchdog", 10, 3, 100, nil, fab, nil, nil)
	js, err := DiagnosisJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(js); got != busPendingJSON {
		t.Errorf("JSON:\n%s\nwant:\n%s", got, busPendingJSON)
	}
	if got := d.String(); got != busPendingText {
		t.Errorf("String():\n%s\nwant:\n%s", got, busPendingText)
	}
}

const busPendingJSON = `{
  "reason": "watchdog",
  "cycle": 10,
  "last_progress": 3,
  "watchdog_idle": 100,
  "cores": null,
  "bus": {
    "addr_free": 0,
    "data_free": 0,
    "pending": [
      {
        "kind": "Read",
        "addr": "0x1040",
        "src": 0,
        "q": 0,
        "submit_at": 5
      },
      {
        "kind": "Probe",
        "addr": "0x0",
        "src": 0,
        "q": 1,
        "submit_at": 6
      },
      {
        "kind": "WriteForward",
        "addr": "0x400000000080",
        "src": 1,
        "q": 1,
        "submit_at": 7
      }
    ]
  }
}
`

const busPendingText = `watchdog (cycle 10, last progress at cycle 3, watchdog window 100)
  bus: addrFree=0 dataFree=0 pending=3
    Read addr=0x1040 src=0 q=0 submitted=5
    Probe addr=0x0 src=0 q=1 submitted=6
    WriteForward addr=0x400000000080 src=1 q=1 submitted=7
`
