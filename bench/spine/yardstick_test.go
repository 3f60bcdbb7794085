package main

import "testing"

// The yardstick is the unit every host time is read in; if its work
// changed, every earlier figure would silently stop being comparable.
func TestYardstickIsFrozen(t *testing.T) {
	if ytIters != 5000 || ytTableLen*8 != 4096 || ytHeapLen != 64 {
		t.Fatalf("yardstick shape changed: %d iterations, %d B table, %d-entry heap", ytIters, ytTableLen*8, ytHeapLen)
	}
	if got := yardstick(); got != ytChecksum {
		t.Fatalf("yardstick checksum %#x, pinned %#x: the kernel's work changed", got, ytChecksum)
	}
}
