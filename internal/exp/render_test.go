package exp

import (
	"context"
	"strings"
	"testing"
)

// TestAllFigureRenderers runs each figure once and checks its text
// rendering carries the expected structure (every benchmark row, a
// geomean line).
func TestAllFigureRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment set")
	}
	checks := func(name, table string) {
		t.Helper()
		for _, want := range []string{"art", "bzip2", "wc", "fft2", "GeoMean"} {
			if !strings.Contains(table, want) {
				t.Errorf("%s rendering missing %q", name, want)
			}
		}
	}

	f6, err := Fig6Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checks("fig6", f6.Table())

	f8, err := Fig8Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checks("fig8", f8.Table())

	f9, err := Fig9Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9.Table(), "Speedup") {
		t.Error("fig9 rendering broken")
	}

	f12, err := Fig12Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checks("fig12", f12.Table())
	if !strings.Contains(f12.Producer.Chart(), "legend:") {
		t.Error("fig12 chart broken")
	}
	if f12.Consumer == nil || len(f12.Consumer.Rows) != len(f12.Producer.Rows) {
		t.Error("fig12 consumer side missing")
	}

	costs, err := Costs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ct := costs.Table()
	for _, want := range []string{"HEAVYWT", "SYNCOPTI_SC+Q64", "%"} {
		if !strings.Contains(ct, want) {
			t.Errorf("cost table missing %q", want)
		}
	}
	if costs.StorageRatio <= 0 || costs.StorageRatio > 0.2 {
		t.Errorf("storage ratio %.3f out of the expected band", costs.StorageRatio)
	}
}
