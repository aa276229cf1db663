package harness

import (
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFig3GoldenOutput pins cross-PR determinism at the figure level: the
// rendered Fig 3 at this exact fidelity must match the byte-for-byte
// output captured before the PR-4 zero-alloc write path landed (memtable
// arenas, field slabs, WAL flusher persistence, client buffer reuse).
// Host-side allocation strategy must never leak into simulated results.
//
// If a future PR intentionally changes model numbers (a new calibration,
// an RNG-draw change), regenerate with:
//
//	go build -o /tmp/apmbench ./cmd/apmbench
//	/tmp/apmbench -quiet -figure 3 -scale 0.001 -measure 0.3 -warmup 0.1 \
//	  -nodes 1,2 -parallel 1 > internal/harness/testdata/fig3_quick.golden
//
// and call the shift out in CHANGES.md — that is the same "numbers
// shifted once" protocol PR-2 and PR-3 followed.
func TestFig3GoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure run skipped in -short")
	}
	want, err := os.ReadFile("testdata/fig3_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Config{
		Scale:      0.001,
		Measure:    300 * sim.Millisecond,
		Warmup:     100 * sim.Millisecond,
		NodeCounts: []int{1, 2},
	})
	r.Workers = 1
	fig, err := r.Figures()["3"]()
	if err != nil {
		t.Fatal(err)
	}
	// apmbench prints a blank separator line after each figure; compare
	// modulo trailing newlines.
	if got := strings.TrimRight(fig.Render(), "\n"); got != strings.TrimRight(string(want), "\n") {
		t.Fatalf("Fig 3 output diverged from the pre-PR-4 golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
