package bench

import (
	"io"
	"os"
	"testing"
)

// TestFig5MidScale runs the Figure 5 sweep at a reduced scale and
// checks the paper's qualitative claims hold: MC ranges inside proven
// LICM bounds across every scheme, query and k.
func TestFig5MidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.NumTransactions = 600
	cfg.NumItems = 200
	cfg.Ks = []int{2, 4}
	cfg.MCSamples = 10
	cfg.Q3Frac = 0
	// Every cell has the same proven flags and bounds at 20,000 nodes
	// as at 150,000; a larger budget only lengthens the budget-limited
	// cells.
	cfg.Solver.MaxNodes = 20_000
	cells, err := cfg.Fig5(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Schemes)*3*len(cfg.Ks) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.LMinProven && c.MMin < c.LMin {
			t.Errorf("%s/%s k=%d: MC min %d below exact %d", c.Scheme, c.Query, c.K, c.MMin, c.LMin)
		}
		if c.LMaxProven && c.MMax > c.LMax {
			t.Errorf("%s/%s k=%d: MC max %d above exact %d", c.Scheme, c.Query, c.K, c.MMax, c.LMax)
		}
	}
	// The paper's headline: on generalization schemes the exact LICM
	// range strictly contains the MC range somewhere in the sweep.
	strictly := false
	for _, c := range cells {
		if c.LMinProven && c.LMaxProven && (c.LMin < c.MMin || c.LMax > c.MMax) {
			strictly = true
			break
		}
	}
	if !strictly {
		t.Error("MC explored the full range everywhere — expected strict containment somewhere")
	}
}

// TestFig5FullScale runs the default-scale sweep; opt in with
// LICM_FULL=1 (it takes minutes).
func TestFig5FullScale(t *testing.T) {
	if os.Getenv("LICM_FULL") == "" {
		t.Skip("set LICM_FULL=1 to run the full-scale Figure 5 sweep")
	}
	cfg := DefaultConfig()
	cells, err := cfg.Fig5(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.LMinProven && c.MMin < c.LMin {
			t.Errorf("%s/%s k=%d: MC min %d below exact %d", c.Scheme, c.Query, c.K, c.MMin, c.LMin)
		}
		if c.LMaxProven && c.MMax > c.LMax {
			t.Errorf("%s/%s k=%d: MC max %d above exact %d", c.Scheme, c.Query, c.K, c.MMax, c.LMax)
		}
	}
}
