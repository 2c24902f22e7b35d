package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// Fig5 runs the Figure 5 sweep: for every scheme and query, LICM
// bounds vs MC bounds across the anonymity parameters. Progress and
// tables are written to w (pass io.Discard to silence).
func (cfg Config) Fig5(w io.Writer) ([]Cell, error) {
	var cells []Cell
	for _, scheme := range Schemes {
		for _, q := range cfg.Queries() {
			for _, k := range cfg.Ks {
				cell, err := cfg.RunCell(scheme, q, k)
				if err != nil {
					return cells, err
				}
				fmt.Fprintf(w, "cell %s/%s k=%d: L=[%d,%d] M=[%d,%d] quality=%s solve=%.0fms mc=%.0fms\n",
					scheme, q.Name(), k, cell.LMin, cell.LMax, cell.MMin, cell.MMax,
					cell.Quality, ms(cell.LSolve), ms(cell.MCTime))
				cells = append(cells, cell)
			}
		}
	}
	PrintFig5(w, cells)
	return cells, nil
}

// PrintFig5 renders Figure 5 as one table per (scheme, query) panel,
// series L_min/L_max/M_min/M_max against k — the paper's 3x3 grid.
func PrintFig5(w io.Writer, cells []Cell) {
	byPanel := map[string][]Cell{}
	var order []string
	for _, c := range cells {
		key := string(c.Scheme) + " / " + c.Query
		if _, ok := byPanel[key]; !ok {
			order = append(order, key)
		}
		byPanel[key] = append(byPanel[key], c)
	}
	for _, key := range order {
		fmt.Fprintf(w, "\nFigure 5 panel: %s\n", key)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "k\tL_min\tL_max\tM_min\tM_max\tproven")
		for _, c := range byPanel[key] {
			proven := "exact"
			switch {
			case c.Quality == "failed":
				proven = "failed (no proven bounds; LICM series unusable)"
			case !c.LMinProven || !c.LMaxProven:
				proven = fmt.Sprintf("approx (found [%d,%d])", c.LMinFound, c.LMaxFound)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n", c.K, c.LMin, c.LMax, c.MMin, c.MMax, proven)
		}
		tw.Flush()
	}
}

// Fig6 runs the Figure 6 timing comparison at the largest k: MC total
// time vs the L-model / L-query / L-solve split, per scheme and query.
func (cfg Config) Fig6(w io.Writer) ([]Cell, error) {
	k := cfg.Ks[len(cfg.Ks)-1]
	var cells []Cell
	for _, q := range cfg.Queries() {
		for _, scheme := range Schemes {
			cell, err := cfg.RunCell(scheme, q, k)
			if err != nil {
				return cells, err
			}
			cells = append(cells, cell)
		}
	}
	PrintFig6(w, cells)
	return cells, nil
}

// PrintFig6 renders the timing table (the paper plots these as
// log-scale bars).
func PrintFig6(w io.Writer, cells []Cell) {
	byQuery := map[string][]Cell{}
	var order []string
	for _, c := range cells {
		if _, ok := byQuery[c.Query]; !ok {
			order = append(order, c.Query)
		}
		byQuery[c.Query] = append(byQuery[c.Query], c)
	}
	for _, q := range order {
		fmt.Fprintf(w, "\nFigure 6: timing for %s (k=%d, times in ms)\n", q, byQuery[q][0].K)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "anonymization\tMC\tL-model\tL-query\tL-solve\tL-total")
		for _, c := range byQuery[q] {
			fmt.Fprintf(tw, "%s\t%.1f\t%.2f\t%.2f\t%.1f\t%.1f\n",
				c.Scheme,
				ms(c.MCTime), ms(c.LModel), ms(c.LQuery), ms(c.LSolve),
				ms(c.LModel+c.LQuery+c.LSolve))
		}
		tw.Flush()
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// Fig7 runs the pruning-effectiveness measurement: variables and
// constraints at modeling time, after query processing, and after
// pruning, for Query 2 and Query 3 under k-anonymity with k=6 —
// exactly the paper's Figure 7(a)/(b).
func (cfg Config) Fig7(w io.Writer) ([]Cell, error) {
	const k = 6
	var cells []Cell
	qs := cfg.Queries()
	for _, q := range []int{1, 2} { // Q2 and Q3
		cell, err := cfg.RunCell(SchemeK, qs[q], k)
		if err != nil {
			return cells, err
		}
		cells = append(cells, cell)
	}
	PrintFig7(w, cells)
	return cells, nil
}

// PrintFig7 renders the pruning tables.
func PrintFig7(w io.Writer, cells []Cell) {
	for _, c := range cells {
		fmt.Fprintf(w, "\nFigure 7: pruning for %s (%s, k=%d)\n", c.Query, c.Scheme, c.K)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "\tLICM modeling\tQuerying\tAfter pruning")
		fmt.Fprintf(tw, "# variables\t%d\t%d\t%d\n", c.VarsModel, c.VarsQuery, c.VarsPruned)
		fmt.Fprintf(tw, "# constraints\t%d\t%d\t%d\n", c.ConsModel, c.ConsQuery, c.ConsPruned)
		tw.Flush()
	}
}
