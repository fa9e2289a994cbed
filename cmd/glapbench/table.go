package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	glapsim "github.com/glap-sim/glap"
)

// table is one artifact as -exp prints it and -csv writes it: the same rows,
// header first, in both.
type table struct {
	title string // the printed heading; none when empty
	file  string // the CSV file name
	rows  [][]string
	// thin prints the header and about 12 evenly spaced data rows, so
	// Figure 9's one row per round stays readable on a terminal.
	thin bool
}

// print renders t as aligned columns under its heading. A thin table prints
// every step-th data row, step = rows/12.
func (t table) print(w io.Writer) {
	if t.title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.title)
	}
	step := 1
	if t.thin {
		step = max((len(t.rows)-1)/12, 1)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, row := range t.rows {
		if i%step == 0 {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
	}
	tw.Flush()
}

// fields formats one tab-separated row and splits it into its cells.
func fields(format string, a ...any) []string {
	return strings.Split(fmt.Sprintf(format, a...), "\t")
}

// writeCSVDir writes every table to its file in dir.
func writeCSVDir(dir string, tables []table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		if err := writeCSV(filepath.Join(dir, t.file), t.rows); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// cellTable builds a per-cell figure: one row per grid cell in run order,
// the cell then the values vals reads from its statistics, under cols.
func cellTable(title, file string, cols []string, vals func(*glapsim.CellStats) []float64) func(*options) table {
	return func(o *options) table {
		rows := [][]string{append([]string{"cell"}, cols...)}
		for _, c := range o.order {
			row := []string{c.String()}
			for _, v := range vals(o.cells[c]) {
				row = append(row, ftoa(v))
			}
			rows = append(rows, row)
		}
		return table{title: title, file: file, rows: rows}
	}
}

// convergenceTable is Figure 5: the cosine similarity of each ratio's
// Q-values at every sampled round, and the phase the round falls in.
func convergenceTable(pms int, conv []*glapsim.ConvergenceResult) table {
	rows := [][]string{{"round", "phase"}}
	for _, r := range conv {
		rows[0] = append(rows[0], fmt.Sprintf("ratio%d", r.Ratio))
	}
	if len(conv) > 0 {
		for i, round := range conv[0].Rounds {
			phase := "WOG"
			if round >= conv[0].AggStart {
				phase = "WG"
			}
			row := []string{strconv.Itoa(round), phase}
			for _, r := range conv {
				v := ""
				if i < len(r.Cosine) {
					v = ftoa(r.Cosine[i])
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
	}
	return table{
		title: fmt.Sprintf("Figure 5: Q-value convergence (cosine similarity), %d PMs; learning phase (WOG) then aggregation phase (WG)", pms),
		file:  "figure5_convergence.csv", rows: rows,
	}
}

// cumulativeTable is Figure 9: the cumulative migrations of every ratio ×
// policy after each round. The paper plots its 1000-PM cluster; this takes
// the middle configured size.
func cumulativeTable(o *options) table {
	size := o.grid.Sizes[len(o.grid.Sizes)/2]
	rows := [][]string{{"round"}}
	var series []*glapsim.CellStats
	for _, c := range o.order {
		if c.PMs == size {
			rows[0] = append(rows[0], fmt.Sprintf("%d-%s", c.Ratio, c.Policy))
			series = append(series, o.cells[c])
		}
	}
	for i := range series[0].CumMigrations {
		row := []string{strconv.Itoa(i + 1)}
		for _, s := range series {
			row = append(row, ftoa(s.CumMigrations[i]))
		}
		rows = append(rows, row)
	}
	return table{
		title: fmt.Sprintf("Figure 9: cumulative migrations over time (%d PMs)", size),
		file:  "figure9_cumulative.csv", rows: rows, thin: true,
	}
}

// slavTable is Table I: the median SLAV of every policy per size × ratio.
func slavTable(o *options) table {
	rows := [][]string{{"size_ratio"}}
	for _, p := range glapsim.Policies {
		rows[0] = append(rows[0], string(p))
	}
	for _, size := range o.grid.Sizes {
		for _, ratio := range o.grid.Ratios {
			row := []string{fmt.Sprintf("%d-%d", size, ratio)}
			for _, p := range glapsim.Policies {
				row = append(row, ftoa(o.cells[glapsim.Cell{PMs: size, Ratio: ratio, Policy: p}].SLAV.Median))
			}
			rows = append(rows, row)
		}
	}
	return table{title: "Table I: SLAV for various cluster sizes and workload ratios", file: "table1_slav.csv", rows: rows}
}
