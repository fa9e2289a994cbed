package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/stats"
)

// fakeOptions is a grid pass over two sizes and every policy, with every
// statistic a table reads set.
func fakeOptions() *options {
	o := &options{grid: glapsim.Grid{Sizes: []int{10, 20}, Ratios: []int{2}}, cells: map[glapsim.Cell]*glapsim.CellStats{}}
	for _, size := range o.grid.Sizes {
		for i, p := range glapsim.Policies {
			c := glapsim.Cell{PMs: size, Ratio: 2, Policy: p}
			f := float64(i + 1)
			o.cells[c] = &glapsim.CellStats{
				Cell:               c,
				Overloaded:         stats.Summarize([]float64{f - 1, f, f + 0.5}),
				FracOverloaded:     stats.Summarize([]float64{0.1 * f}),
				Active:             stats.Summarize([]float64{5, 6}),
				BFDBaseline:        stats.Summarize([]float64{4}),
				MigrationsPerRound: stats.Summarize([]float64{0, f, 3 * f}),
				TotalMigrations:    stats.Summarize([]float64{100 * f}),
				CumMigrations:      []float64{1, 2.5 * f, 3 * f},
				EnergyKJ:           stats.Summarize([]float64{1.5, 1.0 / 3}),
				SLAV:               stats.Summarize([]float64{1e-9 * f}),
				TotalEnergyKWh:     stats.Summarize([]float64{2.25 * f}),
				ESV:                stats.Summarize([]float64{2.25e-9 * f * f}),
			}
			o.order = append(o.order, c)
		}
	}
	return o
}

// fakeConv is a Figure 5 result for two ratios, the second one sample
// short.
func fakeConv() []*glapsim.ConvergenceResult {
	return []*glapsim.ConvergenceResult{
		{Ratio: 2, Rounds: []int{0, 10, 20}, Cosine: []float64{0.3, 0.5, 1.0}, AggStart: 15},
		{Ratio: 3, Rounds: []int{0, 10, 20}, Cosine: []float64{0.4, 2.0 / 3}, AggStart: 15},
	}
}

// TestRowBuilders checks each grid table's shape: a distinct file, every row
// as wide as its header, a per-cell figure's rows in cell order.
func TestRowBuilders(t *testing.T) {
	o := fakeOptions()
	files := map[string]bool{}
	for _, tb := range gridTables(o) {
		if files[tb.file] || !strings.HasSuffix(tb.file, ".csv") {
			t.Fatalf("file %q duplicated or not a CSV name", tb.file)
		}
		files[tb.file] = true
		for i, row := range tb.rows {
			if len(row) != len(tb.rows[0]) {
				t.Fatalf("%s row %d: %v, header %v", tb.file, i, row, tb.rows[0])
			}
		}
		if tb.rows[0][0] == "cell" {
			for i, c := range o.order {
				if tb.rows[i+1][0] != c.String() {
					t.Fatalf("%s row %d is %v, want cell %s", tb.file, i+1, tb.rows[i+1], c)
				}
			}
		}
	}
	if len(files) != 7 {
		t.Fatalf("%d grid tables, want 7", len(files))
	}
	f9 := cumulativeTable(o)
	if len(f9.rows) != 4 || len(f9.rows[0]) != 1+len(glapsim.Policies) || !strings.Contains(f9.title, "20 PMs") {
		t.Fatalf("Figure 9 is not the middle size's 3 rounds: %q %v", f9.title, f9.rows)
	}
	if t1 := slavTable(o); len(t1.rows) != 3 || t1.rows[2][0] != "20-2" {
		t.Fatalf("Table I rows: %v", t1.rows)
	}
}

func TestConvergenceRows(t *testing.T) {
	tb := convergenceTable(16, fakeConv())
	rows := tb.rows
	if len(rows) != 4 || tb.file != "figure5_convergence.csv" || !strings.Contains(tb.title, "16 PMs") {
		t.Fatalf("table: %+v", tb)
	}
	if rows[1][1] != "WOG" || rows[3][1] != "WG" {
		t.Fatalf("phases wrong: %v", rows)
	}
	if rows[3][2] != "1" || rows[3][3] != "" {
		t.Fatalf("final similarities wrong: %v", rows[3])
	}
}

// TestWriteCSVDir holds every CSV file to its golden in testdata byte for
// byte. Regenerate with GLAP_GOLDEN_UPDATE=1 go test -run TestWriteCSVDir .
func TestWriteCSVDir(t *testing.T) {
	tables := append([]table{convergenceTable(16, fakeConv())}, gridTables(fakeOptions())...)
	dir := filepath.Join(t.TempDir(), "out")
	if os.Getenv("GLAP_GOLDEN_UPDATE") != "" {
		dir = "testdata"
	}
	if err := writeCSVDir(dir, tables); err != nil {
		t.Fatal(err)
	}
	written, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := filepath.Glob(filepath.Join("testdata", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(golden) || len(golden) != 8 {
		t.Fatalf("wrote %d files, testdata holds %d, want 8 each", len(written), len(golden))
	}
	for _, want := range golden {
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(want)))
		if err != nil {
			t.Fatal(err)
		}
		wantData, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantData) {
			t.Errorf("%s differs from its golden:\n got %q\nwant %q", filepath.Base(want), got, wantData)
		}
	}
}

// TestPrintedRowsAreCSVRows renders every table to a buffer: under its
// heading each printed line is the CSV row with the same first cell, and
// every row is printed except a thin table's skipped ones.
func TestPrintedRowsAreCSVRows(t *testing.T) {
	for _, tb := range append([]table{convergenceTable(16, fakeConv())}, gridTables(fakeOptions())...) {
		var b bytes.Buffer
		tb.print(&b)
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if lines[0] != "" || lines[1] != "== "+tb.title+" ==" {
			t.Fatalf("%s heading: %q", tb.file, lines[:2])
		}
		lines = lines[2:]
		if len(lines) != len(tb.rows) {
			t.Fatalf("%s printed %d rows, has %d", tb.file, len(lines), len(tb.rows))
		}
		for i, line := range lines {
			want := slices.DeleteFunc(slices.Clone(tb.rows[i]), func(s string) bool { return s == "" })
			if got := strings.Fields(line); !slices.Equal(got, want) {
				t.Fatalf("%s printed %q for CSV row %v", tb.file, line, tb.rows[i])
			}
		}
	}

	// Figure 9 prints every (rounds/12)-th round: 2, 4, ..., 30 of 30.
	o := fakeOptions()
	for _, s := range o.cells {
		s.CumMigrations = make([]float64, 30)
	}
	var b bytes.Buffer
	cumulativeTable(o).print(&b)
	var rounds []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n")[2:] {
		rounds = append(rounds, strings.Fields(line)[0])
	}
	want := []string{"2", "4", "6", "8", "10", "12", "14", "16", "18", "20", "22", "24", "26", "28", "30"}
	if !slices.Equal(rounds, want) {
		t.Fatalf("Figure 9 printed rounds %v, want %v", rounds, want)
	}
}
