package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// validUtil reports whether x is a utilisation fraction. The test is written
// positively because NaN — which ParseFloat accepts — fails every ordered
// comparison, so "x < 0 || x > 1" lets it through into the demand sums.
func validUtil(x float64) bool { return x >= 0 && x <= 1 }

// LoadCSV reads a workload Set from CSV rows of the form
//
//	vm,round,cpu,mem
//
// where cpu and mem are utilisation fractions in [0, 1]. A first line whose
// leading field is not an integer is treated as a header and skipped
// regardless of how many fields it has — real ClusterData extracts carry
// headers (or tool-emitted comment lines) with arbitrary field counts, and
// the old fixed FieldsPerRecord=4 rejected them before the skip could run.
// Data rows must have exactly 4 fields; a violation reports the offending
// line and its field count. This is the drop-in path for real Google
// ClusterData extracts: resample task usage onto the simulation round grid
// and export it in this format. All VMs must cover the same round range
// [0, R).
func LoadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	// Field-count validation happens per data row below, not in the reader:
	// the reader would reject a ≠4-field header line before the header skip
	// ever saw it.
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true

	type cell struct {
		round int
		s     Sample
	}
	byVM := map[int][]cell{}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV: %w", err)
		}
		line++
		if line == 1 {
			if _, err := strconv.Atoi(rec[0]); err != nil {
				continue // header
			}
		}
		if len(rec) != 4 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 4 (vm,round,cpu,mem)", line, len(rec))
		}
		vm, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad vm id %q", line, rec[0])
		}
		round, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad round %q", line, rec[1])
		}
		cpu, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad cpu %q", line, rec[2])
		}
		mem, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad mem %q", line, rec[3])
		}
		if vm < 0 || round < 0 {
			return nil, fmt.Errorf("trace: line %d: negative vm or round", line)
		}
		if !validUtil(cpu) {
			return nil, fmt.Errorf("trace: line %d: cpu %q not in [0,1]", line, rec[2])
		}
		if !validUtil(mem) {
			return nil, fmt.Errorf("trace: line %d: mem %q not in [0,1]", line, rec[3])
		}
		byVM[vm] = append(byVM[vm], cell{round, Sample{CPU: cpu, Mem: mem}})
	}
	if len(byVM) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}

	vms := make([]int, 0, len(byVM))
	for vm := range byVM {
		vms = append(vms, vm)
	}
	sort.Ints(vms)
	if vms[len(vms)-1] != len(vms)-1 {
		return nil, fmt.Errorf("trace: vm ids must be dense 0..%d, got max %d", len(vms)-1, vms[len(vms)-1])
	}

	rounds := len(byVM[0])
	set := &Set{rounds: rounds, series: make([][]Sample, len(vms))}
	for _, vm := range vms {
		cells := byVM[vm]
		if len(cells) != rounds {
			return nil, fmt.Errorf("trace: vm %d has %d rounds, expected %d", vm, len(cells), rounds)
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].round < cells[j].round })
		ser := make([]Sample, rounds)
		for i, c := range cells {
			if c.round != i {
				return nil, fmt.Errorf("trace: vm %d: missing or duplicate round %d", vm, i)
			}
			ser[i] = c.s
		}
		set.series[vm] = ser
	}
	return set, nil
}

// WriteCSV writes the set in the format accepted by LoadCSV, including a
// header row.
func WriteCSV(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "vm,round,cpu,mem"); err != nil {
		return err
	}
	for vm := range s.series {
		for r, sm := range s.series[vm] {
			if _, err := fmt.Fprintf(bw, "%d,%d,%.6f,%.6f\n", vm, r, sm.CPU, sm.Mem); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// gzipMagic are the first two bytes of any gzip stream.
var gzipMagic = [2]byte{0x1f, 0x8b}

// LoadFile reads a workload set from path, transparently decompressing
// gzip-compressed traces (detected by magic bytes, not extension) — full
// Google-trace extracts are large, so compressed storage matters.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(2)
	if err == nil && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip: %w", err)
		}
		defer zr.Close()
		return LoadCSV(zr)
	}
	return LoadCSV(br)
}

// WriteFile writes the set to path; a ".gz" suffix selects gzip
// compression.
func WriteFile(path string, s *Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := WriteCSV(zw, s); err != nil {
			zw.Close()
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		return f.Close()
	}
	if err := WriteCSV(f, s); err != nil {
		return err
	}
	return f.Close()
}
