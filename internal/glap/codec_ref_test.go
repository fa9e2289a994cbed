package glap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

// fixturePath is the Q store the benchmark's warm workloads restore: 4,305
// cells of a default pre-training at 500 PMs, ratio 3, seed 1. Tests only
// read it.
const fixturePath = "../../bench/testdata/qtables_500x3_seed1.json"

func readFixture(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(fixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// refLoadTables is the retired reflection loader, kept as the oracle
// LoadTables is held to. encoding/json reads the first JSON value of r into
// storeJSON, keeping each table as a raw document, then reads each table the
// way the retired qlearn.Decode did (refDecodeTable): keys matched
// case-insensitively, unknown keys skipped, a repeated key overwriting the
// earlier one, anything after the value ignored.
func refLoadTables(r io.Reader) (*NodeTables, error) {
	var in storeJSON
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&in); err != nil {
		return nil, fmt.Errorf("glap: decoding Q store: %w", err)
	}
	if in.Version != storeVersion {
		return nil, fmt.Errorf("glap: unsupported Q store version %d", in.Version)
	}
	out, err := refDecodeTable(in.Out)
	if err != nil {
		return nil, err
	}
	inTbl, err := refDecodeTable(in.In)
	if err != nil {
		return nil, err
	}
	return &NodeTables{Out: out, In: inTbl, Trained: in.Trained}, nil
}

// refDecodeTable is the retired qlearn.Decode with its validators inlined.
func refDecodeTable(raw []byte) (*qlearn.Table, error) {
	var in struct {
		Version      int
		Alpha, Gamma float64
		Cells        []struct {
			S qlearn.State
			A qlearn.Action
			Q float64
		}
	}
	if err := json.NewDecoder(bufio.NewReader(bytes.NewReader(raw))).Decode(&in); err != nil {
		return nil, fmt.Errorf("qlearn: decoding table: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("qlearn: unsupported table version %d", in.Version)
	}
	if !(in.Alpha > 0 && in.Alpha <= 1 && in.Gamma >= 0 && in.Gamma < 1) {
		return nil, fmt.Errorf("qlearn: invalid parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	t := qlearn.New(in.Alpha, in.Gamma)
	for _, c := range in.Cells {
		if int(c.S) >= qlearn.DenseSpan || int(c.A) >= qlearn.DenseSpan {
			return nil, fmt.Errorf("qlearn: cell key (%d, %d) outside the span", c.S, c.A)
		}
		if math.IsNaN(c.Q) || math.IsInf(c.Q, 0) {
			return nil, fmt.Errorf("qlearn: non-finite Q-value %g at cell (%d, %d)", c.Q, c.S, c.A)
		}
		t.Set(c.S, c.A, c.Q)
	}
	return t, nil
}
