package qlearn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// refDecode is the retired reflection decoder, kept as the oracle Decode is
// held to: encoding/json reads the first JSON value of r into a tableJSON —
// keys matched case-insensitively, unknown keys skipped, a repeated key
// overwriting the earlier one, anything after the value ignored — and the
// same validators check the result.
func refDecode(r io.Reader) (*Table, error) {
	var in tableJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("qlearn: decoding table: %w", err)
	}
	if err := validateEnvelope(&in); err != nil {
		return nil, err
	}
	t := New(in.Alpha, in.Gamma)
	for _, c := range in.Cells {
		if err := validateCell(c); err != nil {
			return nil, err
		}
		t.Set(c.S, c.A, c.Q)
	}
	return t, nil
}

// requireBitIdentical fails unless got and want hold the same cells with
// values of the same bits (Equal reads −0 and +0 as one) and the same
// learning parameters.
func requireBitIdentical(t *testing.T, got, want *Table) {
	t.Helper()
	if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) || math.Float64bits(got.Gamma) != math.Float64bits(want.Gamma) {
		t.Fatalf("parameters: got alpha=%g gamma=%g, want alpha=%g gamma=%g", got.Alpha, got.Gamma, want.Alpha, want.Gamma)
	}
	gk, wk := got.Keys(), want.Keys()
	if len(gk) != len(wk) {
		t.Fatalf("got %d cells, want %d", len(gk), len(wk))
	}
	for i, k := range wk {
		if gk[i] != k {
			t.Fatalf("cell %d: got key %v, want %v", i, gk[i], k)
		}
		if g, w := got.Get(k.S, k.A), want.Get(k.S, k.A); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("cell %v: got %v, want %v", k, g, w)
		}
	}
}
