package qlearn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// tableJSON is the serialised form of a Table: a versioned envelope with the
// learning parameters and a flat, deterministic cell list.
type tableJSON struct {
	Version int        `json:"version"`
	Alpha   float64    `json:"alpha"`
	Gamma   float64    `json:"gamma"`
	Cells   []cellJSON `json:"cells"`
}

type cellJSON struct {
	S State   `json:"s"`
	A Action  `json:"a"`
	Q float64 `json:"q"`
}

// codecVersion is the only envelope version Decode accepts. A retired
// float32 value width once wrote version 2; such documents are refused.
const codecVersion = 1

// maxCodecKey bounds the state/action values Decode accepts. The dense
// backing allocates numS×numA cells, so an absurd key in a corrupt or
// hostile checkpoint must fail the decode instead of forcing a huge
// allocation. GLAP's calibrated spaces are < 100 per dimension.
const maxCodecKey = 1 << 20

// Encode writes the table as JSON. Cells are emitted in deterministic
// (state, action) order so encodings of equal tables are byte-identical —
// convenient for checkpoint diffing.
func (t *Table) Encode(w io.Writer) error {
	out := tableJSON{Version: codecVersion, Alpha: t.Alpha, Gamma: t.Gamma}
	for _, k := range t.Keys() {
		out.Cells = append(out.Cells, cellJSON{S: k.S, A: k.A, Q: t.Get(k.S, k.A)})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("qlearn: encoding table: %w", err)
	}
	return bw.Flush()
}

// Decode reads a table previously written by Encode. Non-finite parameters
// or cell values are
// rejected: a NaN Q-value would poison the NaN-sentinel row-max cache and
// propagate through every subsequent merge, so a corrupt or hostile
// checkpoint must fail loudly here instead.
func Decode(r io.Reader) (*Table, error) {
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

// validateEnvelope checks the version and learning parameters of a decoded
// envelope. The non-finite checks are explicit even though encoding/json
// cannot parse a NaN or ±Inf number, and the range checks are written in
// positive form so a NaN fails them too: any future codec front-end that
// can carry such values must hit this wall.
func validateEnvelope(in *tableJSON) error {
	if in.Version != codecVersion {
		return fmt.Errorf("qlearn: unsupported table version %d", in.Version)
	}
	if math.IsNaN(in.Alpha) || math.IsInf(in.Alpha, 0) || math.IsNaN(in.Gamma) || math.IsInf(in.Gamma, 0) {
		return fmt.Errorf("qlearn: non-finite parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	if !(in.Alpha > 0 && in.Alpha <= 1 && in.Gamma >= 0 && in.Gamma < 1) {
		return fmt.Errorf("qlearn: invalid parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	return nil
}

// validateCell rejects out-of-range keys and non-finite Q-values: a NaN Q
// would poison the NaN-sentinel row-max cache and spread through every
// subsequent merge average, so a corrupt or hostile checkpoint fails here.
func validateCell(c cellJSON) error {
	if c.S >= maxCodecKey || c.A >= maxCodecKey {
		return fmt.Errorf("qlearn: cell key (%d, %d) out of range", c.S, c.A)
	}
	if math.IsNaN(c.Q) || math.IsInf(c.Q, 0) {
		return fmt.Errorf("qlearn: non-finite Q-value %g at cell (%d, %d)", c.Q, c.S, c.A)
	}
	return nil
}
