package qlearn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/glap-sim/glap/internal/jsonscan"
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

// Encode writes the table as JSON. Cells are emitted in deterministic
// (state, action) order so encodings of equal tables are byte-identical —
// convenient for checkpoint diffing.
func (t *Table) Encode(w io.Writer) error {
	out := tableJSON{Version: codecVersion, Alpha: t.Alpha, Gamma: t.Gamma}
	idx, vals := t.b.cells()
	for i, ci := range idx {
		k := cellKey(ci)
		out.Cells = append(out.Cells, cellJSON{S: k.S, A: k.A, Q: vals[i]})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("qlearn: encoding table: %w", err)
	}
	return bw.Flush()
}

// Decode reads a table previously written by Encode: the document must be
// one table and nothing but whitespace after it. See DecodeFrom for the
// grammar it accepts.
func Decode(r io.Reader) (*Table, error) {
	sc, err := jsonscan.Read(r)
	if err != nil {
		return nil, fmt.Errorf("qlearn: reading table: %w", err)
	}
	t, err := DecodeFrom(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.End(); err != nil {
		return nil, fmt.Errorf("qlearn: decoding table: %w", err)
	}
	return t, nil
}

var (
	tableKeys = []string{"version", "alpha", "gamma", "cells"}
	cellKeys  = []string{"s", "a", "q"}
)

// DecodeFrom reads one table at sc's position, in one pass and without
// reflection. It accepts what Encode writes, modulo whitespace and key
// order: the four envelope keys and each cell's three, each spelled exactly
// and given once; "cells" null for an empty table, else its cells in strictly
// ascending (state, action) order. Non-finite parameters or cell values and
// cells outside the span are rejected: a corrupt or hostile checkpoint must
// fail loudly here instead of reaching the table.
//
// The table gets one backing at its final size. Its cell count is known only
// once the list closes, so the cells gather first in a scratch array of the
// span's size: strictly ascending in-span cells never overflow it.
func DecodeFrom(sc *jsonscan.Scanner) (*Table, error) {
	var (
		env  tableJSON
		c    cellJSON
		prev = -1
		idx  [DenseSpan * DenseSpan]uint16
		vals [DenseSpan * DenseSpan]float64
		n    int
	)
	cellField := func(k int) (err error) {
		var v uint32
		switch k {
		case 0:
			v, err = sc.Uint32()
			c.S = State(v)
		case 1:
			v, err = sc.Uint32()
			c.A = Action(v)
		case 2:
			c.Q, err = sc.Float()
		}
		return err
	}
	cell := func() error {
		if err := sc.Object(cellKeys, cellField); err != nil {
			return err
		}
		if err := validateCell(c); err != nil {
			return err
		}
		i := int(c.S)*DenseSpan + int(c.A)
		if i <= prev {
			return fmt.Errorf("cell (%d, %d) out of ascending order", c.S, c.A)
		}
		prev = i
		idx[n], vals[n] = uint16(i), c.Q
		n++
		return nil
	}
	err := sc.Object(tableKeys, func(k int) (err error) {
		switch k {
		case 0:
			var v uint32
			if v, err = sc.Uint32(); err == nil && v != codecVersion {
				err = fmt.Errorf("unsupported table version %d", v)
			}
			env.Version = int(v)
		case 1:
			env.Alpha, err = sc.Float()
		case 2:
			env.Gamma, err = sc.Float()
		case 3:
			err = sc.List(cell)
		}
		return err
	})
	if err == nil {
		err = validateEnvelope(&env)
	}
	if err != nil {
		return nil, fmt.Errorf("qlearn: decoding table: %w", err)
	}
	t := &Table{Alpha: env.Alpha, Gamma: env.Gamma}
	if n > 0 {
		b := newBacking(n)
		b.idx, b.vals = append(b.idx, idx[:n]...), append(b.vals, vals[:n]...)
		t.b = b
	}
	return t, nil
}

// validateEnvelope checks the version and learning parameters of a decoded
// envelope. The non-finite checks are explicit even though no JSON number
// spells a NaN or ±Inf, and the range checks are written in
// positive form so a NaN fails them too: any future codec front-end that
// can carry such values must hit this wall.
func validateEnvelope(in *tableJSON) error {
	if in.Version != codecVersion {
		return fmt.Errorf("unsupported table version %d", in.Version)
	}
	if math.IsNaN(in.Alpha) || math.IsInf(in.Alpha, 0) || math.IsNaN(in.Gamma) || math.IsInf(in.Gamma, 0) {
		return fmt.Errorf("non-finite parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	if !(in.Alpha > 0 && in.Alpha <= 1 && in.Gamma >= 0 && in.Gamma < 1) {
		return fmt.Errorf("invalid parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	return nil
}

// validateCell rejects keys outside the DenseSpan×DenseSpan span and
// non-finite Q-values, so a corrupt or hostile checkpoint fails here rather
// than reaching Set, which panics on an out-of-span cell. A NaN Q would
// poison the NaN-sentinel row-max cache and spread through every subsequent
// merge average.
func validateCell(c cellJSON) error {
	if !inSpan(c.S, c.A) {
		return fmt.Errorf("cell key (%d, %d) outside the %d×%d span", c.S, c.A, DenseSpan, DenseSpan)
	}
	if math.IsNaN(c.Q) || math.IsInf(c.Q, 0) {
		return fmt.Errorf("non-finite Q-value %g at cell (%d, %d)", c.Q, c.S, c.A)
	}
	return nil
}
