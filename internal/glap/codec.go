package glap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/glap-sim/glap/internal/jsonscan"
	"github.com/glap-sim/glap/internal/qlearn"
)

// storeJSON is the serialised form of a NodeTables Q store: both tables
// embedded as their own JSON documents so the qlearn codec owns the cell
// format.
type storeJSON struct {
	Version int             `json:"version"`
	Trained bool            `json:"trained"`
	Out     json.RawMessage `json:"out"`
	In      json.RawMessage `json:"in"`
}

const storeVersion = 1

// SaveTables serialises a Q store. Pre-trained stores checkpointed this way
// can be re-deployed without re-running the 700-round learning phase.
func SaveTables(w io.Writer, t *NodeTables) error {
	encode := func(tbl *qlearn.Table) (json.RawMessage, error) {
		var buf bytes.Buffer
		if err := tbl.Encode(&buf); err != nil {
			return nil, err
		}
		return json.RawMessage(buf.Bytes()), nil
	}
	out, err := encode(t.Out)
	if err != nil {
		return err
	}
	in, err := encode(t.In)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(storeJSON{
		Version: storeVersion, Trained: t.Trained, Out: out, In: in,
	}); err != nil {
		return fmt.Errorf("glap: encoding Q store: %w", err)
	}
	return bw.Flush()
}

// CheckpointTables serialises a Q store to bytes — the in-memory form of
// SaveTables that the failure scenarios use to snapshot a PM's tables right
// before an injected crash, so a recovered machine can warm-restart instead
// of re-learning from scratch.
func CheckpointTables(t *NodeTables) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveTables(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreTables rebuilds a Q store from a CheckpointTables snapshot. The
// restored store is byte-identical under re-checkpointing: the codec is the
// warm-restart contract, so a restore must lose nothing.
//
// It reads the snapshot in one pass, without reflection, and accepts what
// SaveTables writes, modulo whitespace and key order: the four store keys,
// each spelled exactly and given once, two tables in qlearn.DecodeFrom's
// grammar, and nothing but whitespace after the document.
func RestoreTables(b []byte) (*NodeTables, error) {
	return restore(jsonscan.New(b))
}

// LoadTables reads a Q store written by SaveTables; see RestoreTables for
// what it accepts.
func LoadTables(r io.Reader) (*NodeTables, error) {
	sc, err := jsonscan.Read(r)
	if err != nil {
		return nil, fmt.Errorf("glap: reading Q store: %w", err)
	}
	return restore(sc)
}

var storeKeys = []string{"version", "trained", "out", "in"}

func restore(sc *jsonscan.Scanner) (*NodeTables, error) {
	st := &NodeTables{}
	err := sc.Object(storeKeys, func(k int) (err error) {
		switch k {
		case 0:
			var v uint32
			if v, err = sc.Uint32(); err == nil && v != storeVersion {
				err = fmt.Errorf("unsupported Q store version %d", v)
			}
		case 1:
			st.Trained, err = sc.Bool()
		case 2:
			st.Out, err = qlearn.DecodeFrom(sc)
		case 3:
			st.In, err = qlearn.DecodeFrom(sc)
		}
		return err
	})
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, fmt.Errorf("glap: decoding Q store: %w", err)
	}
	return st, nil
}
