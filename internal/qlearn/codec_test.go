package qlearn

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	orig := New(0.5, 0.8)
	orig.Set(1, 2, 3.25)
	orig.Set(4, 5, -1000)
	orig.Set(0, 0, 0)

	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, got) {
		t.Fatal("round-trip lost cells")
	}
	if got.Alpha != 0.5 || got.Gamma != 0.8 {
		t.Fatal("round-trip lost parameters")
	}
}

func TestCodecDeterministic(t *testing.T) {
	a := New(0.5, 0.8)
	b := New(0.5, 0.8)
	// Insert in different orders.
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	b.Set(2, 2, 2)
	b.Set(1, 1, 1)
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("encodings of equal tables differ")
	}
}

func TestCodecEmptyTable(t *testing.T) {
	var buf bytes.Buffer
	if err := New(1, 0).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty table decoded with %d cells", got.Len())
	}
}

func TestCodecPrecision(t *testing.T) {
	// Tables write the version-1 envelope with no precision field, and a
	// decoded table reports the float64 width.
	var buf bytes.Buffer
	tab := New(0.5, 0.8)
	tab.Set(1, 2, 3.25)
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "precision") || !strings.Contains(s, `"version":1`) {
		t.Fatalf("envelope changed: %s", s)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != F64 {
		t.Fatalf("decoded width = %v, want F64", got.Precision())
	}

	// Version-2 documents, written by a retired float32 width, are refused
	// with an error naming the version.
	for _, in := range []string{
		`{"version":2,"precision":"f32","alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3.25}]}`,
		`{"version":2,"precision":"f64","alpha":0.5,"gamma":0.8}`,
	} {
		_, err := Decode(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("Decode(%s) err = %v, want an unsupported-version-2 error", in, err)
		}
	}
}

// TestDecodeRefusesOutOfSpanCells pins the codec's span rule: a cell outside
// DenseSpan×DenseSpan fails the decode with an error naming its key, before
// Set could panic on it.
func TestDecodeRefusesOutOfSpanCells(t *testing.T) {
	for _, c := range []struct{ s, a int }{{100, 100}, {DenseSpan, 0}, {0, DenseSpan}} {
		in := fmt.Sprintf(`{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":1},{"s":%d,"a":%d,"q":9}]}`, c.s, c.a)
		tab, err := Decode(strings.NewReader(in))
		want := fmt.Sprintf("(%d, %d)", c.s, c.a)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Decode cell %s: table %v, err %v; want an error naming the key", want, tab, err)
		}
	}
	last := fmt.Sprintf(`{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":%d,"a":%d,"q":9}]}`, DenseSpan-1, DenseSpan-1)
	tab, err := Decode(strings.NewReader(last))
	if err != nil || tab.Get(DenseSpan-1, DenseSpan-1) != 9 {
		t.Fatalf("Decode of the span's last cell: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad version": `{"version":99,"alpha":0.5,"gamma":0.8}`,
		"bad alpha":   `{"version":1,"alpha":0,"gamma":0.8}`,
		"bad gamma":   `{"version":1,"alpha":0.5,"gamma":1.0}`,
		// Hostile payloads that smuggle non-finite floats as strings or
		// out-of-range literals die in the JSON layer; oversized keys die in
		// the cell checks. Either way Decode must error, never build a table.
		"string nan alpha": `{"version":1,"alpha":"NaN","gamma":0.8}`,
		"string nan q":     `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":"NaN"}]}`,
		"overflow inf q":   `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":1e999}]}`,
		"huge key":         `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":99999999,"a":2,"q":1}]}`,
		"alpha above one":  `{"version":1,"alpha":1.5,"gamma":0.8}`,
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
	}

	// encoding/json cannot parse a bare NaN/Inf token, so the explicit
	// non-finite rejection is exercised at the validation layer directly —
	// NaN in particular slips through pure range checks (NaN comparisons
	// are all false), which is exactly the bug this guards against.
	nan, inf := math.NaN(), math.Inf(1)
	badEnvelopes := map[string]tableJSON{
		"nan alpha":  {Version: 1, Alpha: nan, Gamma: 0.8},
		"inf alpha":  {Version: 1, Alpha: inf, Gamma: 0.8},
		"nan gamma":  {Version: 1, Alpha: 0.5, Gamma: nan},
		"-inf gamma": {Version: 1, Alpha: 0.5, Gamma: math.Inf(-1)},
	}
	for name, env := range badEnvelopes {
		if err := validateEnvelope(&env); err == nil {
			t.Fatalf("envelope %q: expected error", name)
		}
	}
	badCells := map[string]cellJSON{
		"nan q":  {S: 1, A: 2, Q: nan},
		"inf q":  {S: 1, A: 2, Q: inf},
		"-inf q": {S: 1, A: 2, Q: math.Inf(-1)},
	}
	for name, c := range badCells {
		if err := validateCell(c); err == nil {
			t.Fatalf("cell %q: expected error", name)
		}
	}
	if err := validateCell(cellJSON{S: 1, A: 2, Q: -1000}); err != nil {
		t.Fatalf("finite cell rejected: %v", err)
	}
}
