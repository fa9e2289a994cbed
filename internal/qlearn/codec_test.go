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

	// Documents Encode never writes, which the retired reflection decoder
	// (refDecode) accepted: trailing data, keys that differ in case, unknown,
	// repeated or missing keys, an empty cell array and cells out of order.
	const doc = `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3.25}]}`
	narrowed := map[string]string{
		"trailing garbage":      doc + "garbage",
		"trailing brackets":     doc + "]]]",
		"trailing document":     doc + `{"version":9}`,
		"case-variant key":      `{"VERSION":1,"alpha":0.5,"gamma":0.8,"cells":null}`,
		"case-variant cell key": `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"S":1,"a":2,"q":3.25}]}`,
		"escaped key":           `{"vers\u0069on":1,"alpha":0.5,"gamma":0.8,"cells":null}`,
		"unknown key":           `{"version":1,"precision":"f64","alpha":0.5,"gamma":0.8,"cells":null}`,
		"unknown cell key":      `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3.25,"n":4}]}`,
		"duplicate key":         `{"version":1,"alpha":0.9,"alpha":0.5,"gamma":0.8,"cells":null}`,
		"duplicate cell key":    `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":7,"s":1,"a":2,"q":3.25}]}`,
		"missing cells":         `{"version":1,"alpha":0.5,"gamma":0.8}`,
		"empty cell array":      `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[]}`,
		"duplicate cells":       `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3},{"s":1,"a":2,"q":4}]}`,
		"descending cells":      `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":3,"q":3},{"s":1,"a":2,"q":4}]}`,
	}
	for name, in := range narrowed {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
		if _, err := refDecode(strings.NewReader(in)); err != nil {
			t.Fatalf("case %q: the retired decoder refused it too (%v); it belongs with the cases above", name, err)
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

// TestDecodeNumberForms holds Decode to encoding/json on every spelling of
// a number JSON allows, including the exponent forms Encode writes below
// 1e-6 and from 1e21 up, and refuses what JSON does not spell.
func TestDecodeNumberForms(t *testing.T) {
	doc := func(q string) string {
		return `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":` + q + `}]}`
	}
	for _, q := range []string{"0", "-0", "-0.0", "3.25", "1e-7", "1e+21", "1E21", "2.5e-3", "-1.5E+300",
		"5e-324", "1e-400", "1.7976931348623157e308", "123456789012345678901234567890"} {
		got, err := Decode(strings.NewReader(doc(q)))
		if err != nil {
			t.Fatalf("q=%s: %v", q, err)
		}
		want, err := refDecode(strings.NewReader(doc(q)))
		if err != nil {
			t.Fatalf("q=%s: retired decoder: %v", q, err)
		}
		requireBitIdentical(t, got, want)
	}
	for _, q := range []string{"+1", "01", "1.", ".5", "1e", "1e+", "0x10", "Inf", "NaN", "1_0", "--1", "1e999", `"1"`, "null"} {
		if _, err := Decode(strings.NewReader(doc(q))); err == nil {
			t.Fatalf("q=%s: expected error", q)
		}
	}
	// Encode's own output for values that take each float form.
	tab := New(1e-7, 0)
	for i, v := range []float64{1e-7, 1e21, -1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 123.456} {
		tab.Set(State(i), Action(i), v)
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode(%s): %v", buf.Bytes(), err)
	}
	requireBitIdentical(t, got, tab)
}
