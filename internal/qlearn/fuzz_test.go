package qlearn

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the checkpoint codec. Decode must
// never panic; every table it accepts the retired reflection decoder
// (refDecode) must accept too, with bit-identical cells and parameters; an
// accepted table must hold only finite cells inside the DenseSpan×DenseSpan
// span with in-range learning parameters; and re-encoding it must decode to
// an Equal table that encodes to the same bytes again. The seed corpus in
// testdata/fuzz/FuzzDecode covers a plain version-1 document, empty and
// duplicate cells, an oversized key, a key just outside the span, an
// out-of-range alpha, a version-2 document, which must be refused, keys out
// of order with numbers in exponent form, and the documents Encode never
// writes that the retired decoder accepted: trailing data, case-variant,
// unknown and repeated keys.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tab, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		ref, err := refDecode(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("Decode accepted what the retired decoder refuses (%v)", err)
		}
		requireBitIdentical(t, tab, ref)
		if !(tab.Alpha > 0 && tab.Alpha <= 1 && tab.Gamma >= 0 && tab.Gamma < 1) {
			t.Fatalf("accepted alpha=%g gamma=%g", tab.Alpha, tab.Gamma)
		}
		for _, k := range tab.Keys() {
			if k.S >= DenseSpan || k.A >= DenseSpan {
				t.Fatalf("accepted key %v", k)
			}
			if v := tab.Get(k.S, k.A); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite cell %v = %g", k, v)
			}
		}
		var first bytes.Buffer
		if err := tab.Encode(&first); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", first.Bytes(), err)
		}
		if !Equal(tab, again) || again.Alpha != tab.Alpha || again.Gamma != tab.Gamma {
			t.Fatalf("round trip changed the table: %s", first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
