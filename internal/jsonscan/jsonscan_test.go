package jsonscan

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestFloatMatchesParseFloat holds Float, whose exact fast path skips
// strconv, to strconv.ParseFloat bit for bit: on random decimals of 1 to 20
// digits with the point anywhere, on both sides of the fast path's 2^53 and
// 19-digit limits, and on the shortest spellings of random float64s.
func TestFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spans := []string{"0", "-0", "0.0", "-0.000", "9007199254740991", "9007199254740992", "9007199254740993",
		"900719925474099.3", "1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"-1.000000000000000000", "1e22", "1e23", "5e-324"}
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(20)
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteByte('-')
		}
		digits := make([]byte, n)
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' && n > 1 {
			digits[0] = '1'
		}
		if p := rng.Intn(n + 1); p > 0 && p < n {
			b.Write(digits[:p])
			b.WriteByte('.')
			b.Write(digits[p:])
		} else {
			b.Write(digits)
		}
		spans = append(spans, b.String())
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			spans = append(spans, strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	for _, span := range spans {
		want, err := strconv.ParseFloat(span, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New([]byte(span)).Float()
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float(%s) = %v, %v; want %v", span, got, err, want)
		}
	}
}

// TestScannerRefuses checks each reader's refusals: every case must be an
// error naming an offset, never a panic or a value.
func TestScannerRefuses(t *testing.T) {
	keys := []string{"a", "bb"}
	object := func(s *Scanner) error {
		return s.Object(keys, func(int) error { _, err := s.Uint32(); return err })
	}
	for _, tc := range []struct {
		in   string
		read func(*Scanner) error
	}{
		{``, object},
		{`{}`, object},
		{`{"a":1}`, object},
		{`{"a":1,"bb":2,"a":3}`, object},
		{`{"a":1,"bb":2,}`, object},
		{`{"a":1 "bb":2}`, object},
		{`{"A":1,"bb":2}`, object},
		{`{"a":1,"b":2}`, object},
		{`{"a":1,"bb`, object},
		{`{"a"1,"bb":2}`, object},
		{`{"a":01,"bb":2}`, object},
		{`{"a":-1,"bb":2}`, object},
		{`{"a":1.0,"bb":2}`, object},
		{`{"a":1e0,"bb":2}`, object},
		{`{"a":4294967296,"bb":2}`, object},
		{`[]`, func(s *Scanner) error { return s.List(func() error { _, err := s.Bool(); return err }) }},
		{`[true,]`, func(s *Scanner) error { return s.List(func() error { _, err := s.Bool(); return err }) }},
		{`[true`, func(s *Scanner) error { return s.List(func() error { _, err := s.Bool(); return err }) }},
		{`nul`, func(s *Scanner) error { return s.List(func() error { return nil }) }},
		{`True`, func(s *Scanner) error { _, err := s.Bool(); return err }},
		{`1e999`, func(s *Scanner) error { _, err := s.Float(); return err }},
		{`-`, func(s *Scanner) error { _, err := s.Float(); return err }},
		{` x`, func(s *Scanner) error { return s.End() }},
	} {
		err := tc.read(New([]byte(tc.in)))
		if err == nil || !strings.HasPrefix(err.Error(), "offset ") {
			t.Errorf("%q: got %v, want an error naming an offset", tc.in, err)
		}
	}
	s := New([]byte(" {\n\"bb\" : 2 ,\t\"a\":4294967295 } \r\n"))
	var got [2]uint32
	err := s.Object(keys, func(k int) (err error) { got[k], err = s.Uint32(); return err })
	if err != nil || got != [2]uint32{math.MaxUint32, 2} || s.End() != nil {
		t.Fatalf("valid object: %v, %v", got, err)
	}
}
