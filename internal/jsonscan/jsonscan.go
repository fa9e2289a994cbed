// Package jsonscan reads the JSON the checkpoint codecs write, in one pass
// over a byte slice and without reflection. It accepts a strict subset of
// JSON: objects whose keys are a fixed set, each spelled exactly (no escapes)
// and given exactly once in any order; numbers in JSON's grammar; true,
// false and null where the caller asks for them; arrays that are null or
// hold at least one element, the two forms encoding/json writes for a slice;
// and whitespace between tokens. Anything else is an error that names its
// byte offset, never a panic.
package jsonscan

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Scanner reads tokens from a byte slice, left to right.
type Scanner struct {
	b   []byte
	pos int
}

// New returns a scanner at the start of b.
func New(b []byte) *Scanner { return &Scanner{b: b} }

// Read returns a scanner over everything r holds. A reader that reports its
// remaining length, as bytes.Reader, strings.Reader and bytes.Buffer do, is
// read into one allocation of that size.
func Read(r io.Reader) (*Scanner, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return New(buf.Bytes()), nil
}

func (s *Scanner) errorf(format string, a ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, a...))
}

// skip advances past JSON whitespace and returns the next byte, or 0 at the
// end of the input.
func (s *Scanner) skip() byte {
	b, i := s.b, s.pos
	for ; i < len(b); i++ {
		if c := b[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			s.pos = i
			return c
		}
	}
	s.pos = i
	return 0
}

// consume skips whitespace and reads c if it comes next.
func (s *Scanner) consume(c byte) bool {
	// Compact JSON, which encoding/json writes, has no whitespace to skip.
	if s.pos == len(s.b) || s.b[s.pos] != c {
		if s.skip() != c || s.pos == len(s.b) {
			return false
		}
	}
	s.pos++
	return true
}

// literal skips whitespace and reads word if it comes next.
func (s *Scanner) literal(word string) bool {
	s.skip()
	if len(s.b)-s.pos >= len(word) && string(s.b[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// End reports an error unless only whitespace remains.
func (s *Scanner) End() error {
	if s.skip(); s.pos != len(s.b) {
		return s.errorf("unexpected data after the document")
	}
	return nil
}

// Object reads an object whose keys are exactly keys (at most 64), each
// once, in any order. For each member it calls field with the key's index,
// with the scanner at the member's value, which field must read.
func (s *Scanner) Object(keys []string, field func(k int) error) error {
	if !s.consume('{') {
		return s.errorf("want '{'")
	}
	var seen uint64
	for {
		k, err := s.key(keys)
		if err != nil {
			return err
		}
		if seen&(1<<k) != 0 {
			return s.errorf("duplicate key %q", keys[k])
		}
		seen |= 1 << k
		if !s.consume(':') {
			return s.errorf("want ':' after key %q", keys[k])
		}
		if err := field(k); err != nil {
			return err
		}
		if s.consume(',') {
			continue
		}
		if !s.consume('}') {
			return s.errorf("want ',' or '}'")
		}
		break
	}
	for k, key := range keys {
		if seen&(1<<k) == 0 {
			return s.errorf("missing key %q", key)
		}
	}
	return nil
}

// key reads a member name and returns its index in keys.
func (s *Scanner) key(keys []string) (int, error) {
	if !s.consume('"') {
		return 0, s.errorf("want a key")
	}
	b, start := s.b, s.pos
	end := start
	for end < len(b) && b[end] != '"' {
		end++
	}
	if end == len(b) {
		return 0, s.errorf("unterminated key")
	}
	name := b[start:end]
	s.pos = end + 1
	for k, key := range keys {
		if len(name) == len(key) && name[0] == key[0] && string(name) == key {
			return k, nil
		}
	}
	return 0, s.errorf("unknown key %q", name)
}

// List reads null, which holds no elements, or an array of at least one
// element, calling elem once per element with the scanner at it.
func (s *Scanner) List(elem func() error) error {
	if s.literal("null") {
		return nil
	}
	if !s.consume('[') {
		return s.errorf("want '[' or null")
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.consume(',') {
			continue
		}
		if !s.consume(']') {
			return s.errorf("want ',' or ']'")
		}
		return nil
	}
}

// Bool reads true or false.
func (s *Scanner) Bool() (bool, error) {
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	}
	return false, s.errorf("want true or false")
}

// Uint32 reads a non-negative integer, without fraction or exponent, that
// fits 32 bits.
func (s *Scanner) Uint32() (uint32, error) {
	s.skip()
	b, i := s.b, s.pos
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if v = v*10 + uint64(b[i]-'0'); v > math.MaxUint32 {
			return 0, s.errorf("integer out of range")
		}
	}
	switch {
	case i == s.pos || i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e'):
		return 0, s.errorf("want an unsigned integer")
	case b[s.pos] == '0' && i-s.pos > 1:
		return 0, s.errorf("leading zero in %s", b[s.pos:i])
	}
	s.pos = i
	return uint32(v), nil
}

// Float reads a number in JSON's grammar and returns the float64 nearest to
// it, as strconv.ParseFloat does for encoding/json: a value beyond float64's
// range is an error.
func (s *Scanner) Float() (float64, error) {
	s.skip()
	start := s.pos
	v, exact, ok := s.number()
	if !ok {
		return 0, s.errorf("want a number")
	}
	if exact {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.pos]), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: %w", start, err)
	}
	return v, nil
}

// pow10 holds the divisors of a fraction of at most 19 digits, all exact
// float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// number advances past -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and
// reports whether one was there. Without an exponent, when at most 19
// digits, read as one integer, lie below 2^53, that integer and the power of
// ten it is divided by are exact float64s, so the correctly rounded quotient
// is the float64 nearest the number: the fast path strconv.ParseFloat takes
// too. number then returns that value and exact; otherwise the caller parses
// the span.
func (s *Scanner) number() (v float64, exact, ok bool) {
	b, i := s.b, s.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	start := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == start {
			return 0, false, false
		}
	}
	digits, frac := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		fs := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if frac = i - fs; frac == 0 {
			return 0, false, false
		}
		digits += frac
	}
	exponent := i < len(b) && b[i]|0x20 == 'e'
	if exponent {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		es := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == es {
			return 0, false, false
		}
	}
	s.pos = i
	if exponent || digits > 19 || mant >= 1<<53 { // 19 digits cannot overflow mant
		return 0, false, true
	}
	v = float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true, true
}
