package glap

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

func TestSaveLoadTables(t *testing.T) {
	orig := &NodeTables{
		Out:     qlearn.New(0.5, 0.8),
		In:      qlearn.New(0.5, 0.8),
		Trained: true,
	}
	orig.Out.Set(Levels{X3High, Medium}.State(), Levels{High, Low}.Action(), 42.5)
	orig.In.Set(Levels{X5High, XHigh}.State(), Levels{Medium, Low}.Action(), -987)

	var buf bytes.Buffer
	if err := SaveTables(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, "round trip", []*NodeTables{got}, []*NodeTables{orig})
}

func TestSaveLoadEndToEnd(t *testing.T) {
	// Pre-train a tiny cluster, checkpoint, restore, and verify the
	// restored store drives consolidation identically to the original.
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 15}, genCluster(t, 12, 24, 60, 31, 31), 31)
	var buf bytes.Buffer
	if err := SaveTables(&buf, shared); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tables *NodeTables) int64 {
		cl := genCluster(t, 12, 24, 60, 31, 31)
		e, _ := syncStack(t, cl, tables, 77, 6, 3)
		e.RunRounds(30)
		return cl.Migrations
	}
	if a, b := run(shared), run(restored); a != b {
		t.Fatalf("restored tables behave differently: %d vs %d migrations", a, b)
	}
}

// TestCheckpointRestoreByteIdentical pins the warm-restart contract the
// crash scenario relies on: restoring a checkpoint and re-checkpointing the
// result reproduces the snapshot byte for byte, and the restored store equals
// the original.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	shared := pretrainShared(t, Config{LearnRounds: 15, AggRounds: 10}, genCluster(t, 8, 16, 40, 5, 5), 5)
	cp, err := CheckpointTables(shared)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTables(cp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CheckpointTables(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp, again) {
		t.Fatal("re-checkpointing a restored store is not byte-identical")
	}
	requireSameStores(t, "restore", []*NodeTables{restored}, []*NodeTables{shared})
	if !restored.Trained {
		t.Fatal("restore lost the Trained flag")
	}
}

func TestLoadTablesErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "nope",
		"bad version": `{"version":9,"out":{},"in":{}}`,
		"bad inner":   `{"version":1,"out":{"version":1,"alpha":9,"gamma":0.5},"in":{"version":1,"alpha":0.5,"gamma":0.5}}`,
	}
	for name, in := range cases {
		if _, err := LoadTables(strings.NewReader(in)); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
	}

	// Documents SaveTables never writes, which the retired reflection
	// loader (refLoadTables) accepted: the fixture with data after it, and
	// stores whose keys differ in case, are unknown, repeated or missing.
	fixture := string(readFixture(t))
	const table = `{"version":1,"alpha":0.5,"gamma":0.8,"cells":null}`
	narrowed := map[string]string{
		"trailing garbage":   fixture + "garbage",
		"trailing brackets":  fixture + "]]]",
		"trailing document":  fixture + `{"version":9}`,
		"case-variant key":   `{"VERSION":1,"trained":true,"out":` + table + `,"in":` + table + `}`,
		"case-variant flag":  `{"version":1,"Trained":true,"out":` + table + `,"in":` + table + `}`,
		"unknown key":        `{"version":1,"trained":true,"epoch":7,"out":` + table + `,"in":` + table + `}`,
		"duplicate key":      `{"version":1,"trained":false,"trained":true,"out":` + table + `,"in":` + table + `}`,
		"duplicate table":    `{"version":1,"trained":true,"out":` + table + `,"out":` + table + `,"in":` + table + `}`,
		"missing flag":       `{"version":1,"out":` + table + `,"in":` + table + `}`,
		"null flag":          `{"version":1,"trained":null,"out":` + table + `,"in":` + table + `}`,
		"inner trailing key": `{"version":1,"trained":true,"out":{"version":1,"alpha":0.5,"gamma":0.8,"cells":null,"Alpha":0.5},"in":` + table + `}`,
	}
	for name, in := range narrowed {
		if _, err := LoadTables(strings.NewReader(in)); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
		if _, err := refLoadTables(strings.NewReader(in)); err != nil {
			t.Fatalf("case %q: the retired loader refused it too (%v); it belongs with the cases above", name, err)
		}
	}
}

// TestSaveTablesReproducesFixture pins the v1 byte format from both sides:
// loading the benchmark's fixture and saving it again gives the file back
// byte for byte, and the retired loader reads the same store from it.
func TestSaveTablesReproducesFixture(t *testing.T) {
	fixture := readFixture(t)
	st, err := LoadTables(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Out.Len() + st.In.Len(); n != 4305 {
		t.Fatalf("fixture restored %d cells, want 4305", n)
	}
	var buf bytes.Buffer
	if err := SaveTables(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Fatal("SaveTables(LoadTables(fixture)) differs from the fixture")
	}
	ref, err := refLoadTables(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, "fixture", []*NodeTables{st}, []*NodeTables{ref})
}

// TestLoadTablesMatchesRefOnRespelledStores re-serialises random stores the
// way another JSON writer might: random whitespace between tokens, object
// keys in random order, and each number in one of the spellings that parse
// to the same float64. Both loaders must accept every document and restore
// the same store, bit for bit.
func TestLoadTablesMatchesRefOnRespelledStores(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	stores := 40
	if testing.Short() {
		stores = 8
	}
	for i := 0; i < stores; i++ {
		want := randomStore(rng)
		doc := respell(rng, want)
		got, err := LoadTables(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("store %d: %v\n%s", i, err, doc)
		}
		ref, err := refLoadTables(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("store %d: retired loader: %v\n%s", i, err, doc)
		}
		requireSameStores(t, "store "+strconv.Itoa(i), []*NodeTables{got, got}, []*NodeTables{ref, want})
	}
}

// randomStore is a store of two tables with random parameters and a random
// cell subset each (sometimes none), holding values of every magnitude and
// both zeros.
func randomStore(rng *rand.Rand) *NodeTables {
	table := func() *qlearn.Table {
		tbl := qlearn.New(1-rng.Float64(), rng.Float64()*0.999)
		if rng.Intn(5) == 0 {
			return tbl
		}
		density := rng.Float64()
		for s := qlearn.State(0); s < qlearn.DenseSpan; s++ {
			for a := qlearn.Action(0); a < qlearn.DenseSpan; a++ {
				if rng.Float64() < density {
					continue
				}
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = float64(rng.Intn(4001) - 2000)
				case 1:
					v = rng.NormFloat64() * 1000
				case 2:
					v = math.Ldexp(rng.Float64()-0.5, rng.Intn(2000)-1000)
				default:
					v = math.Copysign(0, rng.Float64()-0.5)
				}
				tbl.Set(s, a, v)
			}
		}
		return tbl
	}
	return &NodeTables{Out: table(), In: table(), Trained: rng.Intn(2) == 0}
}

// respell writes st as SaveTables' grammar allows another writer to: keys in
// random order, random whitespace, numbers in random float spellings.
func respell(rng *rand.Rand, st *NodeTables) string {
	var b strings.Builder
	ws := func() {
		for n := rng.Intn(3); n > 0; n-- {
			b.WriteByte(" \t\n\r"[rng.Intn(4)])
		}
	}
	num := func(v float64) {
		var s string
		switch rng.Intn(4) {
		case 0:
			s = strconv.FormatFloat(v, 'g', -1, 64)
		case 1:
			s = strconv.FormatFloat(v, 'e', -1, 64)
		case 2:
			s = strings.ToUpper(strconv.FormatFloat(v, 'E', -1, 64))
		default:
			s = strconv.FormatFloat(v, 'f', -1, 64)
		}
		if s == "-0" && rng.Intn(2) == 0 {
			s = "-0.0e0"
		}
		b.WriteString(s)
	}
	object := func(members map[string]func()) {
		keys := make([]string, 0, len(members))
		for k := range members {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		ws()
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				ws()
				b.WriteByte(',')
			}
			ws()
			b.WriteString(strconv.Quote(k))
			ws()
			b.WriteByte(':')
			ws()
			members[k]()
			ws()
		}
		b.WriteByte('}')
		ws()
	}
	table := func(tbl *qlearn.Table) func() {
		return func() {
			object(map[string]func(){
				"version": func() { b.WriteString("1") },
				"alpha":   func() { num(tbl.Alpha) },
				"gamma":   func() { num(tbl.Gamma) },
				"cells": func() {
					keys := tbl.Keys()
					if len(keys) == 0 {
						b.WriteString("null")
						return
					}
					b.WriteByte('[')
					for i, k := range keys {
						if i > 0 {
							b.WriteByte(',')
						}
						object(map[string]func(){
							"s": func() { b.WriteString(strconv.Itoa(int(k.S))) },
							"a": func() { b.WriteString(strconv.Itoa(int(k.A))) },
							"q": func() { num(tbl.Get(k.S, k.A)) },
						})
					}
					b.WriteByte(']')
				},
			})
		}
	}
	object(map[string]func(){
		"version": func() { b.WriteString("1") },
		"trained": func() { b.WriteString(strconv.FormatBool(st.Trained)) },
		"out":     table(st.Out),
		"in":      table(st.In),
	})
	return b.String()
}

// BenchmarkLoadTables restores the benchmark's 4,305-cell fixture with the
// retired reflection loader (ref) and the one-pass loader (new).
func BenchmarkLoadTables(b *testing.B) {
	fixture := readFixture(b)
	for _, bc := range []struct {
		name string
		load func(io.Reader) (*NodeTables, error)
	}{{"ref", refLoadTables}, {"new", LoadTables}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(fixture)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.load(bytes.NewReader(fixture)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
