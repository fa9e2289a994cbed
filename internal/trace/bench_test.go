package trace

import (
	"bytes"
	"testing"
)

// BenchmarkGenerate measures synthesis of a paper-scale workload slice: 1000
// VMs for 720 rounds.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultGenConfig(1000, 720, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAt(b *testing.B) {
	set, err := Generate(DefaultGenConfig(100, 200, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = set.At(i%100, i)
	}
}

// BenchmarkStreamSweep times At on a streaming set the way every streamed
// run reads it: round by round over 720 rounds, every one of 2400 VMs each
// round. One op is the whole sweep; from the second op on it opens with
// each VM's backward seek to round 0. BenchmarkAt reads a materialised set.
func BenchmarkStreamSweep(b *testing.B) {
	const vms, rounds = 2400, 720
	set, err := GenerateStreaming(DefaultGenConfig(vms, rounds, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			for vm := 0; vm < vms; vm++ {
				sampleSink = set.At(vm, r)
			}
		}
	}
}

// sampleSink keeps the compiler from discarding a benchmarked At.
var sampleSink Sample

func BenchmarkCSVRoundTrip(b *testing.B) {
	set, err := Generate(DefaultGenConfig(50, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, set); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
