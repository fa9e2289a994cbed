package glapsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenExperiment is the fixed small-scale GLAP run whose Series metrics
// are pinned byte-for-byte. Any change to the learning kernel, the merge
// arithmetic, or the RNG wiring that alters simulation behaviour — however
// slightly — changes the fingerprint.
func goldenExperiment() Experiment {
	return Experiment{
		PMs: 20, Ratio: 2, Rounds: 40, Seed: 7, Policy: PolicyGLAP,
		GLAP: fastGLAP(),
	}
}

// goldenSeriesHash is the SHA-256 of the golden run's serialised Series.
// Re-pinned when the learning phase moved from one shared random stream to
// per-node streams (a prerequisite of the parallel ParallelRound pass; the
// shared stream's draws depended on node visit order, which a fork-join
// cannot reproduce). TestGoldenDeterminism requires it at Workers auto and
// 8; TestWorkerCountPipelineDifferential holds every Workers setting to
// Workers 1.
// Regenerate with GLAP_GOLDEN_UPDATE=1 go test -run TestGoldenDeterminism -v .
const goldenSeriesHash = "97f442cd66becde70529a5a796fcb32866e5dabc586f4a54b83190e8a039dec8"

// serializeSeries renders every snapshot and the final SLA metrics with
// exact bit-level float encoding, so the fingerprint admits no rounding
// slack.
func serializeSeries(res *Result) string {
	var b strings.Builder
	for _, s := range res.Series.Samples {
		fmt.Fprintf(&b, "r=%d active=%d over=%d migr=%d energy=%016x\n",
			s.Round, s.ActivePMs, s.OverloadedPMs, s.Migrations,
			math.Float64bits(s.MigrationEnergyJ))
	}
	fmt.Fprintf(&b, "slavo=%016x slalm=%016x slav=%016x\n",
		math.Float64bits(res.Series.SLAVO),
		math.Float64bits(res.Series.SLALM),
		math.Float64bits(res.Series.SLAV))
	return b.String()
}

// TestGoldenDeterminism pins seed-for-seed simulation output across kernel
// rewrites: the dense Q-table backend must reproduce the sparse backend's
// Series exactly. The default (auto) Workers and explicit fan-out (8) must
// both produce the pinned fingerprint, so the two are the same simulation.
func TestGoldenDeterminism(t *testing.T) {
	for _, workers := range []int{0, 8} {
		x := goldenExperiment()
		x.Workers = workers
		res, err := Run(x)
		if err != nil {
			t.Fatal(err)
		}
		dump := serializeSeries(res)
		sum := sha256.Sum256([]byte(dump))
		got := hex.EncodeToString(sum[:])
		if os.Getenv("GLAP_GOLDEN_UPDATE") != "" {
			t.Logf("golden series dump:\n%s", dump)
			t.Logf("goldenSeriesHash = %q", got)
			return
		}
		if got != goldenSeriesHash {
			t.Fatalf("golden Series fingerprint changed at Workers=%d:\n got %s\nwant %s\nserialised series:\n%s",
				workers, got, goldenSeriesHash, dump)
		}
	}
}
