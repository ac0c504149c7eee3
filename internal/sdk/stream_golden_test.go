package sdk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"everest/internal/stream"
)

// streamGoldenDigest serves the default E-stream scenario (the million-event
// feed) at every rung of DefaultStreamRates under the given seed and returns
// a SHA-256 over every stream trace event and every rung's Stats. Times are
// hashed as raw float64 bits and Stats through %+v (shortest round-trip
// floats), so any change to event order, timing or statistics moves the
// digest.
func streamGoldenDigest(t *testing.T, seed uint64) string {
	t.Helper()
	s := testStreamServer(t, DefaultStreamScenario().Events)
	s.sc.Seed = seed
	h := sha256.New()
	s.sc.Trace = func(ev stream.Event) {
		fmt.Fprintf(h, "%d|%s|%s|%s|%s|%016x|%d\n", ev.Kind, ev.Pipeline, ev.Stage,
			ev.Device, ev.Bitstream, math.Float64bits(ev.Time), ev.Events)
	}
	for _, rate := range DefaultStreamRates() {
		st, err := s.RunAt(rate)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "rate %016x %+v\n", math.Float64bits(rate), st)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGoldenDigest pins the full trace and Stats of the default
// E-stream ladder for two seeds. The digests were recorded with the
// per-event arrival path (one heap push and pop per arrival, plus an
// age-flush timer per window); the window-granular source must reproduce
// them exactly.
func TestStreamGoldenDigest(t *testing.T) {
	golden := map[uint64]string{
		1:    "0bdb522b1ce34577ff8788ade4ae222c425a27a12f0b6db7cbd5cbb710ef1f91",
		7919: "a467054555faa465e1ff04058798184e90981e28ccd05e121b0c691b71cd37b7",
	}
	for seed, want := range golden {
		if got := streamGoldenDigest(t, seed); got != want {
			t.Errorf("seed %d: stream ladder digest %s, want %s", seed, got, want)
		}
	}
}
