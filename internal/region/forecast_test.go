package region

import (
	"math"
	"testing"
)

func TestForecasterDefaultsAndRolls(t *testing.T) {
	f := NewForecaster(0, 0, 0)
	if f.Window() != 0.25 {
		t.Fatalf("default window = %g, want 0.25", f.Window())
	}
	f = NewForecaster(1, 0.5, 4)
	f.Observe("a", 0.1)
	f.Observe("a", 0.2)
	if got := f.Predict("a"); got != 0 {
		t.Fatalf("prediction before any closed window = %g, want 0", got)
	}
	// Rolling past t=1 closes window 0 with count 2: EWMA = 0.5*2 = 1.
	f.RollTo(1.5)
	if got := f.Predict("a"); got != 1 {
		t.Fatalf("EWMA after one window of 2 = %g, want 1", got)
	}
	// Two empty windows decay it: absence is signal.
	f.RollTo(3.5)
	if got := f.Predict("a"); got != 0.25 {
		t.Fatalf("EWMA after two empty windows = %g, want 0.25", got)
	}
	if apps := f.Apps(); len(apps) != 1 || apps[0] != "a" {
		t.Fatalf("Apps = %v, want [a]", apps)
	}
	if got := f.Predict("never-seen"); got != 0 {
		t.Fatalf("prediction for unseen app = %g, want 0", got)
	}
}

// TestForecasterPredictsPeriodicReturn is the case EWMA cannot handle:
// a traffic wave visiting the region every 4 windows. During the silent
// windows the EWMA decays toward zero, but the KRR autoregression — fed
// lag windows covering a full period — sees the wave coming back.
func TestForecasterPredictsPeriodicReturn(t *testing.T) {
	f := NewForecaster(1, 0.5, 4)
	// 10 periods of [4, 0, 0, 0]: bursts of 4 arrivals at t = 4k.
	for k := 0; k < 10; k++ {
		base := float64(4 * k)
		for j := 0; j < 4; j++ {
			f.Observe("wave", base+0.1)
		}
	}
	// Close everything through t=40: history ends [..., 4, 0, 0, 0] — the
	// next window is a burst window.
	f.RollTo(40)
	ewma := 0.0
	for i := 0; i < len(f.hist["wave"]); i++ {
		c := f.hist["wave"][i]
		ewma = 0.5*c + 0.5*ewma
	}
	if ewma >= 1 {
		t.Fatalf("EWMA baseline %g should have decayed below 1 during the silent windows", ewma)
	}
	pred := f.Predict("wave")
	if pred < 2 {
		t.Fatalf("periodic-return prediction = %g, want the KRR to see the burst coming (>= 2)", pred)
	}
	// One window into the silence the same machinery must NOT fire: the
	// lag features [0, 0, 0, 4] map to a quiet window.
	f.RollTo(41)
	if quiet := f.Predict("wave"); quiet >= pred/2 {
		t.Fatalf("post-burst prediction %g not clearly below return prediction %g", quiet, pred)
	}
}

func TestForecasterPredictionNeverNegative(t *testing.T) {
	f := NewForecaster(1, 0.5, 2)
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			f.Observe("x", float64(i)+0.5)
		} else {
			f.RollTo(float64(i + 1))
		}
	}
	f.RollTo(20)
	if got := f.Predict("x"); got < 0 || math.IsNaN(got) {
		t.Fatalf("prediction = %g, want clamped >= 0 and finite", got)
	}
}

// goldenWindows scripts ~120 closed windows of two apps — a period-6 wave
// with a slow drift and an irregular period-5 pattern — long enough that
// the maxHist trim (8*lag = 48 windows) drops history many times over.
const goldenWindows = 120

func goldenCount(app string, w int) int {
	switch app {
	case "wave":
		return []int{5, 1, 0, 0, 0, 2}[w%6] + w/40
	default:
		return (w*7 + w/11) % 5
	}
}

// goldenPredictions drives the scripted history and returns Predict for
// each app after every tenth window closes.
func goldenPredictions() []float64 {
	f := NewForecaster(1, 0.5, 6)
	var out []float64
	for w := 0; w < goldenWindows; w++ {
		for _, app := range []string{"wave", "noise"} {
			for c := 0; c < goldenCount(app, w); c++ {
				f.Observe(app, float64(w)+0.5)
			}
		}
		f.RollTo(float64(w + 1))
		if (w+1)%10 == 0 {
			out = append(out, f.Predict("wave"), f.Predict("noise"))
		}
	}
	return out
}

// goldenBits pins goldenPredictions bit for bit, as (wave, noise) pairs.
// The values were recorded with the At-indexed Cholesky and the
// row-copying KRR fit; the flat-slice rewrites must reproduce them exactly.
var goldenBits = []uint64{
	0x40078082377cd339, 0x4003980000000000, // window 10: wave 2.9377483687370867, noise 2.44921875
	0x4000410380000000, 0x400670e600000000, // window 20: wave 2.0317449569702148, noise 2.8051261901855469
	0x40137bf3d0d58c11, 0x40072b7377d2c3a8, // window 30: wave 4.8710472708071544, noise 2.8962163315959124
	0x3fe041041040e000, 0x40086a0cf09fa004, // window 40: wave 0.50793650793548295, noise 3.0517824934686377
	0x40083f041041040e, 0x4006336d98b7b890, // window 50: wave 3.0307694692460307, noise 2.7751113825862106
	0x4017a71bd77e9be7, 0x4003674673e72e71, // window 60: wave 5.9131921454454419, noise 2.4254273466993301
	0x3ff8208207e08208, 0x40061cd9d19cf9cc, // window 70: wave 1.5079365070051853, noise 2.7640873313932612
	0x400841041040fc10, 0x3ffd97ca97beca00, // window 80: wave 3.0317460317451221, noise 1.8495584418820954
	0x401c7d97d3501d3c, 0x3fff9cb9c39b3a34, // window 90: wave 7.1226494805953813, noise 1.9757630959389987
	0x4004104084104104, 0x400339f397387367, // window 100: wave 2.5079355542621915, noise 2.4032966436483778
	0x4010208208108208, 0x400965d8ff86f640, // window 110: wave 4.0317460308147091, noise 3.1747302973806484
	0x401b44b751b16b54, 0x40039b3a339f3974, // window 120: wave 6.8171055569208256, noise 2.4507946045843543
}

func TestForecasterGolden(t *testing.T) {
	got := goldenPredictions()
	if len(got) != len(goldenBits) {
		t.Fatalf("got %d predictions, want %d", len(got), len(goldenBits))
	}
	for i, v := range got {
		if bits := math.Float64bits(v); bits != goldenBits[i] {
			t.Errorf("prediction %d = %.17g (%#016x), want %.17g (%#016x)",
				i, v, bits, math.Float64frombits(goldenBits[i]), goldenBits[i])
		}
	}
}

// BenchmarkForecasterPredict measures one window-roll forecast at the
// serving configuration: default lag 16 with a full 8·lag history, so
// each Predict is a 112-sample KRR fit plus one prediction.
func BenchmarkForecasterPredict(b *testing.B) {
	f := NewForecaster(1, 0.5, 16)
	for w := 0; w < 200; w++ {
		for c := 0; c < goldenCount("wave", w); c++ {
			f.Observe("wave", float64(w)+0.5)
		}
	}
	f.RollTo(200)
	b.ReportAllocs()
	for b.Loop() {
		f.Predict("wave")
	}
}
