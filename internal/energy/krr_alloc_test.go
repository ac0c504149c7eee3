package energy

import (
	"testing"

	"everest/internal/tensor"
)

// krrTrainingSet returns the first n hours of a synthetic year as a KRR
// training matrix of Features rows and their measured power.
func krrTrainingSet(n int) (*tensor.Tensor, []float64) {
	ds := SynthesizeYear(3, n, NewFarm(8))
	d := len(Features(ds.Farm, ds.Samples[0]))
	x := tensor.New(n, d)
	y := make([]float64, n)
	for i, s := range ds.Samples {
		copy(x.Data()[i*d:(i+1)*d], Features(ds.Farm, s))
		y[i] = s.PowerKW
	}
	return x, y
}

// TestKRRFitAllocsIndependentOfN pins KRR.Fit's allocation count as a
// constant: the Gram matrix reads training rows in place, so a fit costs
// a fixed handful of buffers whatever the sample count. A regression to a
// row copy per kernel evaluation makes the count grow with n² and fails
// here. n = 112 is the region forecaster's fit size (8·lag − lag at the
// default lag of 16).
func TestKRRFitAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		x, y := krrTrainingSet(n)
		k := DefaultKRR()
		return testing.AllocsPerRun(20, func() {
			if err := k.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(112)
	if small != large {
		t.Errorf("KRR.Fit allocates %.1f per fit at n=32 but %.1f at n=112; want a count independent of n", small, large)
	}
}

func BenchmarkKRRFit(b *testing.B) {
	x, y := krrTrainingSet(112)
	k := DefaultKRR()
	b.ReportAllocs()
	for b.Loop() {
		if err := k.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
