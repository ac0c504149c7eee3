package apps

import (
	"math"
	"testing"

	"everest/internal/ekl"
	"everest/internal/variants"
)

// TestCompileAllocsIndependentOfData pins the compile flow's allocation
// count as independent of the bound data: compiling the k-means map
// kernel against 2048 or 8192 points per partition must allocate the same
// number of objects, because only shapes reach the compiler. A compile
// path that interprets the kernel on its data allocates per element and
// fails here (its count grows about fourfold from 2048 to 8192 points).
// The bindings are built outside the measured call. Under -race the
// counts must agree within 2%: the race runtime drops sync.Pool entries
// at random, so fmt's cached printers are sometimes reallocated.
func TestCompileAllocsIndependentOfData(t *testing.T) {
	src := KMeansAssignEKL()
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	allocs := func(points int) float64 {
		b := variants.SynthesizeBinding(k, map[string]int{"N": points, "D": 16, "K": 8})
		return testing.AllocsPerRun(5, func() {
			if _, err := variants.CompileEKL(src, b, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2048), allocs(8192)
	t.Logf("CompileEKL(kmeans_assign) allocations: %.0f at 2048 points, %.0f at 8192", small, large)
	if raceEnabled {
		if math.Abs(small-large) > 0.02*small {
			t.Errorf("CompileEKL allocates %.0f per compile at 2048 points but %.0f at 8192; want a count independent of the data", small, large)
		}
		return
	}
	if small != large {
		t.Errorf("CompileEKL allocates %.0f per compile at 2048 points but %.0f at 8192; want a count independent of the data", small, large)
	}
}
