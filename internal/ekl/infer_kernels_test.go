package ekl_test

import (
	"maps"
	"testing"

	"everest/internal/apps"
	"everest/internal/ekl"
	"everest/internal/onnxlite"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/variants"
	"everest/internal/wrf"
)

func mustKernel(t *testing.T, src string) *ekl.Kernel {
	t.Helper()
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func agree(t *testing.T, label string, k *ekl.Kernel, b ekl.Binding, wantFail bool) {
	t.Helper()
	if err := ekl.InferMatchesRun(k, b); err != nil {
		t.Errorf("%s: Infer and Run disagree:\n%v", label, err)
	}
	if _, err := k.Infer(b); (err != nil) != wantFail {
		t.Errorf("%s: Infer error %v, want failure %v", label, err, wantFail)
	}
}

// with returns a copy of b with one tensor replaced.
func with(b ekl.Binding, name string, t *tensor.Tensor) ekl.Binding {
	out := ekl.Binding{Tensors: maps.Clone(b.Tensors), Scalars: maps.Clone(b.Scalars)}
	out.Tensors[name] = t
	return out
}

// TestInferMatchesRunRepoKernels checks Infer against Run on every EKL
// kernel the repository compiles, on the bindings it compiles them with.
func TestInferMatchesRunRepoKernels(t *testing.T) {
	for _, name := range variants.ExampleNames() {
		src, b, err := variants.ExampleKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, name, mustKernel(t, src), b, false)
	}

	rad := wrf.NewRadiation(11, 8)
	agree(t, "rrtmg", mustKernel(t, wrf.EKLSource()), rad.EKLBinding(11, 32), false)

	proj := mustKernel(t, traffic.ProjectionEKL())
	agree(t, "traffic_projection", proj, variants.SynthesizeBinding(proj, map[string]int{"P": 24, "E": 40}), false)

	kmeans := map[string]map[string]int{
		apps.KMeansAssignEKL():  {"N": 64, "D": 16, "K": 8},
		apps.KMeansPartialEKL(): {"N": 64, "D": 16, "K": 8},
		apps.KMeansUpdateEKL():  {"P": 8, "D": 16, "K": 8},
	}
	for src, ext := range kmeans {
		k := mustKernel(t, src)
		agree(t, k.Name, k, variants.SynthesizeBinding(k, ext), false)
	}

	const batch, dim, hidden = 6, 5, 4
	weights := map[string][]float64{
		"w1": make([]float64, dim*hidden), "b1": make([]float64, hidden),
		"w2": make([]float64, hidden), "b2": make([]float64, 1),
	}
	c, err := variants.CompileONNX(onnxlite.DenseMLP("mlp", batch, dim, hidden, 1, weights), batch, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "onnx "+c.Kernel.Name, c.Kernel, variants.SynthesizeBinding(c.Kernel, nil), false)
}

// TestInferMatchesRunRRTMGBadBindings corrupts the RRTMG tau_major
// binding where only values can break it — the gather indices — plus the
// shape-level failures, and checks Infer rejects exactly what Run rejects
// with the same error.
func TestInferMatchesRunRRTMGBadBindings(t *testing.T) {
	k := mustKernel(t, wrf.EKLSource())
	rad := wrf.NewRadiation(11, 8)
	const nx = 16
	good := rad.EKLBinding(11, nx)

	// set writes v at each of the given positions of a copy of the named
	// tensor.
	set := func(name string, v float64, at ...[]int) ekl.Binding {
		c := good.Tensors[name].Clone()
		for _, idx := range at {
			c.Set(v, idx...)
		}
		return with(good, name, c)
	}
	everyFlavor := func(x int) [][]int {
		var at [][]int
		for f := 0; f < rad.NFlav; f++ {
			at = append(at, []int{f, x})
		}
		return at
	}
	missingParam := with(good, "p", good.Tensors["p"])
	delete(missingParam.Scalars, "bnd")
	missingInput := with(good, "p", nil)
	delete(missingInput.Tensors, "p")
	shortFlav := with(good, "j_eta", tensor.New(rad.NFlav-1, nx))
	flatMajor := with(good, "k_major", tensor.New(rad.NT, rad.NP, rad.NEta*rad.NGpt))

	cases := []struct {
		name string
		b    ekl.Binding
		fail bool
	}{
		{"good", good, false},
		// j_T + t runs off the temperature axis for the last column only.
		{"j_T out of range", set("j_T", float64(rad.NT-1), []int{nx - 1}), true},
		{"j_p negative", set("j_p", -1, []int{nx / 2}), true},
		{"j_p non-integral", set("j_p", 2.5, []int{3}), true},
		{"j_eta out of range", set("j_eta", float64(rad.NEta), everyFlavor(nx-1)...), true},
		// A flavor index past the mixing-ratio table reaches every gather
		// through the computed temporary i_flav (row i_strato, column bnd).
		{"bnd_to_flav out of range", set("bnd_to_flav", float64(rad.NFlav), []int{0, 1}, []int{1, 1}), true},
		{"bnd_to_flav non-integral", set("bnd_to_flav", 0.5, []int{0, 1}, []int{1, 1}), true},
		{"bnd iparam out of range", ekl.Binding{Tensors: good.Tensors, Scalars: map[string]float64{"bnd": 4}}, true},
		{"bnd iparam non-integral", ekl.Binding{Tensors: good.Tensors, Scalars: map[string]float64{"bnd": 1.5}}, true},
		{"missing parameter", missingParam, true},
		{"missing input", missingInput, true},
		{"dimension mismatch", shortFlav, true},
		{"rank mismatch", flatMajor, true},
		{"zero columns", rad.EKLBinding(11, 0), false},
	}
	for _, c := range cases {
		agree(t, c.name, k, c.b, c.fail)
	}
}

// TestInferMatchesRunKMeansBadBindings covers the shape-only failures of
// a kernel with no computed subscript: Infer never computes a value of it.
func TestInferMatchesRunKMeansBadBindings(t *testing.T) {
	k := mustKernel(t, apps.KMeansAssignEKL())
	good := variants.SynthesizeBinding(k, map[string]int{"N": 32, "D": 4, "K": 3})
	noBeta := with(good, "x", good.Tensors["x"])
	delete(noBeta.Scalars, "beta") // beta has a default
	cases := []struct {
		name string
		b    ekl.Binding
		fail bool
	}{
		{"good", good, false},
		{"default parameter", noBeta, false},
		{"dimension mismatch", with(good, "c", tensor.New(3, 5)), true},
		{"rank mismatch", with(good, "c", tensor.New(12)), true},
		{"zero points", with(good, "x", tensor.New(0, 4)), false},
		{"zero dims", with(with(good, "x", tensor.New(32, 0)), "c", tensor.New(3, 0)), false},
	}
	for _, c := range cases {
		agree(t, c.name, k, c.b, c.fail)
	}
}
