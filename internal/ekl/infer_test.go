package ekl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"everest/internal/tensor"
)

// InferMatchesRun runs both Kernel.Run and Kernel.Infer on the binding and
// returns nil when they agree: the same error text, or both succeed with
// the same Trace, Dims and per-name shapes — and those shapes are the ones
// of the tensors Run actually computed.
func InferMatchesRun(k *Kernel, b Binding) error {
	res, runErr := k.Run(b)
	sh, inferErr := k.Infer(b)
	if runErr != nil || inferErr != nil {
		if runErr == nil || inferErr == nil || runErr.Error() != inferErr.Error() {
			return fmt.Errorf("Run error: %v\nInfer error: %v", runErr, inferErr)
		}
		return nil
	}
	if !reflect.DeepEqual(res.Shapes, *sh) {
		return fmt.Errorf("Run shapes %+v\nInfer shapes %+v", res.Shapes, *sh)
	}
	if len(res.All) != len(sh.Shape) {
		return fmt.Errorf("Run computed %d tensors, Infer shaped %d", len(res.All), len(sh.Shape))
	}
	for name, t := range res.All {
		if !slices.Equal(t.Shape(), sh.Shape[name]) {
			return fmt.Errorf("%q: Run computed shape %v, Infer inferred %v", name, t.Shape(), sh.Shape[name])
		}
	}
	return nil
}

func checkInferMatchesRun(t *testing.T, label string, k *Kernel, b Binding) {
	t.Helper()
	if err := InferMatchesRun(k, b); err != nil {
		t.Errorf("%s: Infer and Run disagree:\n%v", label, err)
	}
}

// indexT builds an index tensor with the given values.
func indexT(vals ...float64) *tensor.Tensor { return tensor.FromData(vals, len(vals)) }

func TestInferMatchesRunBadBindings(t *testing.T) {
	const gatherSrc = `
kernel chain {
  input t : [N] index
  input v : [M]
  iparam shift = 0
  u = t[i] * 2 + shift
  w = u[i] + 1
  y = v[w[i]]
  z = v[i] * 3
  output y[i]
  output z[i]
}
`
	const pairSrc = `
kernel pw {
  input a : [N]
  input b : [N, K]
  param c = 1
  p = [a[i], a[i] * c]
  s = sum(i) p[i, q] * b[i, k]
  output s[q, k]
}
`
	gather := mustParse(t, gatherSrc)
	pair := mustParse(t, pairSrc)
	cases := []struct {
		name string
		k    *Kernel
		b    Binding
		fail bool
	}{
		{"gather in range", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 1, 2), "v": tensor.New(8)}}, false},
		// The computed temporary w runs off v at the last element only.
		{"temporary feeding a gather out of range", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 1, 4), "v": tensor.New(8)}}, true},
		{"parameter shifts the gather out of range", gather, Binding{
			Tensors: map[string]*tensor.Tensor{"t": indexT(0, 1, 2), "v": tensor.New(8)},
			Scalars: map[string]float64{"shift": 3}}, true},
		{"negative index", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, -1, 2), "v": tensor.New(8)}}, true},
		{"non-integral index", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 0.25, 2), "v": tensor.New(8)}}, true},
		{"non-integral iparam", gather, Binding{
			Tensors: map[string]*tensor.Tensor{"t": indexT(0, 1, 2), "v": tensor.New(8)},
			Scalars: map[string]float64{"shift": 0.5}}, true},
		{"zero extent gather", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": tensor.New(0), "v": tensor.New(8)}}, false},
		{"zero extent values", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 1), "v": tensor.New(0)}}, true},
		{"missing input", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 1, 2)}}, true},
		{"input rank mismatch", gather, Binding{Tensors: map[string]*tensor.Tensor{
			"t": indexT(0, 1, 2), "v": tensor.New(8, 1)}}, true},
		{"pair in range", pair, Binding{Tensors: map[string]*tensor.Tensor{
			"a": tensor.New(3), "b": tensor.New(3, 2)}}, false},
		{"symbolic dimension mismatch", pair, Binding{Tensors: map[string]*tensor.Tensor{
			"a": tensor.New(3), "b": tensor.New(4, 2)}}, true},
		{"zero extent pair", pair, Binding{Tensors: map[string]*tensor.Tensor{
			"a": tensor.New(0), "b": tensor.New(0, 2)}}, false},
		{"zero extent reduction output", pair, Binding{Tensors: map[string]*tensor.Tensor{
			"a": tensor.New(3), "b": tensor.New(3, 0)}}, false},
	}
	for _, c := range cases {
		checkInferMatchesRun(t, c.name, c.k, c.b)
		if _, err := c.k.Infer(c.b); (err != nil) != c.fail {
			t.Errorf("%s: Infer error %v, want failure %v", c.name, err, c.fail)
		}
	}
}

// TestInferMatchesRunElementErrors covers the errors a statement without
// computed subscripts raises at every element: Infer finds them from one
// symbolic element, and only when the iteration space (and, inside a
// reduction, the reduction's space) is non-empty.
func TestInferMatchesRunElementErrors(t *testing.T) {
	srcs := map[string]string{
		"unbound identifier":         "kernel u {\n  input a : [N]\n  y[i] = a[i] + j\n  output y\n}\n",
		"bare tensor":                "kernel b {\n  input a : [N]\n  input c : [N]\n  y = a[i] + c\n  output y\n}\n",
		"bare tensor in sum":         "kernel s {\n  input a : [N]\n  input c : [M]\n  y = sum(j) c[j] * a\n  output y\n}\n",
		"unbound under redefinition": "kernel r {\n  input a : [N]\n  y = a[i]\n  y[i] = y[i] * q\n  output y\n}\n",
		"accumulate shape mismatch":  "kernel m {\n  input a : [N]\n  input b : [N, N]\n  y = a[i]\n  y += b[i, j]\n  output y\n}\n",
		"pair into existing target":  "kernel p {\n  input a : [N]\n  y = a[i]\n  y[i] = [a[i], a[i]]\n  output y\n}\n",
		"rank-0 tensor as subscript": "kernel z {\n  input a : [N]\n  s = 1\n  y = a[s] + a[i]\n  output y\n}\n",
		"computed LHS write":         "kernel w {\n  input a : [N]\n  input t : [N] index\n  y = a[i]\n  y[t[i]] = a[i] * 2\n  output y\n}\n",
		"nested LHS subscript rank":  "kernel n {\n  input a : [N]\n  input t : [N] index\n  y = a[i]\n  y[t[i, i]] = a[i]\n  output y\n}\n",
		"LHS subscript base":         "kernel e {\n  input a : [N]\n  input t : [N] index\n  y = a[i]\n  y[(t + t)[i]] = a[i]\n  output y\n}\n",
	}
	for name, src := range srcs {
		k := mustParse(t, src)
		for _, n := range []int{0, 1, 3} {
			for _, m := range []int{0, 2} {
				b := Binding{Tensors: map[string]*tensor.Tensor{
					"a": tensor.New(n), "b": tensor.New(n, n), "c": tensor.New(m),
					"t": indexT(make([]float64, n)...)}}
				if name == "computed LHS write" && n > 0 {
					b.Tensors["t"].Set(float64(n), n-1) // last write runs off y
				}
				for in := range b.Tensors {
					if k.Input(in) == nil {
						delete(b.Tensors, in)
					}
				}
				if name == "bare tensor" {
					b.Tensors["c"] = tensor.New(n)
				}
				checkInferMatchesRun(t, fmt.Sprintf("%s N=%d M=%d", name, n, m), k, b)
			}
		}
	}
}

// corpusSources returns every committed fuzz corpus entry that is a single
// Go string literal.
func corpusSources(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TestInferMatchesRunCorpus checks every kernel of the seed and committed
// fuzz corpora under a spread of synthesized bindings.
func TestInferMatchesRunCorpus(t *testing.T) {
	srcs := append(append([]string(nil), fuzzSeedSources...), corpusSources(t)...)
	srcs = append(srcs, rrtmgStyleSrc, axpySrc)
	checked := 0
	for _, src := range srcs {
		for seed := uint64(0); seed < 16; seed++ {
			k, b, ok := synthesizeCase(src, seed)
			if !ok {
				continue
			}
			checked++
			checkInferMatchesRun(t, fmt.Sprintf("seed %d:\n%s", seed, src), k, b)
		}
	}
	if checked < 100 {
		t.Errorf("only %d corpus cases ran; the synthesizer rejects too much", checked)
	}
}

// rrtmgStyleSrc is a small kernel with the gather structure of RRTMG's
// tau_major (indices computed from a selected temporary, an iparam column
// and offset subscripts), so the corpus exercises stored temporaries.
const rrtmgStyleSrc = `
kernel gathers {
  input p   : [X]
  input map : [2, B] index
  input j   : [X] index
  input tab : [T, G]
  param cut = 0.5
  iparam col
  s = select(p[x] <= cut, 1, 0)
  f[x] = map[s[x], col]
  y = sum(t) tab[j[x] + t + f[x], g]
  output y[x, g]
}
`

// synthesizeCase parses src and derives a binding from seed: symbolic
// extents in [0, 4], literal extents kept, values mostly in range for
// index inputs (sometimes one past, negative or fractional), and now and
// then a missing parameter, a missing input or a wrong rank. ok is false
// when src does not parse or a statement's iteration space could be too
// large to interpret quickly.
func synthesizeCase(src string, seed uint64) (*Kernel, Binding, bool) {
	prog, err := Parse(src)
	if err != nil || len(prog.Kernels) == 0 {
		return nil, Binding{}, false
	}
	k := prog.Kernels[0]
	rng := rand.New(rand.NewSource(int64(seed)))
	maxExt := 2
	ext := map[string]int{}
	b := Binding{Tensors: map[string]*tensor.Tensor{}, Scalars: map[string]float64{}}
	for _, in := range k.Inputs {
		shape := make([]int, len(in.Dims))
		size := 1
		for d, dim := range in.Dims {
			if dim.Sym != "" {
				if _, ok := ext[dim.Sym]; !ok {
					ext[dim.Sym] = rng.Intn(5)
					if rng.Intn(3) > 0 && ext[dim.Sym] == 0 {
						ext[dim.Sym] = 3 // mostly non-empty spaces
					}
				}
				shape[d] = ext[dim.Sym]
			} else {
				shape[d] = dim.Size
			}
			if shape[d] > 16 {
				return nil, Binding{}, false
			}
			maxExt = max(maxExt, shape[d])
			size *= shape[d]
		}
		if rng.Intn(24) == 0 && len(shape) > 0 {
			shape = shape[1:] // wrong rank
		}
		t := tensor.New(shape...)
		for i := range t.Data() {
			if in.IsIndex {
				hi := 1
				if len(shape) > 0 {
					hi = max(1, shape[len(shape)-1])
				}
				v := float64(rng.Intn(hi))
				switch rng.Intn(40) {
				case 0:
					v = float64(hi)
				case 1:
					v = -1
				case 2:
					v += 0.5
				}
				t.Data()[i] = v
			} else {
				t.Data()[i] = rng.Float64()*2 - 1
			}
		}
		if rng.Intn(32) != 0 {
			b.Tensors[in.Name] = t
		}
	}
	for _, p := range k.Params {
		if p.HasDef && rng.Intn(2) == 0 {
			continue
		}
		if !p.HasDef && rng.Intn(24) == 0 {
			continue // missing parameter
		}
		v := float64(rng.Intn(3))
		if !p.IsInt || rng.Intn(24) == 0 {
			v += 0.25
		}
		b.Scalars[p.Name] = v
	}
	// Every tensor dimension is an input extent or a pair's 2, so a
	// statement iterates at most maxExt^(index names + summed indices)
	// times.
	scope := map[string]bool{}
	for _, in := range k.Inputs {
		scope[in.Name] = true
	}
	for _, p := range k.Params {
		scope[p.Name] = true
	}
	for _, s := range k.Stmts {
		names := map[string]bool{}
		loops := 0
		count := func(x Expr) {
			switch e := x.(type) {
			case IdentRef:
				if !scope[e.Name] {
					names[e.Name] = true
				}
			case SumExpr:
				loops += len(e.Indices)
			}
		}
		for _, le := range s.LHS {
			walkExpr(le, count)
		}
		walkExpr(s.RHS, count)
		loops += len(names)
		scope[s.Name] = true
		work := 1
		for range loops {
			if work *= maxExt; work > 1<<16 {
				return nil, Binding{}, false
			}
		}
	}
	return k, b, true
}

// FuzzInferMatchesRun: for any parsed kernel and synthesized binding,
// Infer fails exactly when Run fails, with the same error, and otherwise
// infers the iteration spaces and shapes Run computes.
func FuzzInferMatchesRun(f *testing.F) {
	for _, src := range append(append([]string(nil), fuzzSeedSources...), rrtmgStyleSrc, axpySrc) {
		f.Add(src, uint64(0))
		f.Add(src, uint64(7))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		k, b, ok := synthesizeCase(src, seed)
		if !ok {
			t.Skip()
		}
		if err := InferMatchesRun(k, b); err != nil {
			t.Fatalf("Infer and Run disagree:\n%v\n--- source ---\n%s", err, src)
		}
	})
}
