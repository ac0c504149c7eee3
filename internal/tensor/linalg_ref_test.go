package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refCholesky, refCholeskySolve and refSolveSPD are the At-indexed
// originals of the flat-slice routines in linalg.go, kept as the
// reference the rewrites must match bit for bit: same operations, same
// order, same pivot errors.
func refCholesky(a *Tensor) (*Tensor, error) {
	n, err := squareDim(a)
	if err != nil {
		return nil, err
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tensor: matrix not positive definite at pivot %d (%.3g)", i, sum)
				}
				l.Set(math.Sqrt(sum), i, j)
			} else {
				l.Set(sum/l.At(j, j), i, j)
			}
		}
	}
	return l, nil
}

func refCholeskySolve(l, b *Tensor) *Tensor {
	n := l.Shape()[0]
	y := New(n)
	for i := 0; i < n; i++ {
		s := b.At(i)
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y.At(k)
		}
		y.Set(s/l.At(i, i), i)
	}
	x := New(n)
	for i := n - 1; i >= 0; i-- {
		s := y.At(i)
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x.At(k)
		}
		x.Set(s/l.At(i, i), i)
	}
	return x
}

func refSolveSPD(a, b *Tensor) (*Tensor, error) {
	n, err := squareDim(a)
	if err != nil {
		return nil, err
	}
	work := a.Clone()
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		l, err := refCholesky(work)
		if err == nil {
			return refCholeskySolve(l, b), nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		work = a.Clone()
		for i := 0; i < n; i++ {
			work.Set(work.At(i, i)+jitter, i, i)
		}
	}
	return nil, fmt.Errorf("tensor: SolveSPD failed even with jitter %.3g", jitter)
}

// randomSPD returns M Mᵀ + εI for a random n×n M: symmetric positive
// definite, and ill-conditioned enough for small ε that rounding order
// shows up in the low bits.
func randomSPD(rng *rand.Rand, n int, eps float64) *Tensor {
	m := Random(rng, -1, 1, n, n).data
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m[i*n+k] * m[j*n+k]
			}
			a.data[i*n+j] = s
		}
		a.data[i*n+i] += eps
	}
	return a
}

func assertSameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if len(got.data) != len(want.data) {
		t.Fatalf("%s: %d elements, want %d", what, len(got.data), len(want.data))
	}
	for i := range got.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %.17g, reference %.17g", what, i, got.data[i], want.data[i])
		}
	}
}

func TestCholeskyMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 128; n++ {
		a := randomSPD(rng, n, 1e-3)
		b := Random(rng, -1, 1, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := refCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		assertSameBits(t, fmt.Sprintf("n=%d factor", n), l, ref)
		assertSameBits(t, fmt.Sprintf("n=%d solve", n), CholeskySolve(l, b), refCholeskySolve(ref, b))
		x, err := SolveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: SolveSPD: %v", n, err)
		}
		want, _ := refSolveSPD(a, b)
		assertSameBits(t, fmt.Sprintf("n=%d SolveSPD", n), x, want)
	}
}

func TestCholeskyPivotErrorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	indefinite := randomSPD(rng, 6, 1)
	indefinite.data[3*6+3] = -50 // fails at pivot 3, after three good rows
	for _, a := range []*Tensor{
		FromData([]float64{1, 2, 2, 1}, 2, 2),
		indefinite,
	} {
		_, err := Cholesky(a)
		_, want := refCholesky(a)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Cholesky error %v, reference %v", err, want)
		}
	}
}

// TestSolveSPDLeavesInputUnmodified covers both paths now that the first
// attempt factors the caller's matrix directly: the clean solve, and a
// singular PSD matrix that factors after one jitter step, and an
// indefinite one that needs several (the retry reuses its copy). The
// jitter paths must also land on the reference's answer bit for bit.
func TestSolveSPDLeavesInputUnmodified(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := Random(rng, -1, 1, 5, 2)
	for _, tc := range []struct {
		name string
		a    *Tensor
	}{
		{"clean", randomSPD(rng, 5, 1)},
		{"jitter", MatMul(m, Transpose(m))}, // rank 2 of 5: needs jitter
		{"jitter-retry", FromData([]float64{4, 2, 2, 1 - 1e-9}, 2, 2)},
	} {
		before := tc.a.Clone()
		b := Random(rng, -1, 1, tc.a.Shape()[0])
		x, err := SolveSPD(tc.a, b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSameBits(t, tc.name+" input", tc.a, before)
		want, err := refSolveSPD(before, b)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		assertSameBits(t, tc.name+" solution", x, want)
	}
	if _, err := Cholesky(MatMul(m, Transpose(m))); err == nil {
		t.Fatal("jitter case factors without jitter; it no longer covers the retry path")
	}
}
