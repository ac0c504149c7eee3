package ekl

import (
	"testing"
)

// Fuzz targets for the EKL frontend. Seed corpora are committed under
// testdata/fuzz/ so `go test` exercises them on every CI run and
// `go test -fuzz=FuzzParseRoundTrip ./internal/ekl` explores from there.

// fuzzSeedSources is the committed seed corpus every EKL fuzz target
// starts from.
var fuzzSeedSources = []string{
	"kernel k {\n  input a : [4]\n  y = a[i] + 1\n  output y\n}\n",
	"kernel dot {\n  input a : [N]\n  input b : [N]\n  s = sum(i) a[i] * b[i]\n  output s\n}\n",
	"kernel g {\n  input t : [8] index\n  input v : [8, 8]\n  y = v[t[i], i]\n  output y[i]\n}\n",
	"kernel p {\n  param c = -2.5\n  iparam n\n  input x : [3, 5]\n  y = select(x[i, j] <= c, 0, x[i, j] / c)\n  output y[i, j]\n}\n",
	"kernel w {\n  input a : [4]\n  y = [a[i], -a[i]]\n  z = sum(i) y[i, q] * 2\n  output z\n}\n",
	"kernel acc {\n  input a : [6]\n  s = 0\n  s += sum(i) exp(a[i])\n  output s\n}\n",
	"kernel m {\n  input a : [2, 3]\n  input b : [3, 2]\n  c = sum(k) a[i, k] * b[k, j]\n  output c[i, j]\n}\n",
	"kernel bad {",
	"kernel x { input a : [0] }",
	"# comment only\n",
	"kernel u { input a : [2]\n y = 1e309 * a[i]\n output y }",
}

func fuzzSeeds(f *testing.F) {
	f.Helper()
	for _, s := range fuzzSeedSources {
		f.Add(s)
	}
}

// FuzzLex: the lexer never panics, and successful runs always end in EOF
// with non-empty token texts.
func FuzzLex(f *testing.F) {
	fuzzSeeds(f)
	f.Add("1.2e+3 <= >= != += # trail")
	f.Add("\x00\xff weird é")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := NewLexer(src).Lex()
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream must end in EOF: %v", toks)
		}
		for _, tok := range toks[:len(toks)-1] {
			if tok.Text == "" {
				t.Fatalf("non-EOF token with empty text at %d:%d", tok.Line, tok.Col)
			}
			if tok.Line < 1 || tok.Col < 1 {
				t.Fatalf("token %q has invalid position %d:%d", tok.Text, tok.Line, tok.Col)
			}
		}
	})
}

// FuzzParseRoundTrip: parsing never panics, and everything that parses
// prints to canonical source that re-parses and re-prints identically.
func FuzzParseRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		for _, k := range prog.Kernels {
			printed := k.Source()
			k2, err := ParseKernel(printed)
			if err != nil {
				t.Fatalf("canonical print does not reparse: %v\n--- printed ---\n%s", err, printed)
			}
			if again := k2.Source(); again != printed {
				t.Fatalf("print -> parse -> print unstable:\n--- first ---\n%s\n--- second ---\n%s", printed, again)
			}
		}
	})
}
