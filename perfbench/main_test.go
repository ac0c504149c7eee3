package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The tests run every workload at tiny size, in process.

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func measureTiny(t *testing.T, spec workloadSpec, traced, tamper bool) report {
	t.Helper()
	rep, err := measure(spec, 3, tiny, traced, tamper)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func modelledJSON(t *testing.T, r report) string {
	t.Helper()
	b, err := json.Marshal(r.Modelled)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Every metric BENCHMARK.json names is printed, with its unit, on every
// workload; the program's own metric tables agree with the file.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s not printed", w.Name)
				continue
			}
			if m.Unit != w.Unit {
				t.Errorf("%s printed in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
			}
		}
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			plain := measureTiny(t, spec, false, false)
			traced := measureTiny(t, spec, true, false)
			if len(plain.Problems) > 0 || len(traced.Problems) > 0 {
				t.Fatalf("checks failed: %v %v", plain.Problems, traced.Problems)
			}
			e2e := endToEndMetrics([]report{plain})
			check(t, e2e, f.EndToEnd)
			for _, d := range endToEnd {
				if e2e[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, e2e[d.name].Value)
				}
			}
			check(t, perLayerMetrics([]report{plain}, []report{traced}), f.PerLayer)
		})
	}
}

// A corrupted output fails its check: the run is not correct, the
// spoiled requests count as failed, and served_frac drops.
func TestInjectedMismatchIsCaught(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			good := measureTiny(t, spec, false, false)
			bad := measureTiny(t, spec, false, true)
			if len(bad.Problems) == 0 {
				t.Fatal("tampered run reported no problem")
			}
			if bad.Modelled.Failed == 0 {
				t.Error("tampered run counted no failed requests")
			}
			if bad.Modelled.ServedFrac >= good.Modelled.ServedFrac {
				t.Errorf("served_frac %v with a failed check, %v without", bad.Modelled.ServedFrac, good.Modelled.ServedFrac)
			}
			if v := verdict([]report{good, bad}); v.Correct {
				t.Error("verdict correct despite a failed check")
			}
		})
	}
}

// Modelled metrics and counts are identical traced and untraced, and at
// GOMAXPROCS 1 and 2.
func TestModelledMetricsAreDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			want := modelledJSON(t, measureTiny(t, spec, false, false))
			if got := modelledJSON(t, measureTiny(t, spec, true, false)); got != want {
				t.Errorf("traced run differs:\n got %s\nwant %s", got, want)
			}
			runtime.GOMAXPROCS(1)
			if got := modelledJSON(t, measureTiny(t, spec, false, false)); got != want {
				t.Errorf("GOMAXPROCS=1 differs:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// Workers of one seed that disagree make the run incorrect.
func TestVerdictRejectsDisagreement(t *testing.T) {
	a := report{Seed: 1, Modelled: modelled{Attempted: 10, Served: 10, P50: 1}}
	b := a
	b.Modelled.P50 = 2
	if v := verdict([]report{a, a}); !v.Correct || v.Attempted != 20 {
		t.Errorf("agreeing workers: %+v", v)
	}
	if v := verdict([]report{a, b}); v.Correct || v.Failed == 0 {
		t.Errorf("disagreeing workers: %+v", v)
	}
	c := b
	c.Seed = 2
	if v := verdict([]report{a, c}); !v.Correct {
		t.Errorf("different seeds may differ: %+v", v)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9000, 0.99}, {160, 0.9}, {1000000, 0.9999}, {100000, 0.9999}, {4096, 0.99}, {20, 0.5}} {
		q := tailQuantile(c.n)
		if q != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, q, c.want)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, beyond := nearestRank(xs, q); beyond < 10 && c.n >= 20 {
			t.Errorf("n=%d q=%v: %d beyond", c.n, q, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "outer", Parent: -1, CPU0: 0, CPU1: 10},
		{Name: "inner", Parent: 0, CPU0: 2, CPU1: 5},
		{Name: "inner", Parent: 0, CPU0: 6, CPU1: 7},
	}}
	self := tr.selfCPU()
	if self["outer"] != 6 || self["inner"] != 4 {
		t.Errorf("self times %v, want outer 6 inner 4", self)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(-1)
}

// Each workload's spans fall in the layers it exercises: fleet-burst, for
// one, calls no region or stream code.
func TestSpansStayInTheirLayers(t *testing.T) {
	want := map[string][]string{
		"region-wave": {spanCompile, spanServer, spanRegionSubmit, spanRegionWait},
		"kmeans-data": {spanCompile, spanServer, spanFleetSubmit, spanFleetWait},
		"stream-feed": {spanCompile, spanServer, spanStreamRun},
		"fleet-burst": {spanCompile, spanServer, spanFleetSubmit, spanFleetWait},
	}
	all := []string{spanCompile, spanServer, spanRegionSubmit, spanRegionWait, spanRegionShutdown,
		spanFleetSubmit, spanFleetWait, spanFleetShutdown, spanStreamRun}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			rep := measureTiny(t, spec, true, false)
			for _, name := range want[spec.name] {
				if rep.tr.count(name) == 0 {
					t.Errorf("no %s spans", name)
				}
			}
			for _, name := range all {
				layer := strings.SplitN(name, ".", 2)[0]
				used := false
				for _, w := range want[spec.name] {
					used = used || strings.HasPrefix(w, layer)
				}
				if !used && rep.tr.count(name) > 0 {
					t.Errorf("%d %s spans on a workload that does not use %s", rep.tr.count(name), name, layer)
				}
			}
		})
	}
}
