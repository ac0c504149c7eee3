package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// modelled holds everything a run computes in modelled time: a pure
// function of (workload, seed, size), compared bit for bit across runs.
type modelled struct {
	Tput         float64 `json:"modelled_tput"`
	P50          float64 `json:"modelled_p50_s"`
	Tail         float64 `json:"modelled_tail_s"`
	OverheadTail float64 `json:"modelled_overhead_tail_s"`
	ServedFrac   float64 `json:"served_frac"`
	// TailQ is the quantile modelled_tail_s and modelled_overhead_tail_s
	// report; TailBeyond samples of Samples rank above it.
	TailQ      float64 `json:"tail_quantile"`
	TailBeyond int     `json:"tail_beyond"`
	Samples    int     `json:"samples"`
	// Attempted counts requests (workflows, or stream events); Served
	// those completed in the class asked for; Failed those that broke an
	// output check.
	Attempted int `json:"attempted"`
	Served    int `json:"served"`
	Failed    int `json:"failed"`
	// Counts are the per-layer modelled counters (Stats and Result sums).
	Counts map[string]float64 `json:"counts"`
}

// report is what one worker process measured.
type report struct {
	Seed     uint64             `json:"seed"`
	Modelled modelled           `json:"modelled"`
	Host     map[string]float64 `json:"host"`
	Layers   map[string]float64 `json:"layers,omitempty"` // traced runs only
	Problems []string           `json:"problems,omitempty"`

	tr *tracer
}

// A workload builds its kernels and servers in setup and drives them in
// serve. serve calls r.probeLive once serving is drained, just before it
// shuts the servers down.
type workload interface {
	setup(r *run) error
	serve(r *run) error
}

// size scales a workload: full for the benchmark, tiny for its tests.
type size int

const (
	full size = iota
	tiny
)

type workloadSpec struct {
	name string
	make func(size) workload
}

var workloads = []workloadSpec{
	{"region-wave", newRegionWave},
	{"kmeans-data", newKMeansData},
	{"stream-feed", newStreamFeed},
	{"fleet-burst", newFleetBurst},
}

func lookup(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// run is one workload execution inside a worker.
type run struct {
	seed uint64
	tr   *tracer // nil in untraced runs

	// tamper corrupts the first conservation check's observed side, so
	// tests can show a wrong output is caught.
	tamper   bool
	tampered bool

	// engineEvents counts runtime engine events through the layers'
	// EngineTrace hooks (traced runs only).
	engineEvents atomic.Int64

	// off accumulates what offClock work cost, to be taken out of the
	// timed phases.
	off       offCost
	liveBytes uint64

	m        modelled
	problems []string
}

// rng returns a generator for one stream of the run's inputs; the same
// (seed, stream) always yields the same draws.
func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

// conserve checks one conservation law of the run's outputs. A mismatch
// is recorded as a problem and its size counted as failed requests.
func (r *run) conserve(what string, got, want int) {
	if r.tamper && !r.tampered {
		r.tampered = true
		got++
	}
	if got == want {
		return
	}
	r.problems = append(r.problems, fmt.Sprintf("%s: got %d, want %d", what, got, want))
	d := got - want
	if d < 0 {
		d = -d
	}
	r.m.Failed += d
}

// require records a failed property check that spoils n requests.
func (r *run) require(ok bool, n int, format string, args ...any) {
	if ok {
		return
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	if n < 1 {
		n = 1
	}
	r.m.Failed += n
}

// count sets a per-layer modelled counter.
func (r *run) count(name string, v float64) {
	if r.m.Counts == nil {
		r.m.Counts = make(map[string]float64)
	}
	r.m.Counts[name] = v
}

// call wraps a coarse set-up call in a span. Per-request calls use
// tr.begin/tr.end directly, which allocate nothing when untraced.
func (r *run) call(name string, f func() error) error {
	var id int
	if name == spanCompile {
		id = r.tr.beginMem(name, 0)
	} else {
		id = r.tr.begin(name, 0)
	}
	err := f()
	r.tr.end(id)
	return err
}

type offCost struct {
	cpu, gcCPU, wall float64
	alloc, cycles    uint64
}

// offClock runs f outside the timed phases: its CPU time, allocation and
// collections are subtracted from the run's host costs.
func (r *run) offClock(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, g, t := cpuSeconds(), gcCPUSeconds(), time.Now()
	f()
	r.off.wall += time.Since(t).Seconds()
	r.off.cpu += cpuSeconds() - c
	r.off.gcCPU += gcCPUSeconds() - g
	runtime.ReadMemStats(&m1)
	r.off.alloc += m1.TotalAlloc - m0.TotalAlloc
	r.off.cycles += uint64(m1.NumGC - m0.NumGC)
}

// probeLive forces a collection and records the heap the servers still
// hold, off the clock.
func (r *run) probeLive() {
	r.offClock(func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.liveBytes = ms.HeapAlloc
	})
}

// finish derives served_frac once a workload has filled its counts.
func (r *run) finish() {
	served := r.m.Served - r.m.Failed
	if served < 0 {
		served = 0
	}
	if r.m.Attempted > 0 {
		r.m.ServedFrac = float64(served) / float64(r.m.Attempted)
	}
}

// measure executes one workload cold — set-up, then serving — and
// returns what it cost and what it computed. It is the body of a worker
// process; tests call it directly at tiny size.
func measure(spec workloadSpec, seed uint64, sz size, traced, tamper bool) (report, error) {
	r := &run{seed: seed, tamper: tamper}
	if traced {
		r.tr = newTracer()
	}
	w := spec.make(sz)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	wall0 := time.Now()

	c0 := cpuSeconds()
	if err := w.setup(r); err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	c1 := cpuSeconds()
	if err := w.serve(r); err != nil {
		return report{}, fmt.Errorf("%s serve: %w", spec.name, err)
	}
	c2 := cpuSeconds()
	// Keep the kernels and servers reachable through the live-heap probe.
	runtime.KeepAlive(w)

	wall := time.Since(wall0).Seconds()
	runtime.ReadMemStats(&ms1)
	gc1, rss := gcCPUSeconds(), peakRSSMB()
	scale := calibrationScale()
	r.finish()

	rep := report{
		Seed:     seed,
		Modelled: r.m,
		Problems: r.problems,
		tr:       r.tr,
		Host: map[string]float64{
			"setup_s":          (c1 - c0) * scale,
			"host_cpu_s":       (c2 - c1 - r.off.cpu) * scale,
			"alloc_mb":         float64(ms1.TotalAlloc-ms0.TotalAlloc-r.off.alloc) / (1 << 20),
			"live_mb":          float64(r.liveBytes) / (1 << 20),
			"gc.cycles":        float64(uint64(ms1.NumGC-ms0.NumGC) - r.off.cycles),
			"gc.cpu_s":         (gc1 - gc0 - r.off.gcCPU) * scale,
			"host.wall_s":      wall - r.off.wall,
			"host.peak_rss_mb": rss,
			"host.cpu_raw_s":   c2 - c0 - r.off.cpu,
			"host.speed":       scale,
		},
	}
	if traced {
		rep.Layers = layerHost(r, scale)
	}
	return rep, nil
}

// layerHost derives the per-layer host metrics from the run's spans,
// with CPU times scaled like the phase totals.
func layerHost(r *run, scale float64) map[string]float64 {
	self := r.tr.selfCPU()
	for k := range self {
		self[k] *= scale
	}
	var alloc, mallocs uint64
	for _, s := range r.tr.spans {
		alloc += s.Alloc
		mallocs += s.Mallocs
	}
	out := map[string]float64{
		"compile.cpu_s":        self[spanCompile],
		"compile.alloc_mb":     float64(alloc) / (1 << 20),
		"compile.mallocs":      float64(mallocs),
		"server.cpu_s":         self[spanServer],
		"region.submit_self_s": self[spanRegionSubmit],
		"region.wait_self_s":   self[spanRegionWait],
		"fleet.submit_self_s":  self[spanFleetSubmit],
		"fleet.wait_self_s":    self[spanFleetWait],
		"stream.run_self_s":    self[spanStreamRun],
		"runtime.events":       float64(r.engineEvents.Load()),
	}
	if ev := r.engineEvents.Load(); ev > 0 {
		out["runtime.ns_per_event"] = self[spanFleetWait] * 1e9 / float64(ev)
	}
	if ev := r.m.Counts["stream.events"]; ev > 0 {
		out["stream.ns_per_event"] = self[spanStreamRun] * 1e9 / ev
	}
	return out
}
