package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Host cost is process CPU time (user + system, all threads), not wall
// time: on a shared host wall time doubles when a neighbour is busy while
// CPU time barely moves. NOTES.md records the comparison.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // only a bad argument can fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's maximum resident set size (a diagnostic:
// it is not steady enough to gate).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// span is one timed call into a layer, recorded in the traced run only.
// Times are process CPU seconds (cpu0, cpu1) and wall seconds since the
// tracer started (wall0, wall1).
type span struct {
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Parent int     `json:"parent"` // index into the span list, -1 at the root
	CPU0   float64 `json:"cpu0"`
	CPU1   float64 `json:"cpu1"`
	Wall0  float64 `json:"wall0"`
	Wall1  float64 `json:"wall1"`
	// Alloc and Mallocs are filled only for spans begun with beginMem.
	Alloc   uint64 `json:"alloc,omitempty"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	mem     bool
}

// tracer keeps spans in memory; the worker writes them out when it ends.
// A nil tracer records nothing, so the untraced run pays one nil check
// per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	mem   []runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Wall0: time.Since(t.t0).Seconds(), CPU0: cpuSeconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// beginMem is begin plus a heap-statistics snapshot, for the few coarse
// spans (compile) whose allocation volume is reported.
func (t *tracer) beginMem(name string, req int) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mem = append(t.mem, ms)
	id := t.begin(name, req)
	t.spans[id].mem = true
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.CPU1 = cpuSeconds()
	s.Wall1 = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	if s.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := t.mem[len(t.mem)-1]
		t.mem = t.mem[:len(t.mem)-1]
		s.Alloc = ms.TotalAlloc - m0.TotalAlloc
		s.Mallocs = ms.Mallocs - m0.Mallocs
	}
}

// selfCPU sums, per span name, each span's CPU duration minus the part
// its child spans cover.
func (t *tracer) selfCPU() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.CPU1 - s.CPU0
		}
	}
	for i, s := range t.spans {
		out[s.Name] += s.CPU1 - s.CPU0 - child[i]
	}
	return out
}

// count returns how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	if t != nil {
		for _, s := range t.spans {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// Span names. Each is the benchmark's own call into one layer.
const (
	spanCompile        = "compile"         // apps / variants
	spanServer         = "server"          // sdk constructors, Publish, Start, WarmAll, PlaceDataset
	spanRegionSubmit   = "region.submit"   // region.Federation.SubmitAt
	spanRegionWait     = "region.wait"     // region.Handle.Wait and Federation.Drain
	spanRegionShutdown = "region.shutdown" // region.Federation.Shutdown
	spanFleetSubmit    = "fleet.submit"    // fleet.Fleet.Submit
	spanFleetWait      = "fleet.wait"      // fleet.Ticket.Wait
	spanFleetShutdown  = "fleet.shutdown"  // fleet.Fleet.Shutdown
	spanStreamRun      = "stream.run"      // stream.Engine.Run
)

// nearestRank returns the q-quantile of sorted xs by the nearest-rank
// method and the number of samples ranked above it.
func nearestRank(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailQuantiles is the ladder tailQuantile climbs.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile picks the highest quantile on the ladder that has at least
// ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q*float64(n) - 1e-9))
		if n-rank >= 10 {
			return q
		}
	}
	return 0.5
}

// latencies collects per-request modelled latency and its overhead
// (latency minus engine service time).
type latencies struct {
	lat, over []float64
}

func (l *latencies) add(latency, service float64) {
	l.lat = append(l.lat, latency)
	l.over = append(l.over, latency-service)
}

// summary fills the latency half of the modelled metrics: the median, and
// latency and overhead at the highest quantile with ten samples beyond.
func (l *latencies) summary(m *modelled) {
	lat := append([]float64(nil), l.lat...)
	over := append([]float64(nil), l.over...)
	sort.Float64s(lat)
	sort.Float64s(over)
	m.P50, _ = nearestRank(lat, 0.5)
	m.TailQ = tailQuantile(len(lat))
	m.Tail, m.TailBeyond = nearestRank(lat, m.TailQ)
	m.OverheadTail, _ = nearestRank(over, m.TailQ)
	m.Samples = len(lat)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// calibrationRef is what calibrationScale's task costs on the reference
// host: CPU seconds measured here are reported as seconds on a host where
// that task takes this long.
const calibrationRef = 0.15

// calibrationScale times the calibration task four times, after serving
// and off the clock, and returns calibrationRef over that time. This
// host's speed wanders by a third over tens of seconds (a neighbour on
// the physical core slows every instruction, and CPU time grows with
// it); scaling by a task timed seconds later cancels most of that.
func calibrationScale() float64 {
	runtime.GC()
	t := 0.0
	for i := 0; i < 4; i++ {
		t += calibrate()
	}
	return calibrationRef / t
}

// calibSink keeps the calibration's result observable.
var calibSink float64

// calibrate times a fixed task of the benchmark's own — string keys, map
// updates, allocation, pointer chasing, sorting and float math, nothing
// from the program under test — and returns its CPU seconds.
func calibrate() float64 {
	type node struct {
		next *node
		key  string
		v    float64
	}
	c := cpuSeconds()
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 17
	var head *node
	m := make(map[string]float64)
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		k := strconv.Itoa(rng.IntN(1 << 12))
		v := math.Sqrt(float64(i)) * rng.Float64()
		m[k] += v
		head = &node{head, k, v}
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	sum := 0.0
	for p := head; p != nil; p = p.next {
		sum += p.v * m[p.key]
	}
	calibSink = sum + xs[n/2]
	return cpuSeconds() - c
}
