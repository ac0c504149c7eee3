package stream

import (
	"testing"

	"everest/internal/runtime"
)

// winClose is one window close: its modelled time and size.
type winClose struct {
	time   float64
	events int
}

// referenceCloses replays one pipeline's source with no stages, one event
// at a time on a TimeHeap: each arrival is a heap entry, the first arrival
// of a window arms an age-flush timer, a full window closes at its last
// arrival, the source's last arrival flushes the tail, and a timer that
// fires after its window already closed is recognized as stale and
// ignored. An arrival at exactly the deadline pops first (slot 0 before
// slot 1) and joins the window. This is the per-event path the
// window-granular source replaces; it is kept here as the reference the
// engine's closes are checked against.
func referenceCloses(a Arrivals, events, windowEvents int, windowSeconds float64) []winClose {
	const arrival, flush = 0, 1
	h := runtime.NewTimeHeap(4)
	h.Push(runtime.TimeItem{Time: a.Next(), Seq: arrival})
	var out []winClose
	open, generated, flushAt := 0, 0, 0.0
	closeAt := func(t float64) {
		out = append(out, winClose{t, open})
		open = 0
	}
	for h.Len() > 0 {
		it := h.PopMin()
		t := it.Time
		if it.Seq == flush {
			if open > 0 && t == flushAt {
				closeAt(t)
			}
			continue
		}
		generated++
		if open == 0 && windowSeconds > 0 {
			flushAt = t + windowSeconds
			h.Push(runtime.TimeItem{Time: flushAt, Seq: flush})
		}
		open++
		if open >= windowEvents {
			closeAt(t)
		}
		if generated < events {
			h.Push(runtime.TimeItem{Time: t + a.Next(), Seq: arrival})
		} else if open > 0 {
			closeAt(t)
		}
	}
	return out
}

// constGap is an arrival process with a fixed, exactly representable gap,
// so arrivals land exactly on age deadlines.
type constGap float64

func (g constGap) Next() float64 { return float64(g) }

// sourceCase is one pipeline set the source tests drive. arrivals builds a
// fresh process per pipeline, so the engine and the reference draw the
// same gap train.
type sourceCase struct {
	name     string
	specs    func() []PipelineSpec
	arrivals func(i int) Arrivals
}

func sourceCases() []sourceCase {
	one := func(events, windowEvents int, windowSeconds float64, policy Policy, stages ...StageSpec) func() []PipelineSpec {
		return func() []PipelineSpec {
			return []PipelineSpec{{
				Name: "src", Policy: policy, Events: events,
				WindowEvents: windowEvents, WindowSeconds: windowSeconds, Stages: stages,
			}}
		}
	}
	light := []StageSpec{softStage("ingest", 1e4), softStage("project", 5e4)}
	arr := func(kind string, rate float64) func(int) Arrivals {
		return func(i int) Arrivals { return NewArrivals(kind, rate, uint64(31+i)) }
	}
	overload := func(policy Policy, windowSeconds float64) func() []PipelineSpec {
		return func() []PipelineSpec {
			s := overloadSpec(policy)
			s.WindowSeconds = windowSeconds
			return []PipelineSpec{s}
		}
	}
	return []sourceCase{
		{"poisson size-only", one(10000, 64, 0, Shed, light...), arr("poisson", 1000)},
		{"poisson age 0.05s", one(10000, 64, 0.05, Block, light...), arr("poisson", 1000)},
		{"bursty age 0.05s", one(10000, 64, 0.05, Shed, light...), arr("bursty", 1000)},
		{"diurnal age 0.02s", one(10000, 64, 0.02, Block, light...), arr("diurnal", 2000)},
		{"bursty size-only", one(5000, 64, 0, Block, light...), arr("bursty", 300)},
		{"diurnal size-only", one(5000, 64, 0, Shed, light...), arr("diurnal", 300)},
		{"sparse 5 ev/s", one(300, 64, 0.5, Shed, light...), arr("poisson", 5)},
		{"sparse 50 ev/s", one(3000, 64, 0.5, Block, light...), arr("poisson", 50)},
		{"sparse diurnal", one(500, 64, 0.25, Block, light...), arr("diurnal", 20)},
		// Gap 0.25 s against a 0.5 s age: every third arrival lands exactly
		// on the deadline and joins the window it would flush.
		{"arrival at the deadline", one(1000, 64, 0.5, Shed, light...), func(int) Arrivals { return constGap(0.25) }},
		// Windows of two close on size; each stale deadline coincides with
		// the first arrival of a later window.
		{"stale deadline at an arrival", one(1000, 2, 0.5, Block, light...), func(int) Arrivals { return constGap(0.25) }},
		{"tail not a multiple", one(1000, 64, 0, Shed, light...), arr("poisson", 800)},
		{"tail shorter than a window", one(10, 64, 0, Block, light...), arr("poisson", 800)},
		{"window of one event", one(2000, 1, 0, Block, light...), arr("poisson", 400)},
		{"window of one event, age", one(2000, 1, 0.01, Shed, light...), arr("poisson", 400)},
		{"shed overload", overload(Shed, 0), arr("poisson", 2000)},
		{"block overload", overload(Block, 0), arr("poisson", 2000)},
		{"shed overload, age", overload(Shed, 0.02), arr("bursty", 2000)},
		{"block overload, age", overload(Block, 0.02), arr("diurnal", 2000)},
		{"two pipelines on one card", func() []PipelineSpec {
			specs := swapSpecs()
			specs[0].WindowSeconds = 0.1
			specs[1].Policy = Block
			return specs
		}, arr("poisson", 200)},
	}
}

// build returns the case's engine (arrival processes attached) and a
// recorder of each pipeline's window closes.
func (c sourceCase) build(t *testing.T) (*Engine, map[string][]winClose) {
	t.Helper()
	specs := c.specs()
	for i := range specs {
		specs[i].Arrivals = c.arrivals(i)
	}
	got := make(map[string][]winClose)
	e, err := New(Config{Cluster: testCluster(), PartialReconfig: true, Trace: func(ev Event) {
		if ev.Kind == EventWindowClose {
			got[ev.Pipeline] = append(got[ev.Pipeline], winClose{ev.Time, ev.Events})
		}
	}}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return e, got
}

// TestSourceMatchesPerEventReference checks that the window-granular
// source closes every window at the same modelled time and with the same
// size as the per-event reference, for every arrival process, with and
// without an age flush, under both overload policies.
func TestSourceMatchesPerEventReference(t *testing.T) {
	for _, c := range sourceCases() {
		e, got := c.build(t)
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range e.pipes {
			s := p.spec
			want := referenceCloses(c.arrivals(i), s.Events, s.WindowEvents, s.WindowSeconds)
			g := got[s.Name]
			if len(g) != len(want) {
				t.Errorf("%s/%s: %d window closes, reference %d", c.name, s.Name, len(g), len(want))
				continue
			}
			for j := range want {
				if g[j] != want[j] {
					t.Errorf("%s/%s: close %d at %.17g with %d events, reference %.17g with %d",
						c.name, s.Name, j, g[j].time, g[j].events, want[j].time, want[j].events)
					break
				}
			}
			if ps := st.Pipelines[i]; ps.Events != int64(s.Events) || ps.Done+ps.Shed != ps.Events {
				t.Errorf("%s/%s: events %d done %d shed %d, want %d generated and conserved",
					c.name, s.Name, ps.Events, ps.Done, ps.Shed, s.Events)
			}
		}
	}
}

// TestStepsAreWindowGranular is a host-independent work gate: draining a
// run takes exactly one step per window close plus one per stage service,
// so no step is spent on an individual arrival or on a stale timer.
func TestStepsAreWindowGranular(t *testing.T) {
	for _, c := range sourceCases() {
		e, got := c.build(t)
		e.ran = true // drive the loop by hand
		e.start()
		steps := 0
		for e.heap.Len() > 0 {
			e.step()
			steps++
		}
		st := e.stats()
		want := 0
		for _, p := range st.Pipelines {
			want += len(got[p.Name])
			for _, sg := range p.Stages {
				want += int(sg.Windows)
			}
		}
		if steps != want {
			t.Errorf("%s: %d steps for %d events, want %d (window closes + stage services)",
				c.name, steps, st.Events, want)
		}
	}
}
