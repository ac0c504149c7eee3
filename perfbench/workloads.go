package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/region"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/stream"
	"everest/internal/variants"
)

// Every workload drives the layers from this one goroutine, submit and
// wait: each request is submitted at its modelled arrival and awaited
// before the next, so arrivals stay on schedule in modelled time (open
// loop) and every modelled number is a function of the inputs alone.

// ---------------------------------------------------------------------------
// region-wave

// regionWave is sdk.DefaultRegionScenario with prefetch on: a wave of the
// three suite apps rotating over 3 regions of 3 sites on wan1g, with
// batch churn and guaranteed-class requests. The seed moves each arrival
// by up to ±2.5% of the arrival gap and scales each wave request's
// software work by up to ±0.05%; the app interleave stays the scenario's
// (NOTES.md says why). Latency covers every request, batch included.
// Serving cost is dominated by the forecaster's KRR refits at window
// rolls.
type regionWave struct {
	sc    sdk.RegionScenario
	suite *apps.Suite
	batch platform.Bitstream
	srv   *sdk.RegionServer
}

func newRegionWave(sz size) workload {
	sc := sdk.DefaultRegionScenario()
	if sz == tiny {
		sc.Workflows = 40
	}
	// The background batch app's own bitstream: one more artifact than the
	// region stores hold, as in the scenario's RunSuite.
	batch := sdk.ScenarioBitstream()
	batch.ID, batch.Kernel = "region-batch-mc", "mc-batch"
	return &regionWave{sc: sc, batch: batch}
}

func (w *regionWave) setup(r *run) error {
	sc := w.sc
	err := r.call(spanCompile, func() (err error) {
		w.suite, err = apps.BuildSuite(apps.DefaultOptions(), sc.Apps...)
		return err
	})
	if err != nil {
		return err
	}
	r.count("compile.kernels", float64(suiteKernels(w.suite)))
	cfg := sdk.RegionConfig{
		Regions: sc.Regions, SitesPerRegion: sc.SitesPerRegion, NodesPerSite: sc.NodesPerSite,
		CacheSlots: sc.CacheSlots, StoreSlots: sc.StoreSlots, PartialReconfig: sc.PartialReconfig,
		Adaptive: sc.Adaptive, RegistryNet: sc.RegistryNet, WAN: sc.WAN,
		Prefetch: sc.Prefetch, WindowSeconds: sc.WindowSeconds,
		WarmThreshold: sc.WarmThreshold, ForecastLag: sc.ForecastLag,
	}
	if r.tr != nil {
		cfg.EngineTrace = func(string, string, runtime.Event) { r.engineEvents.Add(1) }
	}
	bitstreams := append(w.suite.Bitstreams(), w.batch)
	r.count("server.bitstreams", float64(len(bitstreams)))
	return r.call(spanServer, func() (err error) {
		if w.srv, err = sdk.NewRegionServer(cfg); err != nil {
			return err
		}
		for _, bs := range bitstreams {
			if err := w.srv.Publish(bs); err != nil {
				return err
			}
		}
		return w.srv.Start()
	})
}

func (w *regionWave) serve(r *run) error {
	sc := w.sc
	fed := w.srv.Federation()
	rng := r.rng(1)
	tenants := tenantNames(8)

	var lat latencies
	var held []*region.Handle
	attempts, refused, results := 0, 0, 0
	var handoff, fetch, hold float64
	record := func(res region.Result) {
		results++
		lat.add(res.Latency, res.Service)
		handoff += res.Handoff
		fetch += res.Fetch + res.DataFetch
		hold += res.Hold
	}
	submit := func(i int, req region.Request) (*region.Handle, error) {
		attempts++
		id := r.tr.begin(spanRegionSubmit, i)
		h, err := fed.SubmitAt(req)
		r.tr.end(id)
		return h, err
	}

	wave := 0
	var last float64
	for i := 0; i < sc.Workflows; i++ {
		arrival := jitter(rng, i, regionJitter) * sc.ArrivalGap
		last = arrival
		if i%sc.BatchEvery == sc.BatchEvery-1 {
			h, err := submit(i, region.Request{
				Tenant: "batch", App: "mc", Workflow: sdk.AdaptiveWorkflow(i, w.batch.ID),
				Home: i % sc.Regions, Arrival: arrival, Class: region.Batch,
				InputBytes: sc.InputBytes,
			})
			if err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			held = append(held, h)
			continue
		}
		app, wf := w.suite.Workflow(wave)
		wf, err := resize(wf, 1+regionResize*(rng.Float64()-0.5))
		if err != nil {
			return err
		}
		req := region.Request{
			Tenant: tenants[wave%len(tenants)], App: app.Name,
			Workflow: wf,
			Home:     (i / sc.BlockSize) % sc.Regions, Arrival: arrival,
			Class: region.Interactive, InputBytes: sc.InputBytes,
		}
		guaranteed := wave%sc.GuaranteedEvery == 0
		wave++
		if guaranteed {
			req.Class, req.Deadline = region.Guaranteed, sc.GuaranteedDeadline
		}
		h, err := submit(i, req)
		if guaranteed && errors.Is(err, fleet.ErrSaturated) {
			// No region can prove the deadline: the request degrades to
			// interactive and counts as not served in its class.
			refused++
			req.Class, req.Deadline = region.Interactive, 0
			h, err = submit(i, req)
		}
		if err != nil {
			return fmt.Errorf("workflow %d: %w", i, err)
		}
		id := r.tr.begin(spanRegionWait, i)
		res, err := h.Wait()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("workflow %d: %w", i, err)
		}
		record(res)
	}
	id := r.tr.begin(spanRegionWait, -1)
	fed.Drain(last)
	r.tr.end(id)
	for _, h := range held {
		id := r.tr.begin(spanRegionWait, -1)
		res, err := h.Wait()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		record(res)
	}

	r.probeLive()
	id = r.tr.begin(spanRegionShutdown, -1)
	st := fed.Shutdown()
	r.tr.end(id)

	r.conserve("region: submitted = completed + rejected + failed", attempts, st.Completed+st.Rejected+st.Failed)
	r.conserve("region: results = completed", results, st.Completed)
	r.conserve("region: guaranteed-bound violations", st.BoundViolations, 0)

	r.m.Attempted = sc.Workflows
	r.m.Served = st.Completed - refused
	lat.summary(&r.m)
	if st.Makespan > 0 {
		r.m.Tput = float64(st.Completed) / st.Makespan
	}
	r.count("region.submit_calls", float64(attempts))
	r.count("region.cold_frac", float64(st.ColdServes)/float64(max(st.Completed, 1)))
	r.count("region.prefetch_fetches", float64(st.PrefetchFetches))
	r.count("region.wan_fetches", float64(st.WANFetches))
	r.count("region.handoffs", float64(st.Handoffs))
	r.count("region.preemptions", float64(st.Preemptions))
	r.count("region.handoff_s", handoff)
	r.count("region.fetch_s", fetch)
	r.count("region.hold_s", hold)
	return nil
}

// ---------------------------------------------------------------------------
// kmeans-data

// kmeansData is the E-data map-reduce k-means with locality routing over a
// 4-site wan1g fleet, run for many closed rounds: each round's map shards
// arrive together (the seed spreads them over 50 µs) and the reduce
// arrives when the last map completes. The seed also scatters the
// partitions, balanced, across the sites. Latency is per round: the
// workflows' own latencies cluster on exact service times, so their
// median would not depend on the seed at all.
type kmeansData struct {
	sites, rounds int
	cfg           apps.KMeansConfig
	km            *apps.KMeans
	srv           *sdk.FleetServer
}

func newKMeansData(sz size) workload {
	sc := sdk.DefaultKMeansScenario()
	w := &kmeansData{sites: sc.Sites, rounds: 1500, cfg: sc.Config}
	if sz == tiny {
		w.rounds = 2
		w.cfg.Points = 256
	}
	return w
}

func (w *kmeansData) setup(r *run) error {
	err := r.call(spanCompile, func() (err error) {
		w.km, err = apps.BuildKMeans(apps.DefaultOptions(), w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	kernels := []*variants.Compiled{w.km.Assign, w.km.Partial, w.km.Update}
	r.count("compile.kernels", float64(len(kernels)))
	r.count("server.bitstreams", float64(len(kernels)))

	// Balanced scatter: site s holds partitions/sites partitions, in an
	// order the seed shuffles.
	points := w.km.PointRefs()
	home := make([]int, len(points))
	for p := range home {
		home[p] = p % w.sites
	}
	r.rng(2).Shuffle(len(home), func(a, b int) { home[a], home[b] = home[b], home[a] })

	cfg := sdk.FleetConfig{Sites: w.sites, CacheSlots: len(kernels), RegistryNet: "wan1g"}
	if r.tr != nil {
		cfg.EngineTrace = func(string, runtime.Event) { r.engineEvents.Add(1) }
	}
	return r.call(spanServer, func() (err error) {
		if w.srv, err = sdk.NewFleetServer(cfg); err != nil {
			return err
		}
		for _, c := range kernels {
			if err := w.srv.Publish(c.Design.Bitstream); err != nil {
				return err
			}
		}
		if err := w.srv.Start(); err != nil {
			return err
		}
		fl := w.srv.Fleet()
		for _, c := range kernels {
			if _, err := fl.WarmAll(c.Design.Bitstream.ID, 0); err != nil {
				return err
			}
		}
		for p, ref := range points {
			if err := fl.PlaceDataset(home[p], 0, ref); err != nil {
				return err
			}
		}
		for s := 0; s < w.sites; s++ {
			if err := fl.PlaceDataset(s, 0, w.km.CentroidRef()); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *kmeansData) serve(r *run) error {
	fl := w.srv.Fleet()
	rng := r.rng(3)
	parts := w.cfg.Partitions
	offsets := make([]float64, parts)
	var rounds, workflows latencies
	d := fleetClient{r: r, fl: fl, lat: &workflows}
	now := 0.0
	for round := 0; round < w.rounds; round++ {
		for p := range offsets {
			offsets[p] = 50e-6 * rng.Float64()
		}
		sort.Float64s(offsets)
		frontier, mapService := now, 0.0
		for p := 0; p < parts; p++ {
			res, err := d.submitWait(round*(parts+1)+p, fleet.Request{
				Tenant: "kmeans", Workflow: w.km.MapWorkflow(p), Arrival: now + offsets[p]})
			if err != nil {
				return fmt.Errorf("round %d map %d: %w", round, p, err)
			}
			frontier = math.Max(frontier, res.Completion)
			mapService = math.Max(mapService, res.Service)
		}
		res, err := d.submitWait(round*(parts+1)+parts, fleet.Request{
			Tenant: "kmeans", Workflow: w.km.ReduceWorkflow(), Arrival: frontier})
		if err != nil {
			return fmt.Errorf("round %d reduce: %w", round, err)
		}
		// A request is one round, one k-means iteration: from its start to
		// the reduce's completion. Its service is the slowest map's plus
		// the reduce's.
		rounds.add(res.Completion-now, mapService+res.Service)
		now = res.Completion
	}

	r.probeLive()
	st := d.shutdown()
	d.check(st)
	r.conserve("kmeans: map + reduce workflows = rounds x (partitions + 1)", d.results, w.rounds*(parts+1))
	r.require(st.DatasetHits() > 0, d.results, "kmeans: no dataset hits")

	r.m.Attempted = w.rounds * (parts + 1)
	r.m.Served = st.Completed
	rounds.summary(&r.m)
	if st.Makespan > 0 {
		r.m.Tput = float64(st.Completed) / st.Makespan
	}
	d.counts(st)
	var misses int
	var fetchS float64
	for _, s := range st.Sites {
		misses += s.DatasetMisses
		fetchS += s.DatasetFetchSeconds
	}
	hits := st.DatasetHits()
	r.count("dataset.hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	r.count("dataset.fetches", float64(st.DatasetFetches()))
	r.count("dataset.fetched_mb", float64(st.DatasetFetchedBytes())/(1<<20))
	r.count("dataset.published", float64(st.DatasetPublished()))
	r.count("dataset.evictions", float64(st.DatasetEvictions()))
	r.count("dataset.fetch_s", fetchS)
	return nil
}

// ---------------------------------------------------------------------------
// stream-feed

// streamFeed is the E-stream million-event traffic/energy feed swept over
// sdk.DefaultStreamRates with the 0.25 s p99 limit. The seed drives the
// arrival processes. One engine per rung is built in set-up; serving is
// stream.Engine.Run alone.
type streamFeed struct {
	sc      sdk.StreamScenario
	rates   []float64
	srv     *sdk.StreamServer
	engines []*stream.Engine
}

func newStreamFeed(sz size) workload {
	w := &streamFeed{sc: sdk.DefaultStreamScenario(), rates: sdk.DefaultStreamRates()}
	if sz == tiny {
		w.sc.Events = 4000
		w.rates = []float64{1000, 4000, 12000}
	}
	return w
}

func (w *streamFeed) setup(r *run) error {
	// StreamScenario treats seed 0 as 1; offset so every seed is distinct.
	w.sc.Seed = r.seed + 1
	// NewStreamServer is apps.BuildSuite plus a walk deriving each app's
	// operator chain from its workflow, so it counts as compile.
	err := r.call(spanCompile, func() (err error) {
		w.srv, err = sdk.NewStreamServer(w.sc)
		return err
	})
	if err != nil {
		return err
	}
	sc := w.srv.Scenario()
	kernels, bitstreams := 0, map[string]bool{}
	for _, p := range w.srv.Pipelines(sc.Rate)[:len(sc.Apps)] {
		for _, st := range p.Stages {
			if st.Bitstream.ID != "" {
				kernels++
				bitstreams[st.Bitstream.ID] = true
			}
		}
	}
	r.count("compile.kernels", float64(kernels))
	r.count("server.bitstreams", float64(len(bitstreams)*len(w.rates)))
	return r.call(spanServer, func() error {
		for _, rate := range w.rates {
			e, err := w.engine(w.srv.Pipelines(rate), nil)
			if err != nil {
				return err
			}
			w.engines = append(w.engines, e)
		}
		return nil
	})
}

// engine builds one rung's engine on a fresh cluster, as
// sdk.StreamServer.RunAt does.
func (w *streamFeed) engine(specs []stream.PipelineSpec, trace func(stream.Event)) (*stream.Engine, error) {
	sc := w.srv.Scenario()
	return stream.New(stream.Config{
		Cluster:         sdk.DefaultCluster(sc.Nodes),
		PartialReconfig: sc.PartialReconfig,
		QueueWindows:    sc.QueueWindows,
		Trace:           trace,
	}, specs)
}

func (w *streamFeed) serve(r *run) error {
	sc := w.srv.Scenario()
	var best stream.Stats
	var bestRate float64
	var events, done, windows int64
	found := false
	for i, e := range w.engines {
		id := r.tr.begin(spanStreamRun, i)
		st, err := e.Run()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("rate %g: %w", w.rates[i], err)
		}
		r.conserve(fmt.Sprintf("stream rate %g: done + shed = events", w.rates[i]), int(st.Done+st.Shed), int(st.Events))
		var blockShed int64
		for _, p := range st.Pipelines {
			if p.Tenant == "guaranteed" {
				blockShed += p.Shed
			}
		}
		r.require(blockShed == 0, int(blockShed), "stream rate %g: guaranteed pipelines shed %d events", w.rates[i], blockShed)
		events += st.Events
		done += st.Done
		windows += st.Windows
		// The limit: p99 inside the SLO with at most 0.1% of events shed.
		if st.P99 <= sc.SLO && float64(st.Shed) <= 0.001*float64(st.Events) &&
			(!found || st.Throughput > best.Throughput) {
			best, bestRate, found = st, w.rates[i], true
		}
	}
	r.probeLive()
	r.require(found, int(events), "stream: no rate met the %gs p99 limit", sc.SLO)
	r.m.Attempted = int(events)
	r.m.Served = int(done)
	r.m.Tput = best.Throughput
	if found {
		var err error
		r.offClock(func() { err = w.replay(r, bestRate, best) })
		if err != nil {
			return err
		}
	}
	r.count("stream.events", float64(events))
	r.count("stream.windows", float64(windows))
	r.count("stream.shed_frac", float64(best.Shed)/float64(max(best.Events, 1)))
	r.count("stream.swaps", float64(best.Swaps))
	r.count("stream.swap_s", best.SwapSeconds)
	return nil
}

// replay serves the chosen rate once more, off the clock, recording every
// arrival and following the window trace, to get each event's exact
// latency: the layer's own percentiles are histogram bucket edges. The
// replay must reproduce the measured run.
func (w *streamFeed) replay(r *run, rate float64, want stream.Stats) error {
	type window struct{ start, n int }
	type pipe struct {
		log    *arrivalLog
		first  string // the chain's first stage; sheds there drop the newest window
		next   int    // index of the next arrival to join a window
		fifo   []window
		broken bool // a shed past the first stage: windows cannot be matched
	}
	specs := w.srv.Pipelines(rate)
	pipes := make(map[string]*pipe, len(specs))
	for i := range specs {
		log := &arrivalLog{inner: specs[i].Arrivals}
		specs[i].Arrivals = log
		pipes[specs[i].Name] = &pipe{log: log, first: specs[i].Stages[0].Name}
	}
	lat := make([]float64, 0, want.Done)
	e, err := w.engine(specs, func(ev stream.Event) {
		p := pipes[ev.Pipeline]
		switch ev.Kind {
		case stream.EventWindowClose:
			p.fifo = append(p.fifo, window{p.next, ev.Events})
			p.next += ev.Events
		case stream.EventShed:
			if ev.Stage == p.first {
				p.fifo = p.fifo[:len(p.fifo)-1]
			} else {
				p.broken = true
			}
		case stream.EventWindowDone:
			if p.broken || len(p.fifo) == 0 {
				p.broken = true
				return
			}
			win := p.fifo[0]
			p.fifo = p.fifo[1:]
			for _, a := range p.log.times[win.start : win.start+win.n] {
				lat = append(lat, ev.Time-a)
			}
		}
	})
	if err != nil {
		return err
	}
	st, err := e.Run()
	if err != nil {
		return err
	}
	r.conserve("stream replay: events done = measured run", int(st.Done), int(want.Done))
	for name, p := range pipes {
		r.require(!p.broken, int(want.Done), "stream replay: %s shed past its first stage; latencies cannot be matched to windows", name)
	}
	r.conserve("stream replay: latencies = events done", len(lat), int(st.Done))

	// Service is the mean time a window spends being processed across the
	// operator chain; the rest of a latency is window fill, queueing and
	// swaps.
	var busy float64
	var wins int64
	for _, p := range st.Pipelines {
		wins += p.Windows
		for _, s := range p.Stages {
			busy += s.BusySeconds
		}
	}
	service := busy / float64(max(wins, 1))
	sort.Float64s(lat)
	r.m.P50, _ = nearestRank(lat, 0.5)
	r.m.TailQ = tailQuantile(len(lat))
	r.m.Tail, r.m.TailBeyond = nearestRank(lat, r.m.TailQ)
	r.m.OverheadTail = r.m.Tail - service
	r.m.Samples = len(lat)
	return nil
}

// arrivalLog wraps a pipeline's arrival process and records each arrival
// time, summing gaps in the order the engine does.
type arrivalLog struct {
	inner stream.Arrivals
	t     float64
	times []float64
}

func (a *arrivalLog) Next() float64 {
	g := a.inner.Next()
	a.t += g
	a.times = append(a.times, a.t)
	return g
}

// ---------------------------------------------------------------------------
// fleet-burst

// fleetBurst is the E-fleet mix — compiled windpower, hand-declared
// Monte-Carlo on two bitstreams, pure software — over 4 sites with one
// bitstream cache slot each, an accelerator unplug at 0.5 s, and a quarter
// of the requests in the guaranteed class (4 s deadline). It is scaled up
// and swept over sdk.DefaultSaturationGaps with the 1.75 s p95 limit.
// Tenants and classes follow the E-fleet order; the seed jitters each
// arrival by up to 5% of the gap (NOTES.md says why). One fleet per rung
// is built in set-up.
type fleetBurst struct {
	perRung   int
	gaps      []float64
	c         *variants.Compiled
	templates []*runtime.Workflow
	servers   []*sdk.FleetServer
}

// How the seed perturbs requests. Arrival jitter is a fraction of the
// arrival gap; regionResize is the spread of the factor scaling each
// region-wave request's software work. Wider perturbations move requests
// across cold-store and queueing boundaries, and the latency percentiles
// then jump between clusters from seed to seed (NOTES.md).
const (
	regionJitter = 0.05
	regionResize = 0.001
	fleetJitter  = 0.1
)

// jitter returns request i's arrival in units of the gap: the middle of
// its slot, moved by up to ±width/2 at random. Arrivals stay in order.
func jitter(rng *rand.Rand, i int, width float64) float64 {
	return float64(i) + 0.5 + width*(rng.Float64()-0.5)
}

const (
	fleetTenants  = 32
	fleetDeadline = 4.0
	fleetP95Limit = 1.75
)

func newFleetBurst(sz size) workload {
	w := &fleetBurst{perRung: 8192, gaps: sdk.DefaultSaturationGaps()}
	if sz == tiny {
		w.perRung = 96
		w.gaps = []float64{0.64, 0.04, 0.0025}
	}
	return w
}

func (w *fleetBurst) setup(r *run) error {
	err := r.call(spanCompile, func() (err error) {
		w.c, err = variants.CompileExample("windpower", sdk.DefaultCompileOptions())
		return err
	})
	if err != nil {
		return err
	}
	r.count("compile.kernels", 1)
	// The mix cycles 12 workflow templates (class i%4 by weight i%3), built
	// once and resubmitted as in sdk.FleetScenario.RunWith.
	mc := sdk.ScenarioBitstream()
	for i := 0; i < 12; i++ {
		var wf *runtime.Workflow
		switch i % 4 {
		case 0:
			wf = sdk.CompiledWorkflow(i, w.c)
			wf.SetVariants(w.c.Variants())
		case 1:
			wf = sdk.AdaptiveWorkflow(i, mc.ID)
		case 2:
			wf = sdk.SyntheticWorkflow(i)
		default:
			wf = sdk.AdaptiveWorkflow(i, w.c.Design.Bitstream.ID)
		}
		w.templates = append(w.templates, wf)
	}
	bitstreams := []platform.Bitstream{w.c.Design.Bitstream, mc}
	r.count("server.bitstreams", float64(len(bitstreams)*len(w.gaps)))
	cfg := sdk.FleetConfig{
		Sites: 4, NodesPerSite: 2, CacheSlots: 1, RegistryNet: "tcp10g", Adaptive: true,
		SiteEvents: [][]runtime.EnvEvent{{{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0.5}}},
	}
	if r.tr != nil {
		cfg.EngineTrace = func(string, runtime.Event) { r.engineEvents.Add(1) }
	}
	return r.call(spanServer, func() error {
		for range w.gaps {
			srv, err := sdk.NewFleetServer(cfg)
			if err != nil {
				return err
			}
			for _, bs := range bitstreams {
				if err := srv.Publish(bs); err != nil {
					return err
				}
			}
			if err := srv.Start(); err != nil {
				return err
			}
			w.servers = append(w.servers, srv)
		}
		return nil
	})
}

func (w *fleetBurst) serve(r *run) error {
	tenants := tenantNames(fleetTenants)
	clients := make([]fleetClient, len(w.gaps))
	lats := make([]latencies, len(w.gaps))
	for g, gap := range w.gaps {
		rng := r.rng(uint64(10 + g))
		d := &clients[g]
		*d = fleetClient{r: r, fl: w.servers[g].Fleet(), lat: &lats[g]}
		for i := 0; i < w.perRung; i++ {
			req := fleet.Request{
				Tenant:   tenants[i%len(tenants)],
				Workflow: w.templates[i%len(w.templates)],
				Arrival:  jitter(rng, i, fleetJitter) * gap,
			}
			if i%4 == 0 {
				req.Guaranteed, req.Deadline = true, fleetDeadline
			}
			if _, err := d.submitWait(g*w.perRung+i, req); err != nil {
				return fmt.Errorf("gap %g workflow %d: %w", gap, i, err)
			}
		}
	}
	r.probeLive()

	best := -1
	var bestTput float64
	completed, refused, calls := 0, 0, 0
	stats := make([]fleet.Stats, len(w.gaps))
	for g := range w.gaps {
		d := &clients[g]
		st := d.shutdown()
		d.check(st)
		stats[g] = st
		completed += st.Completed
		refused += d.refused
		calls += d.attempts
		sorted := append([]float64(nil), lats[g].lat...)
		sort.Float64s(sorted)
		p95, _ := nearestRank(sorted, 0.95)
		tput := 0.0
		if st.Makespan > 0 {
			tput = float64(st.Completed) / st.Makespan
		}
		// Highest throughput under the limit; ties go to the lower rate.
		if st.Completed == w.perRung && p95 <= fleetP95Limit && (best < 0 || tput > bestTput) {
			best, bestTput = g, tput
		}
	}
	r.require(best >= 0, len(w.gaps)*w.perRung, "fleet: no rung met the %gs p95 limit", fleetP95Limit)
	r.m.Attempted = len(w.gaps) * w.perRung
	r.m.Served = completed - refused
	if best < 0 {
		return nil
	}
	r.m.Tput = bestTput
	lats[best].summary(&r.m)
	clients[best].counts(stats[best])
	r.count("fleet.submit_calls", float64(calls)) // every rung's, as host cost is
	return nil
}

// ---------------------------------------------------------------------------
// shared helpers

// fleetClient submits to one fleet and waits for each ticket, recording
// spans, latencies and the sums the per-layer counts need.
type fleetClient struct {
	r   *run
	fl  *fleet.Fleet
	lat *latencies

	attempts, results, refused int
	wait, deploy               float64
}

// submitWait routes one request — degrading a refused guaranteed request
// to best effort — and waits for it.
func (d *fleetClient) submitWait(req int, q fleet.Request) (fleet.Result, error) {
	t, err := d.submit(req, q)
	if q.Guaranteed && errors.Is(err, fleet.ErrSaturated) {
		d.refused++
		q.Guaranteed, q.Deadline = false, 0
		t, err = d.submit(req, q)
	}
	if err != nil {
		return fleet.Result{}, err
	}
	id := d.r.tr.begin(spanFleetWait, req)
	res, err := t.Wait()
	d.r.tr.end(id)
	if err != nil {
		return fleet.Result{}, err
	}
	d.results++
	d.wait += res.Wait
	d.deploy += res.Deploy
	d.lat.add(res.Latency, res.Service)
	return res, nil
}

func (d *fleetClient) submit(req int, q fleet.Request) (*fleet.Ticket, error) {
	d.attempts++
	id := d.r.tr.begin(spanFleetSubmit, req)
	t, err := d.fl.Submit(q)
	d.r.tr.end(id)
	return t, err
}

func (d *fleetClient) shutdown() fleet.Stats {
	id := d.r.tr.begin(spanFleetShutdown, -1)
	st := d.fl.Shutdown()
	d.r.tr.end(id)
	return st
}

// check applies the fleet's conservation laws to one served fleet.
func (d *fleetClient) check(st fleet.Stats) {
	d.r.conserve("fleet: submitted = completed + rejected + failed", d.attempts, st.Completed+st.Rejected+st.Failed)
	d.r.conserve("fleet: results = completed", d.results, st.Completed)
	d.r.conserve("fleet: guaranteed-bound violations", st.BoundViolations(), 0)
}

// counts records the fleet layer's modelled per-layer counters.
func (d *fleetClient) counts(st fleet.Stats) {
	hits, misses := st.CacheHits(), st.CacheMisses()
	d.r.count("fleet.submit_calls", float64(d.attempts))
	d.r.count("fleet.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	d.r.count("fleet.evictions", float64(st.Evictions()))
	d.r.count("fleet.redeploys", float64(st.Redeploys()))
	d.r.count("fleet.queue_wait_s", d.wait)
	d.r.count("fleet.deploy_s", d.deploy)
	d.r.count("fleet.rejected", float64(st.Rejected))
}

// resize returns a copy of w with every task's software work scaled by f.
func resize(w *runtime.Workflow, f float64) (*runtime.Workflow, error) {
	out := runtime.NewWorkflow()
	for _, name := range w.Tasks() {
		spec, _ := w.Get(name)
		s := *spec
		s.Flops *= f
		if err := out.Submit(s); err != nil {
			return nil, err
		}
	}
	out.SetVariants(w.Variants())
	return out, nil
}

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant%02d", i)
	}
	return out
}

func suiteKernels(s *apps.Suite) int {
	n := 0
	for _, a := range s.Apps {
		n += len(a.Kernels)
	}
	return n
}
