// Command perfbench is the EVEREST reproduction's benchmark. It measures
// the system on its two clocks: modelled seconds (what the FPGA cluster
// would experience) and host CPU seconds (what the simulator costs to run).
//
//	bash perfbench/run.sh --workload region-wave --seed 1 --seconds 10 --trace 0
//
// Each measurement is one worker process that sets the workload up cold
// (compile kernels, build and start servers) and serves it once. The
// parent runs workers one after another for --seconds, checks that their
// modelled outputs agree bit for bit and pass every output check, and
// prints the medians of their host costs. With --trace 1 it alternates
// untraced and traced workers and prints the per-layer metrics instead.
// The last line of standard output is one JSON object; NOTES.md defines
// every metric and the layer each one isolates.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Seeds. The default is what the benchmark was tuned on; claims should be
// re-checked on the held-out seed, whose modelled metrics every untraced
// run prints too.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

const (
	minWorkers = 3
	maxWorkers = 100
	// deadline bounds a whole run, well inside the 180 s a run may take.
	deadline = 150 * time.Second
)

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"live_mb", "MB"},
	{"modelled_tput", "1/s"},
	{"modelled_p50_s", "s"},
	{"modelled_tail_s", "s"},
	{"modelled_overhead_tail_s", "s"},
	{"served_frac", "ratio"},
}

// perLayer lists the metrics a traced run prints. Layers a workload does
// not exercise report 0.
var perLayer = []metricDef{
	{"compile.cpu_s", "s"},
	{"compile.alloc_mb", "MB"},
	{"compile.mallocs", "count"},
	{"compile.kernels", "count"},
	{"server.cpu_s", "s"},
	{"server.bitstreams", "count"},
	{"region.submit_calls", "count"},
	{"region.submit_self_s", "s"},
	{"region.wait_self_s", "s"},
	{"region.cold_frac", "ratio"},
	{"region.prefetch_fetches", "count"},
	{"region.wan_fetches", "count"},
	{"region.handoffs", "count"},
	{"region.preemptions", "count"},
	{"region.handoff_s", "s"},
	{"region.fetch_s", "s"},
	{"region.hold_s", "s"},
	{"fleet.submit_calls", "count"},
	{"fleet.submit_self_s", "s"},
	{"fleet.wait_self_s", "s"},
	{"fleet.cache_hit_frac", "ratio"},
	{"fleet.evictions", "count"},
	{"fleet.redeploys", "count"},
	{"fleet.queue_wait_s", "s"},
	{"fleet.deploy_s", "s"},
	{"fleet.rejected", "count"},
	{"dataset.hit_frac", "ratio"},
	{"dataset.fetches", "count"},
	{"dataset.fetched_mb", "MB"},
	{"dataset.published", "count"},
	{"dataset.evictions", "count"},
	{"dataset.fetch_s", "s"},
	{"runtime.events", "count"},
	{"runtime.ns_per_event", "ns"},
	{"stream.run_self_s", "s"},
	{"stream.events", "count"},
	{"stream.windows", "count"},
	{"stream.ns_per_event", "ns"},
	{"stream.shed_frac", "ratio"},
	{"stream.swaps", "count"},
	{"stream.swap_s", "s"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"host.wall_s", "s"},
	{"host.peak_rss_mb", "MB"},
	{"host.cpu_raw_s", "s"},
	{"host.speed", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: region-wave, kmeans-data, stream-feed or fleet-burst")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from traced workers")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	worker := flag.Bool("worker", false, "measure once in this process and print the report (internal)")
	flag.Parse()

	if err := execute(*workload, *seed, *seconds, *trace, *out, *worker); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func execute(name string, seed uint64, seconds, trace int, out string, worker bool) error {
	spec, err := lookup(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, got %d", seconds)
	}
	if worker {
		return runWorker(spec, seed, trace == 1, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	p := &parent{ctx: ctx, spec: spec, out: out}
	var res result
	if trace == 1 {
		res, err = p.traced(seed, seconds)
	} else {
		res, err = p.untraced(seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorker measures once, writes the spans of a traced run, and prints
// the report as one JSON line.
func runWorker(spec workloadSpec, seed uint64, traced bool, out string) error {
	rep, err := measure(spec, seed, full, traced, false)
	if err != nil {
		return err
	}
	if traced {
		if err := writeSpans(rep.tr, filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, seed))); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// writeSpans writes one span per line.
func writeSpans(t *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// parent runs worker processes one at a time.
type parent struct {
	ctx  context.Context
	spec workloadSpec
	out  string
}

func (p *parent) worker(seed uint64, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(p.ctx, exe, "-worker", "-workload", p.spec.name,
		"-seed", fmt.Sprint(seed), "-trace", trace, "-out", p.out)
	// One P: with two, the collector's idle-P mark workers and spinning
	// threads add CPU time that depends on timing, not on the work.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		if errors.Is(p.ctx.Err(), context.DeadlineExceeded) {
			return report{}, fmt.Errorf("run exceeded %v", deadline)
		}
		return report{}, fmt.Errorf("worker: %w", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return report{}, fmt.Errorf("worker report: %w", err)
	}
	return rep, nil
}

// untraced measures the end-to-end metrics: cold workers until the time
// is up, host costs as medians, modelled metrics checked identical.
func (p *parent) untraced(seed uint64, seconds int) (result, error) {
	start := time.Now()
	var reps []report
	for len(reps) < minWorkers || (len(reps) < maxWorkers && time.Since(start) < time.Duration(seconds)*time.Second) {
		rep, err := p.worker(seed, false)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
	}
	all := reps
	printModelled(p.spec.name, reps[0], "")
	if seed != heldOutSeed {
		rep, err := p.worker(heldOutSeed, false)
		if err != nil {
			return result{}, err
		}
		printModelled(p.spec.name, rep, " (held out)")
		all = append(all, rep)
	}
	res := verdict(all)
	res.Metrics = endToEndMetrics(reps)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d workers in %.1fs\n",
		p.spec.name, seed, len(reps), time.Since(start).Seconds())
	return res, nil
}

// traced alternates untraced and traced workers and reports per-layer
// metrics: span self times from the traced ones, modelled counts (the
// same in both), and host diagnostics from the untraced ones.
func (p *parent) traced(seed uint64, seconds int) (result, error) {
	start := time.Now()
	var plain, traced []report
	for len(traced) < 2 || (len(traced) < maxWorkers/2 && time.Since(start) < time.Duration(seconds)*time.Second) {
		for _, t := range []bool{false, true} {
			rep, err := p.worker(seed, t)
			if err != nil {
				return result{}, err
			}
			if t {
				traced = append(traced, rep)
			} else {
				plain = append(plain, rep)
			}
		}
	}
	res := verdict(append(append([]report(nil), plain...), traced...))
	res.Metrics = perLayerMetrics(plain, traced)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced + %d traced workers in %.1fs\n",
		p.spec.name, seed, len(plain), len(traced), time.Since(start).Seconds())
	return res, nil
}

// endToEndMetrics reads the modelled metrics off the first worker (all
// agree, or verdict says otherwise) and takes medians of the host costs.
func endToEndMetrics(reps []report) map[string]metric {
	m := reps[0].Modelled
	out := map[string]metric{}
	for _, d := range endToEnd {
		var v float64
		switch d.name {
		case "modelled_tput":
			v = m.Tput
		case "modelled_p50_s":
			v = m.P50
		case "modelled_tail_s":
			v = m.Tail
		case "modelled_overhead_tail_s":
			v = m.OverheadTail
		case "served_frac":
			v = m.ServedFrac
		default:
			v = medianOf(reps, func(r report) float64 { return r.Host[d.name] })
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// perLayerMetrics takes span self times from the traced workers, modelled
// counts (the same in both), and host diagnostics from the untraced ones.
func perLayerMetrics(plain, traced []report) map[string]metric {
	cost := func(r report) float64 { return r.Host["setup_s"] + r.Host["host_cpu_s"] }
	counts := plain[0].Modelled.Counts
	out := map[string]metric{}
	for _, d := range perLayer {
		var v float64
		switch {
		case d.name == "trace.overhead_frac":
			v = medianOf(traced, cost)/medianOf(plain, cost) - 1
		case strings.HasPrefix(d.name, "gc.") || strings.HasPrefix(d.name, "host."):
			v = medianOf(plain, func(r report) float64 { return r.Host[d.name] })
		default:
			if c, ok := counts[d.name]; ok {
				v = c
			} else {
				v = medianOf(traced, func(r report) float64 { return r.Layers[d.name] })
			}
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// verdict checks every worker's outputs and that all workers of one seed
// computed bit-identical modelled results.
func verdict(reps []report) result {
	res := result{Correct: true}
	first := map[uint64][]byte{}
	for _, r := range reps {
		res.Attempted += r.Modelled.Attempted
		res.Failed += r.Modelled.Failed
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: check failed: %s\n", r.Seed, p)
			res.Correct = false
		}
		b, err := json.Marshal(r.Modelled)
		if err != nil {
			panic(err) // a struct of numbers always encodes
		}
		if f, ok := first[r.Seed]; !ok {
			first[r.Seed] = b
		} else if !bytes.Equal(f, b) {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: modelled results differ between workers:\n  %s\n  %s\n", r.Seed, f, b)
			res.Correct = false
			res.Failed += r.Modelled.Attempted
		}
	}
	return res
}

// printModelled prints one seed's modelled metrics on a line of its own.
func printModelled(name string, r report, note string) {
	m := r.Modelled
	fmt.Printf("%s seed %d%s: tput %.6g/s  p50 %.6gs  p%g %.6gs (%d of %d beyond)  overhead p%g %.6gs  served %.6g\n",
		name, r.Seed, note, m.Tput, m.P50, m.TailQ*100, m.Tail, m.TailBeyond, m.Samples,
		m.TailQ*100, m.OverheadTail, m.ServedFrac)
}

func medianOf(reps []report, f func(report) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}
