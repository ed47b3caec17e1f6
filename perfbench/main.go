// Command perfbench is cubrick's end-to-end benchmark. It runs one of
// three workloads against the program, checks every answer against its
// own row-at-a-time oracle, and prints the result as one JSON line:
//
//	perfbench -workload fanout|dashboard|tenants -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics: it sets the system up
// three times (setup_s is the median) and splits the measured window
// across the three; the latency medians are medians of per-stretch
// medians, and the tail latencies, which carry no bound, go to the
// provenance line. With -trace 1 it reports the per-layer metrics, the
// tail latencies among them: half the window runs untraced, half on a
// fresh system with the program's tracer and metrics registries on plus
// the benchmark's own spans around each layer; the spans and a per-layer
// self-time report are written next to the end-to-end results. Build and
// run it through run.py, which keeps the Go caches inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times an untraced run sets the system up.
const setups = 3

// scenario is one workload: a traffic mix over one freshly built system.
type scenario interface {
	// params lists the workload's rates and sizes for provenance.
	params() map[string]any
	// setup starts a fresh system, loads the inputs and warms it; tr is
	// nil for untraced runs.
	setup(tr *tracing) (system, error)
	// verify checks every answer recorded so far against the oracle.
	verify() (checked, wrong int, first error)
}

type system interface {
	// measure drives the workload's load for d.
	measure(d time.Duration, st *runStats) error
	// layers adds the per-layer metrics read from the program over the
	// last measure (traced systems only).
	layers(m map[string]float64)
	close()
}

type options struct {
	seed   int64
	window time.Duration
	traced bool
	tiny   bool // test-sized inputs
}

var workloads = map[string]func(o options) (scenario, error){
	"fanout":    newFanout,
	"dashboard": newDashboard,
	"tenants":   newTenants,
}

type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"success_frac", "frac"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricSpec{
	// The tail latencies, from the untraced half of a traced run. On a
	// few shared cores the tail of a millisecond operation follows the
	// host's scheduler more than the program, so they carry no bound.
	{"query_p90_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"netexec.fetch_ms_p50", "ms"},
	{"netexec.merge_ms_p50", "ms"},
	{"netexec.finalize_ms_p50", "ms"},
	{"netexec.network_ms_p50", "ms"},
	{"netexec.straggler_ms_p50", "ms"},
	{"netexec.wire_kb_per_query", "KiB/query"},
	{"netexec.gzip_frac", "frac"},
	{"netexec.retries_per_query", "1/query"},
	{"netexec.topk_phase1_frac", "frac"},
	{"worker.partial_ms_p50", "ms"},
	{"worker.execute_ms_p50", "ms"},
	{"worker.marshal_ms_p50", "ms"},
	{"worker.loadbin_ms_p50", "ms"},
	{"engine.plan_ms_p50", "ms"},
	{"engine.scan_ms_p50", "ms"},
	{"engine.combine_ms_p50", "ms"},
	{"engine.rows_scanned_per_query", "rows/query"},
	{"engine.bricks_pruned_frac", "frac"},
	{"engine.brick_cache_hit_frac", "frac"},
	{"engine.fold_attach_frac", "frac"},
	{"rescache.hit_frac", "frac"},
	{"rescache.invalidations_per_s", "1/s"},
	{"rollup.hit_frac", "frac"},
	{"rollup.delta_rows_per_hit", "rows/hit"},
	{"admission.queue_ms_p99", "ms"},
	{"brick.bytes_per_row", "B/row"},
	{"brick.decoded_cache_hit_frac", "frac"},
	{"cql.parse_us_p50", "us"},
	{"cubrick.fanout_hosts_mean", "hosts"},
	{"proxy.retries_per_query", "1/query"},
	{"process.cpu_ms_per_op", "ms/op"},
	{"process.alloc_kb_per_op", "KiB/op"},
	{"process.gc_cpu_frac", "frac"},
	{"bench.lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"error_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fanout, dashboard or tenants")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory for provenance, spans and reports")
	source := fs.String("source", "unknown", "identity of the benchmarked source (commit or tree digest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload fanout|dashboard|tenants, -seconds > 0, -trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
	w, err := mk(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s inputs: %v\n", *name, err)
		return 1
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.opErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, rep.opErr)
	}
	prov := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"params":     w.params(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"source":     *source,
		"samples":    rep.samples,
		"checked":    rep.checked,
		"wrong":      rep.wrong,
	}
	if rep.tails != nil {
		prov["tail_ms"] = rep.tails
	}
	if rep.firstWrong != nil {
		prov["first_wrong"] = rep.firstWrong.Error()
	}
	if err := writeOutputs(*out, *name, *seed, *traced, prov, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing outputs: %v\n", err)
		return 1
	}
	if rep.report != "" {
		fmt.Fprint(stdout, rep.report)
	}
	pj, _ := json.Marshal(prov) // plain maps of numbers and strings
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answers; first: %v\n", rep.wrong, rep.firstWrong)
		return 1
	}
	return 0
}

// report is one run's outcome.
type report struct {
	res        result
	samples    map[string]int
	checked    int
	wrong      int
	firstWrong error
	opErr      error              // failed operations, if any
	tails      map[string]float64 // tail latencies of an untraced run
	report     string             // self-time report (traced runs)
	spans      func(io.Writer) error
}

func measure(w scenario, o options) (*report, error) {
	st := &runStats{}
	m := map[string]float64{}
	rep := &report{}
	baseline := liveHeapMB()
	if !o.traced {
		var setupS []float64
		for i := 0; i < setups; i++ {
			t0 := time.Now()
			sys, err := w.setup(nil)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			err = sys.measure(o.window/setups, st)
			if i == setups-1 {
				// The system is still referenced: its heap counts, the
				// benchmark's own inputs (measured before start-up) don't.
				m["heap_live_mb"] = liveHeapMB() - baseline
			}
			sys.close()
			if err != nil {
				return nil, err
			}
		}
		m["setup_s"] = quantile(setupS, 0.5)
		m["query_p50_ms"] = windowedMedian(st.query)
		m["ingest_p50_ms"] = windowedMedian(st.ingest)
		rep.tails = tailLatencies(st.query, st.ingest)
	} else {
		sys, err := w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		pm := readProc()
		err = sys.measure(o.window/2, st)
		pm.since(m, st.attempted)
		sys.close()
		if err != nil {
			return nil, err
		}
		untraced := quantile(st.query, 0.5)
		nq := len(st.query)
		for k, v := range tailLatencies(st.query, st.ingest) {
			m[k] = v
		}

		tr := newTracing(o.seed)
		sys, err = w.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		err = sys.measure(o.window/2, st)
		sys.layers(m)
		sys.close()
		if err != nil {
			return nil, err
		}
		m["bench.trace_overhead_frac"] = ratio(quantile(st.query[nq:], 0.5), untraced) - 1
		spans := tr.snapshot()
		tree := newSpanTree(spans)
		tree.spanLayers(m)
		rep.report = tree.selfTimeReport()
		rep.spans = func(wr io.Writer) error { return writeSpans(wr, spans) }
		m["engine.rows_scanned_per_query"] = ratio(st.rowsScanned, float64(st.results))
		m["engine.bricks_pruned_frac"] = ratio(st.bricksPruned, st.bricksPruned+st.bricksVisited)
		m["cubrick.fanout_hosts_mean"] = ratio(st.fanoutHosts, float64(st.results))
		m["bench.lag_p99_ms"] = quantile(st.lag, 0.99)
	}
	if len(st.query) == 0 {
		return nil, fmt.Errorf("no query completed; first error: %v", st.firstErr)
	}
	rep.checked, rep.wrong, rep.firstWrong = w.verify()
	errFrac := ratio(float64(st.failed+rep.wrong), float64(st.attempted))
	m["error_frac"] = errFrac
	m["success_frac"] = 1 - errFrac
	rep.samples = map[string]int{"query": len(st.query), "ingest": len(st.ingest), "ops": st.attempted}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	rep.res = result{
		Correct:   rep.wrong == 0,
		Attempted: st.attempted,
		Failed:    st.failed + rep.wrong,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v := m[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if st.firstErr != nil {
		rep.opErr = fmt.Errorf("%d of %d operations failed; first: %w", st.failed, st.attempted, st.firstErr)
	}
	return rep, nil
}

// writeOutputs writes the run's provenance and result, and for traced
// runs the spans and the self-time report, as files named after the
// workload, seed and mode.
func writeOutputs(dir, name string, seed int64, traced int, prov map[string]any, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, traced))
	names := make([]string, 0, len(rep.res.Metrics))
	for k := range rep.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	doc := map[string]any{"provenance": prov, "result": rep.res}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	var tbl strings.Builder
	tbl.WriteString(rep.report)
	for _, k := range names {
		fmt.Fprintf(&tbl, "%-34s %14.4f %s\n", k, rep.res.Metrics[k].Value, rep.res.Metrics[k].Unit)
	}
	if err := os.WriteFile(base+"-selftime.txt", []byte(tbl.String()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	if err := rep.spans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
