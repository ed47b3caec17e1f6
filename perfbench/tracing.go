package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubrick/internal/trace"
)

// Span names the benchmark records itself, around calls into the program.
const (
	spanQuery   = "bench.query"    // root of one query
	spanIngest  = "bench.ingest"   // root of one ingest batch
	spanFetch   = "netexec.fetch"  // coordinator → worker /partial, client side
	spanLoad    = "netexec.load"   // coordinator → worker /loadbin, client side
	spanPartial = "worker.partial" // worker /partial handler
	spanLoadbin = "worker.loadbin" // worker /loadbin handler
	spanParse   = "cql.parse"      // cql.Parse
	spanProxy   = "proxy.query"    // proxy query through the in-process deployment
	spanDBLoad  = "cubrick.load"   // DB.Load

	// attrBench marks spans the benchmark started, as opposed to the
	// program's own spans of the same tracer.
	attrBench = "bench"
	// headerBenchSpan carries "<trace>/<span>" of the client-side fetch
	// span to the worker middleware, which parents its handler span on it.
	headerBenchSpan = "X-Perfbench-Span"
)

// tracing records every span of one traced run in memory. The program's
// own tracer is shared by the coordinator, the workers and the benchmark,
// so span ids are unique and one op's spans share its trace id.
type tracing struct {
	tracer *trace.Tracer
	on     atomic.Bool

	mu    sync.Mutex
	spans []trace.SpanData
}

func newTracing(seed int64) *tracing {
	t := &tracing{tracer: trace.New(trace.Config{Seed: seed})}
	t.tracer.OnSpanEnd = func(sd trace.SpanData) {
		if !t.on.Load() {
			return
		}
		t.mu.Lock()
		t.spans = append(t.spans, sd)
		t.mu.Unlock()
	}
	return t
}

// tr returns the program tracer, nil when t is nil (untraced runs).
func (t *tracing) tr() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

func (t *tracing) record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracing) snapshot() []trace.SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]trace.SpanData(nil), t.spans...)
}

// benchSpan marks s as started by the benchmark.
func benchSpan(s *trace.Span) { s.SetAttr(attrBench, "1") }

// transport wraps the coordinator's RoundTripper: every request made under
// a traced op gets a client-side span that ends when the response body is
// closed, so it covers the transfer and transparent gunzip.
func (t *tracing) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		name := ""
		switch req.URL.Path {
		case "/partial":
			name = spanFetch
		case "/loadbin":
			name = spanLoad
		}
		if name == "" || trace.SpanFromContext(req.Context()) == nil {
			return base.RoundTrip(req)
		}
		ctx, span := t.tracer.StartSpan(req.Context(), name)
		benchSpan(span)
		out := req.Clone(ctx)
		out.Header.Set(headerBenchSpan, span.TraceID()+"/"+span.ID())
		resp, err := base.RoundTrip(out)
		if err != nil {
			span.EndErr(err)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, span: span}
		return resp, nil
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	span *trace.Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.span.End() })
	return err
}

// middleware wraps a worker's handler: /partial and /loadbin requests that
// carry the fetch span header get a handler span parented on it, which
// records the bytes that crossed the wire. The program's own worker spans
// are re-parented under it by rewriting the propagated span header.
func (t *tracing) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		name := ""
		switch r.URL.Path {
		case "/partial":
			name = spanPartial
		case "/loadbin":
			name = spanLoadbin
		}
		tid, sid, ok := strings.Cut(r.Header.Get(headerBenchSpan), "/")
		if name == "" || !ok {
			h.ServeHTTP(rw, r)
			return
		}
		ctx, span := t.tracer.StartRemoteSpan(r.Context(), name, tid, sid)
		benchSpan(span)
		in := r.Clone(ctx)
		in.Header.Set(trace.HeaderSpan, span.ID())
		cw := &countingWriter{ResponseWriter: rw}
		h.ServeHTTP(cw, in)
		span.SetAttrInt("bytes_in", r.ContentLength)
		span.SetAttrInt("bytes_out", cw.n)
		span.SetAttr("gzip", fmt.Sprint(rw.Header().Get("Content-Encoding") == "gzip"))
		span.End()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// spanTree indexes one run's spans by trace (op) and by parent.
type spanTree struct {
	byTrace map[string][]trace.SpanData
	kids    map[string][]trace.SpanData // parent span id → children
	byID    map[string]trace.SpanData
}

func newSpanTree(spans []trace.SpanData) *spanTree {
	t := &spanTree{
		byTrace: map[string][]trace.SpanData{},
		kids:    map[string][]trace.SpanData{},
		byID:    map[string]trace.SpanData{},
	}
	for _, s := range spans {
		t.byTrace[s.TraceID] = append(t.byTrace[s.TraceID], s)
		t.byID[s.ID] = s
		if s.Parent != "" {
			t.kids[s.Parent] = append(t.kids[s.Parent], s)
		}
	}
	return t
}

func isBench(s trace.SpanData) bool { return s.Attrs[attrBench] == "1" }

// layerName names a span's layer in the self-time report. The benchmark's
// worker handler span and the program's worker.partial span share a name;
// the handler one is the HTTP edge.
func layerName(s trace.SpanData) string {
	if isBench(s) && (s.Name == spanPartial || s.Name == spanLoadbin) {
		return s.Name + " (http handler)"
	}
	return s.Name
}

// selfTime is a span's duration minus the part of it its children cover.
func (t *spanTree) selfTime(s trace.SpanData) time.Duration {
	kids := t.kids[s.ID]
	if len(kids) == 0 {
		return s.End.Sub(s.Start)
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.End.Sub(s.Start) - covered
}

// selfTimeReport sums each layer's self time over every op and gives it
// as a share of the ops' summed wall time. Layers that run in parallel
// within an op (the per-partition fetches) can together exceed 100%.
func (t *spanTree) selfTimeReport() string {
	type agg struct {
		self  time.Duration
		spans int
	}
	layers := map[string]*agg{}
	var wall time.Duration
	ops := 0
	for _, spans := range t.byTrace {
		for _, s := range spans {
			if s.Parent == "" && (s.Name == spanQuery || s.Name == spanIngest) {
				wall += s.End.Sub(s.Start)
				ops++
			}
		}
		for _, s := range spans {
			a := layers[layerName(s)]
			if a == nil {
				a = &agg{}
				layers[layerName(s)] = a
			}
			a.self += t.selfTime(s)
			a.spans++
		}
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	var b strings.Builder
	fmt.Fprintf(&b, "self time by layer over %d ops, %.1f ms of op wall time\n", ops, ms(wall))
	fmt.Fprintf(&b, "%-32s %8s %12s %12s %8s\n", "layer", "spans", "self_ms", "ms_per_op", "share")
	for _, n := range names {
		a := layers[n]
		share := 0.0
		if wall > 0 {
			share = float64(a.self) / float64(wall)
		}
		fmt.Fprintf(&b, "%-32s %8d %12.1f %12.4f %7.1f%%\n", n, a.spans, ms(a.self),
			ms(a.self)/float64(max(ops, 1)), 100*share)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanLayers derives the span-based per-layer metrics of one traced run.
func (t *spanTree) spanLayers(m map[string]float64) {
	var fetch, network, straggler, finalize, partial, execute, marshal, loadbin []float64
	var plan, scan, combine, parse []float64
	var partials, gzipped, topk, topk1 int
	var wireBytes float64
	queries := 0
	for _, spans := range t.byTrace {
		var opFetch []float64
		for _, s := range spans {
			d := s.DurationMS
			switch {
			case s.Name == spanQuery && s.Parent == "":
				queries++
			case s.Name == spanFetch && isBench(s):
				fetch = append(fetch, d)
				opFetch = append(opFetch, d)
			case s.Name == spanPartial && isBench(s):
				partial = append(partial, d)
				partials++
				if s.Attrs["gzip"] == "true" {
					gzipped++
				}
				wireBytes += attrFloat(s, "bytes_in") + attrFloat(s, "bytes_out")
				if p, ok := t.byID[s.Parent]; ok && p.Name == spanFetch {
					network = append(network, p.DurationMS-d)
				}
			case s.Name == spanLoadbin && isBench(s):
				loadbin = append(loadbin, d)
			case s.Name == "coordinator.finalize":
				finalize = append(finalize, d)
			case s.Name == "worker.execute":
				execute = append(execute, d)
				plan = append(plan, attrFloat(s, "plan_ms"))
				scan = append(scan, attrFloat(s, "scan_ms"))
				combine = append(combine, attrFloat(s, "combine_ms"))
			case s.Name == "worker.marshal":
				marshal = append(marshal, d)
			case s.Name == "coordinator.topk":
				topk++
				if s.Attrs["outcome"] == "certified" && s.Attrs["phase2"] == "false" {
					topk1++
				}
			case s.Name == spanParse:
				parse = append(parse, d*1000)
			}
		}
		if len(opFetch) > 0 {
			sort.Float64s(opFetch)
			straggler = append(straggler, opFetch[len(opFetch)-1]-quantile(opFetch, 0.5))
		}
	}
	m["netexec.fetch_ms_p50"] = quantile(fetch, 0.5)
	m["netexec.network_ms_p50"] = quantile(network, 0.5)
	m["netexec.straggler_ms_p50"] = quantile(straggler, 0.5)
	m["netexec.finalize_ms_p50"] = quantile(finalize, 0.5)
	m["netexec.wire_kb_per_query"] = ratio(wireBytes/1024, float64(queries))
	m["netexec.gzip_frac"] = ratio(float64(gzipped), float64(partials))
	m["netexec.topk_phase1_frac"] = ratio(float64(topk1), float64(topk))
	m["worker.partial_ms_p50"] = quantile(partial, 0.5)
	m["worker.execute_ms_p50"] = quantile(execute, 0.5)
	m["worker.marshal_ms_p50"] = quantile(marshal, 0.5)
	m["worker.loadbin_ms_p50"] = quantile(loadbin, 0.5)
	m["engine.plan_ms_p50"] = quantile(plan, 0.5)
	m["engine.scan_ms_p50"] = quantile(scan, 0.5)
	m["engine.combine_ms_p50"] = quantile(combine, 0.5)
	m["cql.parse_us_p50"] = quantile(parse, 0.5)
}

func attrFloat(s trace.SpanData, key string) float64 {
	var v float64
	fmt.Sscan(s.Attrs[key], &v)
	return v
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []trace.SpanData) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
