package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"cubrick/internal/engine"
)

// runStats collects what the load generator observes, across every
// measured phase of one run.
type runStats struct {
	mu        sync.Mutex
	query     []float64 // ms from due time to answer
	ingest    []float64 // ms from due time to acknowledgement
	lag       []float64 // ms the generator started an op after its due time
	attempted int
	failed    int
	firstErr  error

	results       int
	rowsScanned   float64
	bricksVisited float64
	bricksPruned  float64
	fanoutHosts   float64
}

func (s *runStats) op(ingest bool, latency, lag time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	s.lag = append(s.lag, ms(lag))
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	if ingest {
		s.ingest = append(s.ingest, ms(latency))
	} else {
		s.query = append(s.query, ms(latency))
	}
}

// result accounts one answer's scan statistics and fan-out.
func (s *runStats) result(res *engine.Result, fanout int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results++
	s.rowsScanned += float64(res.RowsScanned)
	s.bricksVisited += float64(res.BricksVisited)
	s.bricksPruned += float64(res.BricksPruned)
	s.fanoutHosts += float64(fanout)
}

// quantile interpolates linearly between the closest ranks; 0 when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// windowedMedian is the median of the medians of up to medianWindows
// consecutive spans of the samples, which are kept in completion order so
// each span is a stretch of the run. A host stall confined to a few
// seconds moves a few span medians but not their median.
func windowedMedian(xs []float64) float64 {
	k := min(medianWindows, len(xs)/minWindowSamples)
	if k < 2 {
		return quantile(xs, 0.5)
	}
	meds := make([]float64, k)
	for i := range meds {
		meds[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], 0.5)
	}
	return quantile(meds, 0.5)
}

const (
	medianWindows    = 15
	minWindowSamples = 20
)

// tailLatencies pools every sample of the run: a tail percentile needs
// all of them.
func tailLatencies(query, ingest []float64) map[string]float64 {
	return map[string]float64{
		"query_p90_ms":  quantile(query, 0.9),
		"query_p99_ms":  quantile(query, 0.99),
		"ingest_p99_ms": quantile(ingest, 0.99),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procMeter reads the process's CPU time, allocation and GC CPU at the
// start of a window and reports per-op figures at its end.
type procMeter struct {
	cpu   time.Duration
	alloc uint64
	gc    float64 // GC CPU seconds
}

const gcCPU = "/cpu/classes/gc/total:cpu-seconds"

func readProc() procMeter {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	samples := []metrics.Sample{{Name: gcCPU}}
	metrics.Read(samples)
	return procMeter{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: mem.TotalAlloc,
		gc:    samples[0].Value.Float64(),
	}
}

func (p procMeter) since(m map[string]float64, ops int) {
	now := readProc()
	m["process.cpu_ms_per_op"] = ratio(ms(now.cpu-p.cpu), float64(ops))
	m["process.alloc_kb_per_op"] = ratio(float64(now.alloc-p.alloc)/1024, float64(ops))
	m["process.gc_cpu_frac"] = ratio(now.gc-p.gc, (now.cpu - p.cpu).Seconds())
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}
