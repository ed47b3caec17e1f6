package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/metrics"
	"cubrick/internal/netexec"
	"cubrick/internal/rescache"
)

// httpConfig shapes an in-process HTTP cluster: workers on loopback and
// the coordinator-side netexec.Cluster over them.
type httpConfig struct {
	workers           int
	brickCacheBytes   int64
	decodedCacheBytes int64
	resultCacheBytes  int64
	topkOverfetch     int
	rollupTimeDim     string
	rollupBucket      uint32
	rollupDims        []string
	admitConcurrent   int // worker admission slots; 0 admits everything
	// compactEvery runs a background compactor per worker (hotness decay
	// then one compaction pass); 0 runs none.
	compactEvery time.Duration
	compactCfg   brick.CompactionConfig
}

// httpCluster is a running cluster. Registries are set only in traced
// runs: the coordinator's, and one shared by all workers so their counters
// sum.
type httpCluster struct {
	cfg       httpConfig
	workers   []*netexec.Worker
	servers   []*http.Server
	transport *http.Transport
	cl        *netexec.Cluster
	coordReg  *metrics.Registry
	workerReg *metrics.Registry

	stop chan struct{}
	bg   sync.WaitGroup
}

func startHTTPCluster(cfg httpConfig, tr *tracing) (*httpCluster, error) {
	c := &httpCluster{cfg: cfg, stop: make(chan struct{})}
	if tr != nil {
		c.coordReg, c.workerReg = metrics.NewRegistry(), metrics.NewRegistry()
	}
	var urls []string
	for i := 0; i < cfg.workers; i++ {
		w := netexec.NewWorker()
		w.FoldScans = true
		w.BrickCacheBytes = cfg.brickCacheBytes
		w.DecodedCacheBytes = cfg.decodedCacheBytes
		w.RollupTimeDim = cfg.rollupTimeDim
		w.RollupBucket = cfg.rollupBucket
		w.RollupDims = cfg.rollupDims
		w.Tracer = tr.tr()
		w.Metrics = c.workerReg
		if cfg.admitConcurrent > 0 {
			w.Admission = admission.New(admission.Config{
				MaxConcurrent: cfg.admitConcurrent,
				QueueDepth:    1024,
				Metrics:       c.workerReg,
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		var h http.Handler = w.Handler()
		if tr != nil {
			h = tr.middleware(h)
		}
		srv := &http.Server{Handler: h}
		c.workers = append(c.workers, w)
		c.servers = append(c.servers, srv)
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	c.transport = netexec.NewTransport(cfg.workers)
	var rt http.RoundTripper = c.transport
	if tr != nil {
		rt = tr.transport(rt)
	}
	cl, err := netexec.NewCluster(urls, 0, &http.Client{Transport: rt})
	if err != nil {
		c.close()
		return nil, err
	}
	c.cl = cl
	coord := cl.Coordinator()
	coord.Policy = netexec.QueryPolicy{MaxAttempts: 2}
	coord.Tracer = tr.tr()
	coord.Metrics = c.coordReg
	coord.TopKOverfetch = cfg.topkOverfetch
	if cfg.resultCacheBytes > 0 {
		coord.ResultCache = rescache.New(cfg.resultCacheBytes)
		coord.ResultCache.SetMetrics(c.coordReg)
	}
	return c, nil
}

// createTable creates a table and checks that its partitions spread one
// per worker (or evenly, when there are more partitions than workers).
func (c *httpCluster) createTable(name string, schema brick.Schema, partitions int) error {
	ctx := context.Background()
	if err := c.cl.CreateTable(ctx, name, schema, partitions); err != nil {
		return err
	}
	fan, err := c.cl.Fanout(name)
	if err != nil {
		return err
	}
	if want := min(partitions, c.cfg.workers); fan != want {
		return fmt.Errorf("table %s spans %d workers, want %d", name, fan, want)
	}
	return nil
}

// load ships rows [lo, hi) of d in batches of batchRows through
// Cluster.Load, returning each batch's latency in ms.
func (c *httpCluster) load(table string, d *dataset, lo, hi, batchRows int) ([]float64, error) {
	var lat []float64
	for at := lo; at < hi; at += batchRows {
		dims, mets := d.batch(at, min(at+batchRows, hi))
		t0 := time.Now()
		if err := c.cl.Load(context.Background(), table, dims, mets); err != nil {
			return lat, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// compactAll runs `passes` compaction passes over every worker, each
// after a hotness decay by `decay` (0 skips the decay), so set-up leaves
// the storage tiers settled.
func (c *httpCluster) compactAll(passes int, decay float64) error {
	for pass := 0; pass < passes; pass++ {
		for _, w := range c.workers {
			if decay > 0 {
				w.DecayHotness(decay)
			}
			if _, err := w.CompactAll(c.cfg.compactCfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// startCompactor runs the background compactor the worker binary runs
// under -compact-interval: decay hotness, then one compaction pass.
func (c *httpCluster) startCompactor(decay float64) {
	if c.cfg.compactEvery <= 0 {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		t := time.NewTicker(c.cfg.compactEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				for _, w := range c.workers {
					w.DecayHotness(decay)
					w.CompactAll(c.cfg.compactCfg) // a failed pass is retried on the next tick
				}
			}
		}
	}()
}

// storeBytesPerRow is the resident bytes per stored row over every
// partition store.
func (c *httpCluster) storeBytesPerRow() float64 {
	var bytes, rows int64
	for _, w := range c.workers {
		for _, p := range w.Partitions() {
			st, err := w.Store(p)
			if err != nil {
				continue
			}
			bytes += st.MemoryBytes()
			rows += st.Rows()
		}
	}
	return ratio(float64(bytes), float64(rows))
}

func (c *httpCluster) close() {
	close(c.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range c.servers {
		s.Shutdown(ctx) // closes listeners; in-flight requests are done by now
	}
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	c.bg.Wait()
}

// counters snapshots both registries' counters (empty when untraced).
func (c *httpCluster) counters() map[string]int64 {
	out := map[string]int64{}
	for _, r := range []*metrics.Registry{c.coordReg, c.workerReg} {
		if r == nil {
			continue
		}
		for k, v := range r.CounterValues() {
			out[k] += v
		}
	}
	return out
}

// resetHistograms clears the histograms a window reads, so they cover the
// window alone.
func (c *httpCluster) resetHistograms() {
	if c.coordReg != nil {
		c.coordReg.Histogram("netexec.merge.latency").Reset()
		c.workerReg.Histogram("query.queue_ms").Reset()
	}
}

// registryLayers derives the per-layer metrics the program's own counters
// and histograms give over a window, from counters taken at its start.
func (c *httpCluster) registryLayers(m map[string]float64, before map[string]int64, queries int, secs float64) {
	if c.coordReg == nil {
		return
	}
	now := c.counters()
	d := func(k string) float64 { return float64(now[k] - before[k]) }
	frac := func(hit, miss string) float64 { return ratio(d(hit), d(hit)+d(miss)) }
	m["netexec.merge_ms_p50"] = 1000 * c.coordReg.Histogram("netexec.merge.latency").Quantile(0.5)
	m["netexec.retries_per_query"] = ratio(d("netexec.fetch.retries"), float64(queries))
	m["engine.brick_cache_hit_frac"] = frac("cache.brick.hit", "cache.brick.miss")
	m["engine.fold_attach_frac"] = frac("engine.fold.attached", "engine.fold.solo")
	m["rescache.hit_frac"] = frac("cache.result.hit", "cache.result.miss")
	m["rescache.invalidations_per_s"] = ratio(d("cache.result.invalidate"), secs)
	m["rollup.hit_frac"] = frac("worker.rollup.hits", "worker.rollup.misses")
	m["rollup.delta_rows_per_hit"] = ratio(d("worker.rollup.delta_rows"), d("worker.rollup.hits"))
	m["admission.queue_ms_p99"] = c.workerReg.Histogram("query.queue_ms").Quantile(0.99)
	m["brick.decoded_cache_hit_frac"] = frac("cache.decoded.hit", "cache.decoded.miss")
}
