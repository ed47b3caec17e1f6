package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
)

// fanout: 16 HTTP workers, one partition each, every query a two-dim
// GROUP BY (~4k groups per partial, above the 16 KiB gzip threshold)
// under a fresh range filter, from one closed-loop client. The filters
// come from a population far larger than any cache, so the result cache
// and the brick cache miss, no query is rollup-eligible and none is a
// top-k query: every scatter-gather step carries real weight. Ingest does
// not run beside the queries; after them, a burst of batches measures
// ingest on the warmed cluster. A batch carries 128 rows per worker, so a
// load is mostly insert work rather than 16 round trips of a few rows,
// whose time the host's scheduler would set.
type fanoutSize struct {
	workers       int
	rowsPerPart   int
	loadBatch     int
	ingestBatches int // per set-up, after the query window
	ingestRows    int
}

var (
	fanoutFull = fanoutSize{workers: 16, rowsPerPart: 32 << 10, loadBatch: 8192, ingestBatches: 320, ingestRows: 2048}
	fanoutTiny = fanoutSize{workers: 4, rowsPerPart: 2048, loadBatch: 1024, ingestBatches: 8, ingestRows: 64}
)

const (
	fanoutTable  = "fanout"
	fanoutDayMax = 1024
	fanoutKeyMax = 64
)

var fanoutSchema = brick.Schema{
	Dimensions: []brick.Dimension{
		{Name: "day", Max: fanoutDayMax, Buckets: 16},
		{Name: "a", Max: fanoutKeyMax, Buckets: 2},
		{Name: "b", Max: fanoutKeyMax, Buckets: 2},
	},
	Metrics: []brick.Metric{{Name: "v"}, {Name: "n"}},
}

type fanout struct {
	size fanoutSize
	data *dataset
	chk  *checker

	mu   sync.Mutex // guards qrnd: queries are drawn across set-ups
	qrnd *rand.Rand
	// census checks the rows the ingest burst added.
	census *engine.Query
}

func newFanout(o options) (scenario, error) {
	size := fanoutFull
	if o.tiny {
		size = fanoutTiny
	}
	rnd := rand.New(rand.NewSource(o.seed))
	d := newDataset(3, 2)
	row := func() {
		d.add(
			[]uint32{uint32(rnd.Intn(fanoutDayMax)), uint32(rnd.Intn(fanoutKeyMax)), uint32(rnd.Intn(fanoutKeyMax))},
			[]float64{float64(rnd.Intn(1000)), float64(1 + rnd.Intn(9))},
		)
	}
	for i := 0; i < size.workers*size.rowsPerPart; i++ {
		row()
	}
	d.seal()
	for b := 0; b < size.ingestBatches; b++ {
		for i := 0; i < size.ingestRows; i++ {
			row()
		}
		d.seal()
	}
	return &fanout{
		size: size,
		data: d,
		chk:  newChecker(newSchemaIndex([]string{"day", "a", "b"}, []string{"v", "n"}), d),
		qrnd: rand.New(rand.NewSource(o.seed ^ 0x5eed)),
		census: &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "v"}, {Func: engine.Count}},
			GroupBy:    []string{"a"},
		},
	}, nil
}

func (f *fanout) params() map[string]any {
	return map[string]any{
		"workers": f.size.workers, "partitions": f.size.workers,
		"rows": f.data.ends[0], "load_batch_rows": f.size.loadBatch,
		"ingest_batches": f.size.ingestBatches, "ingest_batch_rows": f.size.ingestRows,
		"clients": 1, "loop": "closed",
		"groups_per_partial": fanoutKeyMax * fanoutKeyMax,
	}
}

func (f *fanout) verify() (int, int, error) { return f.chk.verify() }

// nextQuery draws SUM(v), COUNT(*) GROUP BY a, b over a random day range
// 500..524 days wide: about half the rows, so every query does about the
// same work, from ~13k distinct ranges.
func (f *fanout) nextQuery() *engine.Query {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := 500 + f.qrnd.Intn(25)
	lo := f.qrnd.Intn(fanoutDayMax - w + 1)
	return &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "v"}, {Func: engine.Count}},
		GroupBy:    []string{"a", "b"},
		Filter:     map[string][2]uint32{"day": {uint32(lo), uint32(lo + w - 1)}},
	}
}

type fanoutSystem struct {
	f       *fanout
	c       *httpCluster
	tr      *tracing
	before  map[string]int64
	queries int
	secs    float64
}

func (f *fanout) setup(tr *tracing) (system, error) {
	c, err := startHTTPCluster(httpConfig{
		workers:           f.size.workers,
		brickCacheBytes:   256 << 10,
		decodedCacheBytes: 256 << 10,
		resultCacheBytes:  1 << 20,
		topkOverfetch:     2,
		compactCfg:        brick.CompactionConfig{EncodeBelow: math.Inf(1)},
	}, tr)
	if err != nil {
		return nil, err
	}
	s := &fanoutSystem{f: f, c: c, tr: tr}
	if err := c.createTable(fanoutTable, fanoutSchema, f.size.workers); err != nil {
		c.close()
		return nil, err
	}
	if _, err := c.load(fanoutTable, f.data, 0, f.data.ends[0], f.size.loadBatch); err != nil {
		c.close()
		return nil, err
	}
	// Every brick goes to the encoded tier; no compactor runs afterwards.
	if err := c.compactAll(1, 0); err != nil {
		c.close()
		return nil, err
	}
	// Warm the connection pools and the lazily built caches and
	// schedulers; these answers are checked too.
	for i := 0; i < 3; i++ {
		if err := s.query(nil); err != nil {
			c.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *fanoutSystem) query(st *runStats) error {
	q := s.f.nextQuery()
	ctx, span := s.tr.tr().StartSpan(context.Background(), spanQuery)
	benchSpan(span)
	res, err := s.c.cl.Query(ctx, fanoutTable, q)
	span.EndErr(err)
	if err != nil {
		return err
	}
	s.f.chk.record(0, 0, q, res)
	if st != nil {
		st.result(res, s.f.size.workers)
	}
	return nil
}

func (s *fanoutSystem) measure(d time.Duration, st *runStats) error {
	s.before = s.c.counters()
	s.c.resetHistograms()
	s.tr.record(true)
	t0 := time.Now()
	n0 := st.attempted
	runClosedLoop(d, st, func() error { return s.query(st) })
	s.secs = time.Since(t0).Seconds()
	s.queries = st.attempted - n0
	// The ingest burst, back to back from one client, then one checked
	// query over everything loaded.
	for k := 0; k < s.f.size.ingestBatches; k++ {
		dims, mets := s.f.data.ingestBatch(k)
		ctx, span := s.tr.tr().StartSpan(context.Background(), spanIngest)
		benchSpan(span)
		began := time.Now()
		err := s.c.cl.Load(ctx, fanoutTable, dims, mets)
		span.EndErr(err)
		st.op(true, time.Since(began), 0, err)
	}
	s.tr.record(false)
	res, err := s.c.cl.Query(context.Background(), fanoutTable, s.f.census)
	if err != nil {
		return err
	}
	s.f.chk.record(0, s.f.size.ingestBatches, s.f.census, res)
	return nil
}

func (s *fanoutSystem) layers(m map[string]float64) {
	s.c.registryLayers(m, s.before, s.queries, s.secs)
	m["brick.bytes_per_row"] = s.c.storeBytesPerRow()
}

func (s *fanoutSystem) close() { s.c.close() }
