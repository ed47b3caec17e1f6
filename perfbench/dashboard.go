package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

// dashboard: 4 HTTP workers behind a coordinator with every cache on and
// sized above the working set, rollups on the leading time dimension, the
// background compactor running, top-k pushdown and worker admission. An
// open loop replays 16 zipf-skewed dashboard shapes (aligned trailing
// windows, leaderboards, filters) at a fixed rate while fixed-rate ingest
// batches land in the newest time buckets and invalidate cached results.
type dashboardSize struct {
	workers, partitions int
	initialRows         int
	loadBatch           int
	ingestRows          int
	queryRate           float64 // queries per second
	ingestRate          float64 // ingest batches per second
}

var (
	dashboardFull = dashboardSize{workers: 4, partitions: 4, initialRows: 128 << 10, loadBatch: 8192,
		ingestRows: 32, queryRate: 150, ingestRate: 40}
	dashboardTiny = dashboardSize{workers: 2, partitions: 4, initialRows: 4096, loadBatch: 1024,
		ingestRows: 32, queryRate: 40, ingestRate: 5}
)

const (
	dashTable      = "dash"
	dashTimeMax    = 512
	dashTimeBucket = 16 // rollup bucket = brick bucket width on ts
	dashShapes     = 16
	// Ingest lands in the newest dashNewest time values.
	dashNewest = 32
	// dashShapeSeed fixes the dashboard's widgets: the shapes are part of
	// the workload's definition, like its schema. The run seed drives the
	// rows, the ingest batches and the zipf draws over the shapes.
	dashShapeSeed = 1
	dashSkew      = 1.3
	// dashMixBlock is how many consecutive queries hold the exact zipf
	// mix of shapes.
	dashMixBlock = 500
)

var dashSchema = brick.Schema{
	Dimensions: []brick.Dimension{
		{Name: "ts", Max: dashTimeMax, Buckets: dashTimeMax / dashTimeBucket},
		{Name: "country", Max: 16, Buckets: 2},
		{Name: "device", Max: 4, Buckets: 1},
		{Name: "app", Max: 64, Buckets: 2},
	},
	Metrics: []brick.Metric{{Name: "revenue"}, {Name: "clicks"}},
}

type dashboard struct {
	size   dashboardSize
	data   *dataset
	chk    *checker
	shapes []*engine.Query
	draws  []*engine.Query // the i-th query op's shape
}

// dashRows draws dashboard rows. Countries and apps are zipf-skewed, as
// real traffic is, so leaderboards have clear leaders.
type dashRows struct {
	rnd          *rand.Rand
	country, app *rand.Zipf
}

func newDashRows(rnd *rand.Rand) *dashRows {
	return &dashRows{rnd: rnd, country: rand.NewZipf(rnd, 1.3, 1, 15), app: rand.NewZipf(rnd, 1.2, 1, 63)}
}

func (g *dashRows) row(tsLo, tsSpan int) ([]uint32, []float64) {
	return []uint32{uint32(tsLo + g.rnd.Intn(tsSpan)), uint32(g.country.Uint64()), uint32(g.rnd.Intn(4)), uint32(g.app.Uint64())},
		[]float64{float64(g.rnd.Intn(1000)), float64(g.rnd.Intn(21))}
}

func newDashboard(o options) (scenario, error) {
	size := dashboardFull
	if o.tiny {
		size = dashboardTiny
	}
	rnd := rand.New(rand.NewSource(o.seed))
	gen := newDashRows(rnd)
	d := newDataset(4, 2)
	for i := 0; i < size.initialRows; i++ {
		d.add(gen.row(0, dashTimeMax-dashNewest))
	}
	d.seal()
	batches := int(o.window.Seconds()*size.ingestRate) + 1
	for b := 0; b < batches; b++ {
		for i := 0; i < size.ingestRows; i++ {
			d.add(gen.row(dashTimeMax-dashNewest, dashNewest))
		}
		d.seal()
	}
	replay, err := workload.NewQueryReplay(dashSchema, workload.ReplayConfig{
		Shapes:     dashShapes,
		Skew:       dashSkew,
		FilterProb: 0.3,
		TimeWindow: 128,
		TimeAlign:  dashTimeBucket,
		TopKProb:   0.5,
		TopK:       10,
	}, randutil.New(dashShapeSeed))
	if err != nil {
		return nil, err
	}
	w := &dashboard{
		size:   size,
		data:   d,
		chk:    newChecker(newSchemaIndex([]string{"ts", "country", "device", "app"}, []string{"revenue", "clicks"}), d),
		shapes: replay.Shapes(),
	}
	for _, k := range stratified(rnd, zipfWeights(dashSkew, dashShapes), int(o.window.Seconds()*size.queryRate)+1, dashMixBlock) {
		w.draws = append(w.draws, w.shapes[k])
	}
	return w, nil
}

func (w *dashboard) params() map[string]any {
	return map[string]any{
		"workers": w.size.workers, "partitions": w.size.partitions,
		"initial_rows": w.size.initialRows, "ingest_batch_rows": w.size.ingestRows,
		"query_rate_per_s": w.size.queryRate, "ingest_rate_per_s": w.size.ingestRate,
		"shapes": dashShapes, "senders": runtime.NumCPU(), "loop": "open",
	}
}

func (w *dashboard) verify() (int, int, error) { return w.chk.verify() }

type dashboardSystem struct {
	w       *dashboard
	c       *httpCluster
	tr      *tracing
	before  map[string]int64
	queries int
	secs    float64
}

func (w *dashboard) setup(tr *tracing) (system, error) {
	c, err := startHTTPCluster(httpConfig{
		workers:           w.size.workers,
		brickCacheBytes:   64 << 20,
		decodedCacheBytes: 64 << 20,
		resultCacheBytes:  64 << 20,
		topkOverfetch:     2,
		rollupTimeDim:     "ts",
		rollupBucket:      dashTimeBucket,
		rollupDims:        []string{"country", "device"},
		admitConcurrent:   runtime.NumCPU(),
		compactEvery:      time.Second,
		compactCfg:        brick.CompactionConfig{EncodeBelow: 1},
	}, tr)
	if err != nil {
		return nil, err
	}
	s := &dashboardSystem{w: w, c: c, tr: tr}
	fail := func(err error) (system, error) {
		c.close()
		return nil, err
	}
	if err := c.createTable(dashTable, dashSchema, w.size.partitions); err != nil {
		return fail(err)
	}
	if _, err := c.load(dashTable, w.data, 0, w.data.ends[0], w.size.loadBatch); err != nil {
		return fail(err)
	}
	// Cool every loaded brick into the encoded tier, as the background
	// compactor would after a quiet spell.
	if err := c.compactAll(24, 0.5); err != nil {
		return fail(err)
	}
	// Warm-up: every shape twice fills the result, brick and decoded
	// caches and finishes the rollups' first fold.
	for pass := 0; pass < 2; pass++ {
		if err := s.checkpoint(0); err != nil {
			return fail(err)
		}
	}
	c.startCompactor(0.8)
	return s, nil
}

// checkpoint runs every shape once, with ingest paused after `batches`
// batches, and records the answers for checking.
func (s *dashboardSystem) checkpoint(batches int) error {
	for _, q := range s.w.shapes {
		res, err := s.c.cl.Query(context.Background(), dashTable, q)
		if err != nil {
			return err
		}
		s.w.chk.record(0, batches, q, res)
	}
	return nil
}

func (s *dashboardSystem) measure(d time.Duration, st *runStats) error {
	led := newLedger(1)
	plan := planOps(d, s.w.size.queryRate, s.w.size.ingestRate)
	s.before = s.c.counters()
	s.c.resetHistograms()
	s.tr.record(true)
	t0 := time.Now()
	runOpenLoop(plan, runtime.NumCPU(), led, st, func(o plannedOp) error {
		if o.ingest {
			dims, mets := s.w.data.ingestBatch(o.n)
			ctx, span := s.tr.tr().StartSpan(context.Background(), spanIngest)
			benchSpan(span)
			err := s.c.cl.Load(ctx, dashTable, dims, mets)
			span.EndErr(err)
			return err
		}
		q := s.w.draws[o.n]
		n, quiet := led.quiet(0)
		ctx, span := s.tr.tr().StartSpan(context.Background(), spanQuery)
		benchSpan(span)
		res, err := s.c.cl.Query(ctx, dashTable, q)
		span.EndErr(err)
		if err != nil {
			return err
		}
		if quiet && led.claimedCount(0) == n {
			s.w.chk.record(0, n, q, res)
		}
		st.result(res, s.w.size.workers)
		return nil
	})
	s.secs = time.Since(t0).Seconds()
	s.tr.record(false)
	s.queries = countQueries(plan)
	n, _ := led.quiet(0)
	return s.checkpoint(n)
}

func (s *dashboardSystem) layers(m map[string]float64) {
	s.c.registryLayers(m, s.before, s.queries, s.secs)
	m["brick.bytes_per_row"] = s.c.storeBytesPerRow()
}

func (s *dashboardSystem) close() { s.c.close() }
