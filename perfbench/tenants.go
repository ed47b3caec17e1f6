package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	cubrick "cubrick"
	"cubrick/internal/cql"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

// tenants: the in-process deployment (3 regions, Shard Manager placed
// partial sharding, the proxy) holding a lognormal population of tenant
// tables. CQL queries through DB.Query pick their table with zipf skew;
// per-tenant ingest batches go through DB.Load. No HTTP and no wire.
type tenantsSize struct {
	tables     int
	rowsDiv    int64 // scales workload.GenerateTables sizes down
	minRows    int64
	maxRows    int64
	loadBatch  int
	ingestRows int
	queryRate  float64
	ingestRate float64
}

var (
	tenantsFull = tenantsSize{tables: 48, rowsDiv: 4096, minRows: 128, maxRows: 4096, loadBatch: 4096,
		ingestRows: 4, queryRate: 100, ingestRate: 50}
	tenantsTiny = tenantsSize{tables: 6, rowsDiv: 1 << 14, minRows: 64, maxRows: 512, loadBatch: 256,
		ingestRows: 4, queryRate: 40, ingestRate: 5}
)

// tenantsPopulationSeed fixes the tenant population (table names and
// sizes), part of the workload's definition; the run seed drives the rows,
// the queries and the ingest batches.
const tenantsPopulationSeed = 1

const (
	// tenantsSkew is workload.QueryMix's zipf exponent over tables.
	tenantsSkew = 1.1
	// tenantsMixBlock is how many consecutive operations hold the exact
	// mix of tables and shapes.
	tenantsMixBlock = 500
)

type tenantQuery struct {
	table int
	q     *engine.Query // what the oracle evaluates
	text  string        // the same query as CQL, what the program parses
}

type tenants struct {
	size      tenantsSize
	names     []string
	data      []*dataset
	chk       *checker
	queries   []tenantQuery
	ingestTbl []int // table of the i-th ingest op
	// census is one checkpoint query shared by every table.
	census *engine.Query
}

var tenantDims = []string{"ds", "region", "app", "metric_id"}

func tenantRow(rnd *rand.Rand, ds *rand.Zipf) ([]uint32, []float64) {
	return []uint32{uint32(ds.Uint64()), uint32(rnd.Intn(64)), uint32(rnd.Intn(1024)), uint32(rnd.Intn(256))},
		[]float64{float64(rnd.Intn(1000)), float64(1 + rnd.Intn(100))}
}

// tenantShape draws a query of one of four dashboard-style CQL shapes.
func tenantShape(rnd *rand.Rand, kind, table int, name string) tenantQuery {
	lo := rnd.Intn(200)
	hi := lo + rnd.Intn(165)
	tq := tenantQuery{table: table}
	switch kind {
	case 0:
		tq.q = &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
			Filter:     map[string][2]uint32{"ds": {uint32(lo), uint32(hi)}},
		}
		tq.text = fmt.Sprintf("SELECT SUM(value), COUNT(*) FROM %s WHERE ds BETWEEN %d AND %d", name, lo, hi)
	case 1:
		tq.q = &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
			GroupBy:    []string{"region"},
		}
		tq.text = fmt.Sprintf("SELECT region, SUM(value) FROM %s GROUP BY region", name)
	case 2:
		tq.q = &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "samples", Alias: "s"}},
			GroupBy:    []string{"app"},
			Filter:     map[string][2]uint32{"ds": {uint32(lo), uint32(hi)}},
			OrderBy:    "s",
			Desc:       true,
			Limit:      10,
		}
		tq.text = fmt.Sprintf("SELECT app, SUM(samples) AS s FROM %s WHERE ds BETWEEN %d AND %d GROUP BY app ORDER BY s DESC LIMIT 10", name, lo, hi)
	default:
		rlo := rnd.Intn(48)
		rhi := rlo + rnd.Intn(16)
		tq.q = &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Avg, Metric: "value"}},
			GroupBy:    []string{"metric_id"},
			Filter:     map[string][2]uint32{"region": {uint32(rlo), uint32(rhi)}},
		}
		tq.text = fmt.Sprintf("SELECT metric_id, AVG(value) FROM %s WHERE region BETWEEN %d AND %d GROUP BY metric_id", name, rlo, rhi)
	}
	return tq
}

func newTenants(o options) (scenario, error) {
	size := tenantsFull
	if o.tiny {
		size = tenantsTiny
	}
	specs := workload.GenerateTables(workload.DefaultPopulation(size.tables), randutil.New(tenantsPopulationSeed))
	rnd := rand.New(rand.NewSource(o.seed))
	ds := rand.NewZipf(rnd, 1.2, 1, 364)
	w := &tenants{
		size: size,
		census: &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
			GroupBy:    []string{"region"},
		},
	}
	for _, spec := range specs {
		n := min(max(spec.Rows/size.rowsDiv, size.minRows), size.maxRows)
		d := newDataset(4, 2)
		for i := int64(0); i < n; i++ {
			d.add(tenantRow(rnd, ds))
		}
		d.seal()
		w.names = append(w.names, spec.Name)
		w.data = append(w.data, d)
	}
	w.chk = newChecker(newSchemaIndex(tenantDims, []string{"value", "samples"}), w.data...)
	// Queries and ingest batches pick their tables by workload.QueryMix's
	// zipf law over the population, stratified so that every run sends
	// each tenant its share; query shapes are stratified the same way.
	nq := int(o.window.Seconds()*size.queryRate) + 1
	kinds := stratified(rnd, []float64{1, 1, 1, 1}, nq, tenantsMixBlock)
	for i, t := range stratified(rnd, zipfWeights(tenantsSkew, len(specs)), nq, tenantsMixBlock) {
		w.queries = append(w.queries, tenantShape(rnd, kinds[i], t, w.names[t]))
	}
	ni := int(o.window.Seconds()*size.ingestRate) + 1
	for _, t := range stratified(rnd, zipfWeights(tenantsSkew, len(specs)), ni, tenantsMixBlock) {
		for r := 0; r < size.ingestRows; r++ {
			w.data[t].add(tenantRow(rnd, ds))
		}
		w.data[t].seal()
		w.ingestTbl = append(w.ingestTbl, t)
	}
	return w, nil
}

func (w *tenants) params() map[string]any {
	rows := 0
	for _, d := range w.data {
		rows += d.ends[0]
	}
	return map[string]any{
		"tables": w.size.tables, "initial_rows": rows, "regions": len(cubrick.Defaults().Deployment.Regions),
		"ingest_batch_rows": w.size.ingestRows, "query_rate_per_s": w.size.queryRate,
		"ingest_rate_per_s": w.size.ingestRate, "senders": runtime.NumCPU(), "loop": "open",
	}
}

func (w *tenants) verify() (int, int, error) { return w.chk.verify() }

type tenantsSystem struct {
	w          *tenants
	db         *cubrick.DB
	tr         *tracing
	led        *ledger
	queries    int
	retries0   int64
	solo0, at0 int64
}

func (w *tenants) setup(tr *tracing) (system, error) {
	db, err := cubrick.Open(cubrick.Defaults())
	if err != nil {
		return nil, err
	}
	schema := workload.StandardSchema()
	for i, name := range w.names {
		if err := db.CreateTable(name, schema); err != nil {
			return nil, err
		}
		d := w.data[i]
		for at := 0; at < d.ends[0]; at += w.size.loadBatch {
			dims, mets := d.batch(at, min(at+w.size.loadBatch, d.ends[0]))
			if err := db.Load(name, dims, mets); err != nil {
				return nil, err
			}
		}
	}
	s := &tenantsSystem{w: w, db: db, tr: tr}
	// Warm-up: one checked query per table builds each node's lazily
	// created schedulers.
	if err := s.checkpoint(newLedger(len(w.names))); err != nil {
		return nil, err
	}
	return s, nil
}

// checkpoint runs the census query on every table with ingest paused.
func (s *tenantsSystem) checkpoint(led *ledger) error {
	for i, name := range s.w.names {
		res, err := s.db.Query(fmt.Sprintf("SELECT region, SUM(value), COUNT(*) FROM %s GROUP BY region", name))
		if err != nil {
			return err
		}
		s.w.chk.record(i, led.claimedCount(i), s.w.census, res.Result)
	}
	return nil
}

// query runs one CQL query. Traced, it times cql.Parse and the proxy
// call separately, as DB.Query would make them.
func (s *tenantsSystem) query(ctx context.Context, text string) (*cubrick.Result, error) {
	if s.tr == nil {
		return s.db.Query(text)
	}
	tracer := s.tr.tr()
	_, ps := tracer.StartSpan(ctx, spanParse)
	benchSpan(ps)
	stmt, err := cql.Parse(text)
	ps.EndErr(err)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*cql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	_, qs := tracer.StartSpan(ctx, spanProxy)
	benchSpan(qs)
	res, err := s.db.QueryStruct(sel.Table, sel.Query)
	qs.EndErr(err)
	return res, err
}

func (s *tenantsSystem) foldStats() (solo, attached int64) {
	for _, n := range s.db.Deployment().Nodes() {
		fs := n.FoldStats()
		solo += fs.Solo
		attached += fs.Attached
	}
	return solo, attached
}

func (s *tenantsSystem) measure(d time.Duration, st *runStats) error {
	s.led = newLedger(len(s.w.names))
	plan := planOps(d, s.w.size.queryRate, s.w.size.ingestRate)
	for i, o := range plan {
		if o.ingest {
			plan[i].table = s.w.ingestTbl[o.n]
		} else {
			plan[i].table = s.w.queries[o.n].table
		}
	}
	s.queries = countQueries(plan)
	s.retries0 = s.db.Proxy().Retries.Value()
	s.solo0, s.at0 = s.foldStats()
	s.tr.record(true)
	runOpenLoop(plan, runtime.NumCPU(), s.led, st, func(o plannedOp) error {
		if o.ingest {
			dims, mets := s.w.data[o.table].ingestBatch(o.n)
			ctx, root := s.tr.tr().StartSpan(context.Background(), spanIngest)
			benchSpan(root)
			_, span := s.tr.tr().StartSpan(ctx, spanDBLoad)
			benchSpan(span)
			err := s.db.Load(s.w.names[o.table], dims, mets)
			span.EndErr(err)
			root.EndErr(err)
			return err
		}
		tq := s.w.queries[o.n]
		n, quiet := s.led.quiet(tq.table)
		ctx, root := s.tr.tr().StartSpan(context.Background(), spanQuery)
		benchSpan(root)
		res, err := s.query(ctx, tq.text)
		root.EndErr(err)
		if err != nil {
			return err
		}
		if quiet && s.led.claimedCount(tq.table) == n {
			s.w.chk.record(tq.table, n, tq.q, res.Result)
		}
		st.result(res.Result, res.Fanout)
		return nil
	})
	s.tr.record(false)
	return s.checkpoint(s.led)
}

func (s *tenantsSystem) layers(m map[string]float64) {
	m["proxy.retries_per_query"] = ratio(float64(s.db.Proxy().Retries.Value()-s.retries0), float64(s.queries))
	solo, at := s.foldStats()
	m["engine.fold_attach_frac"] = ratio(float64(at-s.at0), float64(at-s.at0+solo-s.solo0))
	var bytes int64
	for _, n := range s.db.Deployment().Nodes() {
		bytes += n.MemoryBytes()
	}
	rows := 0
	for i, d := range s.w.data {
		rows += d.ends[s.led.claimedCount(i)]
	}
	regions := len(s.db.Deployment().Config.Regions)
	m["brick.bytes_per_row"] = ratio(float64(bytes), float64(rows*regions))
}

func (s *tenantsSystem) close() {}
