package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"

	"cubrick/internal/engine"
)

// dataset is the benchmark's own copy of every row it sends to one table,
// in send order: the initial load, then the ingest batches. The oracle
// answers a query over any prefix of it, row by row, without calling into
// the engine.
type dataset struct {
	nd, nm int
	dims   []uint32  // row-major, nd per row
	mets   []float64 // row-major, nm per row
	// ends[k] is the row count once the initial load and the first k
	// ingest batches are in.
	ends []int
}

func newDataset(nd, nm int) *dataset { return &dataset{nd: nd, nm: nm} }

func (d *dataset) rows() int { return len(d.dims) / d.nd }

func (d *dataset) add(dims []uint32, mets []float64) {
	d.dims = append(d.dims, dims...)
	d.mets = append(d.mets, mets...)
}

// seal marks the end of the initial load or of one ingest batch.
func (d *dataset) seal() { d.ends = append(d.ends, d.rows()) }

// batch returns rows [lo, hi) as row slices sharing the dataset's arrays,
// the shape the program's load calls take.
func (d *dataset) batch(lo, hi int) ([][]uint32, [][]float64) {
	dims := make([][]uint32, hi-lo)
	mets := make([][]float64, hi-lo)
	for i := lo; i < hi; i++ {
		dims[i-lo] = d.dims[i*d.nd : (i+1)*d.nd : (i+1)*d.nd]
		mets[i-lo] = d.mets[i*d.nm : (i+1)*d.nm : (i+1)*d.nm]
	}
	return dims, mets
}

// ingestBatch returns the k-th ingest batch (k from 0).
func (d *dataset) ingestBatch(k int) ([][]uint32, [][]float64) {
	return d.batch(d.ends[k], d.ends[k+1])
}

// schemaIndex maps the names a query uses to column positions.
type schemaIndex struct {
	dims, mets map[string]int
}

func newSchemaIndex(dims, mets []string) schemaIndex {
	ix := schemaIndex{dims: map[string]int{}, mets: map[string]int{}}
	for i, n := range dims {
		ix.dims[n] = i
	}
	for i, n := range mets {
		ix.mets[n] = i
	}
	return ix
}

type oracleGroup struct {
	key           []uint32
	n             int64
	sum, min, max []float64
}

// oracle evaluates one query incrementally over a growing row prefix.
type oracle struct {
	q       *engine.Query
	d       *dataset
	groupBy []int
	filter  [][3]uint32 // dim, lo, hi
	aggMet  []int       // metric column per aggregate (-1 for COUNT)
	groups  map[string]*oracleGroup
	order   []*oracleGroup
	keyBuf  []byte
	done    int // rows folded so far
}

func newOracle(d *dataset, ix schemaIndex, q *engine.Query) (*oracle, error) {
	o := &oracle{q: q, d: d, groups: map[string]*oracleGroup{}}
	if len(q.Having) > 0 {
		return nil, fmt.Errorf("oracle: HAVING is outside the benchmark's query mix")
	}
	for _, g := range q.GroupBy {
		i, ok := ix.dims[g]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown group dimension %q", g)
		}
		o.groupBy = append(o.groupBy, i)
	}
	for name, r := range q.Filter {
		i, ok := ix.dims[name]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown filter dimension %q", name)
		}
		o.filter = append(o.filter, [3]uint32{uint32(i), r[0], r[1]})
	}
	for _, a := range q.Aggregates {
		switch a.Func {
		case engine.Count:
			o.aggMet = append(o.aggMet, -1)
		case engine.Sum, engine.Min, engine.Max, engine.Avg:
			i, ok := ix.mets[a.Metric]
			if !ok {
				return nil, fmt.Errorf("oracle: unknown metric %q", a.Metric)
			}
			o.aggMet = append(o.aggMet, i)
		default:
			return nil, fmt.Errorf("oracle: %v is outside the benchmark's query mix", a.Func)
		}
	}
	return o, nil
}

// advance folds rows up to (not including) row end.
func (o *oracle) advance(end int) {
	d := o.d
	for r := o.done; r < end; r++ {
		row := d.dims[r*d.nd : (r+1)*d.nd]
		keep := true
		for _, f := range o.filter {
			if v := row[f[0]]; v < f[1] || v > f[2] {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		o.keyBuf = o.keyBuf[:0]
		for _, g := range o.groupBy {
			v := row[g]
			o.keyBuf = append(o.keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		grp := o.groups[string(o.keyBuf)]
		if grp == nil {
			grp = &oracleGroup{
				sum: make([]float64, len(o.aggMet)),
				min: make([]float64, len(o.aggMet)),
				max: make([]float64, len(o.aggMet)),
			}
			for _, g := range o.groupBy {
				grp.key = append(grp.key, row[g])
			}
			for i := range grp.min {
				grp.min[i], grp.max[i] = math.Inf(1), math.Inf(-1)
			}
			o.groups[string(o.keyBuf)] = grp
			o.order = append(o.order, grp)
		}
		grp.n++
		mets := d.mets[r*d.nm : (r+1)*d.nm]
		for i, m := range o.aggMet {
			if m < 0 {
				continue
			}
			v := mets[m]
			grp.sum[i] += v
			grp.min[i] = math.Min(grp.min[i], v)
			grp.max[i] = math.Max(grp.max[i], v)
		}
	}
	o.done = end
}

// answer finalizes the rows folded so far with SQL semantics: one row per
// group (one row even over no rows for a global aggregate), sorted by the
// ORDER BY column with ties and the default order on the group key,
// then LIMIT.
func (o *oracle) answer() (cols []string, rows [][]float64) {
	q := o.q
	cols = append(cols, q.GroupBy...)
	for _, a := range q.Aggregates {
		cols = append(cols, a.Name())
	}
	value := func(g *oracleGroup, i int, f engine.AggFunc) float64 {
		switch {
		case f == engine.Count:
			return float64(g.n)
		case g.n == 0:
			return 0
		case f == engine.Sum:
			return g.sum[i]
		case f == engine.Min:
			return g.min[i]
		case f == engine.Max:
			return g.max[i]
		default: // Avg
			return g.sum[i] / float64(g.n)
		}
	}
	groups := o.order
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups = []*oracleGroup{{sum: make([]float64, len(o.aggMet))}}
	}
	for _, g := range groups {
		row := make([]float64, 0, len(cols))
		for _, k := range g.key {
			row = append(row, float64(k))
		}
		for i, a := range q.Aggregates {
			row = append(row, value(g, i, a.Func))
		}
		rows = append(rows, row)
	}
	orderIdx := -1
	for i, c := range cols {
		if q.OrderBy != "" && c == q.OrderBy {
			orderIdx = i
			break
		}
	}
	ng := len(q.GroupBy)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if orderIdx >= 0 && a[orderIdx] != b[orderIdx] {
			if q.Desc {
				return a[orderIdx] > b[orderIdx]
			}
			return a[orderIdx] < b[orderIdx]
		}
		for k := 0; k < ng; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return cols, rows
}

// digest fingerprints an answer: column names and every value's bits.
func digest(cols []string, rows [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(cols)))
	for _, c := range cols {
		put(uint64(len(c)))
		h.Write([]byte(c))
	}
	put(uint64(len(rows)))
	for _, r := range rows {
		put(uint64(len(r)))
		for _, v := range r {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// checkRec is one answer the program gave: which table, how many ingest
// batches it provably covered, the query and the answer's digest.
type checkRec struct {
	table   int
	batches int
	q       *engine.Query
	got     uint64
}

// checker collects the program's answers during a run and verifies them
// against the oracle afterwards, so the oracle's work stays out of the
// timed window.
type checker struct {
	data []*dataset
	ix   schemaIndex

	mu   sync.Mutex
	recs []checkRec
}

func newChecker(ix schemaIndex, data ...*dataset) *checker {
	return &checker{data: data, ix: ix}
}

// record notes an answer over table after its first batches ingest
// batches. The query is identified by pointer: callers reuse one
// *engine.Query for repeated shapes.
func (c *checker) record(table, batches int, q *engine.Query, res *engine.Result) {
	rec := checkRec{table: table, batches: batches, q: q, got: digest(res.Columns, res.Rows)}
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

// verify evaluates every recorded answer with the oracle. It returns how
// many answers it checked, how many were wrong and a description of the
// first wrong one.
func (c *checker) verify() (checked, wrong int, first error) {
	c.mu.Lock()
	recs := append([]checkRec(nil), c.recs...)
	c.mu.Unlock()
	checked = len(recs)
	type gk struct {
		table int
		q     *engine.Query
	}
	byQuery := map[gk][]checkRec{}
	var keys []gk
	for _, r := range recs {
		k := gk{r.table, r.q}
		if _, ok := byQuery[k]; !ok {
			keys = append(keys, k)
		}
		byQuery[k] = append(byQuery[k], r)
	}
	// One oracle pass per query, spread over the CPUs; the outcome of
	// query i lands in slot i, so the first error reported is stable.
	type outcome struct {
		wrong int
		err   error
	}
	outs := make([]outcome, len(keys))
	next := make(chan int, len(keys)) // holds every key index up front
	for i := range keys {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				outs[i].wrong, outs[i].err = c.verifyQuery(k.table, k.q, byQuery[k])
			}
		}()
	}
	wg.Wait()
	for _, o := range outs {
		wrong += o.wrong
		if first == nil {
			first = o.err
		}
	}
	return checked, wrong, first
}

// verifyQuery checks one query's answers on one table, in order of the
// ingest batches they covered.
func (c *checker) verifyQuery(table int, q *engine.Query, rs []checkRec) (wrong int, first error) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].batches < rs[j].batches })
	d := c.data[table]
	o, err := newOracle(d, c.ix, q)
	if err != nil {
		return len(rs), err
	}
	var want uint64
	at := -1
	for _, r := range rs {
		if r.batches != at {
			o.advance(d.ends[r.batches])
			want = digest(o.answer())
			at = r.batches
		}
		if r.got != want {
			wrong++
			if first == nil {
				first = fmt.Errorf("wrong answer on table %d after %d ingest batches for %+v", table, r.batches, *q)
			}
		}
	}
	return wrong, first
}
