package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// plannedOp is one operation of an open-loop plan: a query or an ingest
// batch against one table, due at a fixed offset from the plan's start.
type plannedOp struct {
	due    time.Duration
	ingest bool
	table  int
	n      int // index of the query or of the table's ingest batch
}

// planOps lays queries and ingest batches on fixed grids at the given
// per-second rates, merged by due time. Rates are constants of each
// workload, never derived from the machine, so every commit gets the
// same load.
func planOps(window time.Duration, queryRate, ingestRate float64) []plannedOp {
	var ops []plannedOp
	nq := int(window.Seconds() * queryRate)
	ni := int(window.Seconds() * ingestRate)
	qi, ii := 0, 0
	for qi < nq || ii < ni {
		qDue := time.Duration(float64(qi) / queryRate * float64(time.Second))
		// Ingest sits half a step off the query grid.
		iDue := time.Duration((float64(ii) + 0.5) / ingestRate * float64(time.Second))
		if ii >= ni || (qi < nq && qDue <= iDue) {
			ops = append(ops, plannedOp{due: qDue, n: qi})
			qi++
		} else {
			ops = append(ops, plannedOp{due: iDue, ingest: true, n: ii})
			ii++
		}
	}
	return ops
}

func countQueries(plan []plannedOp) int {
	n := 0
	for _, o := range plan {
		if !o.ingest {
			n++
		}
	}
	return n
}

// ledger tracks ingest per table so a query's answer can be checked: an
// answer is exact for "initial rows + the first k batches" when no batch
// of its table was claimed but unfinished when it started, and none was
// claimed while it ran.
type ledger struct {
	mu      sync.Mutex
	claimed []int
	done    []int
}

func newLedger(tables int) *ledger {
	return &ledger{claimed: make([]int, tables), done: make([]int, tables)}
}

func (l *ledger) claim(table int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.claimed[table]++
	return l.claimed[table] - 1
}

func (l *ledger) finish(table int) {
	l.mu.Lock()
	l.done[table]++
	l.mu.Unlock()
}

// quiet returns the table's batch count when no batch is in flight.
func (l *ledger) quiet(table int) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.claimed[table], l.claimed[table] == l.done[table]
}

func (l *ledger) claimedCount(table int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.claimed[table]
}

// runOpenLoop sends the plan from `senders` goroutines. Ops are claimed
// in due order; each is timed from its due time, so a stall shows in the
// latency of every op it delays, and the lag between due time and actual
// start is recorded. Ingest ops get their batch index from the ledger at
// claim time. exec returns the op's error.
func runOpenLoop(plan []plannedOp, senders int, led *ledger, st *runStats, exec func(o plannedOp) error) {
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(plan) {
					mu.Unlock()
					return
				}
				o := plan[next]
				next++
				if o.ingest {
					o.n = led.claim(o.table)
				}
				mu.Unlock()
				due := start.Add(o.due)
				time.Sleep(time.Until(due))
				began := time.Now()
				err := exec(o)
				end := time.Now()
				if o.ingest {
					led.finish(o.table)
				}
				st.op(o.ingest, end.Sub(due), began.Sub(due), err)
			}
		}()
	}
	wg.Wait()
}

// runClosedLoop issues queries back to back from one client for d; each
// is due the moment the previous one returned.
func runClosedLoop(d time.Duration, st *runStats, exec func() error) {
	deadline := time.Now().Add(d)
	due := time.Now()
	for due.Before(deadline) {
		began := time.Now()
		err := exec()
		end := time.Now()
		st.op(false, end.Sub(began), began.Sub(due), err)
		due = end
	}
}

// zipfWeights is the law of math/rand's Zipf with v = 1, which
// workload.QueryMix and randutil.Zipf use: P(k) ∝ (1+k)^-s on [0, n).
func zipfWeights(s float64, n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
	}
	return w
}

// stratified draws n values in [0, len(w)) with probabilities
// proportional to w. Every block of `block` draws holds each value its
// expected number of times (largest remainder), in a seeded random order,
// so each run sees the mix the weights describe rather than one sample of
// it: a rare slow shape is not twice as common in one run as in another.
func stratified(rnd *rand.Rand, w []float64, n, block int) []int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	quota := make([]int, 0, block)
	order := make([]int, len(w))
	frac := make([]float64, len(w))
	left := block
	for k, x := range w {
		exact := x / total * float64(block)
		c := int(exact)
		for i := 0; i < c; i++ {
			quota = append(quota, k)
		}
		left -= c
		order[k] = k
		frac[k] = exact - float64(c)
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for i := 0; i < left; i++ {
		quota = append(quota, order[i])
	}
	out := make([]int, 0, n+block)
	for len(out) < n {
		rnd.Shuffle(len(quota), func(i, j int) { quota[i], quota[j] = quota[j], quota[i] })
		out = append(out, quota...)
	}
	return out[:n]
}
