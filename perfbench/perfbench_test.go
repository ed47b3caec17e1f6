package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cubrick/internal/engine"
)

// TestSmoke runs every workload at test size, untraced and traced, and
// expects every answer right and every metric reported.
func TestSmoke(t *testing.T) {
	for name, mk := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, window: 1500 * time.Millisecond, traced: traced, tiny: true}
			w, err := mk(o)
			if err != nil {
				t.Fatalf("%s inputs: %v", name, err)
			}
			rep, err := measure(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.checked == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d checked=%d (first wrong: %v)",
					name, traced, rep.res.Correct, rep.res.Failed, rep.checked, rep.firstWrong)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
				if rep.report == "" {
					t.Errorf("%s: traced run has no self-time report", name)
				}
			}
			if len(rep.res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.res.Metrics), len(specs))
			}
			if !traced {
				for _, s := range specs {
					if rep.res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, rep.res.Metrics[s.name].Value)
					}
				}
			}
		}
	}
}

// TestOracleFlagsCorruptedAnswer records a real answer from the HTTP
// cluster and corrupted copies of it: the oracle must accept the first
// and flag each corruption.
func TestOracleFlagsCorruptedAnswer(t *testing.T) {
	w, err := newFanout(options{seed: 5, window: time.Second, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	f := w.(*fanout)
	sys, err := f.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if checked, wrong, first := f.verify(); checked == 0 || wrong != 0 {
		t.Fatalf("warm-up answers: checked %d, wrong %d: %v", checked, wrong, first)
	}
	q := f.nextQuery()
	res, err := sys.(*fanoutSystem).c.cl.Query(context.Background(), fanoutTable, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("answer has %d rows, want at least 2", len(res.Rows))
	}
	corrupt := map[string]func(rows [][]float64) [][]float64{
		"value": func(rows [][]float64) [][]float64 {
			rows[0][len(rows[0])-1]++
			return rows
		},
		"dropped row": func(rows [][]float64) [][]float64 { return rows[1:] },
		"order": func(rows [][]float64) [][]float64 {
			rows[0], rows[1] = rows[1], rows[0]
			return rows
		},
	}
	for name, fn := range corrupt {
		_, before, _ := f.verify()
		bad := *res
		bad.Rows = fn(copyRows(res.Rows))
		f.chk.record(0, 0, q, &bad)
		_, after, first := f.verify()
		if after != before+1 || first == nil {
			t.Errorf("%s corruption: wrong answers %d -> %d, want one more", name, before, after)
		}
	}
	f.chk.record(0, 0, q, res)
	if _, wrong, _ := f.verify(); wrong != len(corrupt) {
		t.Errorf("true answer flagged: %d wrong, want %d", wrong, len(corrupt))
	}
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// TestOracleGlobalAggregateOverNoRows pins the SQL rule the engine
// follows: a global aggregate over no matching rows is one row of zeros.
func TestOracleGlobalAggregateOverNoRows(t *testing.T) {
	d := newDataset(1, 1)
	d.add([]uint32{5}, []float64{7})
	d.seal()
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "m"}, {Func: engine.Count}, {Func: engine.Avg, Metric: "m"}},
		Filter:     map[string][2]uint32{"x": {6, 9}},
	}
	o, err := newOracle(d, newSchemaIndex([]string{"x"}, []string{"m"}), q)
	if err != nil {
		t.Fatal(err)
	}
	o.advance(d.ends[0])
	cols, rows := o.answer()
	if len(cols) != 3 || len(rows) != 1 || rows[0][0] != 0 || rows[0][1] != 0 || rows[0][2] != 0 {
		t.Fatalf("got %v %v, want one row of zeros", cols, rows)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d with output %q", code, out.String())
	}
}

// TestStratifiedHoldsTheMix checks that every block of stratified draws
// holds the same counts, in proportion to the weights, whatever the seed.
func TestStratifiedHoldsTheMix(t *testing.T) {
	const block = 500
	var want map[int]int
	for seed := int64(1); seed <= 3; seed++ {
		draws := stratified(rand.New(rand.NewSource(seed)), zipfWeights(1.3, 16), 3*block, block)
		for b := 0; b < 3; b++ {
			got := map[int]int{}
			for _, k := range draws[b*block : (b+1)*block] {
				got[k]++
			}
			if want == nil {
				want = got
				if want[0] <= want[1] || want[1] <= want[15] || want[15] == 0 {
					t.Fatalf("counts %v do not follow the zipf weights", want)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d block %d: counts %v, want %v", seed, b, got, want)
			}
		}
	}
}
