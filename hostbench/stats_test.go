package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{0, 0.5, false},
	} {
		_, ok := percentile(ramp(tc.n), tc.q)
		if ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) reportable=%v, want %v", tc.n, tc.q, ok, tc.ok)
		}
	}
	v, ok := percentile(ramp(1000), 0.99)
	if !ok || math.Abs(v-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990.01", v, ok)
	}
	if m := median(ramp(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []span{{Start: 10 * ms, End: 20 * ms}, {Start: 50 * ms, End: 80 * ms}}, 60 * ms},
		{"overlapping", []span{{Start: 10 * ms, End: 40 * ms}, {Start: 30 * ms, End: 60 * ms}}, 50 * ms},
		{"nested", []span{{Start: 10 * ms, End: 90 * ms}, {Start: 20 * ms, End: 30 * ms}}, 20 * ms},
		{"sticking out", []span{{Start: -10 * ms, End: 10 * ms}, {Start: 95 * ms, End: 120 * ms}}, 85 * ms},
		{"outside", []span{{Start: 200 * ms, End: 300 * ms}}, 100 * ms},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOverBudgetFrac(t *testing.T) {
	samples := []float64{50, 99.9, 100, 100.1, 250}
	if got := overBudgetFrac(samples, 100); got != 0.4 {
		t.Errorf("over-budget share %v, want 0.4 (100 ms itself is within budget)", got)
	}
	if got := overBudgetFrac(nil, 100); got != 0 {
		t.Errorf("empty sample share %v, want 0", got)
	}
}

func TestPerJob(t *testing.T) {
	if got := perJob(2048, 4); got != 512 {
		t.Errorf("perJob(2048, 4) = %v, want 512", got)
	}
	if got := perJob(2048, 0); got != 0 {
		t.Errorf("perJob with no jobs = %v, want 0", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], program has %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i])
		}
	}
}
