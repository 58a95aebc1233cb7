package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSelfTest runs the checker's self-test: every check accepts the real
// answer and rejects each corrupted one.
func TestSelfTest(t *testing.T) {
	base, err := defaultOptions()
	if err != nil {
		t.Fatal(err)
	}
	if err := selfTest(base); err != nil {
		t.Fatal(err)
	}
}

func TestWideSBRelaxedClosedForm(t *testing.T) {
	for _, c := range []struct{ threads, loads, want int }{{3, 2, 64}, {4, 3, 4096}} {
		if got := len(wideSBRelaxed(c.threads, c.loads)); got != c.want {
			t.Errorf("wideSBRelaxed(%d, %d) has %d behaviors, want %d", c.threads, c.loads, got, c.want)
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same programs, another
// seed other programs.
func TestInputsFollowSeed(t *testing.T) {
	a, err := randomPrograms(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := randomPrograms(1, 4)
	c, _ := randomPrograms(2, 4)
	same, differ := true, false
	for i := range a {
		same = same && a[i].src == b[i].src
		differ = differ || a[i].src != c[i].src
	}
	if !same || !differ {
		t.Fatalf("seeded programs: same seed equal=%v, other seed differs=%v", same, differ)
	}
	k1, _ := serveKeys(1)
	k2, _ := serveKeys(1)
	for i := range k1 {
		if k1[i].spec.name != k2[i].spec.name || k1[i].model.Name != k2[i].model.Name {
			t.Fatalf("serve key %d differs between runs of one seed", i)
		}
	}
}

func TestJobQuantile(t *testing.T) {
	// Two jobs: one called 3 times at ~1ms, one once at 10ms.
	jobs := newRings(2)
	for _, ns := range []int64{1e6, 2e6, 1e6} {
		jobs[0].add(ns)
	}
	jobs[1].add(10e6)
	if got := jobQuantile(jobs, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := jobQuantile(jobs, 1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	// A full ring keeps ringSize samples but weighs every call.
	for i := 0; i < 3*ringSize; i++ {
		jobs[1].add(10e6)
	}
	if got := jobQuantile(jobs, 0.5); got != 10 {
		t.Errorf("p50 after %d calls of the slow job = %v, want 10", jobs[1].n, got)
	}
}

// TestRingSpreadsSamples: a ring that overflows keeps samples from the
// whole run, evenly spaced, not just the latest ones.
func TestRingSpreadsSamples(t *testing.T) {
	r := newRings(1)[0]
	const calls = 10 * ringSize
	for i := 0; i < calls; i++ {
		r.add(int64(i))
	}
	if len(r.buf) > ringSize || len(r.buf) < ringSize/2 {
		t.Fatalf("ring holds %d samples, want between %d and %d", len(r.buf), ringSize/2, ringSize)
	}
	for k, v := range r.buf {
		if v != int64(k*r.stride) {
			t.Fatalf("sample %d is call %d, want call %d (stride %d)", k, v, k*r.stride, r.stride)
		}
	}
	if m := r.median(); m < calls*0.4 || m > calls*0.6 {
		t.Errorf("median call index %v, want near %d", m, calls/2)
	}
}

// TestBenchmarkJSONMatches: the metric names the benchmark prints are
// exactly the ones BENCHMARK.json declares, in both lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name string }
		printed  []string
	}{{spec.EndToEnd, endToEndNames}, {spec.PerLayer, perLayerNames}} {
		var names []string
		for _, m := range c.declared {
			names = append(names, m.Name)
		}
		if !reflect.DeepEqual(names, c.printed) {
			t.Errorf("BENCHMARK.json declares %v, the benchmark prints %v", names, c.printed)
		}
	}
}

func TestSliceMedian(t *testing.T) {
	for _, c := range []struct {
		n, size int
		want    [][2]int
	}{
		{10, 4, [][2]int{{0, 4}, {4, 10}}},
		{8, 4, [][2]int{{0, 4}, {4, 8}}},
		{3, 4, [][2]int{{0, 3}}},
	} {
		var got [][2]int
		sliceMedian(c.n, c.size, func(lo, hi int) float64 {
			got = append(got, [2]int{lo, hi})
			return 0
		})
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("sliceMedian(%d, %d) slices %v, want %v", c.n, c.size, got, c.want)
		}
	}
	// One slow slice out of three does not move the median.
	vals := []float64{1, 1.1, 9}
	if got := sliceMedian(30, 10, func(lo, _ int) float64 { return vals[lo/10] }); got != 1.1 {
		t.Errorf("median over slices = %v, want 1.1", got)
	}
}
