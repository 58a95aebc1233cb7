package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run, in the order they were set.
type report struct {
	names []string
	vals  map[string]metric
}

func newReport() *report { return &report{vals: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.vals[name] = metric{Value: v, Unit: unit}
}

// print writes one "name value unit" line per metric.
func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.vals[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// subset returns the named metrics (every one must be present).
func (r *report) subset(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	var missing []string
	for _, n := range names {
		m, ok := r.vals[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res result) write(w io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place), in the samples' unit.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	h := q * float64(len(xs)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	v := float64(xs[lo]) + (h-float64(lo))*float64(xs[hi]-xs[lo])
	return v
}

// ring keeps at most ringSize samples of one job, spread evenly over
// the whole segment: when it fills, every other sample is dropped and
// from then on only every stride-th call is kept. Its memory is allocated
// up front, so the benchmark's own heap does not grow with the run and
// inflate peak_heap_mb; n counts every call.
type ring struct {
	buf    []int64
	n      int
	stride int
}

const ringSize = 64

func newRings(k int) []*ring {
	rs := make([]*ring, k)
	for i := range rs {
		rs[i] = &ring{buf: make([]int64, 0, ringSize), stride: 1}
	}
	return rs
}

func (r *ring) add(v int64) {
	i := r.n
	r.n++
	if i%r.stride != 0 {
		return
	}
	if len(r.buf) == cap(r.buf) {
		kept := r.buf[:0]
		for k := 0; k < len(r.buf); k += 2 {
			kept = append(kept, r.buf[k])
		}
		r.buf, r.stride = kept, 2*r.stride
		if i%r.stride != 0 {
			return
		}
	}
	r.buf = append(r.buf, v)
}

// median of the kept samples.
func (r *ring) median() float64 {
	return quantile(append([]int64(nil), r.buf...), 0.5)
}

// jobQuantile is the q-quantile, in ms, of per-call times in which every
// call is timed at its job's median: jobs sorted by median, each weighted
// by its number of calls. On a shared machine a burst of interference
// then moves one sample of a job, not the quantile.
func jobQuantile(jobs []*ring, q float64) float64 {
	type block struct {
		ms float64
		n  int
	}
	var blocks []block
	total := 0
	for _, r := range jobs {
		if r.n == 0 {
			continue
		}
		blocks = append(blocks, block{r.median() / 1e6, r.n})
		total += r.n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ms < blocks[j].ms })
	at := func(pos int) float64 {
		for _, b := range blocks {
			if pos < b.n {
				return b.ms
			}
			pos -= b.n
		}
		return blocks[len(blocks)-1].ms
	}
	h := q * float64(total-1)
	lo := int(math.Floor(h))
	return at(lo) + (h-float64(lo))*(at(int(math.Ceil(h)))-at(lo))
}

// sliceMedian splits n per-request values, in arrival order, into slices
// of size (a last partial slice joins the one before it), applies f to each
// slice [lo, hi) and returns the median. A burst of interference on a
// shared host then moves one slice's figure, not the result.
func sliceMedian(n, size int, f func(lo, hi int) float64) float64 {
	var vals []float64
	for lo := 0; lo < n; {
		hi := lo + size
		if n-hi < size {
			hi = n
		}
		vals = append(vals, f(lo, hi))
		lo = hi
	}
	return median(vals)
}

// median of float64 samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// describeCount prints a sample count; p99 is only a real 99th
// percentile with at least 1000 samples (10 beyond it).
func describeCount(name string, n int) string {
	note := ""
	if n < 1000 {
		note = " (fewer than 1000: p99 has fewer than 10 samples beyond it)"
	}
	return fmt.Sprintf("%s: n=%d%s", name, n, note)
}

// heapSampler tracks the peak of the heap's object bytes (live or not
// yet swept) by reading runtime/metrics every 2ms and at call boundaries.
// It keeps the peak since the last mark, so a caller can take the peak of
// a single call, and the peak of every half-second interval.
type heapSampler struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	sinceMark  atomic.Uint64
	sampleBusy sync.Mutex
	sample     []metrics.Sample

	// Owned by the sampler goroutine until stop.
	interval  uint64
	intervals []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	h.observe()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		next := time.Now().Add(500 * time.Millisecond)
		for {
			select {
			case <-h.stop:
				return
			case now := <-tick.C:
				v := h.observe()
				h.interval = max(h.interval, v)
				if now.After(next) {
					h.intervals = append(h.intervals, float64(h.interval)/(1<<20))
					h.interval, next = 0, next.Add(500*time.Millisecond)
				}
			}
		}
	}()
	return h
}

// read returns the heap's current object bytes.
func (h *heapSampler) read() uint64 {
	h.sampleBusy.Lock()
	defer h.sampleBusy.Unlock()
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) observe() uint64 {
	v := h.read()
	raise(&h.sinceMark, v)
	return v
}

// mark starts a per-call peak.
func (h *heapSampler) mark() { h.sinceMark.Store(h.read()) }

// peakSinceMark returns the peak since the last mark, in bytes.
func (h *heapSampler) peakSinceMark() int64 {
	h.observe()
	return int64(h.sinceMark.Load())
}

// stopMB stops the sampler and returns the median of the half-second
// intervals' peaks in MiB: the level the heap keeps returning to, which
// unlike the single highest sample does not hinge on one late GC cycle.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	if len(h.intervals) == 0 {
		return float64(h.interval) / (1 << 20)
	}
	return median(h.intervals)
}

// gcDelta is the collector's work between two MemStats readings, less
// the cycles the benchmark forced with runtime.GC and their pauses
// (forcedPauseNs), so it counts only the program's own collections.
func gcDelta(before, after *runtime.MemStats, forcedPauseNs uint64) (cycles float64, pauseMs float64) {
	forced := after.NumForcedGC - before.NumForcedGC
	return float64(after.NumGC - before.NumGC - forced), float64(after.PauseTotalNs-before.PauseTotalNs-forcedPauseNs) / 1e6
}

// forcedGC runs a full collection and returns its stop-the-world pause.
func forcedGC(ms *runtime.MemStats) uint64 {
	runtime.GC()
	runtime.ReadMemStats(ms)
	return ms.PauseNs[(ms.NumGC+255)%256]
}
