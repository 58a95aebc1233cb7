package main

// The three engine workloads: one closed-loop caller that enumerates a job
// list pass after pass, on the sequential engine (corpus-sweep,
// deep-search) or the work-stealing engine (deep-search-par).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/telemetry"
)

type engineWorkload struct {
	specs   []progSpec
	jobs    []job
	workers int // 1 = core.Enumerate, otherwise core.EnumerateParallel
	// collect runs a full GC before each call, outside the timed region,
	// so one deep job's garbage is not charged to the next job. The
	// runtime.gc_* metrics leave these forced cycles out.
	collect bool
}

// engineSegment is what one measured window of an engine workload saw.
type engineSegment struct {
	// Per job: verdict times, request times and per-call heap peaks.
	jobNs, jobReqNs, jobHeap []*ring
	attempted, failed        int
	bad                      []string
	passes                   int
	busyNs                   int64
	gcCycles, gcPause        float64
	peakHeapMB               float64

	// Per-layer sums over all passes (divided by passes when reported).
	behaviors, states, forks, elided, rollbacks, prefix, symmetry int
	demoted, steals, poolHits, poolMisses                         int
	cowShared, cowCopied                                          int64
	frontierPeak                                                  int64
	// Traced segments only.
	allocs, allocBytes uint64
	metrics            *telemetry.EnumMetrics
}

// timeSetup times the workload's set-up (parse and build every program):
// each of `samples` samples repeats it for at least setupSample and takes
// the mean, and the result is the median sample. It also returns the last
// build and the mean litmus.Parse time.
func timeSetup(specs []progSpec, samples int) ([]builtProg, float64, float64, error) {
	var durs []float64
	var built []builtProg
	var parseNs int64
	var parses int
	for i := 0; i < samples; i++ {
		runtime.GC()
		n := 0
		t0 := time.Now()
		for time.Since(t0) < setupSample {
			b, pNs, pN, err := buildPrograms(specs)
			if err != nil {
				return nil, 0, 0, err
			}
			built, parseNs, parses = b, parseNs+pNs, parses+pN
			n++
		}
		durs = append(durs, time.Since(t0).Seconds()/float64(n))
	}
	parseUs := 0.0
	if parses > 0 {
		parseUs = float64(parseNs) / float64(parses) / 1e3
	}
	return built, median(durs), parseUs, nil
}

// renderOutcomes is the answer a caller takes away from a verdict: the
// sorted list of distinct outcomes.
func renderOutcomes(res *core.Result) []string {
	set := res.OutcomeSet()
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runEngineSegment runs whole passes over the job list until at least
// `seconds` of caller time have passed. Checking happens between calls and
// is not counted in the window. traced attaches telemetry.EnumMetrics,
// per-call MemStats deltas and spans.
func runEngineSegment(w engineWorkload, built []builtProg, chk *jobChecker, base core.Options, rng *rand.Rand, seconds float64, traced bool, tr *telemetry.Tracer) *engineSegment {
	seg := &engineSegment{
		jobNs:    newRings(len(w.jobs)),
		jobReqNs: newRings(len(w.jobs)),
		jobHeap:  newRings(len(w.jobs)),
	}
	// One pass: every job `repeat` times, in a seed-shuffled order.
	var pass []int
	for ji, j := range w.jobs {
		for r := 0; r < max(1, j.repeat); r++ {
			pass = append(pass, ji)
		}
	}
	ctx := context.Background()
	if traced {
		seg.metrics = telemetry.NewEnumMetrics(telemetry.NewRegistry())
	}
	var ms0, ms1, gc0, gc1, msGC runtime.MemStats
	var forcedPauseNs uint64
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	heap := startHeapSampler()
	// Span names per job, made once: a call's span nests inside its
	// pass's span on the one lane.
	spanNames := make([]string, len(w.jobs))
	for ji, j := range w.jobs {
		spanNames[ji] = "core.Enumerate " + j.name
	}
	var windowNs int64
	for windowNs < int64(seconds*1e9) {
		seg.passes++
		passStart := tr.Now()
		rng.Shuffle(len(pass), func(a, b int) { pass[a], pass[b] = pass[b], pass[a] })
		for _, ji := range pass {
			j := w.jobs[ji]
			bp := built[j.prog]
			opts := base
			opts.Speculative = j.model.Speculative
			if j.frontierBytes != 0 {
				opts.FrontierResidentBytes = j.frontierBytes
			}
			opts.Metrics = seg.metrics
			if w.collect {
				forcedPauseNs += forcedGC(&msGC)
			}
			heap.mark()
			if traced {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			var res *core.Result
			var err error
			if w.workers == 1 {
				res, err = core.Enumerate(ctx, bp.prog, j.model.Policy, opts)
			} else {
				res, err = core.EnumerateParallel(ctx, bp.prog, j.model.Policy, opts, w.workers)
			}
			t1 := time.Now()
			if traced {
				// MemStats first, so the span's own allocations are not
				// charged to the call (its end then includes the read).
				runtime.ReadMemStats(&ms1)
				seg.allocs += ms1.Mallocs - ms0.Mallocs
				seg.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				tr.Span(spanNames[ji], "core", 0, t0)
			}
			renderStart := time.Now()
			if err == nil {
				renderOutcomes(res)
			}
			t2 := time.Now()
			seg.jobHeap[ji].add(heap.peakSinceMark())
			seg.attempted++
			seg.jobNs[ji].add(t1.Sub(t0).Nanoseconds())
			// The request is the verdict plus rendering its answer; in a
			// traced segment the MemStats reading between the two is
			// left out.
			reqNs := t1.Sub(t0).Nanoseconds() + t2.Sub(renderStart).Nanoseconds()
			seg.jobReqNs[ji].add(reqNs)
			seg.busyNs += t1.Sub(t0).Nanoseconds()
			windowNs += reqNs

			var bad []string
			if err != nil {
				bad = []string{err.Error()}
			} else {
				bad = chk.check(ji, j.model.Name, res)
			}
			if len(bad) > 0 {
				seg.failed++
				if len(seg.bad) < 20 {
					for _, b := range bad {
						seg.bad = append(seg.bad, j.name+": "+b)
					}
				}
			}
			if res != nil {
				st := res.Stats
				seg.behaviors += len(res.Executions)
				seg.states += st.StatesExplored
				seg.forks += st.Forks
				seg.elided += st.ChildrenElided
				seg.rollbacks += st.TrialRollbacks
				seg.prefix += st.PrefixPruned
				seg.symmetry += st.SymmetryPruned
				seg.demoted += st.FrontierDemoted
				seg.steals += st.Steals
				seg.poolHits += st.PoolHits
				seg.poolMisses += st.PoolMisses
				seg.cowShared += st.CowRowsShared
				seg.cowCopied += st.CowRowsCopied
				if st.FrontierResidentPeak > seg.frontierPeak {
					seg.frontierPeak = st.FrontierResidentPeak
				}
			}
		}
		tr.Span("pass", "bench", 0, passStart)
	}
	heap.stopMB()
	// The peak heap of the workload: the largest per-job median of the
	// per-call peaks, so one call that met the collector late does not
	// set it.
	for _, h := range seg.jobHeap {
		seg.peakHeapMB = max(seg.peakHeapMB, h.median()/(1<<20))
	}
	runtime.ReadMemStats(&gc1)
	seg.gcCycles, seg.gcPause = gcDelta(&gc0, &gc1, forcedPauseNs)
	return seg
}

// endToEnd adds the end-to-end metrics of an untraced engine segment.
func (seg *engineSegment) endToEnd(r *report, setupS float64) {
	r.set("setup_s", setupS, "s")
	// A pass's verdicts over the sum of its calls, each at its job's
	// median time, so a burst of interference slows one sample of a
	// job, not the rate.
	var passNs float64
	verdicts := 0
	for _, ns := range seg.jobNs {
		n := ns.n / seg.passes
		passNs += float64(n) * ns.median()
		verdicts += n
	}
	r.set("verdicts_per_s", float64(verdicts)/(passNs/1e9), "1/s")
	r.set("verdict_p50_ms", jobQuantile(seg.jobNs, 0.50), "ms")
	r.set("verdict_p99_ms", jobQuantile(seg.jobNs, 0.99), "ms")
	r.set("req_p50_ms", jobQuantile(seg.jobReqNs, 0.50), "ms")
	r.set("req_p99_ms", jobQuantile(seg.jobReqNs, 0.99), "ms")
	r.set("peak_heap_mb", seg.peakHeapMB, "MB")
	r.set("failed_ratio", float64(seg.failed)/float64(seg.attempted), "ratio")
}

// perLayer adds the per-layer metrics of a traced engine segment; base is
// the untraced segment of the same run (GC counters and the overhead
// ratio come from it).
func (seg *engineSegment) perLayer(r *report, base *engineSegment, parseUs float64, workers int) {
	p := float64(seg.passes)
	r.set("core.enum_busy_s", float64(seg.busyNs)/1e9/p, "s") // per pass
	r.set("core.allocs_per_enum", ratio(float64(seg.allocs), float64(seg.attempted)), "count")
	r.set("core.alloc_bytes_per_enum", ratio(float64(seg.allocBytes), float64(seg.attempted)), "B")
	r.set("core.pool_hit_ratio", ratio(float64(seg.poolHits), float64(seg.poolHits+seg.poolMisses)), "ratio")
	r.set("core.states", float64(seg.states)/p, "count")
	r.set("core.forks", float64(seg.forks)/p, "count")
	r.set("core.children_elided", float64(seg.elided)/p, "count")
	r.set("core.trial_rollbacks", float64(seg.rollbacks)/p, "count")
	r.set("core.prefix_pruned", float64(seg.prefix)/p, "count")
	r.set("core.symmetry_pruned", float64(seg.symmetry)/p, "count")
	r.set("core.useful_ratio", ratio(float64(seg.behaviors), float64(seg.states)), "ratio")
	engineNs := float64(seg.busyNs) * float64(workers)
	gen := float64(seg.metrics.GenerateNs.Value())
	exe := float64(seg.metrics.ExecuteNs.Value())
	res := float64(seg.metrics.ResolveNs.Value())
	r.set("core.phase_generate_share", ratio(gen, engineNs), "ratio")
	r.set("core.phase_execute_share", ratio(exe, engineNs), "ratio")
	r.set("core.phase_resolve_share", ratio(res, engineNs), "ratio")
	r.set("core.unattributed_share", ratio(engineNs-gen-exe-res, engineNs), "ratio")
	r.set("core.frontier_peak_bytes", float64(seg.frontierPeak), "B")
	r.set("core.frontier_demoted", float64(seg.demoted)/p, "count")
	r.set("core.steals", float64(seg.steals)/p, "count")
	r.set("graph.cow_rows_shared", float64(seg.cowShared)/p, "count")
	r.set("graph.cow_rows_copied", float64(seg.cowCopied)/p, "count")
	r.set("graph.cow_share_ratio", ratio(float64(seg.cowShared), float64(seg.cowShared+seg.cowCopied)), "ratio")
	r.set("litmus.parse_us", parseUs, "us")
	for _, n := range serveOnlyLayers {
		r.set(n.name, 0, n.unit)
	}
	r.set("runtime.gc_cycles", base.gcCycles, "count")
	r.set("runtime.gc_pause_ms", base.gcPause, "ms")
	// Mean caller time per verdict, traced over untraced.
	r.set("telemetry.trace_overhead_ratio",
		ratio(float64(seg.busyNs)/float64(seg.attempted), float64(base.busyNs)/float64(base.attempted)), "ratio")
}

// serveOnlyLayers are the per-layer metrics only serve-zipf exercises;
// engine workloads report them as 0.
var serveOnlyLayers = []struct{ name, unit string }{
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.evictions", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.journal_db_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"loadgen.lateness_p99_ms", "ms"},
}

func (seg *engineSegment) summary() string {
	return fmt.Sprintf("%d passes, %d verdicts, %d failed; %s", seg.passes, seg.attempted, seg.failed, describeCount("verdict samples", seg.attempted))
}
