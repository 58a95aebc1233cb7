// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks every verdict against a reference the engine under
// test never produces, and prints each metric by name with its unit,
// ending with one JSON line:
//
//	bash perfbench/run.sh --workload deep-search --seed 1 --seconds 10 --trace 0
//
// Workloads: corpus-sweep, deep-search, deep-search-par, serve-zipf (see
// README.md for why each exists and which layer metric should move which
// end-to-end metric). --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload twice, untraced then traced, and reports the
// per-layer metrics (engine phases, Stats counts, serve counters, the
// tracing overhead) and writes the spans to --workdir.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/telemetry"
)

// endToEndNames and perLayerNames are the metrics of the final JSON line
// for --trace 0 and --trace 1; they match BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "verdicts_per_s", "verdict_p50_ms", "verdict_p99_ms",
	"req_p50_ms", "req_p99_ms", "peak_heap_mb",
}

var perLayerNames = []string{
	"core.enum_busy_s", "core.allocs_per_enum", "core.alloc_bytes_per_enum", "core.pool_hit_ratio",
	"core.states", "core.forks", "core.children_elided", "core.trial_rollbacks",
	"core.prefix_pruned", "core.symmetry_pruned", "core.useful_ratio",
	"core.phase_generate_share", "core.phase_execute_share", "core.phase_resolve_share", "core.unattributed_share",
	"core.frontier_peak_bytes", "core.frontier_demoted", "core.steals",
	"graph.cow_rows_shared", "graph.cow_rows_copied", "graph.cow_share_ratio",
	"litmus.parse_us",
	"serve.hit_ratio", "serve.coalesced", "serve.evictions", "serve.hit_p50_ms",
	"serve.miss_p50_ms", "serve.miss_p99_ms", "serve.journal_db_ratio", "serve.rejected",
	"loadgen.lateness_p99_ms",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
	"telemetry.trace_overhead_ratio",
}

// setup_s is the median of setupSamples samples. Each sample repeats the
// set-up until at least setupSample has passed and takes the mean: a
// single set-up (tens of microseconds to a few milliseconds) is mostly
// timer and scheduler noise.
const (
	setupSamples = 21
	setupSample  = 10 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "corpus-sweep, deep-search, deep-search-par or serve-zipf")
		seed     = flag.Int64("seed", 1, "seed for the randprog programs, pass order and zipf stream")
		seconds  = flag.Float64("seconds", 10, "measured seconds per segment")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: add a traced segment and report per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "directory for the server journal and trace files")
		capacity = flag.Bool("capacity", false, "serve-zipf only: send the run's schedule as a closed loop, print the requests/s it reaches and exit")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fail("--seconds must be positive")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail("%v", err)
	}

	base, err := defaultOptions()
	if err != nil {
		return fail("%v", err)
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# go=%s GOMAXPROCS=%d NumCPU=%d GOGC=%d telemetry=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc, telemetry.Enabled)
	fmt.Printf("# engine options: prune=all cow=on dedup-mem=off frontier-resident=auto (FrontierResidentBytes=%d)\n",
		base.FrontierResidentBytes)

	rep := newReport()
	var attempted, failed int
	var bad []string
	switch *workload {
	case "corpus-sweep", "deep-search", "deep-search-par":
		attempted, failed, bad, err = runEngineWorkload(rep, *workload, *seed, *seconds, *trace == 1, base, *workdir)
	case "serve-zipf":
		if *capacity {
			if err := measureServeCapacity(*seed, *seconds, base, *workdir); err != nil {
				return fail("%v", err)
			}
			return 0
		}
		attempted, failed, bad, err = runServeWorkload(rep, *seed, *seconds, *trace == 1, base, *workdir)
	default:
		return fail("unknown --workload %q", *workload)
	}
	if err != nil {
		return fail("%v", err)
	}
	rep.print(os.Stdout)
	for _, b := range bad {
		fmt.Printf("# WRONG: %s\n", b)
	}
	names := endToEndNames
	if *trace == 1 {
		names = perLayerNames
	}
	ms, err := rep.subset(names)
	if err != nil {
		return fail("%v", err)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}
	if err := res.write(os.Stdout); err != nil {
		return fail("%v", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultOptions are the tools' default engine options, set once for
// every workload: -prune all, -cow on, -dedup-mem off,
// -frontier-resident auto.
func defaultOptions() (core.Options, error) {
	var base core.Options
	for _, err := range []error{
		cli.ApplyPrune(&base, "all"),
		cli.ApplyCOW(&base, "on"),
		cli.ApplyDedupMem(&base, "off"),
		cli.ApplyFrontierResident(&base, "auto"),
	} {
		if err != nil {
			return core.Options{}, err
		}
	}
	return base, nil
}

func runEngineWorkload(rep *report, name string, seed int64, seconds float64, traced bool, base core.Options, workdir string) (int, int, []string, error) {
	w := engineWorkload{workers: 1}
	switch name {
	case "corpus-sweep":
		var err error
		if w.specs, w.jobs, err = corpusSweep(seed); err != nil {
			return 0, 0, nil, err
		}
	case "deep-search":
		w.specs, w.jobs = deepSearch()
		w.collect = true
	case "deep-search-par":
		w.specs, w.jobs = deepSearch()
		w.workers, w.collect = runtime.GOMAXPROCS(0), true
	}
	// Set-up is timed first, in a quiet process.
	built, setupS, parseUs, err := timeSetup(w.specs, setupSamples)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := runSelfTest(base); err != nil {
		return 0, 0, nil, err
	}
	oc := oracleCache{}
	refs := make([]*reference, len(w.jobs))
	for i, j := range w.jobs {
		if refs[i], err = referenceFor(oc, built[j.prog], j.model.Name); err != nil {
			return 0, 0, nil, err
		}
	}
	fmt.Printf("# %d programs, %d jobs per pass, engine workers %d\n", len(w.specs), len(w.jobs), w.workers)
	chk := newJobChecker(refs, w.workers == 1)
	rng := rand.New(rand.NewSource(seed))
	seg := runEngineSegment(w, built, chk, base, rng, seconds, false, nil)
	fmt.Printf("# untraced: %s\n", seg.summary())
	seg.endToEnd(rep, setupS)
	attempted, failed, bad := seg.attempted, seg.failed, seg.bad
	if traced {
		tr := telemetry.NewTracer()
		tseg := runEngineSegment(w, built, chk, base, rng, seconds, true, tr)
		fmt.Printf("# traced: %s\n", tseg.summary())
		tseg.perLayer(rep, seg, parseUs, w.workers)
		attempted, failed, bad = attempted+tseg.attempted, failed+tseg.failed, append(bad, tseg.bad...)
		if err := writeTrace(tr, workdir, name, seed); err != nil {
			return 0, 0, nil, err
		}
	}
	return attempted, failed, bad, nil
}

func runServeWorkload(rep *report, seed int64, seconds float64, traced bool, base core.Options, workdir string) (int, int, []string, error) {
	setupS, err := timeServeSetup(workdir, base, setupSamples)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := runSelfTest(base); err != nil {
		return 0, 0, nil, err
	}
	in, err := buildServeInput(seed, seconds, base)
	if err != nil {
		return 0, 0, nil, err
	}
	fmt.Printf("# %d requests at %d/s over %d distinct keys; working set %d body bytes (largest %d), cache budget %d\n",
		len(in.schedule), serveRate, len(in.refs), in.workingSet, in.maxBody, serveCacheBytes)
	seg, err := runServeSegment(in, workdir, base, false, false, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	fmt.Printf("# untraced: %s\n", seg.summary())
	seg.endToEnd(rep, setupS)
	attempted, failed, bad := seg.attempted, seg.failed, seg.bad
	if traced {
		tr := telemetry.NewTracer()
		tseg, err := runServeSegment(in, workdir, base, false, true, tr)
		if err != nil {
			return 0, 0, nil, err
		}
		fmt.Printf("# traced: %s\n", tseg.summary())
		tseg.perLayer(rep, seg, in.parseUs)
		attempted, failed, bad = attempted+tseg.attempted, failed+tseg.failed, append(bad, tseg.bad...)
		if err := writeTrace(tr, workdir, "serve-zipf", seed); err != nil {
			return 0, 0, nil, err
		}
	}
	return attempted, failed, bad, nil
}

// measureServeCapacity sends the schedule of a serve-zipf run as a closed
// loop over the same connections and prints the rate it reaches: the
// basis of serveRate.
func measureServeCapacity(seed int64, seconds float64, base core.Options, workdir string) error {
	in, err := buildServeInput(seed, seconds, base)
	if err != nil {
		return err
	}
	seg, err := runServeSegment(in, workdir, base, true, false, nil)
	if err != nil {
		return err
	}
	if seg.failed > 0 {
		return fmt.Errorf("closed loop: %d of %d requests failed: %v", seg.failed, seg.attempted, seg.bad)
	}
	fmt.Printf("# %s\n", seg.summary())
	fmt.Printf("closed-loop capacity: %.1f requests/s (%d requests over %d connections; working set %d body bytes, cache budget %d)\n",
		float64(seg.ok)/(float64(seg.windowNs)/1e9), seg.attempted, seg.conns, in.workingSet, serveCacheBytes)
	return nil
}

func runSelfTest(base core.Options) error {
	if err := selfTest(base); err != nil {
		return err
	}
	fmt.Println("# checker self-test: every corrupted answer rejected")
	return nil
}

func writeTrace(tr *telemetry.Tracer, workdir, workload string, seed int64) error {
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", tr.Len(), path)
	return nil
}
