package main

// serve-zipf: an in-process serve.Server on loopback with its journal on,
// driven by an open loop at one fixed arrival rate over at most nproc
// connections. Keys are zipf-skewed over registry tests × models and
// seeded randprog / wide store-buffering programs sent as inline litmus
// source. The cache starts cold and its budget is below the working set.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/serve"
	"storeatomicity/internal/telemetry"
)

const (
	// serveRate is the open loop's fixed arrival rate (requests/s): an
	// eighth of the closed-loop capacity that --capacity measured on a
	// 2-vCPU host (README.md has the figures).
	serveRate = 900
	// serveZipfS is the zipf skew over key ranks: the skew of the CI
	// serve-smoke churn step, whose cache is smaller than its working set.
	serveZipfS = 1.05
	// serveCacheBytes budgets the memo cache: below every run's working
	// set (printed at the start of a run), and large enough that each
	// shard (budget/16) holds the largest body, so no key misses for
	// being oversize.
	serveCacheBytes = 512 << 10
)

// serveKey is one cache key: a program under a model.
type serveKey struct {
	spec  progSpec
	model litmus.Model
}

// serveKeys builds the ranked key universe. Each of the three classes
// (registry, randprog, wide SB) is shuffled by the seed, and the classes
// are interleaved in fixed proportion, so the seed changes which program
// sits at a rank but not which kind of program.
func serveKeys(seed int64) ([]serveKey, error) {
	rng := rand.New(rand.NewSource(seed))
	var classes [3][]serveKey
	for _, t := range litmus.Registry() {
		for _, m := range litmus.Models() {
			classes[0] = append(classes[0], serveKey{progSpec{name: t.Name, registry: t.Name}, m})
		}
	}
	rp, err := randomPrograms(rng.Int63(), 12)
	if err != nil {
		return nil, err
	}
	for _, p := range rp {
		for _, mn := range randomModels {
			classes[1] = append(classes[1], serveKey{p, mustModel(mn)})
		}
	}
	// Distinct store values give distinct fingerprints at equal cost.
	for _, v := range rng.Perm(1000)[:16] {
		name := fmt.Sprintf("SBW3x2-%d", v+2)
		p := progSpec{name: name, src: wideSBSource(name, 3, 2, v+2), wideThreads: 3, wideLoads: 2}
		for _, mn := range randomModels {
			classes[2] = append(classes[2], serveKey{p, mustModel(mn)})
		}
	}
	type placed struct {
		pos float64
		key serveKey
	}
	var all []placed
	for _, c := range classes {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		for i, k := range c {
			all = append(all, placed{(float64(i) + 0.5) / float64(len(c)), k})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	out := make([]serveKey, len(all))
	for i, p := range all {
		out[i] = p.key
	}
	return out, nil
}

// serveRef is a key's request payload and checked reference body.
type serveRef struct {
	payload []byte
	body    []byte
	// wrong, when set, says why the engine's answer for this key fails
	// its independent reference; every response for the key then counts
	// as failed.
	wrong string
}

// serveReference builds the reference body of a key: serve.ComputeBody
// output whose behavior set equals an engine run that passed the
// independent checks (checkResult) against the key's reference. If the
// engine run fails them, the reference is marked wrong.
func serveReference(oc oracleCache, k serveKey, bp builtProg, base core.Options) (*serveRef, error) {
	req := serve.EnumRequest{Model: k.model.Name}
	if k.spec.registry != "" {
		req.Test = k.spec.registry
	} else {
		req.Litmus = k.spec.src
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	ref, err := referenceFor(oc, bp, k.model.Name)
	if err != nil {
		return nil, err
	}
	// The request options exactly as the server resolves them.
	opts := base
	opts.Speculative = k.model.Speculative
	opts.MaxBehaviors = 1 << 20
	ctx := context.Background()
	res, err := litmus.RunContext(ctx, bp.test, k.model, opts, 1)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", k.spec.name, k.model.Name, err)
	}
	wrong := ""
	if bad := checkResult(res, ref, k.model.Name); len(bad) > 0 {
		wrong = fmt.Sprintf("%s/%s: engine result fails its reference: %v", k.spec.name, k.model.Name, bad)
	}
	fp := core.ProgramFingerprint(k.model.Name, bp.test.Build(), opts)
	body, _, err := serve.ComputeBody(ctx, bp.test, k.model, opts, 1, fp)
	if err != nil {
		return nil, err
	}
	keys, err := bodySourceKeys(body)
	if err != nil {
		return nil, err
	}
	checked := map[string]bool{}
	for _, sk := range sourceKeys(res) {
		checked[sk] = true
	}
	if bad := compareSet(keys, checked); len(bad) > 0 {
		return nil, fmt.Errorf("%s/%s: ComputeBody set differs from the checked set: %v", k.spec.name, k.model.Name, bad)
	}
	return &serveRef{payload: payload, body: body, wrong: wrong}, nil
}

// serveInput is the seeded request schedule and the references of every
// key it touches.
type serveInput struct {
	schedule   []int // key index per request, in arrival order
	refs       map[int]*serveRef
	workingSet int64 // body bytes of the distinct keys requested
	maxBody    int   // the largest of those bodies
	parseUs    float64
}

func buildServeInput(seed int64, seconds float64, base core.Options) (*serveInput, error) {
	keys, err := serveKeys(seed)
	if err != nil {
		return nil, err
	}
	zrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(zrng, serveZipfS, 1, uint64(len(keys)-1))
	in := &serveInput{refs: map[int]*serveRef{}}
	n := int(seconds * serveRate)
	oc := oracleCache{}
	var parseNs int64
	parses := 0
	for i := 0; i < n; i++ {
		k := int(z.Uint64())
		in.schedule = append(in.schedule, k)
		if _, ok := in.refs[k]; ok {
			continue
		}
		built, pNs, pN, err := buildPrograms([]progSpec{keys[k].spec})
		if err != nil {
			return nil, err
		}
		parseNs, parses = parseNs+pNs, parses+pN
		ref, err := serveReference(oc, keys[k], built[0], base)
		if err != nil {
			return nil, err
		}
		in.refs[k] = ref
		in.workingSet += int64(len(ref.body))
		in.maxBody = max(in.maxBody, len(ref.body))
	}
	if parses > 0 {
		in.parseUs = float64(parseNs) / float64(parses) / 1e3
	}
	return in, nil
}

// startServer is the serve set-up the benchmark times: NewServer (journal
// replay of an empty journal) and Start.
func startServer(journal string, base core.Options) (*serve.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Config{
		Listen:      "127.0.0.1:0",
		CacheBytes:  serveCacheBytes,
		StorePath:   journal,
		MaxInflight: runtime.GOMAXPROCS(0),
		Opts:        base,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, 0, err
	}
	return srv, time.Since(t0), nil
}

// timeServeSetup times cold server set-ups: each of `samples` samples
// starts and closes servers until their set-up time adds up to at least
// setupSample and takes the mean; the result is the median sample. Close
// is not timed.
func timeServeSetup(workdir string, base core.Options, samples int) (float64, error) {
	var durs []float64
	for i := 0; i < samples; i++ {
		runtime.GC()
		var spent time.Duration
		n := 0
		for spent < setupSample {
			journal := filepath.Join(workdir, fmt.Sprintf("setup-%d-%d-%d.ndjson", os.Getpid(), i, n))
			srv, d, err := startServer(journal, base)
			if err != nil {
				return 0, err
			}
			spent += d
			n++
			cerr := srv.Close()
			os.Remove(journal)
			if cerr != nil {
				return 0, cerr
			}
		}
		durs = append(durs, spent.Seconds()/float64(n))
	}
	return median(durs), nil
}

// serveSegment is what one measured window of serve-zipf saw.
type serveSegment struct {
	verdictNs, reqNs, lateNs []int64
	okReq                    []bool
	missNs                   int64 // client-side service time of misses
	conns                    int
	attempted, failed, ok    int
	bad                      []string
	windowNs                 int64
	gcCycles, gcPause        float64
	peakHeapMB               float64
	status                   serve.Status
	metrics                  *telemetry.EnumMetrics
}

// runServeSegment starts a cold server and replays the schedule against
// it as an open loop. Each request is timed from when it was due.
//
// closed sends the schedule as a closed loop instead: every request is due
// at the start and each connection sends its next request as soon as the
// last one returns. That measures the configuration's capacity.
func runServeSegment(in *serveInput, workdir string, base core.Options, closed, traced bool, tr *telemetry.Tracer) (*serveSegment, error) {
	seg := &serveSegment{conns: runtime.GOMAXPROCS(0)}
	opts := base
	if traced {
		seg.metrics = telemetry.NewEnumMetrics(telemetry.NewRegistry())
		opts.Metrics = seg.metrics
	}
	journal := filepath.Join(workdir, fmt.Sprintf("serve-%d.ndjson", os.Getpid()))
	os.Remove(journal)
	defer os.Remove(journal)
	startAt := tr.Now()
	srv, _, err := startServer(journal, opts)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	tr.Span("serve.NewServer+Start", "serve", 0, startAt)
	conns := seg.conns
	transport := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	url := "http://" + srv.Addr() + serve.PathEnumerate

	n := len(in.schedule)
	type outcome struct {
		verdictNs, reqNs int64
		status           int
		cache            string
		bad              string
	}
	outs := make([]outcome, n)
	lateNs := make([]int64, n)
	due := make([]time.Time, n)
	// Sized to the whole schedule so the generator never blocks: a
	// backlog shows up as request latency, not as generator lateness.
	work := make(chan int, n)

	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	heap := startHeapSampler()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range work {
				k := in.schedule[i]
				ref := in.refs[k]
				tr.Span("loadgen.queue", "bench", lane, due[i])
				sent := time.Now()
				o := outcome{}
				resp, err := client.Post(url, "application/json", bytes.NewReader(ref.payload))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					o.status = resp.StatusCode
					o.cache = resp.Header.Get("X-Cache")
				}
				end := time.Now()
				tr.Span("serve.POST "+serve.PathEnumerate+" "+o.cache, "serve", lane, sent)
				o.verdictNs = end.Sub(sent).Nanoseconds()
				o.reqNs = end.Sub(due[i]).Nanoseconds()
				switch {
				case err != nil:
					o.bad = err.Error()
				case o.status != http.StatusOK:
					o.bad = fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(body))
				case ref.wrong != "":
					o.bad = ref.wrong
				default:
					if bad := checkBody(body, ref.body); len(bad) > 0 {
						o.bad = fmt.Sprintf("key %d: %s", k, bad[0])
					}
				}
				outs[i] = o
			}
		}(c)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due[i] = start
		if !closed {
			due[i] = start.Add(time.Duration(float64(i) * 1e9 / serveRate))
		}
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		lateNs[i] = time.Since(due[i]).Nanoseconds()
		work <- i
	}
	close(work)
	wg.Wait()
	seg.windowNs = time.Since(start).Nanoseconds()
	seg.peakHeapMB = heap.stopMB()
	runtime.ReadMemStats(&gc1)
	seg.gcCycles, seg.gcPause = gcDelta(&gc0, &gc1, 0)
	statusAt := tr.Now()
	seg.status = srv.StatusSnapshot()
	tr.Span("serve.StatusSnapshot", "serve", 0, statusAt)

	seg.lateNs = lateNs
	for i, o := range outs {
		seg.attempted++
		seg.verdictNs = append(seg.verdictNs, o.verdictNs)
		seg.reqNs = append(seg.reqNs, o.reqNs)
		seg.okReq = append(seg.okReq, o.bad == "")
		if o.cache == "miss" {
			seg.missNs += o.verdictNs
		}
		if o.bad != "" {
			seg.failed++
			if len(seg.bad) < 20 {
				seg.bad = append(seg.bad, fmt.Sprintf("request %d: %s", i, o.bad))
			}
			continue
		}
		seg.ok++
	}
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	return seg, nil
}

// serveSlice is the number of requests (two seconds of arrivals) in one
// slice of the end-to-end figures: the median over slices is reported,
// and each slice's p99 has 18 samples beyond it.
const serveSlice = 2 * serveRate

func (seg *serveSegment) endToEnd(r *report, setupS float64) {
	n := len(seg.reqNs)
	q := func(xs []int64, p float64) float64 {
		return sliceMedian(n, serveSlice, func(lo, hi int) float64 {
			return quantile(append([]int64(nil), xs[lo:hi]...), p) / 1e6
		})
	}
	r.set("setup_s", setupS, "s")
	// Verdicts per second of connection busy time (summed round trips
	// over the connections), so a slower server shows even while it
	// keeps up with the arrival rate.
	r.set("verdicts_per_s", sliceMedian(n, serveSlice, func(lo, hi int) float64 {
		var busyNs int64
		ok := 0
		for i := lo; i < hi; i++ {
			busyNs += seg.verdictNs[i]
			if seg.okReq[i] {
				ok++
			}
		}
		return float64(ok) / (float64(busyNs) / float64(seg.conns) / 1e9)
	}), "1/s")
	r.set("verdict_p50_ms", q(seg.verdictNs, 0.50), "ms")
	r.set("verdict_p99_ms", q(seg.verdictNs, 0.99), "ms")
	r.set("req_p50_ms", q(seg.reqNs, 0.50), "ms")
	r.set("req_p99_ms", q(seg.reqNs, 0.99), "ms")
	r.set("peak_heap_mb", seg.peakHeapMB, "MB")
	r.set("failed_ratio", float64(seg.failed)/float64(seg.attempted), "ratio")
}

// perLayer adds serve-zipf's per-layer metrics: engine counters from the
// traced segment's EnumMetrics, everything else from the untraced one.
func (seg *serveSegment) perLayer(r *report, base *serveSegment, parseUs float64) {
	m := seg.metrics
	v := func(c *telemetry.Counter) float64 { return float64(c.Value()) }
	missNs := float64(seg.missNs)
	r.set("core.enum_busy_s", missNs/1e9, "s")
	r.set("core.allocs_per_enum", 0, "count")
	r.set("core.alloc_bytes_per_enum", 0, "B")
	r.set("core.pool_hit_ratio", ratio(v(m.PoolHits), v(m.PoolHits)+v(m.PoolMisses)), "ratio")
	r.set("core.states", v(m.Explored), "count")
	r.set("core.forks", v(m.Forks), "count")
	r.set("core.children_elided", v(m.ChildrenElided), "count")
	r.set("core.trial_rollbacks", v(m.TrialRollbacks), "count")
	r.set("core.prefix_pruned", v(m.PrunePrefix), "count")
	r.set("core.symmetry_pruned", v(m.PruneSymmetry), "count")
	r.set("core.useful_ratio", ratio(v(m.Behaviors), v(m.Explored)), "ratio")
	gen, exe, res := v(m.GenerateNs), v(m.ExecuteNs), v(m.ResolveNs)
	r.set("core.phase_generate_share", ratio(gen, missNs), "ratio")
	r.set("core.phase_execute_share", ratio(exe, missNs), "ratio")
	r.set("core.phase_resolve_share", ratio(res, missNs), "ratio")
	r.set("core.unattributed_share", ratio(missNs-gen-exe-res, missNs), "ratio")
	r.set("core.frontier_peak_bytes", float64(m.FrontierResidentPeak.Value()), "B")
	r.set("core.frontier_demoted", v(m.FrontierDemoted), "count")
	r.set("core.steals", v(m.Steals), "count")
	r.set("graph.cow_rows_shared", v(m.CowRowsShared), "count")
	r.set("graph.cow_rows_copied", v(m.CowRowsCopied), "count")
	r.set("graph.cow_share_ratio", ratio(v(m.CowRowsShared), v(m.CowRowsShared)+v(m.CowRowsCopied)), "ratio")
	r.set("litmus.parse_us", parseUs, "us")
	st := base.status
	r.set("serve.hit_ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)), "ratio")
	r.set("serve.coalesced", float64(st.Cache.Coalesced), "count")
	r.set("serve.evictions", float64(st.Cache.Evictions), "count")
	r.set("serve.hit_p50_ms", st.HitLatency.P50Ns/1e6, "ms")
	r.set("serve.miss_p50_ms", st.MissLatency.P50Ns/1e6, "ms")
	r.set("serve.miss_p99_ms", st.MissLatency.P99Ns/1e6, "ms")
	dbRatio := 0.0
	if st.Journal != nil {
		dbRatio = ratio(float64(st.Journal.DBCalls), float64(st.Journal.LogicalWrites))
	}
	r.set("serve.journal_db_ratio", dbRatio, "ratio")
	r.set("serve.rejected", float64(st.Rejected), "count")
	r.set("loadgen.lateness_p99_ms", quantile(base.lateNs, 0.99)/1e6, "ms")
	r.set("runtime.gc_cycles", base.gcCycles, "count")
	r.set("runtime.gc_pause_ms", base.gcPause, "ms")
	r.set("telemetry.trace_overhead_ratio", ratio(quantile(seg.reqNs, 0.5)/1e6, quantile(base.reqNs, 0.5)/1e6), "ratio")
}

func (seg *serveSegment) summary() string {
	return fmt.Sprintf("%d requests, %d ok, %d failed; %s; hits %d misses %d coalesced %d evictions %d rejected %d",
		seg.attempted, seg.ok, seg.failed, describeCount("request samples", len(seg.reqNs)),
		seg.status.Cache.Hits, seg.status.Cache.Misses, seg.status.Cache.Coalesced, seg.status.Cache.Evictions, seg.status.Rejected)
}
