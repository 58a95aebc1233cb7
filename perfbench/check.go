package main

// Output checking. Every reference here comes from outside the engine
// under test: the litmus expectations, the exhaustive SC/TSO/PSO
// interleaving oracles of internal/randprog (exact sets, or bounds for the
// models they do not implement), the closed-form Relaxed set of the wide
// store-buffering programs, and serial.Witness/serial.Check for every SC
// and Relaxed execution. A job's first result is
// checked against its reference in full; every later result of the same
// job must repeat that checked result exactly (same SourceKey set and, on
// the sequential engine, the same Stats counts).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
	"storeatomicity/internal/serial"
)

// reference is what one (program, model) result must satisfy.
type reference struct {
	// exact, when non-nil, is the exact SourceKey set.
	exact map[string]bool
	// lower, when non-nil, must be contained in the result, and the
	// result in upper (see oracleBounds).
	lower, upper map[string]bool
	// expect, when non-nil, supplies litmus.CheckResult expectations.
	expect *litmus.Test
	// witness asks for a serial.Witness, accepted by serial.Check, for
	// every execution: SC, Relaxed and Relaxed+spec. TSO and PSO let a
	// load read its own thread's buffered store early, so their
	// executions are legitimately not always serializable.
	witness bool
}

// oracleCache memoizes oracle sets per (program, model).
type oracleCache map[string]map[string]bool

func (c oracleCache) get(name string, p *program.Program, model string) (map[string]bool, error) {
	key := name + "/" + model
	if s, ok := c[key]; ok {
		return s, nil
	}
	var s map[string]bool
	var err error
	switch model {
	case "SC":
		s, err = randprog.OracleSC(p)
	case "TSO":
		s, err = randprog.OracleTSO(p)
	case "PSO":
		s, err = randprog.OraclePSO(p)
	default:
		return nil, fmt.Errorf("no oracle for model %s", model)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", key, err)
	}
	c[key] = s
	return s, nil
}

// referenceFor derives the reference of one job without running the
// engine under test.
func referenceFor(oc oracleCache, bp builtProg, model string) (*reference, error) {
	ref := &reference{witness: model == "SC" || model == "Relaxed" || model == "Relaxed+spec"}
	s := bp.spec
	switch {
	case s.registry != "":
		// The oracles refuse registry tests with branches or register
		// addresses (and PSO refuses partial membars); those keep the
		// expectations alone, or a weaker oracle's bound.
		ref.expect = bp.test
		if err := oracleBounds(ref, oc, s.name, bp.prog, model, false); err != nil {
			return nil, err
		}
	case s.wideThreads > 0 && model == "Relaxed":
		ref.exact = wideSBRelaxed(s.wideThreads, s.wideLoads)
	case s.random || s.wideThreads > 0:
		if err := oracleBounds(ref, oc, s.name, bp.prog, model, true); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%s/%s: no reference", s.name, model)
	}
	return ref, nil
}

// oracleBounds sets the oracle part of a reference. SC, TSO and PSO are
// exact sets. The other models are bounded by the oracle models they sit
// between: NaiveTSO permits store→load reordering (every SC behavior)
// but not TSO's own-store bypass (no behavior beyond TSO); Relaxed and
// Relaxed+spec only drop orderings PSO keeps (every PSO behavior). Where
// an oracle refuses the program, the next weaker bound is used: PSO and
// Relaxed fall back to containing every TSO behavior. With required set,
// a refusal is an error (the generated programs are all oracle-checkable).
func oracleBounds(ref *reference, oc oracleCache, name string, p *program.Program, model string, required bool) error {
	get := func(m string) (map[string]bool, error) {
		s, err := oc.get(name, p, m)
		if err != nil && !required {
			return nil, nil
		}
		return s, err
	}
	var err error
	switch model {
	case "SC", "TSO", "PSO":
		if ref.exact, err = get(model); err != nil || ref.exact != nil || model != "PSO" {
			return err
		}
		ref.lower, err = get("TSO")
	case "NaiveTSO":
		if ref.lower, err = get("SC"); err != nil {
			return err
		}
		ref.upper, err = get("TSO")
	case "Relaxed", "Relaxed+spec":
		if ref.lower, err = get("PSO"); err != nil || ref.lower != nil {
			return err
		}
		ref.lower, err = get("TSO")
	default:
		err = fmt.Errorf("%s: no oracle bound for model %s", name, model)
	}
	return err
}

// sourceKeys returns the result's SourceKeys, sorted.
func sourceKeys(res *core.Result) []string {
	keys := make([]string, len(res.Executions))
	for i, e := range res.Executions {
		keys[i] = e.SourceKey()
	}
	sort.Strings(keys)
	return keys
}

// compareSet reports the differences between a sorted key list and an
// exact reference set, including duplicate executions.
func compareSet(keys []string, want map[string]bool) []string {
	var bad []string
	got := make(map[string]bool, len(keys))
	for _, k := range keys {
		if got[k] {
			bad = append(bad, "duplicate execution "+k)
		}
		got[k] = true
		if !want[k] {
			bad = append(bad, "behavior not in reference: "+k)
		}
	}
	for k := range want {
		if !got[k] {
			bad = append(bad, "reference behavior missing: "+k)
		}
	}
	return bad
}

// checkResult checks one result against its reference; empty = pass.
func checkResult(res *core.Result, ref *reference, model string) []string {
	if res == nil {
		return []string{"no result"}
	}
	if res.Incomplete != nil {
		return []string{"incomplete: " + string(res.Incomplete.Reason)}
	}
	var bad []string
	keys := sourceKeys(res)
	if ref.expect != nil {
		bad = append(bad, litmus.CheckResult(ref.expect, model, res)...)
	}
	if ref.exact != nil {
		bad = append(bad, compareSet(keys, ref.exact)...)
	}
	if ref.lower != nil {
		got := make(map[string]bool, len(keys))
		for _, k := range keys {
			got[k] = true
		}
		for k := range ref.lower {
			if !got[k] {
				bad = append(bad, "lower-bound behavior missing: "+k)
			}
		}
	}
	if ref.upper != nil {
		for _, k := range keys {
			if !ref.upper[k] {
				bad = append(bad, "behavior above the upper bound: "+k)
			}
		}
	}
	if ref.witness {
		for _, e := range res.Executions {
			order, err := serial.Witness(e)
			if err == nil {
				err = serial.Check(e, order)
			}
			if err != nil {
				bad = append(bad, fmt.Sprintf("execution %s has no checked serialization: %v", e.SourceKey(), err))
			}
		}
	}
	if len(bad) > 8 {
		bad = append(bad[:8], fmt.Sprintf("... and %d more", len(bad)-8))
	}
	return bad
}

// digest identifies a result's behavior set: its size and an FNV-1a hash
// over the sorted SourceKeys.
type digest struct {
	n    int
	hash uint64
}

func digestOf(keys []string) digest {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return digest{n: len(keys), hash: h.Sum64()}
}

// counts are the Stats fields the exact-count gate compares across
// repeated sequential runs of one job.
type counts struct {
	behaviors, states, forks, elided, rollbacks int
}

func countsOf(res *core.Result) counts {
	return counts{len(res.Executions), res.Stats.StatesExplored, res.Stats.Forks, res.Stats.ChildrenElided, res.Stats.TrialRollbacks}
}

// jobChecker holds, per job, the reference and the first checked result.
type jobChecker struct {
	refs    []*reference
	checked []bool
	digests []digest
	counts  []counts
	// exactCounts enables the exact-count gate (sequential engine only).
	exactCounts bool
}

func newJobChecker(refs []*reference, exactCounts bool) *jobChecker {
	return &jobChecker{
		refs:        refs,
		checked:     make([]bool, len(refs)),
		digests:     make([]digest, len(refs)),
		counts:      make([]counts, len(refs)),
		exactCounts: exactCounts,
	}
}

// check verifies one result of job i; empty = pass.
func (c *jobChecker) check(i int, model string, res *core.Result) []string {
	if res == nil || res.Incomplete != nil {
		return checkResult(res, c.refs[i], model)
	}
	keys := sourceKeys(res)
	d := digestOf(keys)
	if !c.checked[i] {
		if bad := checkResult(res, c.refs[i], model); len(bad) > 0 {
			return bad
		}
		c.checked[i], c.digests[i], c.counts[i] = true, d, countsOf(res)
		return nil
	}
	var bad []string
	if d != c.digests[i] {
		bad = append(bad, fmt.Sprintf("behavior set differs from the checked run: %d behaviors (hash %016x), checked run had %d (hash %016x)", d.n, d.hash, c.digests[i].n, c.digests[i].hash))
	}
	if got := countsOf(res); c.exactCounts && got != c.counts[i] {
		bad = append(bad, fmt.Sprintf("nondeterministic Stats: %+v, first run %+v", got, c.counts[i]))
	}
	return bad
}

// bodySourceKeys extracts the SourceKeys of a serve response body
// ("sourceKey => outcomeKey" execution lines), sorted.
func bodySourceKeys(body []byte) ([]string, error) {
	var resp struct {
		Behaviors  int      `json:"behaviors"`
		Executions []string `json:"executions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	keys := make([]string, 0, len(resp.Executions))
	for _, line := range resp.Executions {
		sk, _, ok := strings.Cut(line, " => ")
		if !ok {
			return nil, fmt.Errorf("malformed execution line %q", line)
		}
		keys = append(keys, sk)
	}
	if resp.Behaviors != len(keys) {
		return nil, fmt.Errorf("body claims %d behaviors but lists %d", resp.Behaviors, len(keys))
	}
	sort.Strings(keys)
	return keys, nil
}

// checkBody verifies a 200 response body byte for byte against the
// checked reference body of its key.
func checkBody(got, want []byte) []string {
	if bytes.Equal(got, want) {
		return nil
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	return []string{fmt.Sprintf("body differs from the reference at byte %d (got %d bytes, want %d)", at, len(got), len(want))}
}
