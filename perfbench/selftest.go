package main

// The checker's self-test: each check must accept the engine's real answer
// and reject a corrupted copy of it. It runs at the start of every
// benchmark run (a checker that accepts wrong answers makes every number
// after it meaningless) and from `go test`.

import (
	"context"
	"fmt"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
)

// corrupt returns a shallow copy of res with its executions replaced.
func corrupt(res *core.Result, execs []*core.Execution) *core.Result {
	c := *res
	c.Executions = execs
	return &c
}

func without(execs []*core.Execution, i int) []*core.Execution {
	out := append([]*core.Execution(nil), execs[:i]...)
	return append(out, execs[i+1:]...)
}

func selfTest(base core.Options) error {
	ctx := context.Background()
	run := func(bp builtProg, model string) (*core.Result, error) {
		m := mustModel(model)
		opts := base
		opts.Speculative = m.Speculative
		return core.Enumerate(ctx, bp.prog, m.Policy, opts)
	}
	// expectOK and expectBad wrap one check: the real answer must pass,
	// the corrupted one must fail.
	var failures []string
	expectOK := func(what string, bad []string) {
		if len(bad) > 0 {
			failures = append(failures, fmt.Sprintf("%s: real answer rejected: %v", what, bad))
		}
	}
	expectBad := func(what string, bad []string) {
		if len(bad) == 0 {
			failures = append(failures, what+": corrupted answer accepted")
		}
	}
	oc := oracleCache{}

	// Exact sets: SB3W under SC against the SC oracle, under Relaxed
	// against the closed form.
	specs, _ := deepSearch()
	built, _, _, err := buildPrograms(specs[1:2])
	if err != nil {
		return err
	}
	sb3w := built[0]
	sc, err := run(sb3w, "SC")
	if err != nil {
		return err
	}
	relaxed, err := run(sb3w, "Relaxed")
	if err != nil {
		return err
	}
	scRef, err := referenceFor(oc, sb3w, "SC")
	if err != nil {
		return err
	}
	relRef, err := referenceFor(oc, sb3w, "Relaxed")
	if err != nil {
		return err
	}
	expectOK("SC oracle", checkResult(sc, scRef, "SC"))
	expectBad("SC oracle, one execution dropped", checkResult(corrupt(sc, without(sc.Executions, 0)), scRef, "SC"))
	scKeys := map[string]bool{}
	for _, e := range sc.Executions {
		scKeys[e.SourceKey()] = true
	}
	var nonSC *core.Execution
	for _, e := range relaxed.Executions {
		if !scKeys[e.SourceKey()] {
			nonSC = e
			break
		}
	}
	if nonSC == nil {
		return fmt.Errorf("self-test: SB3W Relaxed has no non-SC behavior")
	}
	expectBad("SC oracle, one forbidden behavior added", checkResult(corrupt(sc, append(append([]*core.Execution(nil), sc.Executions...), nonSC)), scRef, "SC"))
	expectOK("Relaxed closed form", checkResult(relaxed, relRef, "Relaxed"))
	expectBad("Relaxed closed form, one execution dropped", checkResult(corrupt(relaxed, without(relaxed.Executions, len(relaxed.Executions)-1)), relRef, "Relaxed"))
	expectBad("Relaxed closed form, one execution duplicated", checkResult(corrupt(relaxed, append(without(relaxed.Executions, 0), relaxed.Executions[1])), relRef, "Relaxed"))

	// Lower bound: a randprog program under Relaxed must keep every PSO
	// oracle behavior.
	rp, err := randomPrograms(7, 1)
	if err != nil {
		return err
	}
	built, _, _, err = buildPrograms(rp[:1])
	if err != nil {
		return err
	}
	rpRes, err := run(built[0], "Relaxed")
	if err != nil {
		return err
	}
	rpRef, err := referenceFor(oc, built[0], "Relaxed")
	if err != nil {
		return err
	}
	expectOK("PSO lower bound", checkResult(rpRes, rpRef, "Relaxed"))
	dropped := false
	for i, e := range rpRes.Executions {
		if !dropped && rpRef.lower[e.SourceKey()] {
			expectBad("PSO lower bound, one execution dropped", checkResult(corrupt(rpRes, without(rpRes.Executions, i)), rpRef, "Relaxed"))
			dropped = true
		}
	}
	if !dropped {
		return fmt.Errorf("self-test: PSO oracle shares no behavior with the Relaxed run")
	}

	// Litmus expectations: add an execution with an outcome the test
	// forbids under SC (taken from the Relaxed run of the same test).
	added := false
	for _, t := range litmus.Registry() {
		for _, ex := range t.Expect {
			if ex.Model != "SC" || len(ex.Forbidden) == 0 || added {
				continue
			}
			built, _, _, err := buildPrograms([]progSpec{{name: t.Name, registry: t.Name}})
			if err != nil {
				return err
			}
			tsc, err1 := run(built[0], "SC")
			trel, err2 := run(built[0], "Relaxed")
			if err1 != nil || err2 != nil {
				continue
			}
			bad := trel.FindOutcome(map[string]program.Value(ex.Forbidden[0]))
			if bad == nil {
				continue
			}
			ref, err := referenceFor(oc, built[0], "SC")
			if err != nil {
				return err
			}
			expectOK("litmus expectations "+t.Name, checkResult(tsc, ref, "SC"))
			expectBad("litmus expectations "+t.Name+", forbidden outcome added", checkResult(corrupt(tsc, append(append([]*core.Execution(nil), tsc.Executions...), bad)), ref, "SC"))
			added = true
		}
	}
	if !added {
		return fmt.Errorf("self-test: no registry test exercises a forbidden SC outcome")
	}

	// Serialization witness: Figure10's TSO bypass execution is not
	// serializable, so a witness check must reject it.
	built, _, _, err = buildPrograms([]progSpec{{name: "Figure10", registry: "Figure10"}})
	if err != nil {
		return err
	}
	f10, err := run(built[0], "TSO")
	if err != nil {
		return err
	}
	expectBad("serialization witness, TSO bypass execution", checkResult(f10, &reference{witness: true}, "TSO"))

	// Registry oracles: Figure10 under TSO must equal the TSO oracle set.
	// NaiveTSO lies between the SC and TSO oracle sets, so a dropped
	// execution must fail, as must a behavior beyond TSO (taken from the
	// Relaxed run of the same test).
	f10Ref, err := referenceFor(oc, built[0], "TSO")
	if err != nil {
		return err
	}
	expectOK("registry TSO oracle", checkResult(f10, f10Ref, "TSO"))
	expectBad("registry TSO oracle, one execution dropped", checkResult(corrupt(f10, without(f10.Executions, 0)), f10Ref, "TSO"))
	naive, err := run(built[0], "NaiveTSO")
	if err != nil {
		return err
	}
	f10Rel, err := run(built[0], "Relaxed")
	if err != nil {
		return err
	}
	naiveRef, err := referenceFor(oc, built[0], "NaiveTSO")
	if err != nil {
		return err
	}
	expectOK("NaiveTSO bounds", checkResult(naive, naiveRef, "NaiveTSO"))
	expectBad("NaiveTSO lower bound, one execution dropped", checkResult(corrupt(naive, without(naive.Executions, 0)), naiveRef, "NaiveTSO"))
	var beyondTSO *core.Execution
	for _, e := range f10Rel.Executions {
		if !f10Ref.exact[e.SourceKey()] {
			beyondTSO = e
			break
		}
	}
	if beyondTSO == nil {
		return fmt.Errorf("self-test: Figure10 Relaxed has no behavior beyond TSO")
	}
	expectBad("NaiveTSO upper bound, a behavior beyond TSO added", checkResult(corrupt(naive, append(append([]*core.Execution(nil), naive.Executions...), beyondTSO)), naiveRef, "NaiveTSO"))

	// Repeats: a later result must equal the first checked one, in set
	// (alone, as for the parallel engine) and, with the exact-count gate
	// of the sequential engine, in Stats counts.
	chk := newJobChecker([]*reference{relRef}, false)
	expectOK("repeat, first run", chk.check(0, "Relaxed", relaxed))
	expectOK("repeat, identical run", chk.check(0, "Relaxed", relaxed))
	expectBad("repeat, one execution dropped", chk.check(0, "Relaxed", corrupt(relaxed, without(relaxed.Executions, 3))))
	gate := newJobChecker([]*reference{relRef}, true)
	expectOK("exact-count gate, first run", gate.check(0, "Relaxed", relaxed))
	drift := corrupt(relaxed, relaxed.Executions)
	drift.Stats.Forks++
	expectBad("exact-count gate, forks differ", gate.check(0, "Relaxed", drift))

	// Serve bodies: byte-identical to the reference body.
	ref, err := serveReference(oc, serveKey{sb3w.spec, mustModel("Relaxed")}, sb3w, base)
	if err != nil {
		return err
	}
	if ref.wrong != "" {
		expectOK("serve reference", []string{ref.wrong})
	}
	body := append([]byte(nil), ref.body...)
	expectOK("serve body", checkBody(body, ref.body))
	body[len(body)/2] ^= 1
	expectBad("serve body, one byte flipped", checkBody(body, ref.body))
	keys, err := bodySourceKeys(ref.body)
	if err != nil {
		return err
	}
	expectOK("serve body set", compareSet(keys, relRef.exact))
	expectBad("serve body set, one execution dropped", compareSet(keys[1:], relRef.exact))

	if len(failures) > 0 {
		return fmt.Errorf("checker self-test failed: %v", failures)
	}
	return nil
}
