package main

// Workload inputs. Every input is a pure function of the --seed argument:
// the randprog programs, the order of each pass and the zipf stream. The
// programs are kept as litmus source text (or registry tests), so building
// them is the system's own set-up work (litmus.Parse, Test.Build) and the
// serve workload can send the same text inline.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
)

// progSpec describes one program: a registry test, or litmus source with
// the generator parameters its reference is derived from.
type progSpec struct {
	name     string
	registry string // registry test name, XOR src
	src      string
	// wide is set for wide store-buffering programs: threads, loads per
	// thread. Their Relaxed reference is every source assignment.
	wideThreads, wideLoads int
	// random marks a straight-line randprog program (oracle-checkable).
	random bool
}

// job is one enumeration: a program under a model with engine options.
type job struct {
	name  string
	prog  int // index into the workload's program list
	model litmus.Model
	// frontierBytes, when non-zero, overrides the engine's resident
	// frontier budget (the 1 MB budget of the deep SB4W entry).
	frontierBytes int64
	// repeat is how many times a pass runs the job (default once).
	repeat int
}

// builtProg is a program after set-up: the parsed test and one built
// program shared by every enumeration of it (the engine never mutates
// its input program).
type builtProg struct {
	spec progSpec
	test *litmus.Test
	prog *program.Program
}

func mustModel(name string) litmus.Model {
	m, ok := litmus.ModelByName(name)
	if !ok {
		panic("unknown model " + name)
	}
	return m
}

// addrName spells an address the way the litmus format reads it.
func addrName(a program.Addr) string {
	names := [...]string{"x", "y", "z", "w", "u", "v"}
	if int(a) >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("m%d", a)
}

// wideSBSource renders an n-thread store-buffering program: thread i
// stores val to its own location and loads the next `loads` locations.
// SB4W is wideSBSource(4, 3, 1); every load has exactly two possible
// sources (the initial value and the one store to its address).
func wideSBSource(name string, threads, loads int, val int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", name)
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "thread T%d\n  S%d: S %s, %d\n", i, i, addrName(program.Addr(i)), val)
		for k := 1; k <= loads; k++ {
			fmt.Fprintf(&b, "  L%d_%d: r%d = L %s\n", i, k, k, addrName(program.Addr((i+k)%threads)))
		}
	}
	return b.String()
}

// wideSBRelaxed is the closed-form Relaxed behavior set of wideSBSource:
// all 2^(threads*loads) assignments of each load to the initial value or
// the single store to its address, as SourceKey strings.
func wideSBRelaxed(threads, loads int) map[string]bool {
	type ld struct{ label, init, store string }
	var lds []ld
	for i := 0; i < threads; i++ {
		for k := 1; k <= loads; k++ {
			a := (i + k) % threads
			lds = append(lds, ld{fmt.Sprintf("L%d_%d", i, k), fmt.Sprintf("init:%d", a), fmt.Sprintf("S%d", a)})
		}
	}
	sort.Slice(lds, func(i, j int) bool { return lds[i].label < lds[j].label })
	out := make(map[string]bool, 1<<len(lds))
	parts := make([]string, len(lds))
	for mask := 0; mask < 1<<len(lds); mask++ {
		for i, l := range lds {
			src := l.init
			if mask&(1<<i) != 0 {
				src = l.store
			}
			parts[i] = l.label + "<-" + src
		}
		out[strings.Join(parts, ";")] = true
	}
	return out
}

// randomSource renders a straight-line randprog program (full fences
// only) in the litmus format.
func randomSource(name string, p *program.Program) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", name)
	for _, t := range p.Threads {
		fmt.Fprintf(&b, "thread %s\n", t.Name)
		for _, in := range t.Instrs {
			pre := ""
			if in.Label != "" {
				pre = in.Label + ": "
			}
			switch {
			case in.Kind == program.KindStore && !in.UseAddrReg && !in.UseValReg:
				fmt.Fprintf(&b, "  %sS %s, %d\n", pre, addrName(in.AddrConst), in.ValConst)
			case in.Kind == program.KindLoad && !in.UseAddrReg:
				fmt.Fprintf(&b, "  %sr%d = L %s\n", pre, in.Dest, addrName(in.AddrConst))
			case in.Kind == program.KindFence && in.FenceMask == 0:
				fmt.Fprintf(&b, "  %sfence\n", pre)
			case in.Kind == program.KindAtomic && in.Atomic == program.AtomicAdd && !in.UseAddrReg && !in.UseValReg:
				fmt.Fprintf(&b, "  %sr%d = fadd %s, %d\n", pre, in.Dest, addrName(in.AddrConst), in.ValConst)
			default:
				return "", fmt.Errorf("randomSource: cannot render %q", in.String())
			}
		}
	}
	return b.String(), nil
}

// randomPrograms draws the seeded randprog programs: n of each shape
// (2 threads × 4 ops and 3 threads × 3 ops, full fences only). Their
// enumeration cost is heavy-tailed (a few 3×3 programs take 10-30 ms
// where the median takes 0.2 ms), so a plain random draw of a few dozen
// programs costs a different amount on every seed. Instead:
//   - only programs with searchSize <= maxSearchSize are drawn: the
//     small-enumeration class these workloads are about (about 1 ms or
//     less per model); bigger searches are deep-search's subject;
//   - each shape is a quantile-matched sample: of poolFactor*n seeded
//     candidates sorted by searchSize, take the n at evenly spaced ranks.
//
// Every seed then sees the same spread of program sizes, though not the
// same programs.
func randomPrograms(seed int64, n int) ([]progSpec, error) {
	const poolFactor = 40
	const maxSearchSize = 4.0
	rng := rand.New(rand.NewSource(seed))
	var out []progSpec
	for _, shape := range [][2]int{{2, 4}, {3, 3}} {
		type cand struct {
			cfg  randprog.Config
			p    *program.Program
			size float64
		}
		var pool []cand
		for len(pool) < poolFactor*n {
			cfg := randprog.Config{Threads: shape[0], Ops: shape[1], FullFencesOnly: true, Seed: rng.Int63()}
			p := randprog.Generate(cfg)
			if size := searchSize(p); size <= maxSearchSize {
				pool = append(pool, cand{cfg, p, size})
			}
		}
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].size < pool[j].size })
		for i := 0; i < n; i++ {
			c := pool[(2*i+1)*len(pool)/(2*n)]
			name := fmt.Sprintf("R%dx%d-%d", shape[0], shape[1], c.cfg.Seed%1000000)
			src, err := randomSource(name, c.p)
			if err != nil {
				return nil, err
			}
			// The rendered text must parse back to the generated program.
			t, err := litmus.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("parse rendered program: %w\n%s", err, src)
			}
			if core.ProgramHash(t.Build()) != core.ProgramHash(c.p) || t.Build().String() != c.p.String() {
				return nil, fmt.Errorf("rendered program does not round-trip:\n%s", src)
			}
			out = append(out, progSpec{name: name, src: src, random: true})
		}
	}
	return out, nil
}

// searchSize is a structural size of a straight-line program: the log of
// the number of ways to give every reading instruction a source (the
// initial value or any store to its address).
func searchSize(p *program.Program) float64 {
	stores := map[program.Addr]int{}
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Kind == program.KindStore || in.Kind == program.KindAtomic {
				stores[in.AddrConst]++
			}
		}
	}
	s := 0.0
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Kind == program.KindLoad || in.Kind == program.KindAtomic {
				s += math.Log(float64(1 + stores[in.AddrConst]))
			}
		}
	}
	return s
}

// randomModels are the models the randprog programs run under: the three
// with exhaustive oracles, plus Relaxed.
var randomModels = []string{"SC", "TSO", "PSO", "Relaxed"}

// corpusSweep is the corpus-sweep input: every registry test under every
// model, plus the seeded randprog programs under randomModels.
func corpusSweep(seed int64) ([]progSpec, []job, error) {
	var progs []progSpec
	var jobs []job
	for _, t := range litmus.Registry() {
		progs = append(progs, progSpec{name: t.Name, registry: t.Name})
		for _, m := range litmus.Models() {
			jobs = append(jobs, job{name: t.Name + "/" + m.Name, prog: len(progs) - 1, model: m})
		}
	}
	rp, err := randomPrograms(seed, 24)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range rp {
		progs = append(progs, p)
		for _, mn := range randomModels {
			jobs = append(jobs, job{name: p.name + "/" + mn, prog: len(progs) - 1, model: mustModel(mn)})
		}
	}
	return progs, jobs, nil
}

// deepSearch is the deep-search (and deep-search-par) job list: SB4W
// under Relaxed twice (the default resident-frontier budget and the 1 MB
// budget that forces demotion), SB4W under SC, and SB3W under SC, TSO,
// PSO and Relaxed. The list is fixed; the seed only orders each pass.
// The millisecond jobs repeat within a pass so their times rest on enough
// samples; the two 1.5 s SB4W/Relaxed runs still take ~90% of a pass.
func deepSearch() ([]progSpec, []job) {
	progs := []progSpec{
		{name: "SB4W", src: wideSBSource("SB4W", 4, 3, 1), wideThreads: 4, wideLoads: 3},
		{name: "SB3W", src: wideSBSource("SB3W", 3, 2, 1), wideThreads: 3, wideLoads: 2},
	}
	jobs := []job{
		{name: "SB4W/Relaxed", prog: 0, model: mustModel("Relaxed")},
		{name: "SB4W/Relaxed/frontier-1m", prog: 0, model: mustModel("Relaxed"), frontierBytes: 1 << 20},
		{name: "SB4W/SC", prog: 0, model: mustModel("SC"), repeat: 3},
	}
	for _, mn := range []string{"SC", "TSO", "PSO", "Relaxed"} {
		jobs = append(jobs, job{name: "SB3W/" + mn, prog: 1, model: mustModel(mn), repeat: 25})
	}
	return progs, jobs
}

// buildPrograms is the timed set-up of an engine workload: resolve or
// parse every program and build it once. It also returns the time spent
// in litmus.Parse and the number of parses.
func buildPrograms(specs []progSpec) ([]builtProg, int64, int, error) {
	out := make([]builtProg, len(specs))
	var parseNs int64
	parses := 0
	for i, s := range specs {
		var t *litmus.Test
		if s.registry != "" {
			var ok bool
			if t, ok = litmus.ByName(s.registry); !ok {
				return nil, 0, 0, fmt.Errorf("unknown registry test %q", s.registry)
			}
		} else {
			t0 := time.Now()
			var err error
			t, err = litmus.Parse(s.src)
			parseNs += time.Since(t0).Nanoseconds()
			parses++
			if err != nil {
				return nil, 0, 0, fmt.Errorf("parse %s: %w", s.name, err)
			}
		}
		out[i] = builtProg{spec: s, test: t, prog: t.Build()}
	}
	return out, parseNs, parses, nil
}
