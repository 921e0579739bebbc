package taint

import (
	"introspect/internal/ir"
)

// The taint kernel is a small fixed program with *known* source→sink
// flows, grafted onto arbitrary subjects with WithKernel. It
// is the ground truth of the Figure 9 experiment: every dynamic flow in
// it is decidable by inspection, so a policy's report set splits
// cleanly into true and false positives. Its four sink calls are
// designed to separate the policy spectrum:
//
//   - hot wrapper:     tainted — every sound policy must report it.
//   - cold wrapper:    clean, but its wrapper shares tput/tget with the
//     hot one, so a context-insensitive analysis conflates the two
//     receivers' fields and reports it (FP under insens; 2objH keeps
//     the receivers apart).
//   - factory pair:    one tainted (reported by all — TP), one clean
//     but allocated at the SAME site inside a static factory: one
//     abstract object under every policy here (object-sensitive heap
//     contexts collapse too, because a static factory inherits its
//     caller's context), so the clean one is an FP across the board —
//     the residual imprecision a call-site-sensitive heap would fix.
//   - sanitized:       tainted data routed through the sanitizer —
//     clean under every policy (the cleansing cast is policy-free).
type GroundTruth struct {
	// Tainted are the invocation-site names of sink calls that truly
	// receive tainted data (must-report).
	Tainted []string
	// Clean are the sink calls that never receive tainted data at
	// runtime (a report is a false positive).
	Clean []string
	// Sanitized is the subset of Clean whose cleanliness is owed to the
	// sanitizer rather than to data flow.
	Sanitized []string
}

// KernelSpec returns the taint spec matching the kernel's API, with
// fully-qualified patterns so merging the kernel into a subject never
// accidentally matches subject methods.
func KernelSpec() *Spec {
	return &Spec{
		Sources:    []string{"TaintApi.fetch"},
		Sinks:      []string{"TaintApi.publish"},
		Sanitizers: []string{"TaintApi.scrub"},
	}
}

// Kernel builds the standalone kernel program and its ground truth.
func Kernel() (*ir.Program, *GroundTruth) {
	b := ir.NewBuilder("taintkernel")
	truth := addKernel(b)
	prog := b.MustFinish()
	return prog, truth(prog)
}

// WithKernel grafts the kernel onto base: the result, named
// base.Name+"+taint", keeps every base id and runs both programs'
// entry points, the kernel's invocation-site names (and so the ground
// truth) are preserved verbatim, and KernelSpec matches only kernel
// methods. base itself is not changed. This is how the Figure 9 fleet
// turns each suite benchmark into a taint subject whose report set has
// decidable truth.
func WithKernel(base *ir.Program) (*ir.Program, *GroundTruth, error) {
	b := base.Extend()
	truth := addKernel(b)
	prog, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	prog.Name = base.Name + "+taint"
	return prog, truth(prog), nil
}

// addKernel adds the kernel's classes, methods and entry point to b.
// The returned function reads the ground truth off the finished
// program, where the sink calls' invocation sites have their names.
func addKernel(b *ir.Builder) func(*ir.Program) *GroundTruth {
	data := b.AddClass("TaintData", ir.None, nil)

	wrap := b.AddClass("TaintWrap", ir.None, nil)
	fw := b.AddField(wrap, "w")
	tput := b.AddMethod(wrap, "tput", "tput", 1, true)
	tput.Store(tput.This(), fw, tput.Formal(0))
	tget := b.AddMethod(wrap, "tget", "tget", 0, false)
	tget.Load(tget.Ret(), tget.This(), fw)

	api := b.AddClass("TaintApi", ir.None, nil)
	fetch := b.AddStaticMethod(api, "fetch", 0, false)
	fetch.Alloc(fetch.Ret(), data, "")
	publish := b.AddStaticMethod(api, "publish", 1, true)
	scrub := b.AddStaticMethod(api, "scrub", 1, false)
	scrub.Move(scrub.Ret(), scrub.Formal(0))
	factory := b.AddStaticMethod(api, "make", 0, false)
	factory.Alloc(factory.Ret(), wrap, "")

	main := b.AddStaticMethod(api, "tmain", 0, true)
	v := func(name string) ir.VarID { return main.NewVar(name, ir.None) }

	t := v("t")
	main.Call(t, fetch.ID(), ir.None)
	c := v("c")
	main.Alloc(c, data, "")

	// Hot/cold wrappers: distinct allocation sites sharing tput/tget.
	hot, cold := v("hot"), v("cold")
	main.Alloc(hot, wrap, "")
	main.Alloc(cold, wrap, "")
	main.VCall(ir.None, hot, "tput", t)
	main.VCall(ir.None, cold, "tput", c)
	a := v("a")
	main.VCall(a, hot, "tget")
	sinkHot := main.Call(ir.None, publish.ID(), ir.None, a)
	d := v("d")
	main.VCall(d, cold, "tget")
	sinkCold := main.Call(ir.None, publish.ID(), ir.None, d)

	// Sanitized flow: tainted data cleansed before the sink.
	e, s := v("e"), v("s")
	main.VCall(e, hot, "tget")
	main.Call(s, scrub.ID(), ir.None, e)
	sinkSan := main.Call(ir.None, publish.ID(), ir.None, s)

	// Factory pair: both wrappers come from the same allocation site.
	mh, mc := v("mh"), v("mc")
	main.Call(mh, factory.ID(), ir.None)
	main.Call(mc, factory.ID(), ir.None)
	main.VCall(ir.None, mh, "tput", t)
	main.VCall(ir.None, mc, "tput", c)
	f := v("f")
	main.VCall(f, mh, "tget")
	sinkFacHot := main.Call(ir.None, publish.ID(), ir.None, f)
	g := v("g")
	main.VCall(g, mc, "tget")
	sinkFacCold := main.Call(ir.None, publish.ID(), ir.None, g)

	b.AddEntry(main.ID())
	return func(prog *ir.Program) *GroundTruth {
		return &GroundTruth{
			Tainted:   []string{prog.InvoName(sinkHot), prog.InvoName(sinkFacHot)},
			Clean:     []string{prog.InvoName(sinkCold), prog.InvoName(sinkSan), prog.InvoName(sinkFacCold)},
			Sanitized: []string{prog.InvoName(sinkSan)},
		}
	}
}
