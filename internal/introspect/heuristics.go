package introspect

import (
	"fmt"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// Metric names one of the paper's six cost metrics (Section 3), the
// terms a heuristic's clauses compare with thresholds. The paper
// emphasizes that the metrics are simple and composable: "one can
// create parameterizable analyses: a knob for adjusting the
// precision/scalability tradeoff".
type Metric uint8

const (
	// InFlowMetric (1) applies to invocation sites.
	InFlowMetric Metric = iota
	// TotalVolumeMetric (2) applies to methods.
	TotalVolumeMetric
	// MaxVarPointsToMetric (2, variant) applies to methods.
	MaxVarPointsToMetric
	// MaxFieldPointsToMetric (3) applies to allocation sites.
	MaxFieldPointsToMetric
	// TotalFieldPointsToMetric (3, variant) applies to allocation sites.
	TotalFieldPointsToMetric
	// MaxVarFieldPointsToMetric (4) applies to methods.
	MaxVarFieldPointsToMetric
	// PointedByVarsMetric (5) applies to allocation sites.
	PointedByVarsMetric
	// PointedByObjsMetric (6) applies to allocation sites.
	PointedByObjsMetric
)

var metricNames = map[Metric]string{
	InFlowMetric: "in-flow", TotalVolumeMetric: "total-volume",
	MaxVarPointsToMetric: "max-var-points-to", MaxFieldPointsToMetric: "max-field-points-to",
	TotalFieldPointsToMetric: "total-field-points-to", MaxVarFieldPointsToMetric: "max-var-field-points-to",
	PointedByVarsMetric: "pointed-by-vars", PointedByObjsMetric: "pointed-by-objs",
}

func (m Metric) String() string { return metricNames[m] }

// domain classifies what program element a metric scores.
type domain uint8

const (
	invoDomain domain = iota
	methodDomain
	heapDomain
)

func (m Metric) domain() domain {
	switch m {
	case InFlowMetric:
		return invoDomain
	case TotalVolumeMetric, MaxVarPointsToMetric, MaxVarFieldPointsToMetric:
		return methodDomain
	default:
		return heapDomain
	}
}

// value reads the metric's score for element id.
func (m Metric) value(ms *Metrics, id int) int {
	switch m {
	case InFlowMetric:
		return ms.InFlow[id]
	case TotalVolumeMetric:
		return ms.TotalVolume[id]
	case MaxVarPointsToMetric:
		return ms.MaxVarPointsTo[id]
	case MaxFieldPointsToMetric:
		return ms.MaxFieldPointsTo[id]
	case TotalFieldPointsToMetric:
		return ms.TotalFieldPointsTo[id]
	case MaxVarFieldPointsToMetric:
		return ms.MaxVarFieldPointsTo[id]
	case PointedByVarsMetric:
		return ms.PointedByVars[id]
	case PointedByObjsMetric:
		return ms.PointedByObjs[id]
	}
	return 0
}

// Clause excludes program elements whose metric (or product of two
// metrics over the same element kind) exceeds a threshold. With
// HasSecond set, the clause scores Metric × Metric2, like Heuristic
// B's "total potential for weighing down the analysis".
type Clause struct {
	Metric    Metric
	Metric2   Metric // optional product term
	HasSecond bool
	Threshold int
}

// score evaluates the clause's metric (or metric product) on element
// id.
func (c Clause) score(ms *Metrics, id int) int {
	v := c.Metric.value(ms, id)
	if c.HasSecond {
		v *= c.Metric2.value(ms, id)
	}
	return v
}

// label is the clause's metric name for decision records and
// Prometheus labels: plain "*" for products, no spaces.
func (c Clause) label() string {
	if c.HasSecond {
		return fmt.Sprintf("%s*%s", c.Metric, c.Metric2)
	}
	return c.Metric.String()
}

// The paper's constants: K, L, M for Heuristic A, P, Q for Heuristic B.
const (
	DefaultK = 100
	DefaultL = 100
	DefaultM = 200
	DefaultP = 10000
	DefaultQ = 10000
)

// Heuristic selects the program elements to EXCLUDE from refinement
// (analyze context-insensitively in the second pass) from the metrics
// of the first pass. It is a disjunction of clauses: an element that
// exceeds any clause of its kind is excluded. HeuristicA and
// HeuristicB build the paper's two heuristics; their thresholds are
// the paper's scalability "dial".
type Heuristic struct {
	// Name identifies the heuristic for display and names the variant
	// of the analysis ("IntroA" in "2objH-IntroA").
	Name    string
	Clauses []Clause
}

// HeuristicA is the paper's scalability-first heuristic:
//
//	Refine all allocation sites except those with pointed-by-vars
//	(metric 5) > K. Refine all method call sites except those with
//	in-flow (metric 1) > L or whose invoked method has max var-field
//	points-to (metric 4) > M.
func HeuristicA(k, l, m int) *Heuristic {
	return &Heuristic{Name: "IntroA", Clauses: []Clause{
		{Metric: PointedByVarsMetric, Threshold: k},
		{Metric: InFlowMetric, Threshold: l},
		{Metric: MaxVarFieldPointsToMetric, Threshold: m},
	}}
}

// HeuristicB is the paper's precision-first heuristic:
//
//	Refine all method call sites except those that invoke methods with
//	a total points-to volume (metric 2) > P. Refine all object
//	allocations except those for which total field points-to ×
//	pointed-by-vars (metrics 3 × 5) > Q.
func HeuristicB(p, q int) *Heuristic {
	return &Heuristic{Name: "IntroB", Clauses: []Clause{
		{Metric: TotalVolumeMetric, Threshold: p},
		{Metric: TotalFieldPointsToMetric, Metric2: PointedByVarsMetric, HasSecond: true, Threshold: q},
	}}
}

// DefaultA returns Heuristic A with the paper's constants.
func DefaultA() *Heuristic { return HeuristicA(DefaultK, DefaultL, DefaultM) }

// DefaultB returns Heuristic B with the paper's constants.
func DefaultB() *Heuristic { return HeuristicB(DefaultP, DefaultQ) }

// Select computes the refinement-exclusion sets. With rec non-nil it
// also reports a Decision for every scored element whose metric value
// was observed (non-zero) or whose verdict is demote; zero-valued
// refines are vacuous (the first pass never saw the element) and would
// bloat the log without informing anyone. Every clause scans its whole
// domain in element-ID order, so the log is deterministic for a given
// first pass, and recording never changes the refinement.
func (h *Heuristic) Select(prog *ir.Program, m *Metrics, rec func(Decision)) *pta.Refinement {
	ref := &pta.Refinement{}
	for _, cl := range h.Clauses {
		dom := cl.Metric.domain()
		set, n := &ref.Heaps, prog.NumHeaps()
		switch dom {
		case invoDomain:
			set, n = &ref.Invos, prog.NumInvos()
		case methodDomain:
			set, n = &ref.Methods, prog.NumMethods()
		}
		for i := 0; i < n; i++ {
			v := cl.score(m, i)
			demote := v > cl.Threshold
			if demote {
				set.Add(int32(i))
			}
			if rec == nil || (v == 0 && !demote) {
				continue
			}
			verdict := VerdictRefine
			if demote {
				verdict = VerdictDemote
			}
			rec(Decision{
				Kind:      dom.String(),
				Site:      dom.site(prog, i),
				Metric:    cl.label(),
				Value:     v,
				Threshold: cl.Threshold,
				Verdict:   verdict,
			})
		}
	}
	return ref
}

// Selection reports what a heuristic chose, including the Figure-4
// statistics of the paper (percentage of call sites and objects *not*
// refined).
type Selection struct {
	Refinement *pta.Refinement
	Heuristic  string

	// TotalInvos / TotalHeaps are the reachable site counts the
	// percentages are relative to.
	TotalInvos, TotalHeaps int
	// ExcludedInvos counts call sites excluded from refinement (either
	// directly or because every resolved target method is excluded).
	ExcludedInvos int
	// ExcludedHeaps counts allocation sites excluded from refinement.
	ExcludedHeaps int

	// Decisions is the per-element refine/demote audit log, populated
	// only by an audited SelectWith; nil otherwise.
	Decisions []Decision
}

// PctCallSites returns the percentage of (reachable) call sites not
// refined — the "Call Sites" column of Figure 4.
func (s *Selection) PctCallSites() float64 {
	if s.TotalInvos == 0 {
		return 0
	}
	return 100 * float64(s.ExcludedInvos) / float64(s.TotalInvos)
}

// PctObjects returns the percentage of objects not refined — the
// "Objects" column of Figure 4.
func (s *Selection) PctObjects() float64 {
	if s.TotalHeaps == 0 {
		return 0
	}
	return 100 * float64(s.ExcludedHeaps) / float64(s.TotalHeaps)
}

func (s *Selection) String() string {
	return fmt.Sprintf("%s: call sites not refined %.1f%% (%d/%d), objects not refined %.1f%% (%d/%d)",
		s.Heuristic, s.PctCallSites(), s.ExcludedInvos, s.TotalInvos,
		s.PctObjects(), s.ExcludedHeaps, s.TotalHeaps)
}

// SelectWith runs h over a first-pass result and its metrics, and
// packages the refinement with its Figure-4 statistics; with audit set
// the Selection also carries the decision log. Only program elements
// observed by the first pass (reachable call sites with a call-graph
// edge, allocation sites in reachable methods) enter the denominators.
func SelectWith(res *pta.Result, m *Metrics, h *Heuristic, audit bool) *Selection {
	sel := &Selection{Heuristic: h.Name}
	var rec func(Decision)
	if audit {
		rec = func(d Decision) { sel.Decisions = append(sel.Decisions, d) }
	}
	ref := h.Select(res.Prog, m, rec)
	sel.Refinement = ref

	prog := res.Prog
	for mi := range prog.Methods {
		mm := &prog.Methods[mi]
		reach := res.MethodReachable(ir.MethodID(mi))
		if reach {
			for _, a := range mm.Allocs {
				sel.TotalHeaps++
				if ref.ExcludesHeap(a.Heap) {
					sel.ExcludedHeaps++
				}
			}
		}
		for ci := range mm.Calls {
			c := &mm.Calls[ci]
			targets := res.InvoTargets(c.Invo)
			if len(targets) == 0 {
				continue
			}
			sel.TotalInvos++
			excluded := true
			for _, t := range targets {
				if !ref.ExcludesCall(c.Invo, t) {
					excluded = false
					break
				}
			}
			if excluded {
				sel.ExcludedInvos++
			}
		}
	}
	return sel
}
