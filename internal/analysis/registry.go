package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"introspect/internal/introspect"
	"introspect/internal/pta"
)

// Variants returns the introspective-variant suffixes a spec may
// carry ("IntroA" in "2objH-IntroA"), sorted.
func Variants() []string { return []string{"IntroA", "IntroB", "syntactic"} }

// baseSpecs is the curated set of base analysis configurations the
// project exposes by name: the paper's configurations plus the
// cut-shortcut family. ParseSpec accepts more (any depth up to its
// maximum), but these are the names services list, CLIs advertise, and
// the experiments use.
var baseSpecs = []string{
	"insens", "1call", "2callH", "1obj", "2objH", "2typeH", "2hybH", "cs",
}

// RegisteredSpecs returns the canonical spec names, sorted — the
// single source of truth behind `GET /v1/specs`, the CLI help texts,
// and registry diagnostics. Every name round-trips through
// pta.ParseSpec and resolves through NewPipeline.
func RegisteredSpecs() []string {
	out := append([]string(nil), baseSpecs...)
	sort.Strings(out)
	return out
}

// resolveJob interprets a Job into the parsed deep spec plus at most
// one of the heuristic of an introspective pipeline and the options of
// the syntactic baseline; both are nil for a single-pass analysis.
// This is the single place spec strings are interpreted — CLIs, the
// examples, and cmd/ptad never switch on them.
func resolveJob(job Job) (pta.Spec, *introspect.Heuristic, *introspect.SyntacticOptions, error) {
	if job.Taint != nil {
		if err := job.Taint.Validate(); err != nil {
			return pta.Spec{}, nil, nil, &InvalidTaintError{Err: err}
		}
	}
	spec := job.Spec
	var h *introspect.Heuristic
	syn := job.Syntactic
	base, suffix, hasVariant := strings.Cut(spec, "-")
	switch {
	case syn != nil:
		if job.Thresholds != nil {
			return pta.Spec{}, nil, nil, errors.New("analysis: Job.Thresholds and Job.Syntactic are mutually exclusive")
		}
	case hasVariant:
		switch suffix {
		case "IntroA":
			h = job.Thresholds.heuristicA()
		case "IntroB":
			h = job.Thresholds.heuristicB()
		case "syntactic":
			so := introspect.DefaultSyntactic()
			syn = &so
		default:
			return pta.Spec{}, nil, nil, fmt.Errorf("analysis: unknown introspective variant %q in spec %q (registered: %s)",
				suffix, spec, strings.Join(Variants(), ", "))
		}
		spec = base
	case job.Thresholds != nil:
		return pta.Spec{}, nil, nil, fmt.Errorf("analysis: Job.Thresholds requires an introspective spec, got %q", spec)
	}

	ps, err := pta.ParseSpec(spec)
	if err != nil {
		return pta.Spec{}, nil, nil, fmt.Errorf("%w (registered specs: %s)", err, strings.Join(RegisteredSpecs(), ", "))
	}
	if (h != nil || syn != nil) && (ps.Flavor == pta.Insensitive || ps.Flavor == pta.CutShortcut) {
		// Introspection refines the contexts of a deep analysis;
		// insensitive and cut-shortcut analyses have no contexts to
		// refine.
		return pta.Spec{}, nil, nil, fmt.Errorf("analysis: introspective deep analysis must be context-sensitive, got %q", spec)
	}
	return ps, h, syn, nil
}

// NewPipeline resolves a Request to a staged Pipeline: it parses the
// Job's spec, resolves any introspective variant, and assembles the
// stage list.
func NewPipeline(req *Request) (*Pipeline, error) {
	if (req.Prog == nil) == (req.Source == nil) {
		return nil, errors.New("analysis: exactly one of Request.Prog and Request.Source is required")
	}
	ps, h, syn, err := resolveJob(req.Job)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{req: req, Name: ps.String()}
	if req.Source != nil {
		p.stages = append(p.stages, frontendStage(req.Source))
	}
	if req.Job.Taint != nil {
		p.stages = append(p.stages, taintStage(req.Job.Taint))
	}
	switch {
	case h != nil:
		p.Name += "-" + h.Name
		p.stages = append(p.stages, prePassStage(), metricsStage(), selectionStage(h), mainPassIntrospective(ps, req.MainPass))
	case syn != nil:
		p.Name += "-syntactic"
		p.stages = append(p.stages, syntacticStage(*syn), mainPassIntrospective(ps, nil))
	default:
		p.stages = append(p.stages, mainPassPlain(ps))
	}
	p.stages = append(p.stages, reportStage())
	return p, nil
}
