package ir

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses the textual IR format produced by WriteText (see
// text.go for the grammar) back into a Program. The parse is
// two-phase so direct calls may reference methods declared later in
// the file.
func ParseText(r io.Reader) (*Program, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return ParseString(sb.String())
}

// ParseString is ParseText over a string, split into lines by slicing
// rather than copying, so the names in the Program share src. Lines
// end at "\n", and one "\r" at the end of a line is dropped.
func ParseString(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, "\r")
	}
	return (&textParser{lines: lines}).parse()
}

type textMethod struct {
	header string
	line   int
	body   []string // with line numbers offset from line+1
	mb     *MethodBuilder
	vars   map[string]VarID
}

type textParser struct {
	lines []string
	b     *Builder

	fields  map[string]FieldID // "Owner::name" -> id
	methods map[string]*textMethod
	order   []*textMethod
}

func (tp *textParser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", line+1, fmt.Sprintf(format, args...))
}

func (tp *textParser) parse() (*Program, error) {
	tp.fields = map[string]FieldID{}
	tp.methods = map[string]*textMethod{}

	// Phase 1: declarations.
	i := 0
	for i < len(tp.lines) {
		line := strings.TrimSpace(tp.lines[i])
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			i++
		case strings.HasPrefix(line, "program "):
			if tp.b != nil {
				return nil, tp.errf(i, "duplicate program header")
			}
			tp.b = NewBuilder(strings.TrimSpace(strings.TrimPrefix(line, "program ")))
			i++
		case strings.HasPrefix(line, "interface ") || strings.HasPrefix(line, "class ") ||
			strings.HasPrefix(line, "abstract class "):
			if err := tp.parseType(i, line); err != nil {
				return nil, err
			}
			i++
		case strings.HasPrefix(line, "field "):
			if err := tp.parseField(i, line); err != nil {
				return nil, err
			}
			i++
		case strings.Contains(line, "method "):
			end, err := tp.parseMethodHeader(i, line)
			if err != nil {
				return nil, err
			}
			i = end
		default:
			return nil, tp.errf(i, "unexpected line %q", line)
		}
	}
	if tp.b == nil {
		return nil, fmt.Errorf("ir: missing program header")
	}

	// Phase 2: bodies.
	for _, m := range tp.order {
		if err := tp.parseBody(m); err != nil {
			return nil, err
		}
	}
	return tp.b.Finish()
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (tp *textParser) typeByName(line int, name string) (TypeID, error) {
	if tp.b == nil {
		return None, tp.errf(line, "declaration before program header")
	}
	t := tp.b.TypeByName(name)
	if t == None {
		return None, tp.errf(line, "unknown type %s", name)
	}
	return t, nil
}

func (tp *textParser) parseType(ln int, line string) error {
	if tp.b == nil {
		return tp.errf(ln, "declaration before program header")
	}
	abstract := false
	if strings.HasPrefix(line, "abstract ") {
		abstract = true
		line = strings.TrimPrefix(line, "abstract ")
	}
	if strings.HasPrefix(line, "interface ") {
		rest := strings.TrimPrefix(line, "interface ")
		name := rest
		var ifaces []TypeID
		if idx := strings.Index(rest, " extends "); idx >= 0 {
			name = strings.TrimSpace(rest[:idx])
			for _, in := range splitList(rest[idx+len(" extends "):]) {
				t, err := tp.typeByName(ln, in)
				if err != nil {
					return err
				}
				ifaces = append(ifaces, t)
			}
		}
		tp.b.AddInterface(strings.TrimSpace(name), ifaces)
		return nil
	}
	rest := strings.TrimPrefix(line, "class ")
	name := rest
	super := None
	var ifaces []TypeID
	if idx := strings.Index(rest, " implements "); idx >= 0 {
		for _, in := range splitList(rest[idx+len(" implements "):]) {
			t, err := tp.typeByName(ln, in)
			if err != nil {
				return err
			}
			ifaces = append(ifaces, t)
		}
		rest = rest[:idx]
		name = rest
	}
	if idx := strings.Index(rest, " extends "); idx >= 0 {
		name = strings.TrimSpace(rest[:idx])
		s, err := tp.typeByName(ln, strings.TrimSpace(rest[idx+len(" extends "):]))
		if err != nil {
			return err
		}
		super = int(s)
	}
	name = strings.TrimSpace(name)
	if name == "Object" {
		return nil // implicit root, created by the builder
	}
	if abstract {
		tp.b.AddAbstractClass(name, TypeID(super), ifaces)
	} else {
		tp.b.AddClass(name, TypeID(super), ifaces)
	}
	return nil
}

func (tp *textParser) parseField(ln int, line string) error {
	if tp.b == nil {
		return tp.errf(ln, "declaration before program header")
	}
	ref := strings.TrimSpace(strings.TrimPrefix(line, "field "))
	owner, name, ok := strings.Cut(ref, "::")
	if !ok {
		return tp.errf(ln, "malformed field reference %q", ref)
	}
	t, err := tp.typeByName(ln, owner)
	if err != nil {
		return err
	}
	if _, dup := tp.fields[ref]; dup {
		return tp.errf(ln, "duplicate field %s", ref)
	}
	tp.fields[ref] = tp.b.AddField(t, name)
	return nil
}

// parseMethodHeader parses "[entry] [static] method Owner.bare/arity
// sig S [returns] {" and collects body lines until "}". Returns the
// index after the closing brace.
func (tp *textParser) parseMethodHeader(ln int, line string) (int, error) {
	if tp.b == nil {
		return 0, tp.errf(ln, "declaration before program header")
	}
	entry := strings.HasPrefix(line, "entry ")
	line = strings.TrimPrefix(line, "entry ")
	static := strings.HasPrefix(line, "static ")
	line = strings.TrimPrefix(line, "static ")
	if !strings.HasPrefix(line, "method ") {
		return 0, tp.errf(ln, "expected 'method'")
	}
	line = strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "method ")), "{")
	fieldsOf := strings.Fields(line)
	if len(fieldsOf) < 3 || fieldsOf[1] != "sig" {
		return 0, tp.errf(ln, "malformed method header")
	}
	ref := fieldsOf[0]
	sig := fieldsOf[2]
	returns := len(fieldsOf) >= 4 && fieldsOf[3] == "returns"

	owner, bare, arity, err := tp.splitMethodRef(ln, ref)
	if err != nil {
		return 0, err
	}
	sigBase := sig
	if idx := strings.LastIndexByte(sig, '/'); idx >= 0 {
		sigBase = sig[:idx]
	}
	var mb *MethodBuilder
	if static {
		mb = tp.b.AddStaticMethod(owner, bare, arity, !returns)
	} else {
		mb = tp.b.AddMethod(owner, bare, sigBase, arity, !returns)
	}
	if entry {
		tp.b.AddEntry(mb.ID())
	}
	m := &textMethod{header: ref, line: ln, mb: mb, vars: map[string]VarID{}}
	if mb.This() != None {
		m.vars["this"] = mb.This()
	}
	for i := 0; i < arity; i++ {
		m.vars[fmt.Sprintf("p%d", i)] = mb.Formal(i)
	}
	if mb.Ret() != None {
		m.vars["ret"] = mb.Ret()
	}
	m.vars["exc"] = mb.Exc()
	if _, dup := tp.methods[ref]; dup {
		return 0, tp.errf(ln, "duplicate method %s", ref)
	}
	tp.methods[ref] = m
	tp.order = append(tp.order, m)

	// Collect the body.
	i := ln + 1
	for i < len(tp.lines) {
		l := strings.TrimSpace(tp.lines[i])
		if l == "}" {
			return i + 1, nil
		}
		m.body = append(m.body, tp.lines[i])
		i++
	}
	return 0, tp.errf(ln, "unterminated method body")
}

func (tp *textParser) splitMethodRef(ln int, ref string) (TypeID, string, int, error) {
	slash := strings.LastIndexByte(ref, '/')
	if slash < 0 {
		return None, "", 0, tp.errf(ln, "method reference %q lacks /arity", ref)
	}
	arity, err := strconv.Atoi(ref[slash+1:])
	if err != nil {
		return None, "", 0, tp.errf(ln, "bad arity in %q", ref)
	}
	dot := strings.IndexByte(ref[:slash], '.')
	if dot < 0 {
		return None, "", 0, tp.errf(ln, "method reference %q lacks owner", ref)
	}
	owner, err2 := tp.typeByName(ln, ref[:dot])
	if err2 != nil {
		return None, "", 0, err2
	}
	return owner, ref[dot+1 : slash], arity, nil
}

// parseBody parses the instruction lines of one method.
func (tp *textParser) parseBody(m *textMethod) error {
	for off, raw := range m.body {
		ln := m.line + 1 + off
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := tp.parseInsn(m, ln, line); err != nil {
			return err
		}
	}
	return nil
}

func (tp *textParser) varOf(m *textMethod, ln int, name string) (VarID, error) {
	if v, ok := m.vars[name]; ok {
		return v, nil
	}
	return None, tp.errf(ln, "unknown variable %q in %s", name, m.header)
}

func (tp *textParser) fieldOf(ln int, ref string) (FieldID, error) {
	if ref == "[]" {
		return tp.b.ArrayElemField(), nil
	}
	if f, ok := tp.fields[ref]; ok {
		return f, nil
	}
	return None, tp.errf(ln, "unknown field %q", ref)
}

// parseCallTail parses "NAME(arg, ...)" or "(arg, ...)" argument
// lists, returning the part before '(' and the arg variables.
func (tp *textParser) parseCallTail(m *textMethod, ln int, s string) (string, []VarID, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, tp.errf(ln, "malformed call %q", s)
	}
	head := strings.TrimSpace(s[:open])
	var args []VarID
	for _, a := range splitList(s[open+1 : len(s)-1]) {
		v, err := tp.varOf(m, ln, a)
		if err != nil {
			return "", nil, err
		}
		args = append(args, v)
	}
	return head, args, nil
}

func (tp *textParser) parseCall(m *textMethod, ln int, ret VarID, rhs string) error {
	switch {
	case strings.HasPrefix(rhs, "virtual "):
		rest := strings.TrimPrefix(rhs, "virtual ")
		head, args, err := tp.parseCallTail(m, ln, rest)
		if err != nil {
			return err
		}
		baseName, sig, ok := strings.Cut(head, ".")
		if !ok {
			return tp.errf(ln, "malformed virtual call %q", rhs)
		}
		base, err := tp.varOf(m, ln, baseName)
		if err != nil {
			return err
		}
		sigBase := sig
		if idx := strings.LastIndexByte(sig, '/'); idx >= 0 {
			sigBase = sig[:idx]
		}
		m.mb.VCall(ret, base, sigBase, args...)
		return nil

	case strings.HasPrefix(rhs, "direct "):
		rest := strings.TrimPrefix(rhs, "direct ")
		refPart, callPart, ok := strings.Cut(rest, " on ")
		if !ok {
			return tp.errf(ln, "malformed direct call %q", rhs)
		}
		target, okM := tp.methods[strings.TrimSpace(refPart)]
		if !okM {
			return tp.errf(ln, "unknown method %q", refPart)
		}
		head, args, err := tp.parseCallTail(m, ln, strings.TrimSpace(callPart))
		if err != nil {
			return err
		}
		base, err := tp.varOf(m, ln, strings.TrimSpace(head))
		if err != nil {
			return err
		}
		m.mb.Call(ret, target.mb.ID(), base, args...)
		return nil

	case strings.HasPrefix(rhs, "static-call "):
		rest := strings.TrimPrefix(rhs, "static-call ")
		refPart, args, err := tp.parseCallTail(m, ln, rest)
		if err != nil {
			return err
		}
		target, okM := tp.methods[strings.TrimSpace(refPart)]
		if !okM {
			return tp.errf(ln, "unknown method %q", refPart)
		}
		m.mb.Call(ret, target.mb.ID(), None, args...)
		return nil
	}
	return tp.errf(ln, "malformed call %q", rhs)
}

func (tp *textParser) parseInsn(m *textMethod, ln int, line string) error {
	switch {
	case strings.HasPrefix(line, "var "):
		name := strings.TrimSpace(strings.TrimPrefix(line, "var "))
		if _, dup := m.vars[name]; dup {
			return tp.errf(ln, "duplicate variable %q", name)
		}
		m.vars[name] = m.mb.NewVar(name, None)
		return nil

	case strings.HasPrefix(line, "throw "):
		v, err := tp.varOf(m, ln, strings.TrimSpace(strings.TrimPrefix(line, "throw ")))
		if err != nil {
			return err
		}
		m.mb.Throw(v)
		return nil

	case strings.HasPrefix(line, "catch ("):
		rest := strings.TrimPrefix(line, "catch (")
		typeName, varName, ok := strings.Cut(rest, ")")
		if !ok {
			return tp.errf(ln, "malformed catch %q", line)
		}
		t, err := tp.typeByName(ln, strings.TrimSpace(typeName))
		if err != nil {
			return err
		}
		name := strings.TrimSpace(varName)
		v, declared := m.vars[name]
		if !declared {
			v = m.mb.NewVar(name, t)
			m.vars[name] = v
		}
		m.mb.CatchVar(t, v)
		return nil

	case strings.HasPrefix(line, "virtual ") || strings.HasPrefix(line, "direct ") ||
		strings.HasPrefix(line, "static-call "):
		return tp.parseCall(m, ln, None, line)

	case strings.HasPrefix(line, "static "):
		// static REF = from
		rest := strings.TrimPrefix(line, "static ")
		ref, fromName, ok := strings.Cut(rest, "=")
		if !ok {
			return tp.errf(ln, "malformed static store %q", line)
		}
		f, err := tp.fieldOf(ln, strings.TrimSpace(ref))
		if err != nil {
			return err
		}
		from, err := tp.varOf(m, ln, strings.TrimSpace(fromName))
		if err != nil {
			return err
		}
		m.mb.SStore(f, from)
		return nil
	}

	lhs, rhs, ok := strings.Cut(line, " = ")
	if !ok {
		return tp.errf(ln, "unrecognized instruction %q", line)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)

	// Store: "base.REF = from".
	if baseName, ref, isStore := strings.Cut(lhs, "."); isStore {
		base, err := tp.varOf(m, ln, baseName)
		if err != nil {
			return err
		}
		f, err := tp.fieldOf(ln, ref)
		if err != nil {
			return err
		}
		from, err := tp.varOf(m, ln, rhs)
		if err != nil {
			return err
		}
		m.mb.Store(base, f, from)
		return nil
	}

	to, err := tp.varOf(m, ln, lhs)
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(rhs, "new "):
		rest := strings.TrimPrefix(rhs, "new ")
		typeName, labelPart, _ := strings.Cut(rest, "@")
		t, err := tp.typeByName(ln, strings.TrimSpace(typeName))
		if err != nil {
			return err
		}
		label := ""
		if lp := strings.TrimSpace(labelPart); lp != "" {
			label, err = strconv.Unquote(lp)
			if err != nil {
				return tp.errf(ln, "bad allocation label %q", lp)
			}
		}
		m.mb.Alloc(to, t, label)
		return nil

	case strings.HasPrefix(rhs, "("):
		// Cast: "(T) x".
		typeName, xName, ok := strings.Cut(strings.TrimPrefix(rhs, "("), ")")
		if !ok {
			return tp.errf(ln, "malformed cast %q", rhs)
		}
		t, err := tp.typeByName(ln, strings.TrimSpace(typeName))
		if err != nil {
			return err
		}
		x, err := tp.varOf(m, ln, strings.TrimSpace(xName))
		if err != nil {
			return err
		}
		m.mb.Cast(to, x, t)
		return nil

	case strings.HasPrefix(rhs, "static "):
		// SLoad: "to = static REF".
		f, err := tp.fieldOf(ln, strings.TrimSpace(strings.TrimPrefix(rhs, "static ")))
		if err != nil {
			return err
		}
		m.mb.SLoad(to, f)
		return nil

	case strings.HasPrefix(rhs, "virtual ") || strings.HasPrefix(rhs, "direct ") ||
		strings.HasPrefix(rhs, "static-call "):
		return tp.parseCall(m, ln, to, rhs)

	case strings.Contains(rhs, "."):
		// Load: "to = base.REF".
		baseName, ref, _ := strings.Cut(rhs, ".")
		base, err := tp.varOf(m, ln, baseName)
		if err != nil {
			return err
		}
		f, err := tp.fieldOf(ln, ref)
		if err != nil {
			return err
		}
		m.mb.Load(to, base, f)
		return nil

	default:
		// Move: "to = from".
		from, err := tp.varOf(m, ln, rhs)
		if err != nil {
			return err
		}
		m.mb.Move(to, from)
		return nil
	}
}
