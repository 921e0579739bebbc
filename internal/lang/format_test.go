package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders a parsed file back to Mini-Java source. The output
// re-parses to a structurally identical AST (Format∘Parse is a
// fixpoint). It is built only into the package's tests, where it is
// the parser's round-trip oracle (TestFormatReparseFixpoint,
// FuzzParse); the external lang_test files reach it as lang.Format.
func Format(f *File) string {
	p := &printer{}
	for i, it := range f.Interfaces {
		if i > 0 {
			p.nl()
		}
		p.iface(it)
	}
	if len(f.Interfaces) > 0 && len(f.Classes) > 0 {
		p.nl()
	}
	for i, c := range f.Classes {
		if i > 0 {
			p.nl()
		}
		p.class(c)
	}
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) nl() { p.sb.WriteByte('\n') }

func (p *printer) line(format string, args ...any) {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
	fmt.Fprintf(&p.sb, format, args...)
	p.nl()
}

func typeStr(t TypeExpr) string {
	return t.Name + strings.Repeat("[]", t.Dims)
}

func paramsStr(ps []Param) string {
	out := make([]string, len(ps))
	for i, pr := range ps {
		out[i] = typeStr(pr.Type) + " " + pr.Name
	}
	return strings.Join(out, ", ")
}

func (p *printer) iface(it *InterfaceDecl) {
	hdr := "interface " + it.Name
	if len(it.Extends) > 0 {
		hdr += " extends " + strings.Join(it.Extends, ", ")
	}
	p.line("%s {", hdr)
	p.indent++
	for _, m := range it.Methods {
		p.line("%s %s(%s);", typeStr(m.Ret), m.Name, paramsStr(m.Params))
	}
	p.indent--
	p.line("}")
}

func (p *printer) class(c *ClassDecl) {
	hdr := "class " + c.Name
	if c.Extends != "" {
		hdr += " extends " + c.Extends
	}
	if len(c.Implements) > 0 {
		hdr += " implements " + strings.Join(c.Implements, ", ")
	}
	p.line("%s {", hdr)
	p.indent++
	for _, f := range c.Fields {
		mod := ""
		if f.Static {
			mod = "static "
		}
		p.line("%s%s %s;", mod, typeStr(f.Type), f.Name)
	}
	for _, m := range c.Ctors {
		p.line("%s(%s) {", m.Name, paramsStr(m.Params))
		p.body(m.Body)
		p.line("}")
	}
	for _, m := range c.Methods {
		mod := ""
		if m.Static {
			mod = "static "
		}
		p.line("%s%s %s(%s) {", mod, typeStr(m.Ret), m.Name, paramsStr(m.Params))
		p.body(m.Body)
		p.line("}")
	}
	p.indent--
	p.line("}")
}

func (p *printer) body(ss []Stmt) {
	p.indent++
	for _, s := range ss {
		p.stmt(s)
	}
	p.indent--
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *VarDeclStmt:
		if s.Init != nil {
			p.line("%s %s = %s;", typeStr(s.Type), s.Name, exprStr(s.Init))
		} else {
			p.line("%s %s;", typeStr(s.Type), s.Name)
		}
	case *AssignStmt:
		p.line("%s = %s;", exprStr(s.LHS), exprStr(s.RHS))
	case *IfStmt:
		p.line("if (%s) {", exprStr(s.Cond))
		p.body(s.Then)
		if s.Else != nil {
			p.line("} else {")
			p.body(s.Else)
		}
		p.line("}")
	case *WhileStmt:
		p.line("while (%s) {", exprStr(s.Cond))
		p.body(s.Body)
		p.line("}")
	case *ReturnStmt:
		if s.Expr != nil {
			p.line("return %s;", exprStr(s.Expr))
		} else {
			p.line("return;")
		}
	case *ExprStmt:
		p.line("%s;", exprStr(s.Expr))
	case *PrintStmt:
		p.line("print(%s);", exprStr(s.Expr))
	case *ThrowStmt:
		p.line("throw %s;", exprStr(s.Expr))
	case *ForStmt:
		init, post := "", ""
		if s.Init != nil {
			init = clauseStr(s.Init)
		}
		cond := ""
		if s.Cond != nil {
			cond = exprStr(s.Cond)
		}
		if s.Post != nil {
			post = clauseStr(s.Post)
		}
		p.line("for (%s; %s; %s) {", init, cond, post)
		p.body(s.Body)
		p.line("}")
	case *TryStmt:
		p.line("try {")
		p.body(s.Body)
		p.line("} catch (%s %s) {", typeStr(s.CatchType), s.CatchName)
		p.body(s.Handler)
		p.line("}")
	default:
		panic(fmt.Sprintf("lang: cannot format %T", s))
	}
}

// clauseStr renders a for-loop init/post clause without a semicolon.
func clauseStr(s Stmt) string {
	switch s := s.(type) {
	case *VarDeclStmt:
		if s.Init != nil {
			return fmt.Sprintf("%s %s = %s", typeStr(s.Type), s.Name, exprStr(s.Init))
		}
		return fmt.Sprintf("%s %s", typeStr(s.Type), s.Name)
	case *AssignStmt:
		return exprStr(s.LHS) + " = " + exprStr(s.RHS)
	case *ExprStmt:
		return exprStr(s.Expr)
	}
	return ""
}

var opText = map[Kind]string{
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!=",
	ANDAND: "&&", OROR: "||", NOT: "!",
}

// exprStr renders an expression fully parenthesized where precedence
// could matter, so the output re-parses to the same tree.
func exprStr(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return strconv.FormatInt(e.Value, 10)
	case *BoolLit:
		if e.Value {
			return "true"
		}
		return "false"
	case *StringLit:
		return "\"" + e.Value + "\""
	case *NullLit:
		return "null"
	case *ThisExpr:
		return "this"
	case *Ident:
		return e.Name
	case *FieldAccess:
		return exprStr(e.Recv) + "." + e.Name
	case *IndexExpr:
		return exprStr(e.Arr) + "[" + exprStr(e.Idx) + "]"
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprStr(a)
		}
		call := e.Name + "(" + strings.Join(args, ", ") + ")"
		if e.Recv != nil {
			return exprStr(e.Recv) + "." + call
		}
		return call
	case *NewExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprStr(a)
		}
		return "new " + e.Name + "(" + strings.Join(args, ", ") + ")"
	case *NewArrayExpr:
		return "new " + e.Elem.Name + "[" + exprStr(e.Len) + "]"
	case *CastExpr:
		return "((" + typeStr(e.Type) + ") " + exprStr(e.Expr) + ")"
	case *UnaryExpr:
		return "(" + opText[e.Op] + exprStr(e.X) + ")"
	case *BinaryExpr:
		return "(" + exprStr(e.X) + " " + opText[e.Op] + " " + exprStr(e.Y) + ")"
	case *InstanceofExpr:
		return "(" + exprStr(e.X) + " instanceof " + typeStr(e.Type) + ")"
	case *SuperCallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprStr(a)
		}
		return "super." + e.Name + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("lang: cannot format %T", e))
}
