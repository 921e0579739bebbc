package ir

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseText checks that the textual-IR parser never panics, and
// that anything it accepts is a valid program that survives a
// write/reparse round trip.
func FuzzParseText(f *testing.F) {
	var buf bytes.Buffer
	prog := buildTextProgram(&testing.T{})
	_ = prog.WriteText(&buf)
	seeds := []string{
		buf.String(),
		"program p\nclass A\nentry static method A.m/0 sig m/0 {\n  var v\n  v = new A @ \"x\"\n}\n",
		"program p\nclass A extends Object\nfield A::f\n",
		"program p\nclass A\nmethod A.m/1 sig m/1 returns {\n  ret = p0\n}\nentry static method A.go/0 sig go/0 {\n}\n",
		"program", "class A", "program p\nmethod", "}",
		// Line ends: CRLF, a lone CR, no final newline, blank lines, none.
		"program p\r\nclass A\r\nentry static method A.m/0 sig m/0 {\r\n  var v\r\n}\r\n",
		"program p\r\nclass A\r",
		"program p\nclass A",
		"\n\nprogram p\n\n\nclass A\n\n",
		"", "\n", "\r\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseText(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("parsed program fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := prog.WriteText(&out); err != nil {
			t.Fatalf("WriteText failed: %v", err)
		}
		back, err := ParseText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\ntext:\n%s", err, out.String())
		}
		if prog.Stats() != back.Stats() {
			t.Fatalf("round trip changed structure: %v vs %v", prog.Stats(), back.Stats())
		}
	})
}
