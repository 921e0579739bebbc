package analysis

import (
	"errors"
	"os"

	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/suite"
)

// Source is the frontend stage's input: exactly one of Bench, MJFile
// or IRFile must be set.
type Source struct {
	// Bench names a synthetic suite benchmark (suite.Names lists them).
	Bench string
	// MJFile is the path of a Mini-Java source file.
	MJFile string
	// IRFile is the path of a textual-IR (.ir) file.
	IRFile string
}

// Load resolves the source to a program. This is the frontend stage's
// implementation, exported so tools that need the program without
// running the pipeline (cmd/pta -emit and -dumpstats) share the exact
// same loading code.
func (s *Source) Load() (*ir.Program, error) {
	n := 0
	for _, v := range []string{s.Bench, s.MJFile, s.IRFile} {
		if v != "" {
			n++
		}
	}
	if n != 1 {
		return nil, errors.New("analysis: exactly one of Source.Bench, .MJFile, .IRFile is required")
	}
	switch {
	case s.Bench != "":
		return suite.Load(s.Bench)
	case s.MJFile != "":
		src, err := os.ReadFile(s.MJFile)
		if err != nil {
			return nil, err
		}
		return lang.Compile(s.MJFile, string(src))
	default:
		src, err := os.ReadFile(s.IRFile)
		if err != nil {
			return nil, err
		}
		return ir.ParseString(string(src))
	}
}
