package ir

import "fmt"

// Stats summarizes a program's size.
type Stats struct {
	Types, Methods, Vars, Heaps, Fields, Invos int
	Allocs, Moves, Loads, Stores, Calls, Casts int
}

// Stats computes size statistics for the program.
func (p *Program) Stats() Stats {
	s := Stats{
		Types: len(p.Types), Methods: len(p.Methods), Vars: len(p.Vars),
		Heaps: len(p.Heaps), Fields: len(p.Fields), Invos: len(p.Invos),
	}
	for i := range p.Methods {
		m := &p.Methods[i]
		s.Allocs += len(m.Allocs)
		s.Moves += len(m.Moves)
		s.Loads += len(m.Loads) + len(m.SLoads)
		s.Stores += len(m.Stores) + len(m.SStores)
		s.Calls += len(m.Calls)
		s.Casts += len(m.Casts)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("types=%d methods=%d vars=%d heaps=%d fields=%d invos=%d insns=%d",
		s.Types, s.Methods, s.Vars, s.Heaps, s.Fields, s.Invos,
		s.Allocs+s.Moves+s.Loads+s.Stores+s.Calls+s.Casts)
}
