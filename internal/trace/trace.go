// Package trace captures branch and predicate-define event streams from
// emulated program runs. Trace-driven simulation over these events is how
// the predictor experiments run (fast, repeatable), mirroring the paper's
// trace-driven methodology; the cycle-level model in internal/pipeline
// provides the timing view.
package trace

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Kind distinguishes event types.
type Kind uint8

// Event kinds.
const (
	// KindBranch is a conditional branch: a guarded br/brl or a cloop.
	// Unconditional (p0-guarded) branches are not direction-prediction
	// events and are not recorded.
	KindBranch Kind = iota
	// KindPredDef is a compare instruction (the predicate defines the
	// predicate global update mechanism feeds on).
	KindPredDef
)

// Event is one dynamic branch or predicate-define occurrence.
type Event struct {
	Kind Kind
	Step uint64 // dynamic instruction number at which the event fetched
	PC   uint64 // static instruction index

	// Branch fields.
	Taken    bool
	Guard    isa.PReg
	GuardVal bool
	// GuardDist is the number of dynamic instructions since the guard
	// predicate was last written. The squash false path filter can act on
	// a branch only if this distance covers the predicate resolve latency.
	GuardDist uint64
	// Region marks region-based branches (branches the if-converter left
	// inside predicated regions).
	Region bool
	// GuardImpliesTaken is true for br/brl (taken iff guard true) and
	// false for cloop (a true guard still tests its counter).
	GuardImpliesTaken bool

	// Predicate-define fields.
	Executed          bool // the compare's own guard was true
	Value             bool // evaluated condition (meaningful when Executed)
	FeedsBranch       bool // statically feeds some branch guard
	FeedsRegionBranch bool // statically feeds some region-based branch guard
}

// Trace is an ordered event stream plus run-level counts.
type Trace struct {
	Name           string
	Events         []Event
	Insts          uint64 // total dynamic instructions
	Nullified      uint64 // dynamic instructions nullified by a false guard
	Branches       uint64 // conditional branch events
	RegionBranches uint64
	PredDefs       uint64
}

// collectChunk is the size, in events, of Collect's staging buffers.
const collectChunk = 1 << 13

// Collect runs the program to completion and records its event stream.
// It materializes the same stream Stream produces, for traces that are
// replayed many times across a predictor sweep.
//
// Events are staged in fixed-size chunks, then copied once into
// a slice of exactly the stream's length. Appending to one growing
// slice instead copies every event several times over and allocates
// several times the stream's size.
func Collect(p *prog.Program, limit uint64) (*Trace, error) {
	r := newEmuReader(p, limit)
	var chunks []*[collectChunk]Event
	n := collectChunk // events in the last chunk
	for {
		if n == collectChunk {
			chunks = append(chunks, new([collectChunk]Event))
			n = 0
		}
		if !r.Next(&chunks[len(chunks)-1][n]) {
			break
		}
		n++
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	tr := &Trace{Name: p.Name}
	if total := (len(chunks)-1)*collectChunk + n; total > 0 {
		tr.Events = make([]Event, 0, total)
		for _, c := range chunks[:len(chunks)-1] {
			tr.Events = append(tr.Events, c[:]...)
		}
		tr.Events = append(tr.Events, chunks[len(chunks)-1][:n]...)
	}
	c := r.Counts()
	tr.Insts = c.Insts
	tr.Nullified = c.Nullified
	tr.Branches = c.Branches
	tr.RegionBranches = c.RegionBranches
	tr.PredDefs = c.PredDefs
	return tr, nil
}

// Guards is a program's static guard classification: which predicate
// registers guard conditional branches, and which guard region-based
// branches. A compare feeds a branch when one of its destinations is
// such a guard. Predicate register reuse makes this
// conservative-approximate, as a hardware or compiler-table
// implementation would be. The trace's FeedsBranch/FeedsRegionBranch
// fields and the timing model's PGU selection both come from it.
type Guards struct{ branch, region uint64 }

// ClassifyGuards scans p for guarded branches.
func ClassifyGuards(p *prog.Program) Guards {
	var g Guards
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() && in.QP != isa.P0 {
			g.branch |= 1 << in.QP
			if in.Region {
				g.region |= 1 << in.QP
			}
		}
	}
	return g
}

// Feeds reports whether a compare writing in's destination predicates
// feeds some branch guard, and some region-based branch guard.
func (g Guards) Feeds(in *isa.Inst) (branch, region bool) {
	mask := uint64(1)<<in.PD1 | uint64(1)<<in.PD2
	return g.branch&mask != 0, g.region&mask != 0
}
