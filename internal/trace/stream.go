package trace

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Stream returns a Source that replays p's event stream straight from
// the emulator: each Replay runs the program again, producing events as
// the emulation advances instead of materializing an []Event slice.
// Use it when a trace is consumed once (memory stays flat regardless of
// run length); use Collect when the same trace is replayed across a
// predictor sweep.
func Stream(p *prog.Program, limit uint64) Source { return &streamSource{p: p, limit: limit} }

type streamSource struct {
	p     *prog.Program
	limit uint64
}

// Replay implements Source.
func (s *streamSource) Replay() Reader { return newEmuReader(s.p, s.limit) }

// emuReader derives the event stream incrementally from a live emulator.
type emuReader struct {
	p     *prog.Program
	m     *emu.Machine
	limit uint64
	err   error
	done  bool

	// guards classifies which compares feed branch guards.
	guards Guards

	lastDef [isa.NumPRegs]uint64
	counts  Counts
}

func newEmuReader(p *prog.Program, limit uint64) *emuReader {
	r := &emuReader{p: p, limit: limit, guards: ClassifyGuards(p)}
	r.m, r.err = emu.New(p)
	return r
}

// Next implements Reader: it steps the emulator until the next
// event-producing instruction (compare or conditional branch) or the end
// of the run.
func (r *emuReader) Next(ev *Event) bool {
	if r.err != nil || r.done {
		return false
	}
	for !r.m.Halted {
		if r.limit > 0 && r.m.Steps >= r.limit {
			r.err = fmt.Errorf("trace: %w (%d steps in %s)", emu.ErrLimit, r.m.Steps, r.p.Name)
			return false
		}
		step := r.m.Steps // dynamic number of the instruction about to run
		si, err := r.m.Step()
		if err != nil {
			r.err = fmt.Errorf("trace: %w", err)
			return false
		}
		in := si.Inst
		emitted := false
		switch {
		case in.Op == isa.OpCmp:
			feeds, feedsRegion := r.guards.Feeds(in)
			*ev = Event{
				Kind:              KindPredDef,
				Step:              step,
				PC:                uint64(si.Index),
				Executed:          si.GuardTrue,
				Value:             si.CmpValue,
				FeedsBranch:       feeds,
				FeedsRegionBranch: feedsRegion,
			}
			r.counts.PredDefs++
			emitted = true
		case (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0,
			in.Op == isa.OpCloop:
			*ev = Event{
				Kind:              KindBranch,
				Step:              step,
				PC:                uint64(si.Index),
				Taken:             si.Taken,
				Guard:             in.QP,
				GuardVal:          si.GuardTrue,
				GuardDist:         step - r.lastDef[in.QP],
				Region:            in.Region,
				GuardImpliesTaken: in.Op != isa.OpCloop,
			}
			r.counts.Branches++
			if in.Region {
				r.counts.RegionBranches++
			}
			emitted = true
		}
		for _, w := range si.PredWrites {
			r.lastDef[w.P] = step
		}
		if emitted {
			return true
		}
	}
	r.done = true
	r.counts.Insts = r.m.Steps
	r.counts.Nullified = r.m.Nullified
	return false
}

// Err implements Reader.
func (r *emuReader) Err() error { return r.err }

// Counts implements Reader; totals are complete once Next returned false
// with a nil Err.
func (r *emuReader) Counts() Counts {
	if !r.done && r.err == nil && r.m != nil {
		r.counts.Insts = r.m.Steps
		r.counts.Nullified = r.m.Nullified
	}
	return r.counts
}

var (
	_ Source = (*streamSource)(nil)
	_ Reader = (*emuReader)(nil)
)
