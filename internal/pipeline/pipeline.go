// Package pipeline implements an in-order timing model for P64 with a
// configurable issue width, a parameterised branch-misprediction
// penalty, operand scoreboarding, nullified-slot costs for predicated
// instructions, and a fetch-stage integration of the paper's mechanisms:
// the squash false path filter consults a predicate scoreboard fed by
// in-flight defines, and the predicate global update mechanism inserts
// define outcomes into the predictor's global history as they resolve.
//
// The model is deliberately first-order: it charges one issue slot per
// fetched instruction (nullified or not), data-dependence stalls from a
// latency table, and a flat flush penalty per direction misprediction.
// Branch targets are assumed perfectly predicted (direction-only study,
// as in the paper).
//
// Functional execution does not depend on timing, so RunMany emulates a
// program once and times it on several machine configurations in
// lockstep; Run is RunMany of one.
package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Config parameterises one timing run.
type Config struct {
	// Predictor supplies branch directions; it is Reset before the run.
	Predictor bpred.Predictor

	// UseSFPF enables the squash false path filter at fetch.
	UseSFPF bool
	// FilterTrue extends the filter to known-true guards on branches whose
	// guard implies taken.
	FilterTrue bool
	// TrainFiltered lets filtered branches train the predictor.
	TrainFiltered bool

	// PGU selects which resolved predicate defines update global history.
	PGU core.PGUPolicy

	// MispredictPenalty is the flush cost in cycles. Default 10.
	MispredictPenalty uint64
	// PredResolveLatency is the number of cycles after a define issues
	// before its value is visible to the fetch-stage filter and to the
	// history update. Default 5.
	PredResolveLatency uint64
	// IssueWidth is the number of instructions issued per cycle. Default 1.
	// Wider machines amortise nullified slots (cheapening predication)
	// while misprediction penalties stay flat — the axis the paper's
	// trade-off moves along. A taken branch ends its issue group.
	IssueWidth int

	// RASDepth sizes the return-address stack predicting indirect-branch
	// (brr) targets: calls push their return point, indirect branches pop
	// a predicted target, and a wrong target costs MispredictPenalty.
	// Depth 0 makes every executed indirect branch pay the penalty.
	// Default 8. Direct branch targets are assumed decode-resolved
	// (direction-only study, as in the paper).
	RASDepth int
	// NoRAS forces RASDepth 0 (the zero value of RASDepth means
	// "default", so disabling needs an explicit flag).
	NoRAS bool
}

// DefaultConfig returns the machine configuration used by the experiments,
// with the given predictor.
func DefaultConfig(p bpred.Predictor) Config {
	return Config{
		Predictor:          p,
		MispredictPenalty:  10,
		PredResolveLatency: 5,
	}
}

func (c Config) withDefaults() Config {
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 10
	}
	if c.PredResolveLatency == 0 {
		c.PredResolveLatency = 5
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	if c.RASDepth <= 0 {
		c.RASDepth = 8
	}
	if c.NoRAS {
		c.RASDepth = 0
	}
	return c
}

// Stats reports the outcome of a timing run.
type Stats struct {
	Cycles    uint64
	Insts     uint64 // fetched instructions (including nullified)
	Nullified uint64
	Stalls    uint64 // cycles lost to operand dependences

	Branches          uint64 // conditional branches
	Mispredicts       uint64
	RegionBranches    uint64
	RegionMispredicts uint64

	Filtered     uint64
	FilteredTrue uint64
	FilterErrors uint64
	InsertedBits uint64

	IndirectBranches uint64 // executed indirect (brr) branches
	RASMisses        uint64 // indirect branches with a wrong predicted target

	ExitCode int64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// latency returns the execute latency of an instruction in cycles.
func latency(op isa.Op) uint64 {
	switch op {
	case isa.OpLd:
		return 3
	case isa.OpMul:
		return 3
	case isa.OpDiv, isa.OpMod:
		return 12
	default:
		return 1
	}
}

// Class flags of a decoded instruction.
const (
	// fCondBranch: a guarded br/brl or a cloop, the direction-prediction
	// events (the same set trace.Collect records).
	fCondBranch uint8 = 1 << iota
	// fImpliesTaken: br/brl, taken iff the guard is true (a cloop with a
	// true guard still tests its counter).
	fImpliesTaken
	fRegion  // region-based branch
	fPredDef // may write predicate registers
	fDest    // writes a general register other than r0
)

// decoded is one static instruction reduced to what the timing model
// reads for each of its dynamic instances. The operand lists are fixed
// arrays, so the timing loop builds no slices.
type decoded struct {
	lat   uint64
	src   [2]isa.Reg  // general-register sources; the first nsrc are valid
	pdst  [2]isa.PReg // predicate destinations other than p0; npdst valid
	nsrc  uint8
	npdst uint8
	dst   isa.Reg // destination register when fDest is set
	qp    isa.PReg
	op    isa.Op
	flags uint8
	// feeds and feedsRegion classify a compare for PGU selection
	// (trace.Guards).
	feeds, feedsRegion bool
}

// decode builds the program's static instruction table.
func decode(p *prog.Program) []decoded {
	guards := trace.ClassifyGuards(p)
	dec := make([]decoded, len(p.Insts))
	for i := range p.Insts {
		in, d := &p.Insts[i], &dec[i]
		d.lat = latency(in.Op)
		d.qp, d.op = in.QP, in.Op
		for _, r := range in.RegSources() {
			d.src[d.nsrc] = r
			d.nsrc++
		}
		for _, pd := range in.PredDests() {
			if pd != isa.P0 {
				d.pdst[d.npdst] = pd
				d.npdst++
			}
		}
		if r, ok := in.RegDest(); ok && r != isa.R0 {
			d.dst = r
			d.flags |= fDest
		}
		if (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0 {
			d.flags |= fCondBranch | fImpliesTaken
		}
		if in.Op == isa.OpCloop {
			d.flags |= fCondBranch
		}
		if in.Region {
			d.flags |= fRegion
		}
		if in.IsPredDef() {
			d.flags |= fPredDef
		}
		if in.Op == isa.OpCmp {
			d.feeds, d.feedsRegion = guards.Feeds(in)
		}
	}
	return dec
}

// pendingResolve is an issued predicate define whose values reach the
// fetch-stage structures at cycle at.
type pendingResolve struct {
	at    uint64
	preds [2]isa.PReg
	vals  [2]bool
	n     uint8 // valid entries of preds/vals
	// pgu carries the define outcome bit when the policy selects it.
	pgu    bool
	pguBit bool
}

// Outcomes of the fetch-stage filter for a conditional branch.
const (
	notFiltered uint8 = iota
	filteredFalse
	filteredTrue
)

// fetched is what the fetch and issue stages decided for one instruction.
type fetched struct {
	issue     uint64 // cycle the instruction issued
	predicted bool
	filter    uint8
}

// timer is one machine configuration's timing state: everything that
// depends on the config, fed the shared functional execution one
// instruction at a time.
type timer struct {
	cfg Config
	obs bpred.HistoryObserver
	// pgu is set when core.NewPGU enables the mechanism: the policy
	// inserts anything and the predictor's history accepts outside bits.
	pgu  bool
	sfpf core.SFPF

	regReady [isa.NumRegs]uint64
	cycle    uint64
	slot     int   // instructions issued in the current cycle
	ras      []int // return-address stack, capacity cfg.RASDepth

	// pending is a FIFO of issued defines in issue order: entries before
	// head have been applied.
	pending []pendingResolve
	head    int

	st Stats
}

func (t *timer) init(cfg Config) {
	t.cfg = cfg
	cfg.Predictor.Reset()
	t.obs, _ = cfg.Predictor.(bpred.HistoryObserver)
	t.pgu = core.NewPGU(cfg.PGU, cfg.Predictor) != nil
	t.sfpf.Reset()
	t.ras = make([]int, 0, cfg.RASDepth)
	t.pending = make([]pendingResolve, 0, 16)
}

// fetch applies the resolves visible by the current cycle, runs the
// fetch-stage predictor and filter for the instruction at pc, and issues
// it once its source operands are ready. It depends only on the
// timer's own state, never on how the instruction executes.
func (t *timer) fetch(d *decoded, pc int) fetched {
	for t.head < len(t.pending) && t.pending[t.head].at <= t.cycle {
		pr := &t.pending[t.head]
		t.head++
		for i := uint8(0); i < pr.n; i++ {
			t.sfpf.Resolve(pr.preds[i], pr.vals[i])
		}
		if pr.pgu {
			t.obs.ObserveBit(pr.pguBit)
			t.st.InsertedBits++
		}
	}
	if t.head == len(t.pending) {
		t.pending, t.head = t.pending[:0], 0
	}

	var f fetched
	if d.flags&fCondBranch != 0 {
		t.st.Branches++
		if d.flags&fRegion != 0 {
			t.st.RegionBranches++
		}
		known, val := t.sfpf.Lookup(d.qp)
		switch {
		case !t.cfg.UseSFPF || d.qp == isa.P0 || !known:
			f.predicted = t.cfg.Predictor.Predict(uint64(pc))
		case !val:
			f.filter = filteredFalse
		case t.cfg.FilterTrue && d.flags&fImpliesTaken != 0:
			f.predicted, f.filter = true, filteredTrue
		default:
			f.predicted = t.cfg.Predictor.Predict(uint64(pc))
		}
	}
	if d.npdst > 0 {
		t.sfpf.FetchDef(d.pdst[:d.npdst]...)
	}

	// Issue: stall until source operands are ready, then take one of the
	// cycle's issue slots.
	ready := t.cycle
	for i := uint8(0); i < d.nsrc; i++ {
		if r := t.regReady[d.src[i]]; r > ready {
			ready = r
		}
	}
	if ready > t.cycle {
		t.st.Stalls += ready - t.cycle
		t.cycle = ready
		t.slot = 0
	}
	f.issue = t.cycle
	t.slot++
	if t.slot >= t.cfg.IssueWidth {
		t.cycle++
		t.slot = 0
	}
	return f
}

// retire charges the executed instruction: result latency, the define's
// resolve, branch resolution against the fetch-time prediction, and the
// return-address stack. vals holds the post-execute values of d.pdst.
func (t *timer) retire(d *decoded, pc int, f fetched, si *emu.StepInfo, vals [2]bool) {
	t.st.Insts++
	if !si.GuardTrue {
		t.st.Nullified++
	}
	if d.flags&fDest != 0 && si.GuardTrue {
		t.regReady[d.dst] = f.issue + d.lat
	}

	// Schedule predicate resolution for the fetch-stage structures.
	if d.flags&fPredDef != 0 {
		pr := pendingResolve{at: f.issue + t.cfg.PredResolveLatency, preds: d.pdst, vals: vals, n: d.npdst}
		if d.op == isa.OpCmp && si.GuardTrue && t.pgu && t.cfg.PGU.SelectsDefine(d.feeds, d.feedsRegion) {
			pr.pgu, pr.pguBit = true, si.CmpValue
		}
		if pr.n > 0 || pr.pgu {
			t.push(pr)
		}
	}

	// Resolve the branch.
	if d.flags&fCondBranch != 0 {
		switch f.filter {
		case filteredFalse:
			t.st.Filtered++
			if si.Taken {
				t.st.FilterErrors++
			}
			if t.cfg.TrainFiltered {
				t.cfg.Predictor.Update(uint64(pc), si.Taken)
			}
		case filteredTrue:
			t.st.FilteredTrue++
			if !si.Taken {
				t.st.FilterErrors++
			}
			if t.cfg.TrainFiltered {
				t.cfg.Predictor.Update(uint64(pc), si.Taken)
			}
		default:
			if f.predicted != si.Taken {
				t.st.Mispredicts++
				if d.flags&fRegion != 0 {
					t.st.RegionMispredicts++
				}
				t.cycle += t.cfg.MispredictPenalty
				t.slot = 0
			}
			t.cfg.Predictor.Update(uint64(pc), si.Taken)
		}
	}
	// Return-address stack: calls push their return point; indirect
	// branches pop a predicted target and pay the flush penalty when it
	// is wrong (or when the stack is empty/disabled).
	if si.GuardTrue {
		switch d.op {
		case isa.OpBrl:
			if t.cfg.RASDepth > 0 {
				if len(t.ras) == t.cfg.RASDepth {
					copy(t.ras, t.ras[1:])
					t.ras = t.ras[:len(t.ras)-1]
				}
				t.ras = append(t.ras, pc+1)
			}
		case isa.OpBrr:
			t.st.IndirectBranches++
			predicted := -1
			if n := len(t.ras); n > 0 {
				predicted = t.ras[n-1]
				t.ras = t.ras[:n-1]
			}
			if predicted != si.NextPC {
				t.st.RASMisses++
				t.cycle += t.cfg.MispredictPenalty
				t.slot = 0
			}
		}
	}

	// A taken branch ends its issue group: the redirected fetch starts a
	// new cycle.
	if si.Taken && t.slot != 0 {
		t.cycle++
		t.slot = 0
	}
}

// push appends a define to the resolve queue. When the backing array is
// full and at least half of it is applied entries, the live tail moves
// to the front instead of growing the array, so a queue that never
// fully drains stays bounded by the number of defines in flight.
func (t *timer) push(pr pendingResolve) {
	if len(t.pending) == cap(t.pending) && t.head >= len(t.pending)/2 {
		n := copy(t.pending, t.pending[t.head:])
		t.pending, t.head = t.pending[:n], 0
	}
	t.pending = append(t.pending, pr)
}

// finish closes the last issue group and returns the run's stats.
func (t *timer) finish(exitCode int64) Stats {
	if t.slot != 0 {
		t.cycle++
	}
	t.st.Cycles = t.cycle
	t.st.ExitCode = exitCode
	return t.st
}

// Run executes the program on the timing model: RunMany with one config.
func Run(p *prog.Program, cfg Config, limit uint64) (Stats, error) {
	sts, err := RunMany(p, []Config{cfg}, limit)
	if sts == nil {
		return Stats{}, err
	}
	return sts[0], err
}

// RunMany executes the program once and times that one execution on a
// machine per config, in lockstep. The program is decoded once into a
// static table; each dynamic instruction is stepped on the emulator once
// and handed to every config's timer, which owns that config's
// predictor, filter scoreboard, register-ready table, return-address
// stack and resolve queue. Functional execution does not depend on
// timing, so stats[i] equals what a run with cfgs[i] alone yields. The
// configs must not share a Predictor.
//
// If the run stops early — the step limit or an emulation fault — the
// partial stats of every config are returned with the error (Cycles is
// set only by a completed run).
func RunMany(p *prog.Program, cfgs []Config, limit uint64) ([]Stats, error) {
	timers := make([]timer, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i].withDefaults()
		if cfg.Predictor == nil {
			return nil, fmt.Errorf("pipeline: config %d: no predictor configured", i)
		}
		for j := 0; j < i; j++ {
			if cfg.Predictor == timers[j].cfg.Predictor {
				return nil, fmt.Errorf("pipeline: configs %d and %d share a predictor", j, i)
			}
		}
		timers[i].init(cfg)
	}
	m, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	dec := decode(p)
	partial := func() []Stats {
		out := make([]Stats, len(timers))
		for i := range timers {
			out[i] = timers[i].st
		}
		return out
	}

	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			return partial(), fmt.Errorf("pipeline: %w (%d steps in %s)", emu.ErrLimit, m.Steps, p.Name)
		}
		pc := m.PC
		si, err := m.Step()
		if err != nil {
			// The faulting instruction was fetched and issued, not retired.
			if pc >= 0 && pc < len(dec) {
				for i := range timers {
					timers[i].fetch(&dec[pc], pc)
				}
			}
			return partial(), err
		}
		d := &dec[pc]
		var vals [2]bool
		for i := uint8(0); i < d.npdst; i++ {
			vals[i] = m.Preds[d.pdst[i]]
		}
		for i := range timers {
			t := &timers[i]
			t.retire(d, pc, t.fetch(d, pc), &si, vals)
		}
	}
	out := make([]Stats, len(timers))
	for i := range timers {
		out[i] = timers[i].finish(m.ExitCode)
	}
	return out, nil
}
