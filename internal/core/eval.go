package core

import (
	"fmt"
	"sort"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// DefaultResolveDelay is the default number of dynamic instructions a
// predicate define needs before its value is visible to the fetch stage
// (compare execute latency plus fetch-to-execute pipeline distance on the
// modelled machine).
const DefaultResolveDelay = 6

// DefaultPGUDelay is the default number of dynamic instructions before a
// resolved predicate outcome reaches the global history register.
const DefaultPGUDelay = 2

// EvalConfig configures a trace-driven predictor evaluation.
type EvalConfig struct {
	// Predictor is the baseline predictor; it is Reset before the run.
	Predictor bpred.Predictor

	// UseSFPF enables the squash false path filter.
	UseSFPF bool
	// FilterTrue additionally filters branches whose guard is known true
	// and implies taken (predicted taken with certainty). The paper's
	// filter handles only the false case; this is the E9 ablation.
	FilterTrue bool
	// TrainFiltered makes filtered branches still train the predictor and
	// its history. The default (false) removes them from the predictor's
	// view entirely, avoiding table pollution.
	TrainFiltered bool
	// ResolveDelay is the minimum define-to-branch distance (in dynamic
	// instructions) for the filter to know the guard at fetch.
	ResolveDelay uint64

	// PGU selects the predicate global update policy.
	PGU PGUPolicy
	// PGUDelay is the distance (in dynamic instructions) between a
	// predicate define and its bit entering the history.
	PGUDelay uint64

	// PerBranch additionally collects per-static-branch statistics in
	// Metrics.ByPC (costs one map update per branch event).
	PerBranch bool
}

// BranchStats aggregates the behaviour of one static branch.
type BranchStats struct {
	PC          uint64
	Count       uint64
	Taken       uint64
	Mispredicts uint64
	Filtered    uint64
	Region      bool
}

// MispredictRate returns this branch's misprediction rate over its
// unfiltered executions.
func (b *BranchStats) MispredictRate() float64 {
	unfiltered := b.Count - b.Filtered
	if unfiltered == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(unfiltered)
}

// Metrics summarises one evaluation.
type Metrics struct {
	Insts       uint64
	Branches    uint64 // conditional branches seen
	Mispredicts uint64

	RegionBranches    uint64
	RegionMispredicts uint64

	Filtered     uint64 // branches handled by the SFPF (known-false guard)
	FilteredTrue uint64 // branches handled by the FilterTrue extension
	FilterErrors uint64 // must be zero: sanity check of the 100% claim
	PredDefs     uint64
	InsertedBits uint64 // history bits inserted by PGU

	// ByPC holds per-static-branch statistics when EvalConfig.PerBranch
	// was set; nil otherwise.
	ByPC map[uint64]*BranchStats
}

// TopMispredicted returns up to n branches ordered by misprediction count
// (requires PerBranch collection).
func (m *Metrics) TopMispredicted(n int) []*BranchStats {
	out := make([]*BranchStats, 0, len(m.ByPC))
	for _, b := range m.ByPC {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mispredicts != out[j].Mispredicts {
			return out[i].Mispredicts > out[j].Mispredicts
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// BranchReport is the hard-to-predict-branch (H2P) summary over the
// per-branch statistics: totals across every static branch plus the
// top-K ranking by misprediction count. It requires PerBranch
// collection; without it the report is empty.
type BranchReport struct {
	// StaticBranches counts distinct branch PCs with statistics.
	StaticBranches int
	// Events counts the branch executions those statistics cover.
	Events uint64
	// Mispredicts counts mispredictions across all of them.
	Mispredicts uint64
	// Top holds the hardest branches, most mispredicted first (ties
	// break toward the lower PC, matching TopMispredicted). The entries
	// are value copies — safe to hold after the evaluator moves on.
	Top []BranchStats
}

// Accuracy returns the fraction of covered branch executions that were
// predicted correctly (filtered branches count as correct, consistent
// with Metrics.MispredictRate).
func (r BranchReport) Accuracy() float64 {
	if r.Events == 0 {
		return 0
	}
	return 1 - float64(r.Mispredicts)/float64(r.Events)
}

// BranchReport builds the H2P report with up to k ranked branches.
func (m *Metrics) BranchReport(k int) BranchReport {
	rep := BranchReport{StaticBranches: len(m.ByPC)}
	for _, b := range m.ByPC {
		rep.Events += b.Count
		rep.Mispredicts += b.Mispredicts
	}
	top := m.TopMispredicted(k)
	rep.Top = make([]BranchStats, len(top))
	for i, b := range top {
		rep.Top[i] = *b
	}
	return rep
}

// MispredictRate returns mispredictions per predicted branch. Filtered
// branches count as predicted (they are fetched branches the front end had
// to handle, and the filter always predicts them correctly).
func (m Metrics) MispredictRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.Branches)
}

// RegionMispredictRate returns the misprediction rate over region-based
// branches only.
func (m Metrics) RegionMispredictRate() float64 {
	if m.RegionBranches == 0 {
		return 0
	}
	return float64(m.RegionMispredicts) / float64(m.RegionBranches)
}

// MPKI returns mispredictions per thousand instructions.
func (m Metrics) MPKI() float64 {
	if m.Insts == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Insts)
}

// FilterCoverage returns the fraction of conditional branches the filter
// handled.
func (m Metrics) FilterCoverage() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Filtered+m.FilteredTrue) / float64(m.Branches)
}

type pendingBit struct {
	applyAt uint64
	bit     bool
}

// Evaluate replays a trace source through the configured predictor and
// mechanisms and returns the resulting metrics. The source's replay must
// be error-free (an in-memory *trace.Trace always is); replaying a live
// source that can fail, e.g. trace.Stream, goes through EvaluateStream.
func Evaluate(src trace.Source, cfg EvalConfig) Metrics {
	m, err := EvaluateStream(src.Replay(), cfg)
	if err != nil {
		panic(fmt.Sprintf("core: replay failed mid-evaluation: %v", err))
	}
	return m
}

// Evaluator is the incremental form of the trace-driven evaluator: events
// are fed one at a time and the metrics so far can be read between feeds.
// EvaluateStream is a thin loop over it; long-lived consumers — the
// serving daemon's sessions, which receive a branch stream in client-sized
// batches over an arbitrary lifetime — feed events as they arrive.
//
// An Evaluator is not safe for concurrent use; the owner serialises Feed
// and MetricsSnapshot calls.
type Evaluator struct {
	cfg     EvalConfig
	p       bpred.Predictor
	obs     bpred.HistoryObserver
	pgu     *PGU
	pending []pendingBit
	m       Metrics
}

// NewEvaluator resets cfg.Predictor and prepares incremental evaluation
// with exactly the semantics of EvaluateStream over the same event order.
func NewEvaluator(cfg EvalConfig) *Evaluator {
	p := cfg.Predictor
	p.Reset()
	e := &Evaluator{cfg: cfg, p: p, pgu: NewPGU(cfg.PGU, p)}
	e.obs, _ = p.(bpred.HistoryObserver)
	if e.pgu != nil {
		// A selected define waits PGUDelay steps and at most one define
		// fetches per step, so PGUDelay+1 entries hold the whole queue
		// (delays beyond the presize cap grow it once, on first use).
		e.pending = make([]pendingBit, 0, min(cfg.PGUDelay+1, maxPendingPresize))
	}
	return e
}

// maxPendingPresize caps NewEvaluator's presized PGU queue.
const maxPendingPresize = 64

// flush applies pending predicate-history bits whose delay has elapsed.
//
// Drained entries are compacted away rather than re-sliced off the front:
// a long-lived evaluator (a serving session fed a PGU-heavy stream for
// days) must not march its pending slice through an ever-growing backing
// array. A full drain resets length in place; a partial drain where the
// drained prefix dominates copies the survivors to the front; only a
// small drain off a large remainder advances the slice, and the next
// dominating drain pulls it back.
func (e *Evaluator) flush(now uint64) {
	i := 0
	for ; i < len(e.pending) && e.pending[i].applyAt <= now; i++ {
		if e.obs != nil {
			e.obs.ObserveBit(e.pending[i].bit)
			e.m.InsertedBits++
		}
	}
	if i == 0 {
		return
	}
	rem := len(e.pending) - i
	switch {
	case rem == 0:
		e.pending = e.pending[:0]
	case i >= rem:
		copy(e.pending, e.pending[i:])
		e.pending = e.pending[:rem]
	default:
		e.pending = e.pending[i:]
	}
}

// Feed advances the evaluation by one event. Events must arrive in
// dynamic order (non-decreasing Step), as a trace replay produces them.
func (e *Evaluator) Feed(ev *trace.Event) {
	e.flush(ev.Step)
	switch ev.Kind {
	case trace.KindPredDef:
		e.m.PredDefs++
		if e.pgu != nil && e.pgu.Policy.Selects(ev) && ev.Executed {
			e.pending = append(e.pending, pendingBit{applyAt: ev.Step + e.cfg.PGUDelay, bit: ev.Value})
		}
	case trace.KindBranch:
		e.m.Branches++
		if ev.Region {
			e.m.RegionBranches++
		}
		var bs *BranchStats
		if e.cfg.PerBranch {
			if e.m.ByPC == nil {
				e.m.ByPC = make(map[uint64]*BranchStats)
			}
			bs = e.m.ByPC[ev.PC]
			if bs == nil {
				bs = &BranchStats{PC: ev.PC, Region: ev.Region}
				e.m.ByPC[ev.PC] = bs
			}
			bs.Count++
			if ev.Taken {
				bs.Taken++
			}
		}
		if e.cfg.UseSFPF && ev.Guard != isa.P0 && ev.GuardDist >= e.cfg.ResolveDelay {
			if !ev.GuardVal {
				// Known-false guard: the branch cannot be taken.
				e.m.Filtered++
				if ev.Taken {
					e.m.FilterErrors++ // impossible by ISA semantics
				}
				if bs != nil {
					bs.Filtered++
				}
				if e.cfg.TrainFiltered {
					e.p.Update(ev.PC, ev.Taken)
				}
				return
			}
			if e.cfg.FilterTrue && ev.GuardImpliesTaken {
				// Known-true guard on a guard-implies-taken branch.
				e.m.FilteredTrue++
				if !ev.Taken {
					e.m.FilterErrors++
				}
				if bs != nil {
					bs.Filtered++
				}
				if e.cfg.TrainFiltered {
					e.p.Update(ev.PC, ev.Taken)
				}
				return
			}
		}
		pred := e.p.Predict(ev.PC)
		if pred != ev.Taken {
			e.m.Mispredicts++
			if ev.Region {
				e.m.RegionMispredicts++
			}
			if bs != nil {
				bs.Mispredicts++
			}
		}
		e.p.Update(ev.PC, ev.Taken)
	}
}

// AddInsts credits n dynamic instructions to the metrics. Batch-streaming
// clients report instruction counts per batch; a whole-trace replay
// instead sets the total from the reader's counts (see EvaluateStream).
func (e *Evaluator) AddInsts(n uint64) { e.m.Insts += n }

// Metrics returns the metrics accumulated so far. The ByPC map is the
// evaluator's own: callers that keep feeding must use MetricsSnapshot
// instead.
func (e *Evaluator) Metrics() Metrics { return e.m }

// MetricsSnapshot returns an independent copy of the metrics accumulated
// so far, safe to hold while the evaluator keeps feeding. It clones only
// the metrics — the full durable-state snapshot (predictor tables,
// histories, the pending predicate-bit queue) is internal/snap's job.
func (e *Evaluator) MetricsSnapshot() Metrics { return e.m.Clone() }

// Config returns the evaluation configuration, with the Predictor field
// cleared: the predictor itself stays owned by the evaluator. Snapshot
// writers persist this alongside the predictor spec so a restore can
// rebuild an identically configured evaluator.
func (e *Evaluator) Config() EvalConfig {
	cfg := e.cfg
	cfg.Predictor = nil
	return cfg
}

// Predictor returns the evaluator's predictor. Callers must not train or
// reset it behind the evaluator's back; the accessor exists so snapshot
// writers (internal/snap) can serialize its state.
func (e *Evaluator) Predictor() bpred.Predictor { return e.p }

// Clone returns a deep copy of m (the ByPC per-branch map is copied).
func (m Metrics) Clone() Metrics {
	out := m
	if m.ByPC != nil {
		out.ByPC = make(map[uint64]*BranchStats, len(m.ByPC))
		for pc, bs := range m.ByPC {
			c := *bs
			out.ByPC[pc] = &c
		}
	}
	return out
}

// evalBatchSize is the event-batch granularity EvaluateStream feeds the
// specialized batch path with when the reader cannot expose contiguous
// views itself. Large enough to amortise the per-batch type switch to
// nothing, small enough to stay cache-resident (24 B/event ≈ 96 KiB).
const evalBatchSize = 4096

// EvaluateStream replays one event stream through the configured
// predictor and mechanisms and returns the resulting metrics. It is the
// streaming core of the trace-driven evaluator: events are consumed as
// produced, so a reader backed by a live emulator run evaluates in
// constant memory.
//
// Events are fed through the batch fast path (FeedBatch): a reader that
// implements trace.BatchReader — the materialized in-memory trace does —
// hands over contiguous event views with zero copying; any other reader
// is gathered into a scratch buffer batch by batch.
func EvaluateStream(r trace.Reader, cfg EvalConfig) (Metrics, error) {
	e := NewEvaluator(cfg)
	if br, ok := r.(trace.BatchReader); ok {
		for {
			batch := br.NextBatch(evalBatchSize)
			if len(batch) == 0 {
				break
			}
			e.FeedBatch(batch)
		}
	} else {
		buf := make([]trace.Event, evalBatchSize)
		for {
			n := 0
			for n < len(buf) && r.Next(&buf[n]) {
				n++
			}
			if n == 0 {
				break
			}
			e.FeedBatch(buf[:n])
		}
	}
	if err := r.Err(); err != nil {
		return e.m, err
	}
	e.m.Insts = r.Counts().Insts
	return e.m, nil
}
