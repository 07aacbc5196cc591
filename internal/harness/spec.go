// spec.go — the declarative experiment engine. An experiment used to be
// an opaque Run closure with its own hand-rolled grid loops; it is now a
// Spec: a configuration grid (variants × workloads) plus table
// definitions built from a small set of row-shaping combinators
// (per-workload rows, per-group sweep rows, summary rows, paired
// orig-vs-converted columns). One engine executes every Spec on the
// sim sweep pool and renders the same stats.Tables the hand-coded
// bodies produced, byte for byte — which is what lets the golden CSV
// test gate the refactor, and what makes a Spec the unit a results
// store can record and a remote executor can run.
package harness

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TraceKind selects which prepared artifact of an Entry a variant
// evaluates: metrics variants pick a trace, pipeline variants the
// corresponding program.
type TraceKind int

const (
	// TraceConv is the greedily if-converted workload (the default).
	TraceConv TraceKind = iota
	// TraceOrig is the original branching workload.
	TraceOrig
	// TraceProfiled is the profile-guided conversion (memoized per entry).
	TraceProfiled
	// TraceUnscheduled is greedy conversion without compare scheduling
	// (memoized per entry).
	TraceUnscheduled
)

func (k TraceKind) String() string {
	switch k {
	case TraceConv:
		return "conv"
	case TraceOrig:
		return "orig"
	case TraceProfiled:
		return "profiled"
	case TraceUnscheduled:
		return "unscheduled"
	}
	return fmt.Sprintf("trace(%d)", int(k))
}

// Variant is one point of an experiment's configuration grid: a
// predictor spec plus evaluator (or timing-model) options, applied to
// one artifact of every selected workload. Its Key names the point for
// table columns; a "group/sub" key places the variant in a sweep group
// for per-group row shapes.
type Variant struct {
	// Key is unique within the Spec. Everything before the first '/'
	// is the variant's sweep group.
	Key string
	// Trace selects the workload artifact evaluated.
	Trace TraceKind
	// Pred is the predictor; the zero value means the default gshare 12/8.
	Pred sim.Spec

	// Evaluator options (core.EvalConfig / pipeline.Config fields).
	UseSFPF      bool
	FilterTrue   bool
	ResolveDelay uint64
	PGU          core.PGUPolicy
	PGUDelay     uint64

	// Pipeline evaluates on the timing model instead of the trace
	// evaluator; the remaining fields configure that machine.
	Pipeline   bool
	IssueWidth int
	RASDepth   int
	NoRAS      bool

	// FullOnly drops the variant from quick runs (sweep trimming).
	FullOnly bool
}

// group returns the variant's sweep group: the key up to the first '/'.
func (v Variant) group() string {
	for i := 0; i < len(v.Key); i++ {
		if v.Key[i] == '/' {
			return v.Key[:i]
		}
	}
	return v.Key
}

// joinKey forms a full variant key from a group and a sub-key; either
// part may be empty.
func joinKey(group, sub string) string {
	switch {
	case group == "":
		return sub
	case sub == "":
		return group
	}
	return group + "/" + sub
}

// Cell is one evaluated grid point: the metrics (or timing stats) of one
// variant on one workload.
type Cell struct {
	Entry   *Entry
	Variant Variant
	// M holds the trace-evaluator metrics of a non-pipeline variant.
	M core.Metrics
	// P holds the timing-model stats of a pipeline variant.
	P pipeline.Stats
}

// Shape selects a table's row combinator.
type Shape int

const (
	// RowsPerEntry emits one row per selected workload, in suite order.
	RowsPerEntry Shape = iota
	// RowsPerGroup emits one row per variant sweep group, in the order
	// listed by TableSpec.Groups.
	RowsPerGroup
)

// Row is the view a column's Value function gets of the cells backing
// one output row.
type Row struct {
	// Entry is the row's workload on per-entry rows; nil on group and
	// summary rows.
	Entry *Entry
	// Group is the row's sweep group on per-group rows; "" otherwise.
	Group string

	grid     *grid
	included []*Entry // entries aggregated by Cells on group/summary rows
}

// Cell returns the row's single cell for a (sub-)key: the variant's cell
// for this row's workload on per-entry rows, or — when the experiment
// selects exactly one workload — for that workload on per-group rows.
func (r Row) Cell(sub string) Cell {
	if r.Entry != nil {
		return r.grid.cell(r.Entry, sub)
	}
	if len(r.included) != 1 {
		panic(fmt.Sprintf("harness: Row.Cell(%q) on an aggregate row over %d workloads", sub, len(r.included)))
	}
	return r.grid.cell(r.included[0], joinKey(r.Group, sub))
}

// Cells returns the cells for a (sub-)key across the row's workloads, in
// suite order. On a summary row the entries are the table's included
// (non-skipped) rows, so summary statistics match what the table shows.
func (r Row) Cells(sub string) []Cell {
	if r.Entry != nil {
		return []Cell{r.grid.cell(r.Entry, sub)}
	}
	out := make([]Cell, len(r.included))
	for i, e := range r.included {
		out[i] = r.grid.cell(e, joinKey(r.Group, sub))
	}
	return out
}

// Over maps the row's cells for a (sub-)key through f, in suite order —
// the input of the stats.Geomean/stats.Mean aggregations sweep tables
// are made of.
func (r Row) Over(sub string, f func(Cell) float64) []float64 {
	cells := r.Cells(sub)
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = f(c)
	}
	return out
}

// rate is the common Over projection.
func rate(c Cell) float64 { return c.M.MispredictRate() }

// Col derives one output column from a row view.
type Col struct {
	Name  string
	Value func(Row) string
}

// workloadCol is the leading per-entry column every workload table has.
func workloadCol() Col {
	return Col{"workload", func(r Row) string { return r.Entry.Name }}
}

// groupCol is the leading per-group column of a sweep table.
func groupCol(name string) Col {
	return Col{name, func(r Row) string { return r.Group }}
}

// staticNote wraps a fixed footnote.
func staticNote(s string) func([]Row) string {
	return func([]Row) string { return s }
}

// TableSpec declares one output table of a Spec.
type TableSpec struct {
	Title string
	Shape Shape
	// Groups lists (and orders) the sweep groups of a RowsPerGroup
	// table; groups whose variants are all trimmed from the run are
	// dropped.
	Groups []string
	// Cols derive the data rows.
	Cols []Col
	// Summary, when non-empty, appends one aggregate row (geomean and
	// friends) computed over the included data rows; missing trailing
	// columns render empty.
	Summary []Col
	// Skip drops a per-entry row (and excludes it from Summary and
	// Notes).
	Skip func(Row) bool
	// Notes render footnotes from the included data rows.
	Notes []func([]Row) string
	// FullOnly drops the whole table from quick runs.
	FullOnly bool
}

// Spec is a declarative experiment: a variant × workload grid plus the
// tables shaped from its cells. Experiment() adapts it to the registry;
// the engine in run executes it.
type Spec struct {
	ID     string
	Title  string
	Paper  string
	Expect string
	// Workloads selects a subset of the suite by name; nil means all.
	Workloads []string
	Variants  []Variant
	Tables    []TableSpec
}

// Experiment adapts the Spec to the experiment registry. The returned
// Experiment's Run is the generic engine; hand-written experiments that
// genuinely do not fit a grid can still register a custom Run closure
// (the escape hatch — currently unused).
func (sp Spec) Experiment() Experiment {
	s := sp
	return Experiment{
		ID:     s.ID,
		Title:  s.Title,
		Paper:  s.Paper,
		Expect: s.Expect,
		Spec:   &s,
		Run:    s.run,
	}
}

// ActiveVariants returns the variants a run with this config evaluates
// (quick runs drop FullOnly variants). The active set is part of the
// run's identity: it feeds Experiment.ConfigHash.
func (sp *Spec) ActiveVariants(cfg Config) []Variant {
	var out []Variant
	for _, v := range sp.Variants {
		if cfg.Quick && v.FullOnly {
			continue
		}
		out = append(out, v)
	}
	return out
}

// grid holds the evaluated cells of one Spec run.
type grid struct {
	spec    *Spec
	entries []*Entry
	cells   map[cellKey]Cell
}

type cellKey struct {
	entry string
	key   string
}

func (g *grid) cell(e *Entry, key string) Cell {
	c, ok := g.cells[cellKey{e.Name, key}]
	if !ok {
		panic(fmt.Sprintf("harness: %s: no cell for workload %q, variant %q (column references a variant the spec does not declare, or one trimmed from this run)", g.spec.ID, e.Name, key))
	}
	return c
}

// run is the engine: evaluate the grid on the sweep pool, then shape
// tables sequentially (deterministic row order regardless of worker
// scheduling).
func (sp *Spec) run(ctx context.Context, s *Suite, cfg Config) ([]*stats.Table, error) {
	entries, err := sp.selectEntries(s)
	if err != nil {
		return nil, err
	}
	variants := sp.ActiveVariants(cfg)
	seen := make(map[string]bool, len(variants))
	for _, v := range variants {
		if seen[v.Key] {
			return nil, fmt.Errorf("harness: %s: duplicate variant key %q", sp.ID, v.Key)
		}
		seen[v.Key] = true
	}

	// A job is one trace-driven variant, or every pipeline variant of
	// one artifact: those share a single emulation (pipeline.RunMany).
	type job struct {
		e  *Entry
		vs []Variant
	}
	groups := groupVariants(variants)
	jobs := make([]job, 0, len(entries)*len(groups))
	for _, e := range entries {
		for _, vs := range groups {
			jobs = append(jobs, job{e, vs})
		}
	}
	results, err := sim.Map(ctx, jobs, 0, func(_ context.Context, j job) ([]Cell, error) {
		if j.vs[0].Pipeline {
			return evalPipeline(j.e, j.vs, cfg)
		}
		c, err := evalCell(j.e, j.vs[0])
		return []Cell{c}, err
	})
	if err != nil {
		return nil, err
	}

	g := &grid{spec: sp, entries: entries, cells: make(map[cellKey]Cell, len(entries)*len(variants))}
	for _, cells := range results {
		for _, c := range cells {
			g.cells[cellKey{c.Entry.Name, c.Variant.Key}] = c
		}
	}

	activeGroups := make(map[string]bool, len(variants))
	for _, v := range variants {
		activeGroups[v.group()] = true
	}

	var tables []*stats.Table
	for i := range sp.Tables {
		ts := &sp.Tables[i]
		if ts.FullOnly && cfg.Quick {
			continue
		}
		t, err := ts.build(g, activeGroups)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: table %q: %w", sp.ID, ts.Title, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// selectEntries filters the suite to the spec's workloads, keeping suite
// order.
func (sp *Spec) selectEntries(s *Suite) ([]*Entry, error) {
	if len(sp.Workloads) == 0 {
		return s.Entries, nil
	}
	want := make(map[string]bool, len(sp.Workloads))
	for _, n := range sp.Workloads {
		want[n] = true
	}
	var out []*Entry
	for _, e := range s.Entries {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	// Names outside the fixed suite — the synthetic charz family — are
	// materialized on demand, in spec-listed order after suite members.
	for _, n := range sp.Workloads {
		if !want[n] {
			continue
		}
		e, err := s.entry(n)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		delete(want, n)
	}
	return out, nil
}

// build shapes one table from the grid.
func (ts *TableSpec) build(g *grid, activeGroups map[string]bool) (*stats.Table, error) {
	t := stats.NewTable(ts.Title, colNames(ts.Cols)...)

	var rows []Row
	switch ts.Shape {
	case RowsPerEntry:
		for _, e := range g.entries {
			r := Row{Entry: e, grid: g}
			if ts.Skip != nil && ts.Skip(r) {
				continue
			}
			rows = append(rows, r)
		}
	case RowsPerGroup:
		if len(ts.Groups) == 0 {
			return nil, fmt.Errorf("per-group table lists no groups")
		}
		for _, grp := range ts.Groups {
			if !activeGroups[grp] {
				continue // trimmed from this run
			}
			rows = append(rows, Row{Group: grp, grid: g, included: g.entries})
		}
	default:
		return nil, fmt.Errorf("unknown shape %d", ts.Shape)
	}

	for _, r := range rows {
		cells := make([]string, len(ts.Cols))
		for i, c := range ts.Cols {
			cells[i] = c.Value(r)
		}
		t.AddRow(cells...)
	}

	if len(ts.Summary) > 0 {
		included := make([]*Entry, 0, len(rows))
		for _, r := range rows {
			if r.Entry != nil {
				included = append(included, r.Entry)
			}
		}
		sr := Row{grid: g, included: included}
		cells := make([]string, len(ts.Summary))
		for i, c := range ts.Summary {
			cells[i] = c.Value(sr)
		}
		t.AddRow(cells...)
	}

	for _, note := range ts.Notes {
		t.Notes = append(t.Notes, note(rows))
	}
	return t, nil
}

func colNames(cols []Col) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// groupVariants partitions the variants into evaluation jobs, in
// declaration order: each trace-driven variant alone, and the pipeline
// variants of each TraceKind together at the position of the first.
func groupVariants(variants []Variant) [][]Variant {
	var groups [][]Variant
	pipeGroup := make(map[TraceKind]int)
	for _, v := range variants {
		if !v.Pipeline {
			groups = append(groups, []Variant{v})
			continue
		}
		i, ok := pipeGroup[v.Trace]
		if !ok {
			i = len(groups)
			pipeGroup[v.Trace] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], v)
	}
	return groups
}

// newPredictor builds a fresh predictor from the variant's spec.
func newPredictor(v Variant) (bpred.Predictor, error) {
	pred := v.Pred
	if pred.Kind == "" {
		pred = defSpec
	}
	p, err := pred.New()
	if err != nil {
		return nil, fmt.Errorf("variant %q: %w", v.Key, err)
	}
	return p, nil
}

// evalPipeline evaluates pipeline variants that share an artifact: one
// emulation of the program drives a timing model per variant.
func evalPipeline(e *Entry, vs []Variant, cfg Config) ([]Cell, error) {
	prg, err := programFor(e, vs[0].Trace)
	if err != nil {
		return nil, err
	}
	pcs := make([]pipeline.Config, len(vs))
	for i, v := range vs {
		p, err := newPredictor(v)
		if err != nil {
			return nil, err
		}
		pc := pipeline.DefaultConfig(p)
		pc.UseSFPF = v.UseSFPF
		pc.FilterTrue = v.FilterTrue
		pc.PGU = v.PGU
		pc.IssueWidth = v.IssueWidth
		pc.RASDepth = v.RASDepth
		pc.NoRAS = v.NoRAS
		pcs[i] = pc
	}
	sts, err := pipeline.RunMany(prg, pcs, cfg.Limit)
	if err != nil {
		return nil, fmt.Errorf("pipeline on %s (%s): %w", e.Name, vs[0].Trace, err)
	}
	cells := make([]Cell, len(vs))
	for i, v := range vs {
		cells[i] = Cell{Entry: e, Variant: v, P: sts[i]}
	}
	return cells, nil
}

// evalCell evaluates one trace-driven grid point: a fresh predictor from
// the variant's spec, run over the selected trace of the workload.
func evalCell(e *Entry, v Variant) (Cell, error) {
	p, err := newPredictor(v)
	if err != nil {
		return Cell{}, err
	}
	tr, err := traceFor(e, v.Trace)
	if err != nil {
		return Cell{}, err
	}
	m := core.Evaluate(tr, core.EvalConfig{
		Predictor:    p,
		UseSFPF:      v.UseSFPF,
		FilterTrue:   v.FilterTrue,
		ResolveDelay: v.ResolveDelay,
		PGU:          v.PGU,
		PGUDelay:     v.PGUDelay,
	})
	return Cell{Entry: e, Variant: v, M: m}, nil
}

// traceFor resolves a TraceKind to the entry's trace, materializing the
// memoized derived artifacts on first use.
func traceFor(e *Entry, k TraceKind) (*trace.Trace, error) {
	switch k {
	case TraceConv:
		return e.ConvTrace, nil
	case TraceOrig:
		return e.OrigTrace, nil
	case TraceProfiled:
		_, _, tr, err := e.Profiled()
		return tr, err
	case TraceUnscheduled:
		return e.Unscheduled()
	}
	return nil, fmt.Errorf("unknown trace kind %d", int(k))
}

// programFor resolves a TraceKind to the program a pipeline variant
// runs. Profiled() traces the program before returning it, so by the
// time a program is shared across concurrent pipeline cells it is
// already label-resolved (see prog.Resolve).
func programFor(e *Entry, k TraceKind) (*prog.Program, error) {
	switch k {
	case TraceConv:
		return e.Conv, nil
	case TraceOrig:
		return e.Orig, nil
	case TraceProfiled:
		p, _, _, err := e.Profiled()
		return p, err
	}
	return nil, fmt.Errorf("no program for trace kind %s", k)
}
