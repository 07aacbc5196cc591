package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/harness"
	"repro/internal/ifconv"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	wl "repro/internal/workload"
)

// traceLimit bounds emulation per program run, as in the harness.
const traceLimit = 3_000_000

// regenBench is the `regen` workload: one op is one full, non-quick
// E1–E15 regeneration on a fresh suite (so if-conversion, emulation and
// trace collection are paid inside the op), checked table by table
// against the committed results/*.csv.
type regenBench struct {
	golden map[string]string // table name -> committed CSV
	events int64             // trace events one suite build collects
}

// setupRegen loads the committed tables and builds the suite once: the
// build warms the converter and emulator and counts the events an op's
// suite build collects.
func setupRegen(ctx context.Context, e *env) (bench, error) {
	paths, err := filepath.Glob(filepath.Join(e.root, "results", "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no committed tables under %s", filepath.Join(e.root, "results"))
	}
	b := &regenBench{golden: make(map[string]string, len(paths))}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		b.golden[strings.TrimSuffix(filepath.Base(p), ".csv")] = string(data)
	}
	s, err := harness.NewSuiteContext(ctx, harness.Config{})
	if err != nil {
		return nil, err
	}
	for _, en := range s.Entries {
		b.events += int64(len(en.OrigTrace.Events) + len(en.ConvTrace.Events))
	}
	return b, nil
}

func (b *regenBench) lanes() int { return 1 }

func (b *regenBench) op(ctx context.Context, _ int, rec *spanLog) (time.Duration, int64, error) {
	t0 := time.Now()
	res, err := harness.RunSelected(ctx, harness.Config{}, harness.All())
	lat := time.Since(t0)
	if err != nil {
		return lat, 0, err
	}
	if rec != nil {
		// The suite build runs first, then the experiments in order.
		rec.add("harness.run", "", t0, lat)
		at := t0.Add(lat)
		for i := len(res) - 1; i >= 0; i-- {
			at = at.Add(-res[i].Wall)
		}
		for _, r := range res {
			rec.add(r.Experiment.ID, "harness.run", at, r.Wall)
			at = at.Add(r.Wall)
		}
	}
	seen := 0
	for _, r := range res {
		for i, t := range r.Tables {
			name := r.TableName(i)
			want, ok := b.golden[name]
			if !ok {
				return lat, 0, fmt.Errorf("table %s has no committed results/%s.csv", name, name)
			}
			if t.CSV() != want {
				return lat, 0, fmt.Errorf("table %s differs from results/%s.csv", name, name)
			}
			seen++
		}
	}
	if seen != len(b.golden) {
		return lat, 0, fmt.Errorf("regeneration produced %d tables, results/ holds %d", seen, len(b.golden))
	}
	return lat, b.events, nil
}

// verify has nothing left to check: every op compared its tables.
func (b *regenBench) verify(context.Context) (int64, int64, error) { return 0, 0, nil }

func (b *regenBench) peakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (b *regenBench) close() {}

// layers reports the harness spans of the traced ops — the suite build
// as the op's self time, and each experiment — and then runs one serial
// decomposition pass over the suite.
func (b *regenBench) layers(ctx context.Context, ph *phase, m *metrics) error {
	var ids []string
	for _, x := range harness.All() {
		ids = append(ids, x.ID)
	}
	m.add("harness.suite_ms", p50(suiteSelfMS(ph, ids)), "ms")
	for _, id := range ids {
		m.add("harness."+id+"_ms", p50(ph.spanMS(id)), "ms")
	}
	return decompose(ctx, m)
}

// suiteSelfMS is, per traced op, the harness.run span minus its
// experiment spans: the time RunSelected spent building the suite.
func suiteSelfMS(ph *phase, ids []string) []float64 {
	var out []float64
	for i, run := range ph.spanMS("harness.run") {
		var exps []float64
		for _, id := range ids {
			if d := ph.spanMS(id); i < len(d) {
				exps = append(exps, d[i])
			}
		}
		out = append(out, selfMS(run, exps...))
	}
	return out
}

// allocMeter measures the wall time and heap allocations of one call.
type allocMeter struct {
	d              time.Duration
	mallocs, bytes uint64
	before, after  runtime.MemStats
}

func (a *allocMeter) measure(f func() error) error {
	runtime.ReadMemStats(&a.before)
	t0 := time.Now()
	err := f()
	a.d += time.Since(t0)
	runtime.ReadMemStats(&a.after)
	a.mallocs += a.after.Mallocs - a.before.Mallocs
	a.bytes += a.after.TotalAlloc - a.before.TotalAlloc
	return err
}

// decompose runs each simulation layer once, serially, over the 16 suite
// workloads, timing every call and taking runtime.MemStats deltas around
// it. These are the layers a regen op pays for inside its suite build
// and its pipeline-backed experiments.
func decompose(ctx context.Context, m *metrics) error {
	var conv, emulate, collect, pipe, prof, char, eval allocMeter
	var insts, events, pipeInsts, evalEvents int64
	for _, w := range wl.Suite() {
		if err := ctx.Err(); err != nil {
			return err
		}
		orig := w.Build()
		cp := orig
		if err := conv.measure(func() (err error) {
			cp, _, err = ifconv.Convert(orig, ifconv.Config{})
			return err
		}); err != nil {
			return fmt.Errorf("convert %s: %w", w.Name, err)
		}
		if err := emulate.measure(func() error {
			r, err := emu.RunProgram(cp, traceLimit)
			insts += int64(r.Steps)
			return err
		}); err != nil {
			return fmt.Errorf("emulate %s: %w", w.Name, err)
		}
		var tr *trace.Trace
		if err := collect.measure(func() (err error) {
			tr, err = trace.Collect(cp, traceLimit)
			return err
		}); err != nil {
			return fmt.Errorf("collect %s: %w", w.Name, err)
		}
		events += int64(len(tr.Events))
		pc := pipeline.DefaultConfig(sim.Spec{Kind: "gshare"}.MustNew())
		pc.UseSFPF, pc.PGU = true, core.PGUAll
		if err := pipe.measure(func() error {
			st, err := pipeline.Run(cp, pc, traceLimit)
			pipeInsts += int64(st.Insts)
			return err
		}); err != nil {
			return fmt.Errorf("pipeline %s: %w", w.Name, err)
		}
		ref := sim.Spec{Kind: "gshare"}.MustNew()
		if err := prof.measure(func() error {
			_, err := profile.Collect(orig, ref, traceLimit)
			return err
		}); err != nil {
			return fmt.Errorf("profile %s: %w", w.Name, err)
		}
		origTr, err := trace.Collect(orig, traceLimit)
		if err != nil {
			return fmt.Errorf("collect %s (original): %w", w.Name, err)
		}
		if err := char.measure(func() error {
			_, err := charz.Characterize(origTr, charz.Options{})
			return err
		}); err != nil {
			return fmt.Errorf("characterize %s: %w", w.Name, err)
		}
		cfg, err := evalConfig("gshare", true)
		if err != nil {
			return err
		}
		if err := eval.measure(func() error {
			core.Evaluate(tr, cfg)
			return nil
		}); err != nil {
			return err
		}
		evalEvents += int64(len(tr.Events))
	}
	m.add("ifconv.convert_ms", ms(conv.d), "ms")
	m.add("emu.ns_per_inst", perUnit(emulate.d, insts), "ns")
	m.add("emu.allocs_per_inst", float64(emulate.mallocs)/float64(insts), "allocs")
	m.add("trace.collect_ns_per_event", perUnit(collect.d, events), "ns")
	m.add("trace.collect_allocs_per_event", float64(collect.mallocs)/float64(events), "allocs")
	m.add("pipeline.ns_per_inst", perUnit(pipe.d, pipeInsts), "ns")
	m.add("pipeline.allocs_per_inst", float64(pipe.mallocs)/float64(pipeInsts), "allocs")
	m.add("pipeline.bytes_per_inst", float64(pipe.bytes)/float64(pipeInsts), "B")
	m.add("profile.collect_ms", ms(prof.d), "ms")
	m.add("charz.characterize_ms", ms(char.d), "ms")
	m.add("core.eval_ns_per_event", perUnit(eval.d, evalEvents), "ns")
	return nil
}
