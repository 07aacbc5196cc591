package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
	wl "repro/internal/workload"
)

// sweepWorkers is the sweep's worker count: the container's two CPUs.
const sweepWorkers = 2

// sweepDigest holds the expected metrics of every sweep job, one line
// each, written by -write-digest after checking every job against the
// oracle's reference evaluator.
//
//go:embed sweep.digest
var sweepDigest string

// sweepConfigs are the two evaluator configurations of the sweep grid:
// the plain predictor (core's tight loop) and the paper's mechanisms
// (core's full loop).
var sweepConfigs = []struct {
	name     string
	featured bool
}{{"plain", false}, {"sfpf+pgu", true}}

// evalConfig builds a registry predictor's evaluation config, with SFPF
// and PGU (all defines) at their default delays when featured.
func evalConfig(spec string, featured bool) (core.EvalConfig, error) {
	p, err := sim.NewPredictor(spec)
	if err != nil {
		return core.EvalConfig{}, err
	}
	cfg := core.EvalConfig{Predictor: p}
	if featured {
		cfg.UseSFPF = true
		cfg.ResolveDelay = core.DefaultResolveDelay
		cfg.PGU = core.PGUAll
		cfg.PGUDelay = core.DefaultPGUDelay
	}
	return cfg, nil
}

// suiteEntry is one if-converted suite workload and its trace.
type suiteEntry struct {
	name string
	conv *prog.Program
	tr   *trace.Trace
}

// convertedSuite if-converts and traces the 16 paper-suite workloads.
func convertedSuite(ctx context.Context) ([]suiteEntry, error) {
	return sim.Map(ctx, wl.Suite(), sweepWorkers,
		func(_ context.Context, w wl.Workload) (suiteEntry, error) {
			cp, _, err := ifconv.Convert(w.Build(), ifconv.Config{})
			if err != nil {
				return suiteEntry{}, fmt.Errorf("convert %s: %w", w.Name, err)
			}
			tr, err := trace.Collect(cp, traceLimit)
			if err != nil {
				return suiteEntry{}, fmt.Errorf("collect %s: %w", w.Name, err)
			}
			return suiteEntry{name: w.Name, conv: cp, tr: tr}, nil
		})
}

type sweepJob struct {
	kind, config string
	featured     bool
	entry        *suiteEntry
}

// sweepBench is the `sweep` workload: one op evaluates every registry
// predictor kind under both configurations over the 16 suite traces, as
// one sim.Sweep grid of kind × config × workload jobs on two workers.
type sweepBench struct {
	suite  []suiteEntry
	jobs   []sweepJob
	events int64 // events one op feeds
}

func setupSweep(ctx context.Context, _ *env) (bench, error) {
	suite, err := convertedSuite(ctx)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{suite: suite}
	for _, kind := range sim.Kinds() {
		for _, c := range sweepConfigs {
			for i := range b.suite {
				b.jobs = append(b.jobs, sweepJob{kind: kind, config: c.name, featured: c.featured, entry: &b.suite[i]})
				b.events += int64(len(b.suite[i].tr.Events))
			}
		}
	}
	return b, nil
}

func (b *sweepBench) lanes() int { return 1 }

// run evaluates the grid; with rec set, each job is a span named
// kind/config under the op's sim.sweep span.
func (b *sweepBench) run(ctx context.Context, rec *spanLog) ([]core.Metrics, time.Duration, error) {
	jobs := make([]sim.Job[core.Metrics], len(b.jobs))
	spans := make([]struct {
		start time.Time
		d     time.Duration
	}, len(b.jobs))
	for i := range b.jobs {
		j := &b.jobs[i]
		jobs[i] = func(context.Context) (core.Metrics, error) {
			cfg, err := evalConfig(j.kind, j.featured)
			if err != nil {
				return core.Metrics{}, err
			}
			if rec == nil {
				return core.Evaluate(j.entry.tr, cfg), nil
			}
			t0 := time.Now()
			m := core.Evaluate(j.entry.tr, cfg)
			spans[i].start, spans[i].d = t0, time.Since(t0)
			return m, nil
		}
	}
	t0 := time.Now()
	res, err := sim.Sweep(ctx, jobs, sweepWorkers)
	lat := time.Since(t0)
	if rec != nil {
		rec.add("sim.sweep", "", t0, lat)
		for i, j := range b.jobs {
			rec.add(j.kind+"/"+j.config, "sim.sweep", spans[i].start, spans[i].d)
		}
	}
	return res, lat, err
}

func (b *sweepBench) op(ctx context.Context, _ int, rec *spanLog) (time.Duration, int64, error) {
	res, lat, err := b.run(ctx, rec)
	if err != nil {
		return lat, 0, err
	}
	if got := b.digest(res); got != sweepDigest {
		return lat, 0, fmt.Errorf("sweep metrics differ from sweep.digest (first difference: %s)", firstDiff(got, sweepDigest))
	}
	return lat, b.events, nil
}

// digest renders every job's metrics, one line per job in grid order.
func (b *sweepBench) digest(res []core.Metrics) string {
	var sb strings.Builder
	for i, j := range b.jobs {
		m := &res[i]
		fmt.Fprintf(&sb, "%s %s %s insts=%d branches=%d mispredicts=%d region=%d/%d filtered=%d/%d/%d preddefs=%d inserted=%d\n",
			j.kind, j.config, j.entry.name, m.Insts, m.Branches, m.Mispredicts,
			m.RegionBranches, m.RegionMispredicts, m.Filtered, m.FilteredTrue, m.FilterErrors,
			m.PredDefs, m.InsertedBits)
	}
	return sb.String()
}

// firstDiff names the first line where two digests disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "none"
}

func (b *sweepBench) verify(context.Context) (int64, int64, error) { return 0, 0, nil }

func (b *sweepBench) peakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (b *sweepBench) close() {}

// layers reports, from the traced ops' job spans, the host time per
// event of each predictor kind (plain config, core's tight loop), of
// the tight and full loops over all kinds, and how busy the workers
// were; then it counts heap allocations of the feed loops directly.
func (b *sweepBench) layers(ctx context.Context, ph *phase, m *metrics) error {
	perJob := make(map[string]int64) // job span name -> events per op
	for _, j := range b.jobs {
		perJob[j.kind+"/"+j.config] += int64(len(j.entry.tr.Events))
	}
	ops := int64(len(ph.spanMS("sim.sweep")))
	if ops == 0 {
		return fmt.Errorf("no traced sweep op")
	}
	var tight, full time.Duration
	var tightEv, fullEv int64
	for _, kind := range sim.Kinds() {
		d := ph.spanSum(kind + "/plain")
		m.add("bpred."+kind+".ns_per_event", perUnit(d, perJob[kind+"/plain"]*ops), "ns")
		tight += d
		tightEv += perJob[kind+"/plain"] * ops
		full += ph.spanSum(kind + "/sfpf+pgu")
		fullEv += perJob[kind+"/sfpf+pgu"] * ops
	}
	m.add("core.tight_ns_per_event", perUnit(tight, tightEv), "ns")
	m.add("core.full_ns_per_event", perUnit(full, fullEv), "ns")
	allocs, events, err := b.feedAllocs(ctx)
	if err != nil {
		return err
	}
	m.add("core.allocs_per_event", float64(allocs)/float64(events), "allocs")
	m.add("sim.busy_ratio", busyRatio(tight+full, ph.spanSum("sim.sweep"), sweepWorkers), "ratio")
	return nil
}

// feedAllocs counts the heap allocations of the feed loops alone: every
// grid job's evaluator is built first, then one serial pass feeds each
// its trace between two runtime.MemStats reads.
func (b *sweepBench) feedAllocs(ctx context.Context) (allocs uint64, events int64, err error) {
	evs := make([]*core.Evaluator, len(b.jobs))
	for i, j := range b.jobs {
		cfg, err := evalConfig(j.kind, j.featured)
		if err != nil {
			return 0, 0, err
		}
		evs[i] = core.NewEvaluator(cfg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, j := range b.jobs {
		if i%32 == 0 && ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		evs[i].FeedBatch(j.entry.tr.Events)
		events += int64(len(j.entry.tr.Events))
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, events, nil
}

// generateDigest writes the sweep digest after cross-checking every job
// of the grid against the oracle's naive reference evaluator.
func generateDigest(ctx context.Context, e *env, path string) error {
	bb, err := setupSweep(ctx, e)
	if err != nil {
		return err
	}
	b := bb.(*sweepBench)
	res, _, err := b.run(ctx, nil)
	if err != nil {
		return err
	}
	for i, j := range b.jobs {
		cfg, err := evalConfig(j.kind, j.featured)
		if err != nil {
			return err
		}
		spec, err := sim.Parse(j.kind)
		if err != nil {
			return err
		}
		c := oracle.Case{Name: j.kind + "/" + j.config + "/" + j.entry.name, Prog: j.entry.conv, Limit: traceLimit, Spec: spec, Cfg: cfg}
		if err := oracle.CheckEvaluator(c); err != nil {
			return err
		}
		// CheckEvaluator confirms core.Evaluate on a fresh collection of
		// the program's trace; the job must have seen the same.
		if want := core.Evaluate(j.entry.tr, cfg); !reflect.DeepEqual(res[i], want) {
			return fmt.Errorf("%s: sweep job differs from a direct evaluation", c.Name)
		}
	}
	return os.WriteFile(path, []byte(b.digest(res)), 0o644)
}
