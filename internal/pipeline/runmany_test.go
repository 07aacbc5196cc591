package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bpred"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// configMix returns fresh configs covering every timing-model axis:
// issue widths 1/2/4/8, the filter with and without its known-true arm
// and filtered-branch training, every PGU policy (including on a
// predictor whose history cannot accept bits), RAS default, shallow and
// off, and the gshare, perceptron and agree predictors.
func configMix() []Config {
	mk := func(p bpred.Predictor, f func(*Config)) Config {
		c := DefaultConfig(p)
		f(&c)
		return c
	}
	return []Config{
		mk(bpred.NewGShare(12, 8), func(c *Config) {}),
		mk(bpred.NewGShare(12, 8), func(c *Config) {
			c.IssueWidth, c.UseSFPF, c.PGU = 2, true, core.PGUAll
		}),
		mk(bpred.NewPerceptron(8, 24), func(c *Config) {
			c.IssueWidth, c.UseSFPF, c.FilterTrue, c.TrainFiltered = 4, true, true, true
			c.PGU = core.PGUBranchGuards
		}),
		mk(bpred.NewAgree(12, 8), func(c *Config) {
			c.IssueWidth, c.PGU, c.NoRAS = 8, core.PGURegionGuards, true
		}),
		mk(bpred.NewGShare(10, 6), func(c *Config) {
			c.UseSFPF, c.FilterTrue, c.PGU, c.RASDepth = true, true, core.PGUAll, 2
			c.MispredictPenalty, c.PredResolveLatency = 3, 1
		}),
		mk(bpred.NewBimodal(10), func(c *Config) {
			c.IssueWidth, c.UseSFPF, c.PGU = 2, true, core.PGUAll
		}),
		mk(bpred.NewPerceptron(8, 16), func(c *Config) {
			c.IssueWidth, c.UseSFPF, c.TrainFiltered = 8, true, true
			c.PredResolveLatency = 12
		}),
		mk(bpred.NewAgree(10, 10), func(c *Config) {
			c.IssueWidth, c.UseSFPF, c.PGU = 4, true, core.PGURegionGuards
		}),
	}
}

// mixPrograms returns the suite programs, original and if-converted,
// plus a few synthetic ones.
func mixPrograms(t testing.TB) []*prog.Program {
	t.Helper()
	var out []*prog.Program
	for _, w := range workload.Suite() {
		p := w.Build()
		cp, _, err := ifconv.Convert(p, ifconv.Config{})
		if err != nil {
			t.Fatalf("convert %s: %v", w.Name, err)
		}
		out = append(out, p, cp)
	}
	for _, name := range []string{"syn:lag:k=6:n=512", "syn:xcorr:n=512", "syn:bias:p=0.7:n=512"} {
		out = append(out, charz.MustPoint(name).Build())
	}
	return out
}

// TestRunManyMatchesRun pins lockstep timing to independent runs: each
// config's stats from one shared emulation equal, field by field, the
// stats of timing that config alone.
func TestRunManyMatchesRun(t *testing.T) {
	for _, p := range mixPrograms(t) {
		many, err := RunMany(p, configMix(), runLimit)
		if err != nil {
			t.Fatalf("%s: RunMany: %v", p.Name, err)
		}
		for i, cfg := range configMix() {
			one := runCfg(t, p, cfg)
			if many[i] != one {
				t.Errorf("%s config %d: RunMany %+v, Run %+v", p.Name, i, many[i], one)
			}
			if !cfg.FilterTrue && one.FilterErrors != 0 {
				t.Errorf("%s config %d: %d filter errors with FilterTrue off", p.Name, i, one.FilterErrors)
			}
		}
	}
}

// TestRunManyStepLimit checks the early-stop path: every config gets
// the error and the partial stats a lone run stops with.
func TestRunManyStepLimit(t *testing.T) {
	p := workload.ByNameMust("classify").Build()
	const limit = 5000
	many, manyErr := RunMany(p, configMix(), limit)
	if !errors.Is(manyErr, emu.ErrLimit) {
		t.Fatalf("RunMany error %v, want ErrLimit", manyErr)
	}
	if len(many) != len(configMix()) {
		t.Fatalf("RunMany returned %d partial stats for %d configs", len(many), len(configMix()))
	}
	for i, cfg := range configMix() {
		one, err := Run(p, cfg, limit)
		if err == nil || err.Error() != manyErr.Error() {
			t.Errorf("config %d: Run error %v, RunMany error %v", i, err, manyErr)
		}
		if many[i] != one {
			t.Errorf("config %d: partial stats RunMany %+v, Run %+v", i, many[i], one)
		}
		if one.Insts != limit {
			t.Errorf("config %d: stopped after %d insts, want %d", i, one.Insts, limit)
		}
	}
}

// TestRunManyFault checks that an emulation fault stops every config
// with the fault error and the same partial stats a lone run reports.
func TestRunManyFault(t *testing.T) {
	b := prog.NewBuilder("fault")
	b.Movi(1, 3)
	b.Movi(2, 0)
	b.Label("top")
	b.Subi(1, 1, 1)
	b.Cmpi(isa.CmpGT, 2, 3, 1, 0)
	b.BrIf(2, "top")
	b.Div(4, 1, 2) // divides by zero
	b.Halt(0)
	p := b.MustProgram()
	many, manyErr := RunMany(p, configMix(), 0)
	var f *emu.Fault
	if !errors.As(manyErr, &f) {
		t.Fatalf("RunMany error %v, want an emulation fault", manyErr)
	}
	for i, cfg := range configMix() {
		one, err := Run(p, cfg, 0)
		if err == nil || err.Error() != manyErr.Error() {
			t.Errorf("config %d: Run error %v, RunMany error %v", i, err, manyErr)
		}
		if many[i] != one {
			t.Errorf("config %d: partial stats RunMany %+v, Run %+v", i, many[i], one)
		}
		if one.Branches != 3 || one.Cycles != 0 {
			t.Errorf("config %d: partial stats %+v, want 3 branches and no cycle total", i, one)
		}
	}
}

func TestRunManyRejectsSharedPredictor(t *testing.T) {
	p := workload.ByNameMust("rand").Build()
	g := bpred.NewGShare(12, 8)
	if _, err := RunMany(p, []Config{DefaultConfig(g), DefaultConfig(bpred.NewBimodal(8)), DefaultConfig(g)}, 0); err == nil {
		t.Fatal("RunMany accepted two configs sharing one predictor")
	}
	if _, err := RunMany(p, []Config{DefaultConfig(g), {}}, 0); err == nil {
		t.Fatal("RunMany accepted a config without a predictor")
	}
	if st, err := RunMany(p, nil, 0); err != nil || len(st) != 0 {
		t.Fatalf("RunMany with no configs: %v, %v", st, err)
	}
}

// TestBranchCountsMatchEvaluator checks the timing model against the
// trace evaluator: with the filter and PGU off, prediction is a pure
// function of the branch stream, so the pipeline's branch and
// misprediction counts must equal core.Evaluate's on trace.Collect of
// the same program, for every registry kind and every issue width.
func TestBranchCountsMatchEvaluator(t *testing.T) {
	var progs []*prog.Program
	for _, name := range []string{"classify", "queens", "huff"} {
		p := workload.ByNameMust(name).Build()
		cp, _, err := ifconv.Convert(p, ifconv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p, cp)
	}
	progs = append(progs, charz.MustPoint("syn:xcorr:n=512").Build())
	widths := []int{1, 2, 4, 8}
	for _, p := range progs {
		tr, err := trace.Collect(p, runLimit)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range sim.Kinds() {
			spec := sim.Spec{Kind: kind}
			m := core.Evaluate(tr, core.EvalConfig{Predictor: spec.MustNew()})
			want := [4]uint64{m.Branches, m.RegionBranches, m.Mispredicts, m.RegionMispredicts}
			cfgs := make([]Config, len(widths))
			for i, w := range widths {
				cfgs[i] = DefaultConfig(spec.MustNew())
				cfgs[i].IssueWidth = w
			}
			sts, err := RunMany(p, cfgs, runLimit)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range sts {
				got := [4]uint64{st.Branches, st.RegionBranches, st.Mispredicts, st.RegionMispredicts}
				if got != want {
					t.Errorf("%s %s width %d: pipeline branches/region/mispredicts/region-mispredicts %v, evaluator %v",
						p.Name, kind, widths[i], got, want)
				}
			}
		}
	}
}

// loopProgram counts down n iterations of a body with a compare feeding
// the loop branch's guard, a second compare writing p0 as one
// destination, and a call/return pair, so every timing structure
// (resolve queue, filter, PGU, RAS) is active.
func loopProgram(n int64) *prog.Program {
	b := prog.NewBuilder(fmt.Sprintf("loop%d", n))
	b.Movi(1, n)
	b.Label("top")
	b.Subi(1, 1, 1)
	b.Cmpi(isa.CmpGT, 2, 3, 1, 0)
	b.Andi(5, 1, 3)
	b.Cmpi(isa.CmpEQ, 4, 0, 5, 0)
	b.Brl(6, "fn")
	b.BrIf(2, "top")
	b.Halt(0)
	b.Label("fn")
	b.Addi(7, 7, 1)
	b.Brr(6)
	return b.MustProgram()
}

// TestRunAllocsIndependentOfLength pins the timing loop to zero
// per-instruction allocations: a run ten times longer allocates exactly
// as often.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int64) float64 {
		p := loopProgram(n)
		cfg := DefaultConfig(bpred.NewGShare(12, 8))
		cfg.UseSFPF, cfg.PGU, cfg.IssueWidth = true, core.PGUAll, 2
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, cfg, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1000), allocs(10000)
	if short != long {
		t.Errorf("Run allocates %.0f times at 1000 iterations but %.0f at 10000", short, long)
	}
}

// benchProgram is the if-converted classify kernel, a mid-sized suite
// program with compares, region branches and loads.
func benchProgram(b *testing.B) *prog.Program {
	b.Helper()
	cp, _, err := ifconv.Convert(workload.ByNameMust("classify").Build(), ifconv.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

// BenchmarkRun times one config (SFPF + PGU all, the E6 "both" machine)
// and reports ns per simulated instruction.
func BenchmarkRun(b *testing.B) {
	p := benchProgram(b)
	cfg := DefaultConfig(bpred.NewGShare(12, 8))
	cfg.UseSFPF, cfg.PGU = true, core.PGUAll
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Run(p, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkRunMany times the four E6 predicated-code machines in
// lockstep over one emulation and reports ns per emulated instruction
// (all four timed).
func BenchmarkRunMany(b *testing.B) {
	p := benchProgram(b)
	mk := func(sfpf bool, pgu core.PGUPolicy) Config {
		c := DefaultConfig(bpred.NewGShare(12, 8))
		c.UseSFPF, c.PGU = sfpf, pgu
		return c
	}
	cfgs := []Config{mk(false, core.PGUOff), mk(true, core.PGUOff), mk(false, core.PGUAll), mk(true, core.PGUAll)}
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sts, err := RunMany(p, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += sts[0].Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
