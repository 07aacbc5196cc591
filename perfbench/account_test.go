package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := p50(xs); !near(got, 5.5) {
		t.Errorf("p50 = %g, want 5.5", got)
	}
	if got := p90(xs); !near(got, 9.1) {
		t.Errorf("p90 = %g, want 9.1 (linear interpolation between ranks)", got)
	}
	if xs[0] != 10 {
		t.Errorf("percentile reordered its input")
	}
	if got := p90([]float64{4}); got != 4 {
		t.Errorf("p90 of one sample = %g, want 4", got)
	}
}

func TestTallyFailRatio(t *testing.T) {
	ph := &phase{samples: []sample{{}, {failed: true}, {}, {failed: true}, {}}}
	var tl tally
	tl.addPhase(ph)
	if tl.attempted != 5 || tl.failed != 2 {
		t.Fatalf("after phase: attempted %d failed %d, want 5 and 2", tl.attempted, tl.failed)
	}
	// Three output checks, one failed: it counts as one more failed op.
	tl.addChecks(3, 1)
	if tl.attempted != 6 || tl.failed != 3 || tl.checks != 3 {
		t.Fatalf("after checks: attempted %d failed %d checks %d, want 6, 3, 3", tl.attempted, tl.failed, tl.checks)
	}
	if got := tl.ratio(); !near(got, 0.5) {
		t.Errorf("fail_ratio = %g, want 0.5", got)
	}
	if res := tl.result(&metrics{}); res.Correct || res.Attempted != 6 || res.Failed != 3 {
		t.Errorf("result = %+v, want incorrect with 6 attempted and 3 failed", res)
	}
	var empty tally
	if empty.ratio() != 0 {
		t.Errorf("fail_ratio with nothing attempted = %g, want 0", empty.ratio())
	}
	if res := empty.result(&metrics{}); !res.Correct {
		t.Errorf("a run with no failures must be correct")
	}
}

func TestSummarize(t *testing.T) {
	// Two lanes, 40 ops, one op completing every 10ms except a stall
	// that makes the window holding op 30 take 100ms longer; ops 5 and
	// 6 failed.
	var s []sample
	end := time.Duration(0)
	for i := 0; i < 40; i++ {
		end += 10 * time.Millisecond
		if i == 30 {
			end += 100 * time.Millisecond
		}
		s = append(s, sample{end: end, lat: time.Duration(i+1) * time.Millisecond, events: 100, failed: i == 5 || i == 6})
	}
	// Completion order, not lane order, defines the windows.
	s[0], s[39] = s[39], s[0]
	sum := summarize(s)
	// 20 windows of 2 ops: 17 run 2 good ops in 20ms, the stalled one
	// takes 120ms, and the failed ops 5 and 6 leave windows 2 and 3 one
	// good op each. The median window runs 2 good ops per 20ms.
	if !near(sum.opsPerS, 100) {
		t.Errorf("ops/s = %g, want 100", sum.opsPerS)
	}
	if !near(sum.eventsPerS, 10000) {
		t.Errorf("events/s = %g, want 10000", sum.eventsPerS)
	}
	// Fewer than 2*minWindowOps ops: the percentiles are over all ops.
	if !near(sum.p50MS, 20.5) || !near(sum.p90MS, 36.1) {
		t.Errorf("p50/p90 = %g/%g ms, want 20.5/36.1", sum.p50MS, sum.p90MS)
	}
	// With 300 ops the percentiles are the median of three windows' own:
	// latencies 1..100ms, 101..200ms, 201..300ms, so p50 is the middle
	// window's 150.5ms and p90 its 190.1ms.
	var long []sample
	for i := 0; i < 300; i++ {
		long = append(long, sample{end: time.Duration(i+1) * time.Millisecond, lat: time.Duration(i+1) * time.Millisecond})
	}
	if sum := summarize(long); !near(sum.p50MS, 150.5) || !near(sum.p90MS, 190.1) {
		t.Errorf("windowed p50/p90 = %g/%g ms, want 150.5/190.1", sum.p50MS, sum.p90MS)
	}
	// A phase shorter than the window count gets one window per op.
	one := summarize([]sample{{end: 2 * time.Second, lat: 2 * time.Second, events: 7}})
	if !near(one.opsPerS, 0.5) || !near(one.eventsPerS, 3.5) || !near(one.p90MS, 2000) {
		t.Errorf("single-op summary = %+v", one)
	}
}

func TestSelfTimes(t *testing.T) {
	// Handler self time: handler p50 minus per-batch decode and feed.
	if got := selfMS(0.270, 0.110, 0.156); !near(got, 0.004) {
		t.Errorf("handler self = %g ms, want 0.004", got)
	}
	// Router hop: routed minus direct.
	if got := selfMS(2.4, 1.0); !near(got, 1.4) {
		t.Errorf("hop = %g ms, want 1.4", got)
	}
	// Suite build: each traced op's harness.run span minus its
	// experiment spans, op by op.
	ph := &phase{spans: []span{
		{Op: 1, Name: "harness.run", Dur: 3000e6},
		{Op: 1, Name: "E1", Parent: "harness.run", Dur: 1000e6},
		{Op: 1, Name: "E2", Parent: "harness.run", Dur: 1800e6},
		{Op: 2, Name: "harness.run", Dur: 2500e6},
		{Op: 2, Name: "E1", Parent: "harness.run", Dur: 900e6},
		{Op: 2, Name: "E2", Parent: "harness.run", Dur: 1500e6},
	}}
	got := suiteSelfMS(ph, []string{"E1", "E2"})
	if len(got) != 2 || !near(got[0], 200) || !near(got[1], 100) {
		t.Errorf("suite self times = %v ms, want [200 100]", got)
	}
	if got := ph.spanSum("E1"); got != 1900*time.Millisecond {
		t.Errorf("span sum = %v, want 1.9s", got)
	}
	if got := busyRatio(3*time.Second, 2*time.Second, 2); !near(got, 0.75) {
		t.Errorf("busy ratio = %g, want 0.75", got)
	}
	if got := overheadPct(10.5, 10); !near(got, 5) {
		t.Errorf("overhead = %g%%, want 5%%", got)
	}
	if got := perUnit(time.Millisecond, 1000); !near(got, 1000) {
		t.Errorf("per unit = %g ns, want 1000", got)
	}
}
