package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/stats"
)

// p50 and p90 are the only percentiles the benchmark reports: above
// p90 a run of a few hundred ops has too few samples beyond the cut for
// the figure to repeat from run to run.
func p50(xs []float64) float64 { return stats.Percentile(xs, 50) }
func p90(xs []float64) float64 { return stats.Percentile(xs, 90) }

// tally counts attempted and failed ops. A failed output check counts as
// one more attempted op that failed, so fail_ratio covers both.
type tally struct {
	attempted, failed, checks int64
}

func (t *tally) addPhase(ph *phase) {
	for _, s := range ph.samples {
		t.attempted++
		if s.failed {
			t.failed++
		}
	}
}

func (t *tally) addChecks(checks, failed int64) {
	t.checks += checks
	t.attempted += failed
	t.failed += failed
}

// ratio is fail_ratio: failed ops over attempted ops.
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// result prints the metrics one per line, by name with their unit, and
// returns the JSON result object.
func (t *tally) result(m *metrics) *result {
	for _, name := range m.order {
		v := m.byName[name]
		fmt.Fprintf(os.Stdout, "  %-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(os.Stdout, "  %-34s %14.6g %s\n", "fail_ratio", t.ratio(), "ratio")
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m.byName,
	}
}

// selfMS is a layer's self time: its span minus the parts measured
// inside it (child spans, or the in-process cost of a step it includes).
func selfMS(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	return total
}

// busyRatio is the share of the workers' wall time spent inside jobs.
func busyRatio(busy, wall time.Duration, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return float64(busy) / (float64(wall) * float64(workers))
}

// overheadPct is how much slower traced ops ran than untraced ones, in
// percent of the untraced figure.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// perUnit divides a duration among units of work, in nanoseconds.
func perUnit(d time.Duration, units int64) float64 {
	if units == 0 {
		return 0
	}
	return float64(d) / float64(units)
}

// Windows: a phase is cut, in op completion order, into consecutive
// windows of equal op counts, and each end-to-end figure is the median
// of its per-window values, so a few seconds of load from outside the
// benchmark that slow some windows do not move it. Throughput uses up to
// maxWindows windows; percentiles use windows of at least minWindowOps
// ops, enough for a p90 with ten samples beyond it, and a phase with
// fewer ops than that is one window.
const (
	maxWindows   = 20
	minWindowOps = 100
)

type summary struct {
	opsPerS, eventsPerS, p50MS, p90MS float64
}

func summarize(samples []sample) summary {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	var sum summary
	k := min(maxWindows, len(s))
	var rates, evRates []float64
	var prevEnd time.Duration
	for _, w := range cut(s, k) {
		end := w[len(w)-1].end
		var ok, events int64
		for _, x := range w {
			if !x.failed {
				ok++
				events += x.events
			}
		}
		secs := (end - prevEnd).Seconds()
		prevEnd = end
		rates = append(rates, float64(ok)/secs)
		evRates = append(evRates, float64(events)/secs)
	}
	sum.opsPerS, sum.eventsPerS = p50(rates), p50(evRates)

	k = max(1, min(maxWindows, len(s)/minWindowOps))
	var p50s, p90s []float64
	for _, w := range cut(s, k) {
		lat := make([]float64, len(w))
		for i, x := range w {
			lat[i] = ms(x.lat)
		}
		p50s = append(p50s, p50(lat))
		p90s = append(p90s, p90(lat))
	}
	sum.p50MS, sum.p90MS = p50(p50s), p50(p90s)
	return sum
}

// cut splits s into k consecutive parts of equal size (within one).
func cut(s []sample, k int) [][]sample {
	out := make([][]sample, k)
	for w := range out {
		out[w] = s[w*len(s)/k : (w+1)*len(s)/k]
	}
	return out
}
