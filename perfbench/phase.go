package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing modes of a timed phase.
const (
	traceOff       = iota
	traceAlternate // every other op on each lane is traced: overhead = traced vs untraced ops
	traceAll
)

// budget bounds a timed phase: no op starts after dur has elapsed, or
// once ops ops have started across all lanes. Zero fields do not bound.
type budget struct {
	dur time.Duration
	ops int
}

type sample struct {
	end    time.Duration // since the phase started
	lat    time.Duration
	events int64
	traced bool
	failed bool
}

// phase is one timed run of a workload's ops.
type phase struct {
	samples []sample
	// wall runs from the moment every lane was released to the end of
	// the last op; ops/s and events/s divide by it.
	wall  time.Duration
	spans []span
}

// span is one timed interval of a traced op. Spans of one op share Op;
// a child names its parent, and a layer's self time is its span minus
// its children.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the phase started
	Dur    int64  `json:"dur_ns"`
}

// spanLog collects one lane's spans; each lane owns its own, so
// recording takes no lock.
type spanLog struct {
	epoch time.Time
	op    int64
	spans []span
}

func (l *spanLog) add(name, parent string, start time.Time, d time.Duration) {
	l.spans = append(l.spans, span{Op: l.op, Name: name, Parent: parent,
		Start: int64(start.Sub(l.epoch)), Dur: int64(d)})
}

// phaseHooks lets a workload snapshot resource counters (process CPU,
// daemon scheduler counters) right before the lanes are released and
// right after the last op ends.
type phaseHooks interface {
	begin(ctx context.Context) error
	end(ctx context.Context) error
}

// drive runs warm-up ops on every lane, releases all lanes together and
// runs closed-loop ops until the budget is spent. A failed warm-up op
// aborts the phase; a failed timed op is recorded and the lane goes on.
func drive(ctx context.Context, b bench, warmup int, bud budget, mode int) (*phase, error) {
	n := b.lanes()
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	var t0, deadline time.Time
	var started atomic.Int64
	var reported atomic.Int64
	warmErr := make([]error, n)
	laneSamples := make([][]sample, n)
	laneSpans := make([][]span, n)
	ready.Add(n)
	done.Add(n)
	for l := 0; l < n; l++ {
		go func(l int) {
			defer done.Done()
			for i := 0; i < warmup && warmErr[l] == nil; i++ {
				if _, _, err := b.op(ctx, l, nil); err != nil {
					warmErr[l] = fmt.Errorf("warm-up op: %w", err)
				}
			}
			ready.Done()
			<-release
			if warmErr[l] != nil {
				return
			}
			rec := &spanLog{epoch: t0}
			for i := 0; ctx.Err() == nil; i++ {
				if bud.dur > 0 && !time.Now().Before(deadline) {
					break
				}
				if bud.ops > 0 && started.Add(1) > int64(bud.ops) {
					break
				}
				traced := mode == traceAll || (mode == traceAlternate && i%2 == 0)
				var r *spanLog
				if traced {
					rec.op = int64(l)<<32 | int64(i)
					r = rec
				}
				lat, events, err := b.op(ctx, l, r)
				if err != nil && reported.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: lane %d op %d failed: %v\n", l, i, err)
				}
				laneSamples[l] = append(laneSamples[l], sample{end: time.Since(t0), lat: lat, events: events, traced: traced, failed: err != nil})
			}
			laneSpans[l] = rec.spans
		}(l)
	}
	ready.Wait()
	hooks, hooked := b.(phaseHooks)
	var hookErr error
	if hooked {
		hookErr = hooks.begin(ctx)
	}
	t0 = time.Now()
	deadline = t0.Add(bud.dur)
	close(release)
	done.Wait()
	ph := &phase{wall: time.Since(t0)}
	if hooked && hookErr == nil {
		hookErr = hooks.end(ctx)
	}
	for l := 0; l < n; l++ {
		if warmErr[l] != nil {
			return nil, warmErr[l]
		}
		ph.samples = append(ph.samples, laneSamples[l]...)
		ph.spans = append(ph.spans, laneSpans[l]...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if hookErr != nil {
		return nil, hookErr
	}
	if len(ph.samples) == 0 {
		return nil, fmt.Errorf("no op ran in the timed phase")
	}
	return ph, nil
}

// latenciesMS returns the latencies, in milliseconds, of the traced
// ops or of the untraced ones.
func (ph *phase) latenciesMS(traced bool) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.traced == traced {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// ok counts the ops that did not fail.
func (ph *phase) ok() int64 {
	var n int64
	for _, s := range ph.samples {
		if !s.failed {
			n++
		}
	}
	return n
}

// spanMS returns the durations, in milliseconds, of the spans with the
// given name, in recording order.
func (ph *phase) spanMS(name string) []float64 {
	var out []float64
	for _, s := range ph.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e6)
		}
	}
	return out
}

// spanSum totals the durations of the spans with the given name.
func (ph *phase) spanSum(name string) time.Duration {
	var d int64
	for _, s := range ph.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return time.Duration(d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
