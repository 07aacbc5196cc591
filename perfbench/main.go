// Command perfbench is the repository's benchmark: one workload per
// process, measured from outside the programs it drives.
//
//	perfbench -workload regen|sweep|serve-steady|serve-churn -seed N -seconds S -trace 0|1
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints every per-layer metric of every workload plus the
// tracing overhead measured on the named workload. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_p50_ms": {"value": 2891.2, "unit": "ms"}, ...}}
//
// Output checks run on every op; any mismatch counts as a failed op and
// makes the command exit 1. Set-up errors exit 2 without a result line.
// run.py builds this binary and the bpservd/bprouter daemons and starts
// it; see README.md for the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setupReps is how many times each run repeats its set-up; setup_s is
// the median, so one slow process start does not move it.
const setupReps = 5

// workload is one benchmark traffic mix. warmup ops per lane run before
// the timed phase and are excluded from every number; probeOps is the op
// budget when the workload runs only to supply its per-layer metrics to
// another workload's traced run.
type workload struct {
	name     string
	setup    func(ctx context.Context, e *env) (bench, error)
	warmup   int
	probeOps int
}

var workloads = []workload{
	{name: "regen", setup: setupRegen, warmup: 1, probeOps: 1},
	{name: "sweep", setup: setupSweep, warmup: 2, probeOps: 3},
	{name: "serve-steady", setup: setupSteady, warmup: 4, probeOps: 50},
	{name: "serve-churn", setup: setupChurn, warmup: 4, probeOps: 40},
}

// bench is one set-up workload, ready to run ops.
type bench interface {
	// lanes is the number of closed-loop clients running ops at once.
	lanes() int
	// op runs one operation on a lane. It returns the op's latency
	// (client-side input preparation excluded), the predictor events the
	// op covered, and an error for a failed op — a failed output check
	// included. rec, when non-nil, receives the op's spans.
	op(ctx context.Context, lane int, rec *spanLog) (time.Duration, int64, error)
	// verify runs the end-of-run output checks and returns how many ran
	// and how many failed.
	verify(ctx context.Context) (checks, failed int64, err error)
	// layers adds the workload's per-layer metrics, derived from a
	// traced phase and from probes run after it.
	layers(ctx context.Context, ph *phase, m *metrics) error
	// peakRSSMB is the peak resident memory of the processes doing the
	// workload's work.
	peakRSSMB() (float64, error)
	close()
}

// env is what every workload's set-up needs from the command line.
type env struct {
	root string // checkout root; results/*.csv are read from here
	bin  string // directory holding the bpservd and bprouter binaries
	work string // per-process scratch directory under the checkout
	seed uint64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps the order metrics were added in, for the human-readable
// listing; the JSON object is keyed by name.
type metrics struct {
	order  []string
	byName map[string]metric
}

func (m *metrics) add(name string, v float64, unit string) {
	if m.byName == nil {
		m.byName = make(map[string]metric)
	}
	if _, ok := m.byName[name]; !ok {
		m.order = append(m.order, name)
	}
	m.byName[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: regen, sweep, serve-steady or serve-churn")
	seed := fs.Uint64("seed", 1, "workload seed (serving session IDs and trace offsets)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bin", "", "directory holding bpservd and bprouter (default <root>/.bench_build/bin)")
	writeDigest := fs.String("write-digest", "", "regenerate the sweep digest into this file, cross-checked against the oracle's reference evaluator, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" {
		*bin = filepath.Join(*root, ".bench_build", "bin")
	}
	e := &env{root: *root, bin: *bin, seed: *seed}
	if *writeDigest != "" {
		if err := generateDigest(ctx, e, *writeDigest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload regen|sweep|serve-steady|serve-churn -seed N -seconds S -trace 0|1")
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		return 2
	}
	defer os.RemoveAll(work)
	e.work = work

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, e, w, dur)
	} else {
		res, err = runUntraced(ctx, e, w, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTimed runs the workload's set-up setupReps times, keeping the
// last instance, and returns the median set-up time in seconds.
func setupTimed(ctx context.Context, e *env, w workload) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(ctx, e); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, p50(times), nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, e *env, w workload, dur time.Duration) (*result, error) {
	b, setupS, err := setupTimed(ctx, e, w)
	if err != nil {
		return nil, err
	}
	defer b.close()
	ph, err := drive(ctx, b, w.warmup, budget{dur: dur}, traceOff)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var t tally
	t.addPhase(ph)
	checks, failed, err := b.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s verify: %w", w.name, err)
	}
	t.addChecks(checks, failed)
	rss, err := b.peakRSSMB()
	if err != nil {
		return nil, err
	}

	sum := summarize(ph.samples)
	var m metrics
	m.add("setup_s", setupS, "s")
	m.add("op_p50_ms", sum.p50MS, "ms")
	m.add("op_p90_ms", sum.p90MS, "ms")
	m.add("ops_per_s", sum.opsPerS, "1/s")
	m.add("events_per_s", sum.eventsPerS, "1/s")
	m.add("peak_rss_mb", rss, "MB")
	fmt.Fprintf(os.Stdout, "%s: %d ops in %.2fs, %d end-of-run output checks\n",
		w.name, len(ph.samples), ph.wall.Seconds(), t.checks)
	return t.result(&m), nil
}

// runTraced measures the named workload with every other op traced,
// which gives its per-layer metrics and the tracing overhead, then runs
// every other workload briefly, fully traced, for theirs: a traced run
// always prints the whole per-layer ledger.
func runTraced(ctx context.Context, e *env, w workload, dur time.Duration) (*result, error) {
	var m metrics
	var t tally
	var spans []span
	for _, g := range workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var (
			b   bench
			err error
		)
		bud, mode := budget{ops: g.probeOps}, traceAll
		if g.name == w.name {
			bud, mode = budget{dur: dur}, traceAlternate
		}
		if b, err = g.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", g.name, err)
		}
		err = traceOne(ctx, g, b, bud, mode, &m, &t, &spans)
		b.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
	}
	if err := writeSpans(e, w.name, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	fmt.Fprintf(os.Stdout, "traced %s: %d spans, %d end-of-run output checks\n", w.name, len(spans), t.checks)
	return t.result(&m), nil
}

func traceOne(ctx context.Context, g workload, b bench, bud budget, mode int, m *metrics, t *tally, spans *[]span) error {
	ph, err := drive(ctx, b, g.warmup, bud, mode)
	if err != nil {
		return err
	}
	t.addPhase(ph)
	checks, failed, err := b.verify(ctx)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	t.addChecks(checks, failed)
	if mode == traceAlternate {
		m.add("tracing.overhead_pct", overheadPct(p50(ph.latenciesMS(true)), p50(ph.latenciesMS(false))), "%")
	}
	if err := b.layers(ctx, ph, m); err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	*spans = append(*spans, ph.spans...)
	return nil
}

// writeSpans keeps a traced run's spans for inspection, one JSON object
// per line, under the checkout's build directory.
func writeSpans(e *env, name string, spans []span) error {
	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
