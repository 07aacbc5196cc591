package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snap"
)

// churnSpec is serve-churn's session configuration: a large gshare with
// both paper mechanisms and per-branch statistics, so each snapshot
// carries a sizeable predictor table and per-branch rows.
var churnSpec = sessionSpec{spec: "gshare:16:12", opts: serve.EvalOptions{SFPF: true, PGU: "all", PerBranch: true}}

const churnSessions = 16

// churnBench is the `serve-churn` workload: sessions live on the client
// as P64S snapshots. One op is one visit through the router — restore
// the session from its snapshot, feed one batch, fetch the new snapshot,
// delete the session — which exercises snap, session create/teardown
// and the JSON control path that serve-steady never touches.
type churnBench struct {
	*serving
	cpu     cpuMeter // bpservd, bprouter
	cpuUsed []time.Duration
}

// churnSteps are a visit's requests, in order; each is a span.
var churnSteps = []string{"restore", "feed", "snapshot", "delete"}

func setupChurn(ctx context.Context, e *env) (bench, error) {
	spec, err := sim.Parse(churnSpec.spec)
	if err != nil {
		return nil, err
	}
	sv, err := newServing(ctx, e, churnSessions, "churn")
	if err != nil {
		return nil, err
	}
	b := &churnBench{serving: sv}
	for _, s := range b.sessions {
		cfg, err := churnSpec.evalConfig()
		if err == nil {
			s.snap, err = snap.Encode(spec, core.NewEvaluator(cfg), snap.Meta{SessionID: s.id})
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	b.cpu.pids = []int{b.cl.servd.pid(), b.cl.router.pid()}
	return b, nil
}

func (b *churnBench) op(ctx context.Context, lane int, rec *spanLog) (time.Duration, int64, error) {
	s, body, err := b.next(lane)
	if err != nil {
		return 0, 0, err
	}
	url := b.cl.routed + "/v1/sessions/" + s.id
	var next []byte
	steps := []func() error{
		func() error {
			_, err := b.hc.do(ctx, http.MethodPost, url+"/restore", "application/octet-stream", s.snap, "", http.StatusCreated)
			return err
		},
		func() error { return postBatch(ctx, b.hc, b.cl.routed, s, body, "") },
		func() (err error) {
			next, err = b.hc.do(ctx, http.MethodGet, url+"/snapshot", "", nil, "", http.StatusOK)
			return err
		},
		func() error {
			_, err := b.hc.do(ctx, http.MethodDelete, url, "", nil, "", http.StatusOK)
			return err
		},
	}
	t0 := time.Now()
	for i, step := range steps {
		st := time.Now()
		if err := step(); err != nil {
			if i > 0 && i < len(steps)-1 {
				// Leave no session behind for the next visit's restore.
				b.hc.do(ctx, http.MethodDelete, url, "", nil, "", http.StatusOK)
			}
			return time.Since(t0), 0, fmt.Errorf("%s %s: %w", churnSteps[i], s.id, err)
		}
		if rec != nil {
			rec.add("serve."+churnSteps[i], "visit", st, time.Since(st))
		}
	}
	lat := time.Since(t0)
	if rec != nil {
		rec.add("visit", "", t0, lat)
	}
	s.snap = next
	return lat, batchEvents, nil
}

func (b *churnBench) begin(context.Context) error { return b.cpu.start() }

func (b *churnBench) end(context.Context) (err error) {
	b.cpuUsed, err = b.cpu.since()
	return err
}

// verify decodes every session's final client-held snapshot and
// compares its metrics byte for byte with a local replay of the batch
// sequence: the chain of restore/feed/snapshot visits must be lossless.
func (b *churnBench) verify(context.Context) (int64, int64, error) {
	var failed int64
	for _, s := range b.sessions {
		r, err := snap.Decode(s.snap)
		if err != nil {
			return 0, 0, fmt.Errorf("session %s final snapshot: %w", s.id, err)
		}
		got, err := json.Marshal(serve.MetricsToJSON(r.Eval.Metrics()))
		if err != nil {
			return 0, 0, err
		}
		want, err := replay(churnSpec, b.st, s)
		if err != nil {
			return 0, 0, err
		}
		if r.Meta.LastSeq != s.sent || !bytes.Equal(got, want) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: session %s: snapshot metrics (seq %d) differ from local replay (seq %d)\n",
				s.id, r.Meta.LastSeq, s.sent)
		}
	}
	return int64(len(b.sessions)), failed, nil
}

// snapProbeReps is how many times the in-process codec probes run.
const snapProbeReps = 50

// layers reports each visit step's routed latency, the in-process cost
// of the snapshot codec on a session state from the run, the restore
// and snapshot steps' time outside the codec, and each process's CPU
// per visit.
func (b *churnBench) layers(_ context.Context, ph *phase, m *metrics) error {
	blob := b.sessions[0].snap
	var dec, enc []float64
	var r *snap.Restored
	for i := 0; i < snapProbeReps; i++ {
		t0 := time.Now()
		var err error
		if r, err = snap.Decode(blob); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0))/1e3)
	}
	for i := 0; i < snapProbeReps; i++ {
		t0 := time.Now()
		out, err := snap.Encode(r.Spec, r.Eval, r.Meta)
		if err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0))/1e3)
		if !bytes.Equal(out, blob) {
			return fmt.Errorf("snapshot re-encode differs from the served snapshot")
		}
	}
	m.add("snap.encode_us", p50(enc), "us")
	m.add("snap.decode_us", p50(dec), "us")
	m.add("snap.bytes", float64(len(blob)), "B")
	for _, step := range churnSteps {
		m.add("serve."+step+"_ms_p50", p50(ph.spanMS("serve."+step)), "ms")
	}
	m.add("serve.restore_self_ms_p50", selfMS(p50(ph.spanMS("serve.restore")), p50(dec)/1e3), "ms")
	m.add("serve.snapshot_self_ms_p50", selfMS(p50(ph.spanMS("serve.snapshot")), p50(enc)/1e3), "ms")
	ops := ph.ok()
	m.add("serve.cpu_ms_per_visit", perUnit(b.cpuUsed[0], ops)/1e6, "ms")
	m.add("router.cpu_ms_per_visit", perUnit(b.cpuUsed[1], ops)/1e6, "ms")
	return nil
}
