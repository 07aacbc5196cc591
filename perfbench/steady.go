package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// steadySpec is serve-steady's session configuration: a mid-sized
// gshare with both paper mechanisms, no per-branch statistics.
var steadySpec = sessionSpec{spec: "gshare:14:10", opts: serve.EvalOptions{SFPF: true, PGU: "all"}}

const steadySessions = 8

// steadyRound is how many batches one serve-steady op posts: one to each
// of the lane's sessions, one after another. A single batch takes about
// 3 ms, so a few milliseconds in which the host runs another tenant
// decided its latency and a run's p90 followed the host; in a round of
// four such pauses are a smaller share of the op.
const steadyRound = steadySessions / serveConns

// steadyBench is the `serve-steady` workload: resident sessions fed
// through the router by two closed-loop connections. One op is one
// round: each of the lane's sessions gets its next batch.
type steadyBench struct {
	*serving

	// Phase accounting, filled by begin and end.
	cpu              cpuMeter // bpservd, bprouter, this process
	cpuUsed          []time.Duration
	passes, batches  float64
	retries, sentAt0 int64
}

func setupSteady(ctx context.Context, e *env) (bench, error) {
	sv, err := newServing(ctx, e, steadySessions, "steady")
	if err != nil {
		return nil, err
	}
	b := &steadyBench{serving: sv}
	for _, s := range b.sessions {
		if err := createSession(ctx, b.hc, b.cl.routed, steadySpec, s.id); err != nil {
			b.close()
			return nil, err
		}
	}
	b.cpu.pids = []int{b.cl.servd.pid(), b.cl.router.pid(), os.Getpid()}
	return b, nil
}

// op posts a round of batches through the router, one to each of the
// lane's sessions. The latency is the sum of the posts; encoding each
// batch before its post is client-side preparation and is excluded.
func (b *steadyBench) op(ctx context.Context, lane int, rec *spanLog) (time.Duration, int64, error) {
	var lat time.Duration
	for k := 0; k < steadyRound; k++ {
		s, body, err := b.next(lane)
		if err != nil {
			return lat, int64(k) * batchEvents, err
		}
		rid := ""
		if rec != nil {
			rid = fmt.Sprintf("pb-%x-%d", rec.op, k)
		}
		t0 := time.Now()
		err = postBatch(ctx, b.hc, b.cl.routed, s, body, rid)
		d := time.Since(t0)
		lat += d
		if rec != nil {
			rec.add("router.post_events", "", t0, d)
		}
		if err != nil {
			return lat, int64(k) * batchEvents, err
		}
	}
	return lat, steadyRound * batchEvents, nil
}

func (b *steadyBench) sent() int64 {
	var n int64
	for _, s := range b.sessions {
		n += int64(s.sent)
	}
	return n
}

func (b *steadyBench) begin(ctx context.Context) (err error) {
	b.retries, b.sentAt0 = b.hc.retries.Load(), b.sent()
	if b.passes, err = b.cl.schedPasses(ctx, b.hc); err != nil {
		return err
	}
	return b.cpu.start()
}

func (b *steadyBench) end(ctx context.Context) error {
	var err error
	if b.cpuUsed, err = b.cpu.since(); err != nil {
		return err
	}
	passes, err := b.cl.schedPasses(ctx, b.hc)
	if err != nil {
		return err
	}
	b.passes = passes - b.passes
	b.batches = float64(b.sent() - b.sentAt0)
	b.retries = b.hc.retries.Load() - b.retries
	return nil
}

// verify compares every session's metrics, read back through the
// router, byte for byte with a local replay of its batch sequence.
func (b *steadyBench) verify(ctx context.Context) (int64, int64, error) {
	var failed int64
	for _, s := range b.sessions {
		out, err := b.hc.do(ctx, http.MethodGet, b.cl.routed+"/v1/sessions/"+s.id, "", nil, "", http.StatusOK)
		if err != nil {
			return 0, 0, err
		}
		var got struct {
			Events  uint64          `json:"events"`
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			return 0, 0, err
		}
		want, err := replay(steadySpec, b.st, s)
		if err != nil {
			return 0, 0, err
		}
		if got.Events != s.sent*batchEvents || !bytes.Equal(got.Metrics, want) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: session %s: server metrics %s (%d events) differ from local replay %s (%d events)\n",
				s.id, got.Metrics, got.Events, want, s.sent*batchEvents)
		}
	}
	return int64(len(b.sessions)), failed, nil
}

// probeBatches is how many batches each serve-steady probe measures;
// the hop probe splits them between its two paths.
const probeBatches = 128

// layers reports what the phase cost each process, the scheduler's
// grouping, and then probes each layer a batch crosses: wire decode,
// session feed, the handler without a socket, bpservd direct over
// loopback, and the router hop (routed minus direct, interleaved).
func (b *steadyBench) layers(ctx context.Context, ph *phase, m *metrics) error {
	posted := int64(b.batches)
	m.add("serve.cpu_ms_per_batch", perUnit(b.cpuUsed[0], posted)/1e6, "ms")
	m.add("router.cpu_ms_per_batch", perUnit(b.cpuUsed[1], posted)/1e6, "ms")
	m.add("loadgen.cpu_ms_per_batch", perUnit(b.cpuUsed[2], posted)/1e6, "ms")
	m.add("serve.batches_per_pass", b.batches/b.passes, "batches")
	m.add("serve.retries_429", float64(b.retries), "count")
	servdRSS, err := procPeakRSSMB(b.cl.servd.pid())
	if err != nil {
		return err
	}
	routerRSS, err := procPeakRSSMB(b.cl.router.pid())
	if err != nil {
		return err
	}
	m.add("serve.rss_mb", servdRSS, "MB")
	m.add("router.rss_mb", routerRSS, "MB")

	bodies := make([][]byte, probeBatches)
	batches := make([][]trace.Event, probeBatches)
	for k := range bodies {
		events, insts := b.st.batch(uint64(k), nil)
		var buf bytes.Buffer
		body, err := encode(&buf, events, insts)
		if err != nil {
			return err
		}
		bodies[k], batches[k] = body, events
	}
	decodeNS, err := probeDecode(bodies)
	if err != nil {
		return err
	}
	feedNS, err := probeFeed(batches)
	if err != nil {
		return err
	}
	m.add("trace.decode_ns_per_event", decodeNS, "ns")
	m.add("core.session_feed_ns_per_event", feedNS, "ns")

	handler, err := probeHandler(bodies)
	if err != nil {
		return err
	}
	m.add("serve.handler_ms_p50", p50(handler), "ms")
	m.add("serve.handler_ms_p90", p90(handler), "ms")
	m.add("serve.handler_self_ms_p50", selfMS(p50(handler), (decodeNS+feedNS)*batchEvents/1e6), "ms")

	direct, routed, err := b.probeHop(ctx, bodies)
	if err != nil {
		return err
	}
	m.add("serve.direct_ms_p50", p50(direct), "ms")
	m.add("serve.direct_ms_p90", p90(direct), "ms")
	m.add("router.hop_ms_p50", selfMS(p50(routed), p50(direct)), "ms")
	m.add("router.hop_ms_p90", selfMS(p90(routed), p90(direct)), "ms")
	return nil
}

// probeDecode times trace.ReadTraceFrom over the batch bodies, with a
// reused reader and event buffer as the handler does; ns per event.
func probeDecode(bodies [][]byte) (float64, error) {
	br := bufio.NewReaderSize(nil, 64<<10)
	var scratch []trace.Event
	var events int64
	t0 := time.Now()
	for _, body := range bodies {
		br.Reset(bytes.NewReader(body))
		tr, err := trace.ReadTraceFrom(br, scratch)
		if err != nil {
			return 0, err
		}
		scratch = tr.Events[:0]
		events += int64(len(tr.Events))
	}
	return perUnit(time.Since(t0), events), nil
}

// probeFeed times one session evaluator fed the batches in order, one
// FeedBatches group per batch as the shard scheduler applies them.
func probeFeed(batches [][]trace.Event) (float64, error) {
	cfg, err := steadySpec.evalConfig()
	if err != nil {
		return 0, err
	}
	e := core.NewEvaluator(cfg)
	var events int64
	t0 := time.Now()
	for _, batch := range batches {
		e.FeedBatches([][]trace.Event{batch})
		events += int64(len(batch))
	}
	return perUnit(time.Since(t0), events), nil
}

// probeHandler times batch posts through an in-process serve.Server's
// handler, with no socket; latencies in ms.
func probeHandler(bodies [][]byte) ([]float64, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	create, err := json.Marshal(serve.SessionRequest{ID: "probe", Spec: steadySpec.spec, EvalOptions: steadySpec.opts})
	if err != nil {
		return nil, err
	}
	serveOne := func(method, url, ctype string, body []byte, want int) error {
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != want {
			return fmt.Errorf("in-process %s %s: HTTP %d: %s", method, url, rw.Code, rw.Body.Bytes())
		}
		return nil
	}
	if err := serveOne(http.MethodPost, "/v1/sessions", "application/json", create, http.StatusCreated); err != nil {
		return nil, err
	}
	var lat []float64
	for k, body := range bodies {
		t0 := time.Now()
		if err := serveOne(http.MethodPost, fmt.Sprintf("/v1/sessions/probe/events?seq=%d", k+1),
			"application/octet-stream", body, http.StatusOK); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// probeHop posts the batches to one fresh session alternately through
// the router and straight to bpservd, one request at a time, so the two
// latency sets see the same server state and machine load.
func (b *steadyBench) probeHop(ctx context.Context, bodies [][]byte) (direct, routed []float64, err error) {
	s := &session{id: fmt.Sprintf("%s-hop", b.sessions[0].id)}
	if err := createSession(ctx, b.hc, b.cl.routed, steadySpec, s.id); err != nil {
		return nil, nil, err
	}
	for k, body := range bodies {
		base, into := b.cl.routed, &routed
		if k%2 == 1 {
			base, into = b.cl.direct, &direct
		}
		t0 := time.Now()
		if err := postBatch(ctx, b.hc, base, s, body, ""); err != nil {
			return nil, nil, err
		}
		*into = append(*into, ms(time.Since(t0)))
	}
	return direct, routed, nil
}
