package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Shared by the two serving workloads: a bpservd behind a bprouter,
// driven over loopback by this process through at most serveConns
// connections, with batches cut from the if-converted suite traces.
const (
	serveConns  = 2    // closed-loop clients; the container has two CPUs
	batchEvents = 8192 // events per posted batch
	maxAttempts = 20   // tries per request while the server answers 429
)

// daemon is one started bpservd or bprouter process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan struct{}
	err  error // Wait's result, set before done closes
}

// startDaemon starts a daemon on a free loopback port and waits for it
// to publish the address through its portfile. The daemon is killed if
// this process dies, and on every error path here.
func startDaemon(ctx context.Context, bin, portfile string, args ...string) (*daemon, error) {
	args = append(args, "-addr", "127.0.0.1:0", "-portfile", portfile, "-quiet")
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr // stdout carries only the listening banner
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.After(15 * time.Second)
	for {
		if b, err := os.ReadFile(portfile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before listening: %v", filepath.Base(bin), d.err)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("%s wrote no portfile within 15s", filepath.Base(bin))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.done
}

// cluster is one bpservd, with a spill directory, behind one bprouter.
type cluster struct {
	dir            string // portfiles and the spill directory
	servd, router  *daemon
	direct, routed string // base URLs
}

func startCluster(ctx context.Context, e *env) (*cluster, error) {
	dir, err := os.MkdirTemp(e.work, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		c.close()
		return nil, err
	}
	if c.servd, err = startDaemon(ctx, filepath.Join(e.bin, "bpservd"), filepath.Join(dir, "bpservd.port"), "-spill", spill); err != nil {
		c.close()
		return nil, err
	}
	c.direct = "http://" + c.servd.addr
	if c.router, err = startDaemon(ctx, filepath.Join(e.bin, "bprouter"), filepath.Join(dir, "bprouter.port"), "-backends", c.direct); err != nil {
		c.close()
		return nil, err
	}
	c.routed = "http://" + c.router.addr
	return c, nil
}

// close kills both daemons and removes their directory.
func (c *cluster) close() {
	if c.router != nil {
		c.router.stop()
	}
	if c.servd != nil {
		c.servd.stop()
	}
	os.RemoveAll(c.dir)
}

// peakRSSMB sums the two daemons' peak resident set sizes.
func (c *cluster) peakRSSMB() (float64, error) {
	a, err := procPeakRSSMB(c.servd.pid())
	if err != nil {
		return 0, err
	}
	b, err := procPeakRSSMB(c.router.pid())
	return a + b, err
}

// schedPasses reads bpservd's scheduling-pass counter from /metrics.
func (c *cluster) schedPasses(ctx context.Context, hc *httpClient) (float64, error) {
	body, err := hc.do(ctx, http.MethodGet, c.direct+"/metrics", "", nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	fams, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for i := range fams {
		if fams[i].Name == "bpservd_sched_passes_total" && len(fams[i].Samples) == 1 {
			return fams[i].Samples[0].Value, nil
		}
	}
	return 0, fmt.Errorf("bpservd /metrics has no bpservd_sched_passes_total")
}

// httpClient sends the load generator's requests, over at most
// serveConns connections per daemon.
type httpClient struct {
	hc      *http.Client
	retries atomic.Int64 // requests re-sent after a 429
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true}
	return &httpClient{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and returns the response body, which must carry
// the wanted status. A 429 (shard queue full) is retried with a growing
// pause, up to maxAttempts tries; running out of tries fails the request.
func (c *httpClient) do(ctx context.Context, method, url, ctype string, body []byte, rid string, want int) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		if rid != "" {
			req.Header.Set(telemetry.RequestIDHeader, rid)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxAttempts {
			c.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * time.Millisecond):
			}
			continue
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
		}
		return out, nil
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// stream is the endless event stream serving sessions read from: the
// 16 if-converted suite traces back to back, cut to whole batches, and
// repeated in laps. Steps are made cumulative across traces and laps so
// every session sees non-decreasing steps, as the evaluator expects.
type stream struct {
	lap     []trace.Event
	lapStep uint64 // step distance between one lap and the next
}

func newStream(suite []suiteEntry) *stream {
	s := &stream{}
	for _, en := range suite {
		base := s.lapStep
		for _, ev := range en.tr.Events {
			ev.Step += base
			s.lap = append(s.lap, ev)
		}
		end := en.tr.Insts
		if n := len(en.tr.Events); n > 0 && en.tr.Events[n-1].Step >= end {
			end = en.tr.Events[n-1].Step + 1
		}
		s.lapStep += end
	}
	s.lap = s.lap[:len(s.lap)/batchEvents*batchEvents]
	return s
}

// batches is the number of distinct batches in one lap.
func (s *stream) batches() uint64 { return uint64(len(s.lap) / batchEvents) }

// batch fills dst with the k-th batch of the endless stream and returns
// the dynamic instructions it covers.
func (s *stream) batch(k uint64, dst []trace.Event) ([]trace.Event, uint64) {
	lap, i := k/s.batches(), k%s.batches()
	dst = append(dst[:0], s.lap[i*batchEvents:(i+1)*batchEvents]...)
	for j := range dst {
		dst[j].Step += lap * s.lapStep
	}
	return dst, dst[len(dst)-1].Step - dst[0].Step + 1
}

// encode writes a batch in the P64T wire format.
func encode(buf *bytes.Buffer, events []trace.Event, insts uint64) ([]byte, error) {
	buf.Reset()
	if _, err := (&trace.Trace{Name: "perfbench", Insts: insts, Events: events}).WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// laneBuf is one lane's batch scratch, reused across its ops.
type laneBuf struct {
	events []trace.Event
	body   bytes.Buffer
	next   int // index of the lane's next session
}

// serving is what the two serving workloads share: the event stream,
// the daemon pair, the load generator's client and the sessions.
type serving struct {
	st       *stream
	cl       *cluster
	hc       *httpClient
	sessions []*session
	bufs     []laneBuf
}

func newServing(ctx context.Context, e *env, sessions int, tag string) (*serving, error) {
	suite, err := convertedSuite(ctx)
	if err != nil {
		return nil, err
	}
	s := &serving{st: newStream(suite), hc: newHTTPClient(), bufs: make([]laneBuf, serveConns)}
	s.sessions = newSessions(e.seed, sessions, s.st, tag)
	if s.cl, err = startCluster(ctx, e); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serving) lanes() int { return serveConns }

// next picks a lane's next session and encodes that session's next
// batch. Lane l owns sessions l, l+lanes, ..., so each session's
// batches arrive in order.
func (s *serving) next(lane int) (*session, []byte, error) {
	lb := &s.bufs[lane]
	ss := s.sessions[lane+serveConns*lb.next]
	lb.next = (lb.next + 1) % (len(s.sessions) / serveConns)
	var insts uint64
	lb.events, insts = s.st.batch(ss.off+ss.sent, lb.events)
	body, err := encode(&lb.body, lb.events, insts)
	return ss, body, err
}

func (s *serving) peakRSSMB() (float64, error) { return s.cl.peakRSSMB() }

func (s *serving) close() {
	if s.cl != nil {
		s.cl.close()
	}
	s.hc.close()
}

// session is one serving session's client-side state. Sessions are
// owned by one lane each, so their fields need no lock.
type session struct {
	id   string
	off  uint64 // the stream batch its first batch is cut at
	sent uint64 // batches applied so far; the next carries seq sent+1
	snap []byte // serve-churn: the client-held P64S snapshot
}

// newSessions names n sessions and places their stream offsets, both
// drawn from the workload seed.
func newSessions(seed uint64, n int, st *stream, tag string) []*session {
	r := rng.New(seed)
	prefix := fmt.Sprintf("%s-%08x", tag, r.Uint64()>>32)
	out := make([]*session, n)
	for i := range out {
		out[i] = &session{id: fmt.Sprintf("%s-%02d", prefix, i), off: r.Uint64() % st.batches()}
	}
	return out
}

// sessionSpec is a serving workload's session configuration.
type sessionSpec struct {
	spec string
	opts serve.EvalOptions
}

func (ss sessionSpec) evalConfig() (core.EvalConfig, error) {
	cfg, err := ss.opts.Config()
	if err != nil {
		return core.EvalConfig{}, err
	}
	cfg.Predictor, err = sim.NewPredictor(ss.spec)
	return cfg, err
}

// replay feeds a session's batch sequence through a local evaluator
// and returns the canonical JSON of the resulting metrics.
func replay(ss sessionSpec, st *stream, s *session) ([]byte, error) {
	cfg, err := ss.evalConfig()
	if err != nil {
		return nil, err
	}
	ev := core.NewEvaluator(cfg)
	var buf []trace.Event
	for k := uint64(0); k < s.sent; k++ {
		var insts uint64
		buf, insts = st.batch(s.off+k, buf)
		ev.FeedBatch(buf)
		ev.AddInsts(insts)
	}
	return json.Marshal(serve.MetricsToJSON(ev.Metrics()))
}

// postBatch sends one P64T batch to a session and checks the ack.
func postBatch(ctx context.Context, hc *httpClient, base string, s *session, body []byte, rid string) error {
	url := fmt.Sprintf("%s/v1/sessions/%s/events?seq=%d", base, s.id, s.sent+1)
	out, err := hc.do(ctx, http.MethodPost, url, "application/octet-stream", body, rid, http.StatusOK)
	if err != nil {
		return err
	}
	var ack serve.BatchResponse
	if err := json.Unmarshal(out, &ack); err != nil {
		return fmt.Errorf("batch ack: %w", err)
	}
	if ack.Events != batchEvents || ack.Duplicate {
		return fmt.Errorf("batch ack for %s seq %d: %d events, duplicate %v", s.id, s.sent+1, ack.Events, ack.Duplicate)
	}
	s.sent++
	return nil
}

// createSession creates a session with its explicit ID.
func createSession(ctx context.Context, hc *httpClient, base string, ss sessionSpec, id string) error {
	body, err := json.Marshal(serve.SessionRequest{ID: id, Spec: ss.spec, EvalOptions: ss.opts})
	if err != nil {
		return err
	}
	_, err = hc.do(ctx, http.MethodPost, base+"/v1/sessions", "application/json", body, "", http.StatusCreated)
	return err
}
