package main

// serve.go runs estimate serving: serve.New(...).Handler() mounted on
// a loopback net/http server in this process, driven by nproc closed-loop
// clients, one keep-alive connection each. The loop is closed because the
// callers it stands for (binding tools, trace exporters) wait for every
// answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/obs"
	"hdpower/internal/serve"
)

// server is one serve.Server mounted on a loopback http.Server.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
	th   *tracedHandler // nil unless started for a traced run
}

// startServer configures the server like cmd/hdserve's defaults
// (bit-parallel backend, text access log at info level, written here to
// io.Discard) and has it build every spec through POST /v1/models/build
// at its default budget.
func startServer(specs []spec, traced bool) (*server, error) {
	srv := serve.New(serve.Config{
		Backend: core.BackendBitParallel,
		Logger:  obs.NewLogger(io.Discard, "text", slog.LevelInfo),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if traced {
		s.th = &tracedHandler{inner: h}
		h = s.th
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()

	hc := &http.Client{Timeout: 5 * time.Minute}
	defer hc.CloseIdleConnections()
	for _, sp := range specs {
		if err := s.build(hc, sp); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *server) build(hc *http.Client, sp spec) error {
	req := fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d,"enhanced":%t,"wait":true}`,
		sp.module, sp.width, sp.seed, sp.enhanced)
	resp, err := hc.Post(s.url+"/v1/models/build", "application/json", strings.NewReader(req))
	if err != nil {
		return fmt.Errorf("build %s: %w", sp.name(), err)
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Status != "ready" {
		return fmt.Errorf("build %s: status %d %q %s %v", sp.name(), resp.StatusCode, out.Status, out.Error, err)
	}
	return nil
}

// close shuts the listener down, waits for it, then drains and closes the
// server.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: http shutdown: %v\n", err)
	}
	<-s.done
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
	}
	s.srv.Close()
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc     *http.Client
	url    string
	bodies []body
	next   int
	// verified holds, per body, the response already checked against its
	// answers: a byte-identical answer skips re-parsing, so checking does
	// not throttle the client.
	verified [][]byte
	buf      bytes.Buffer
	sent     []int64 // per body, requests sent in the traced phase
	phaseStats
}

// phaseStats is what one client, or all of them, did in one phase.
type phaseStats struct {
	attempted, failed int64
	items             int64         // estimates answered correctly
	rtt               time.Duration // summed round trips
	wall              time.Duration
	// rates and raws are, per round of the timed phase, the items per
	// scaled and per raw CPU second.
	rates, raws []float64
}

func (p *phaseStats) add(q phaseStats) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.items += q.items
	p.rtt += q.rtt
	p.wall += q.wall
}

func newClients(n int, url string, p *pool) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}},
			url:      url,
			bodies:   p.bodies,
			next:     i * len(p.bodies) / n,
			verified: make([][]byte, len(p.bodies)),
			sent:     make([]int64, len(p.bodies)),
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// send posts body idx and checks the answer. With th set the request runs
// under a client span the handler span nests in.
func (c *client) send(idx int, th *tracedHandler) (time.Duration, bool) {
	b := &c.bodies[idx]
	req, err := http.NewRequest(http.MethodPost, c.url+b.path, bytes.NewReader(b.data))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	var sp *obs.Span
	if th != nil {
		_, sp = th.tracer.Load().StartAt(context.Background(), "client.request", t0)
		th.clients.Store(sp.SpanID(), sp)
		req.Header.Set(spanHeader, sp.SpanID())
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(t0)
	if sp != nil {
		sp.End()
		th.clients.Delete(sp.SpanID())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.path, err)
		return rtt, false
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s: status %d: %.200s\n", b.path, resp.StatusCode, c.buf.Bytes())
		return rtt, false
	}
	return rtt, c.check(idx)
}

func (c *client) check(idx int) bool {
	got := c.buf.Bytes()
	if v := c.verified[idx]; v != nil && bytes.Equal(v, got) {
		return true
	}
	if !c.bodies[idx].verify(got) {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer to %s body %d: %.200s\n", c.bodies[idx].path, idx, got)
		return false
	}
	c.verified[idx] = bytes.Clone(got)
	return true
}

// drive runs every client concurrently: each calls step until it returns
// false. It returns the clients' merged stats with the phase's wall time.
func drive(clients []*client, step func(c *client) bool) phaseStats {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.phaseStats = phaseStats{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for step(c) {
			}
		}(c)
	}
	wg.Wait()
	var all phaseStats
	for _, c := range clients {
		all.add(c.phaseStats)
	}
	all.wall = time.Since(start)
	return all
}

// warm sends every body once from every client, so connections are open,
// the server's pools are warm and each client holds a verified answer to
// every body.
func warm(clients []*client) error {
	st := drive(clients, func(c *client) bool {
		idx := c.next % len(c.bodies)
		c.next++
		if _, ok := c.send(idx, nil); !ok {
			c.failed++
		}
		c.attempted++
		return c.attempted < int64(len(c.bodies))
	})
	if st.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
	}
	return nil
}

// step sends the client's next body untraced and counts the outcome.
func (c *client) step() {
	idx := c.next % len(c.bodies)
	c.next++
	rtt, ok := c.send(idx, nil)
	c.attempted++
	c.rtt += rtt
	if ok {
		c.items += int64(c.bodies[idx].items())
	} else {
		c.failed++
	}
}

// roundRequests is how many requests each client sends in one round of
// the timed phase.
const roundRequests = 32

// timed drives the closed loop untraced for d, in rounds of roundRequests
// requests per client, with y's kernel run between every two rounds, and
// records each round's estimates per scaled and per raw CPU second.
func timed(clients []*client, d time.Duration, y yardstick) phaseStats {
	var all phaseStats
	start := time.Now()
	for k := y.measure(); len(all.rates) == 0 || time.Since(start) < d; {
		c0 := cpuTime()
		st := drive(clients, func(c *client) bool {
			c.step()
			return c.attempted < roundRequests
		})
		cpu := cpuTime() - c0
		next := y.measure()
		all.rates = append(all.rates, float64(st.items)/(cpu.Seconds()*y.scale(k, next)))
		all.raws = append(all.raws, float64(st.items)/cpu.Seconds())
		all.add(st)
		k = next
	}
	return all
}

// serveTimed runs serve-stream untraced. Set-up starts the server,
// has it build the served models and warms every client; the timed phase
// drives the closed loop for the run's seconds.
func (r *run) serveTimed() (result, error) {
	var res result
	refs, err := r.references(r.workers)
	if err != nil {
		return res, err
	}
	models, err := servedModels(r.specs, refs)
	if err != nil {
		return res, err
	}
	p, err := newPool(r.serve, models, r.poolSeed)
	if err != nil {
		return res, err
	}
	var s *server
	var clients []*client
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			closeClients(clients)
			s.close()
		}
		k := r.setupYard.measure()
		c0 := cpuTime()
		if s, err = startServer(r.specs, false); err != nil {
			return res, err
		}
		clients = newClients(r.workers, s.url, p)
		if err := warm(clients); err != nil {
			closeClients(clients)
			s.close()
			return res, err
		}
		cpu := cpuTime() - c0
		setups = append(setups, cpu.Seconds()*r.setupYard.scale(k, r.setupYard.measure()))
	}
	heap := startHeapPeak()
	st := timed(clients, r.seconds, r.yard)
	heapMiB := heap.mib()
	closeClients(clients)
	s.close()

	errPct, err := r.accuracy(refs)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = st.attempted, st.failed
	res.set("setup_s", median(setups), "s")
	res.set("items_per_cpu_s", median(st.rates), "1/cpu-s")
	res.set("err_pct", errPct, "%")
	res.set("heap_peak_mb", heapMiB, "MiB")
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests in %d rounds, %.0f estimates per scaled CPU second, %.0f per raw CPU second (medians of rounds), mean round trip %.1fus, err %.2f%%\n",
		r.name, st.attempted, len(st.rates), median(st.rates), median(st.raws),
		us(st.rtt)/float64(st.attempted), errPct)
	return res, nil
}
