package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/rng"
	"quarc/internal/service"
)

// serveConfig sizes one serve-mix run. The arrival rate is fixed (it is
// part of the workload's definition in BENCHMARK.json); the schedule's
// length follows the run's time budget.
type serveConfig struct {
	rate     float64       // open-loop arrivals per second
	duration time.Duration // length of one timed schedule
	phases   int           // timed schedules run back to back (the traced run uses 2)
	hot      int           // memory-hit key pool
	boots    int           // set-up repetitions
	verify   int           // miss runs re-simulated locally per phase
	conns    int           // client connections and sender goroutines
}

// The serve-mix arrival mix, as shares of arrivals. A pair arrival sends
// two identical uncached runs back to back; a batch arrival alternates a
// small panel and a small explore lattice.
const (
	shareMem   = 0.55
	shareDisk  = 0.15
	shareMiss  = 0.20
	sharePair  = 0.05
	shareBatch = 0.05
)

// serveRate is the fixed arrival rate of serve-mix (requests per second),
// chosen on a 2-CPU host to give each run well over 1000 hits and 200
// misses while the executors stay busy well under half the time (see
// README.md for why not more).
const serveRate = 120

type reqKind int

const (
	kindMem reqKind = iota
	kindDisk
	kindMiss
	kindPair
	kindPanel
	kindExplore
)

func (k reqKind) interactive() bool { return k <= kindPair }
func (k reqKind) hit() bool         { return k <= kindDisk }

// async reports whether the request is submitted without ?wait. Hits wait
// for their answer on the connection; everything that simulates is
// answered when its job record says it finished, so a simulating request
// never holds one of the few client connections and delays the hits
// queued behind it on the client side.
func (k reqKind) async() bool { return k >= kindMiss }

// request is one scheduled HTTP request.
type request struct {
	kind reqKind
	due  time.Duration // offset from the schedule's start
	path string
	body []byte
	cfg  experiments.Config // run requests
	want []byte             // expected payload of a hit
	pair int                // index of a coalesced pair, -1 otherwise
}

// response is what the load generator observed for one request.
type response struct {
	req      *request
	status   int
	job      service.JobJSON // the HTTP answer
	final    service.JobJSON // the job's terminal record
	lateMs   float64         // sender start minus due time
	latMs    float64         // answer time minus due time
	clientMs float64         // HTTP round trip
	done     time.Time       // HTTP answer received
	answered time.Time       // result available: done, or the job's finish
	err      error
}

// serveRunReq is the interactive run every serve-mix key asks for: a
// 16-node network at a short window, a few milliseconds of simulation.
func serveRunReq(model string, seed uint64) service.RunRequest {
	return service.RunRequest{Topo: model, N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.01,
		Warmup: 100, Measure: 500, Drain: 2000, Seed: seed}
}

func pickModel(i int) string {
	if i%2 == 0 {
		return "quarc"
	}
	return "spidergon"
}

func runRequest(kind reqKind, rr service.RunRequest, pair int) (request, error) {
	cfg, err := rr.Config()
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(rr)
	if err != nil {
		return request{}, err
	}
	path := "/v1/runs?wait=1"
	if kind.async() {
		path = "/v1/runs"
	}
	return request{kind: kind, path: path, body: body, cfg: cfg, pair: pair}, nil
}

// liveServer is an in-process quarcd on a loopback listener.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServer boots a durable server on dir and returns once /healthz
// answers.
func startServer(dir string, workers int, client *http.Client) (*liveServer, error) {
	srv, err := service.New(service.Config{Workers: workers, DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(l.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			l.stop()
			return nil, fmt.Errorf("server on %s never became healthy: %v", dir, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains every job, closes the listener and waits for the HTTP
// server goroutine to exit.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.srv.Drain(ctx)
	l.hs.Close()
	<-l.served
}

// send performs one request and decodes the job record it answers with.
func send(client *http.Client, base string, r *request) (int, service.JobJSON, error) {
	var job service.JobJSON
	method, body := http.MethodPost, io.Reader(bytes.NewReader(r.body))
	if r.body == nil {
		method, body = http.MethodGet, nil
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		return 0, job, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, job, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, job, err
	}
	if err := json.Unmarshal(b, &job); err != nil {
		return resp.StatusCode, job, fmt.Errorf("decode %s answer: %w", r.path, err)
	}
	return resp.StatusCode, job, nil
}

// closedLoop sends reqs over conns senders, each waiting for its answer
// before taking the next request: the untimed phases.
func closedLoop(client *http.Client, base string, reqs []request, conns int) []response {
	out := make([]response, len(reqs))
	next := make(chan int, len(reqs)) // sized to the number of sends
	for i := range reqs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &out[i]
				r.req = &reqs[i]
				t0 := time.Now()
				r.status, r.job, r.err = send(client, base, r.req)
				r.done = time.Now()
				r.clientMs = float64(r.done.Sub(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends the schedule on its own clock: a dispatcher releases each
// request at its due time to conns senders, whatever the server is doing,
// and every latency counts from the due time, so a stall shows in the
// requests it delays.
func openLoop(client *http.Client, base string, sched []request, conns int) ([]response, time.Time) {
	out := make([]response, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &out[i]
				r.req = &sched[i]
				due := start.Add(r.req.due)
				t0 := time.Now()
				r.lateMs = float64(t0.Sub(due).Nanoseconds()) / 1e6
				r.status, r.job, r.err = send(client, base, r.req)
				r.done = time.Now()
				r.clientMs = float64(r.done.Sub(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	for i := range sched {
		if d := time.Until(start.Add(sched[i].due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, start
}

// keyPool is the prefilled run keys and their verified payloads.
type keyPool struct {
	reqs     []request
	payloads [][]byte
}

// serveMix is one serve-mix run's state.
type serveMix struct {
	cfg    serveConfig
	seed   uint64
	dir    string
	client *http.Client
	rec    *recorder
	t      *tally
	name   string

	hot, disk keyPool
	diskNext  int
	boots     []float64
	live      *liveServer
}

// serveSample is what one timed schedule measured.
type serveSample struct {
	resps    []response
	start    time.Time
	wall     float64
	batchMs  []float64
	queueMs  []float64
	execMs   []float64
	execS    float64
	depthMax int
	before   service.MetricsSnapshot
	after    service.MetricsSnapshot
	missCfgs []experiments.Config
}

func newServeMix(cfg serveConfig, seed uint64, dir, name string, rec *recorder, t *tally) *serveMix {
	tr := &http.Transport{MaxConnsPerHost: cfg.conns, MaxIdleConnsPerHost: cfg.conns, DisableCompression: true}
	return &serveMix{cfg: cfg, seed: seed, dir: dir, name: name, rec: rec, t: t,
		client: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// expectedArrivals is the mean number of arrivals in one schedule.
func (m *serveMix) expectedArrivals() float64 {
	return m.cfg.rate * m.cfg.duration.Seconds()
}

// prefill simulates the hot and disk key pools on a first server
// instance, verifies a sample of the payloads against a local simulation,
// and shuts that instance down: the timed server finds every key on disk
// only.
func (m *serveMix) prefill() error {
	nDisk := m.cfg.phases * int(shareDisk*m.expectedArrivals()+1.5)
	for i := 0; i < m.cfg.hot; i++ {
		r, err := runRequest(kindMem, serveRunReq(pickModel(i), rng.Derive(m.seed, 100, uint64(i))), -1)
		if err != nil {
			return err
		}
		m.hot.reqs = append(m.hot.reqs, r)
	}
	for i := 0; i < nDisk; i++ {
		r, err := runRequest(kindDisk, serveRunReq(pickModel(i), rng.Derive(m.seed, 200, uint64(i))), -1)
		if err != nil {
			return err
		}
		m.disk.reqs = append(m.disk.reqs, r)
	}
	srv, err := startServer(m.dir, m.cfg.conns, m.client)
	if err != nil {
		return err
	}
	all := append(append([]request(nil), m.hot.reqs...), m.disk.reqs...)
	resps := closedLoop(m.client, srv.base, all, m.cfg.conns)
	srv.stop()
	ok := 0
	payloads := make([][]byte, len(resps))
	for i, r := range resps {
		good := r.err == nil && r.status == http.StatusOK && r.job.State == service.StateDone && len(r.job.Result) > 0
		m.t.check(good, "prefill %d: status %d state %s err %v", i, r.status, r.job.State, r.err)
		if good {
			ok++
			payloads[i] = r.job.Result
		}
	}
	m.rec.phase(m.name, "prefill", len(resps), ok, len(resps)-ok)
	m.hot.payloads, m.disk.payloads = payloads[:m.cfg.hot], payloads[m.cfg.hot:]
	// Every hit of the timed phase is compared with these payloads, so
	// they are themselves checked against a local simulation: all hot
	// keys and a sample of the disk keys.
	for i := range m.hot.reqs {
		m.verifyRun(m.hot.reqs[i].cfg, m.hot.payloads[i], "hot key")
	}
	for i := 0; i < len(m.disk.reqs) && i < m.cfg.verify; i++ {
		m.verifyRun(m.disk.reqs[i].cfg, m.disk.payloads[i], "disk key")
	}
	return nil
}

// verifyRun checks a served run payload against the encoding of a local
// simulation of the same configuration.
func (m *serveMix) verifyRun(cfg experiments.Config, got []byte, what string) {
	agg, reps, err := experiments.RunReplicated(cfg, 1, 1)
	if err != nil {
		m.t.fail("%s: local simulation: %v", what, err)
		return
	}
	want, err := json.Marshal(service.EncodeRun(agg, reps))
	m.t.check(err == nil && bytes.Equal(got, want), "%s seed %d: served payload differs from local simulation",
		what, cfg.Seed)
}

// boot measures set-up: the durable server booting on the prefilled data
// directory (journal replay and store index) until /healthz answers. The
// last boot stays up for the timed phase.
func (m *serveMix) boot() error {
	for i := 0; i < m.cfg.boots; i++ {
		t0 := time.Now()
		l, err := startServer(m.dir, m.cfg.conns, m.client)
		if err != nil {
			return err
		}
		m.boots = append(m.boots, time.Since(t0).Seconds())
		if i < m.cfg.boots-1 {
			l.stop()
		} else {
			m.live = l
		}
	}
	return nil
}

// warm loads the hot pool into the memory cache (each key is read once
// from disk).
func (m *serveMix) warm() {
	resps := closedLoop(m.client, m.live.base, m.hot.reqs, m.cfg.conns)
	ok := 0
	for i, r := range resps {
		good := r.err == nil && r.status == http.StatusOK && r.job.Cached && bytes.Equal(r.job.Result, m.hot.payloads[i])
		m.t.check(good, "warm-up hot key %d: status %d cached %v err %v", i, r.status, r.job.Cached, r.err)
		if good {
			ok++
		}
	}
	m.rec.phase(m.name, "warm-up", len(resps), ok, len(resps)-ok)
}

// schedule draws one timed schedule: Poisson arrivals at the fixed rate,
// conditioned on their expected count (that many uniform arrival times in
// the window), and the serve-mix shares as exact counts in a seeded random
// order. Fixing the counts keeps the amount of simulation in a schedule
// from varying with the seed, which would otherwise move every latency.
func (m *serveMix) schedule(phase int) ([]request, error) {
	rnd := rand.New(rand.NewSource(int64(rng.Derive(m.seed, 300, uint64(phase)))))
	n := int(m.expectedArrivals() + 0.5)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rnd.Float64() * float64(m.cfg.duration))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	kinds := make([]reqKind, 0, n)
	for _, k := range []struct {
		kind  reqKind
		share float64
	}{{kindDisk, shareDisk}, {kindMiss, shareMiss}, {kindPair, sharePair}, {kindPanel, shareBatch}, {kindMem, shareMem}} {
		for i := 0; i < int(k.share*float64(n)+0.5); i++ {
			kinds = append(kinds, k.kind)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, kindMem)
	}
	kinds = kinds[:n]
	rnd.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	var out []request
	var nMiss, nPair, nBatch int
	for i, kind := range kinds {
		var r request
		var err error
		switch {
		case kind == kindDisk && m.diskNext < len(m.disk.reqs):
			r = m.disk.reqs[m.diskNext]
			r.want = m.disk.payloads[m.diskNext]
			m.diskNext++
		case kind == kindMem || kind == kindDisk:
			// A memory hit, also when the disk pool ran dry.
			k := rnd.Intn(len(m.hot.reqs))
			r = m.hot.reqs[k]
			r.want = m.hot.payloads[k]
		case kind == kindMiss:
			r, err = runRequest(kindMiss, serveRunReq(pickModel(nMiss), rng.Derive(m.seed, 400, uint64(phase), uint64(nMiss))), -1)
			nMiss++
		case kind == kindPair:
			r, err = runRequest(kindPair, serveRunReq(pickModel(nPair), rng.Derive(m.seed, 500, uint64(phase), uint64(nPair))), nPair)
			if err == nil {
				r.due = at[i]
				out = append(out, r)
			}
			nPair++
		default:
			r, err = m.batchRequest(phase, nBatch)
			nBatch++
		}
		if err != nil {
			return nil, err
		}
		r.due = at[i]
		out = append(out, r)
	}
	return out, nil
}

// batchRequest alternates small panels and small explore lattices,
// submitted without ?wait. Explores reuse a hot key's seed, so one of
// their points is already cached and the explore point cache is exercised.
func (m *serveMix) batchRequest(phase, n int) (request, error) {
	opts := service.SweepOpts{Warmup: 100, Measure: 500, Drain: 2000}
	var body []byte
	var err error
	if n%2 == 0 {
		opts.Seed = rng.Derive(m.seed, 600, uint64(phase), uint64(n))
		body, err = json.Marshal(service.PanelRequest{N: 16, MsgLen: 16, Beta: 0.05,
			Rates: []float64{0.005, 0.015}, Opts: opts})
		return request{kind: kindPanel, path: "/v1/panels", body: body, pair: -1}, err
	}
	k := (phase*1000 + n/2) % len(m.hot.reqs)
	hot := m.hot.reqs[k].cfg
	opts.Seed = hot.Seed
	rates := []float64{0.005, hot.Rate}
	if phase*1000+n/2 >= len(m.hot.reqs) {
		// More explores than hot keys: shift the lattice so the request
		// stays unique.
		rates[0] += 0.0001 * float64(phase*1000+n/2)
	}
	body, err = json.Marshal(service.ExploreRequest{Models: []string{"quarc", "spidergon"}, Ns: []int{16},
		Rates: rates, MsgLen: 16, Beta: 0.05, Opts: opts})
	return request{kind: kindExplore, path: "/v1/explore", body: body, pair: -1}, err
}

// parseTime reads a job record timestamp.
func parseTime(s string) (time.Time, bool) {
	t, err := time.Parse(time.RFC3339Nano, s)
	return t, err == nil
}

func spanMs(from, to string) (float64, bool) {
	a, ok1 := parseTime(from)
	b, ok2 := parseTime(to)
	if !ok1 || !ok2 {
		return 0, false
	}
	return float64(b.Sub(a).Nanoseconds()) / 1e6, true
}

// timed runs one schedule against the live server, collects the terminal
// record of every job it submitted without waiting, and checks every
// answer. With traced set, a sampler polls the server's queue depth while
// the schedule runs.
func (m *serveMix) timed(phase int, traced bool) (*serveSample, error) {
	sched, err := m.schedule(phase)
	if err != nil {
		return nil, err
	}
	s := &serveSample{before: m.live.srv.Snapshot()}
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if traced {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if d := m.live.srv.Snapshot().QueueDepth; d > s.depthMax {
						s.depthMax = d
					}
				}
			}
		}()
	}
	s.resps, s.start = openLoop(m.client, m.live.base, sched, m.cfg.conns)

	// Collect (untimed): wait for every job submitted without ?wait and
	// take its terminal record as the answer.
	var collect []request
	var owner []int
	for i := range s.resps {
		r := &s.resps[i]
		r.final = r.job
		if r.req.kind.async() && r.err == nil && r.status == http.StatusAccepted && r.job.ID != "" {
			collect = append(collect, request{kind: r.req.kind, path: "/v1/jobs/" + r.job.ID + "?wait=1", pair: -1})
			owner = append(owner, i)
		}
	}
	collected := closedLoop(m.client, m.live.base, collect, m.cfg.conns)
	close(stopSampler)
	samplerDone.Wait()
	s.after = m.live.srv.Snapshot()
	okCollect := 0
	for k, c := range collected {
		r := &s.resps[owner[k]]
		if c.err != nil || c.status != http.StatusOK {
			r.err = fmt.Errorf("collect %s: status %d: %v", c.req.path, c.status, c.err)
			continue
		}
		okCollect++
		r.final = c.job
	}
	m.rec.phase(m.name, fmt.Sprintf("collect-%d", phase), len(collected), okCollect, len(collected)-okCollect)

	last := s.start
	for i := range s.resps {
		r := &s.resps[i]
		r.answered = r.done
		if r.req.kind.async() {
			if f, ok := parseTime(r.final.Finished); ok {
				r.answered = f
			}
		}
		r.latMs = float64(r.answered.Sub(s.start.Add(r.req.due)).Nanoseconds()) / 1e6
		if r.answered.After(last) {
			last = r.answered
		}
	}
	s.wall = last.Sub(s.start).Seconds()
	m.checkAnswers(s, phase)
	m.rec.emit("executors", map[string]any{"workload": m.name, "phase": phase,
		"busy_ratio": s.execS / (float64(m.cfg.conns) * s.wall), "queue_depth_max": s.depthMax})
	return s, nil
}

// jobTimes records queue wait and execution time of a job that ran.
func (m *serveMix) jobTimes(s *serveSample, job service.JobJSON) {
	if job.Started == "" {
		return
	}
	if q, ok := spanMs(job.Created, job.Started); ok {
		s.queueMs = append(s.queueMs, q)
	}
	if e, ok := spanMs(job.Started, job.Finished); ok {
		s.execMs = append(s.execMs, e)
		s.execS += e / 1e3
	}
}

// answeredOK reports whether a request got its correct kind of answer: a
// done job with a payload, which for a hit was served from the cache.
func (r *response) answeredOK() bool {
	if r.err != nil || r.final.State != service.StateDone || len(r.final.Result) == 0 {
		return false
	}
	if r.req.kind.hit() {
		return r.status == http.StatusOK && r.final.Cached
	}
	return true
}

// checkAnswers counts every request as an operation: hits must be
// byte-identical to the verified prefill payloads, both runs of a
// coalesced pair must agree, and a sample of misses and of each batch kind
// is re-computed locally.
func (m *serveMix) checkAnswers(s *serveSample, phase int) {
	pairs := map[int][]byte{}
	okTimed, verified := 0, 0
	batchSeen := map[reqKind]bool{}
	for i := range s.resps {
		r := &s.resps[i]
		good := r.answeredOK()
		switch {
		case !good:
		case r.req.kind.hit():
			good = bytes.Equal(r.final.Result, r.req.want)
		case r.req.kind == kindPair:
			if prev, ok := pairs[r.req.pair]; ok {
				good = bytes.Equal(prev, r.final.Result)
			} else {
				pairs[r.req.pair] = r.final.Result
			}
		case r.req.kind == kindMiss && verified < m.cfg.verify:
			verified++
			m.verifyRun(r.req.cfg, r.final.Result, "miss run")
		case !r.req.kind.interactive() && !batchSeen[r.req.kind]:
			batchSeen[r.req.kind] = true
			want, err := localBatch(r.req.kind, r.req.body)
			good = err == nil && bytes.Equal(want, r.final.Result)
		}
		m.t.check(good, "%s request kind %d: status %d state %s cached %v err %v %s", m.name, r.req.kind,
			r.status, r.final.State, r.final.Cached, r.err, r.final.Error)
		if !good {
			continue
		}
		okTimed++
		if r.req.kind.async() {
			m.jobTimes(s, r.final)
		}
		switch {
		case !r.req.kind.interactive():
			if ms, ok := spanMs(r.final.Created, r.final.Finished); ok {
				s.batchMs = append(s.batchMs, ms)
			}
		case !r.req.kind.hit():
			s.missCfgs = append(s.missCfgs, r.req.cfg)
		}
	}
	m.rec.phase(m.name, fmt.Sprintf("timed-%d", phase), len(s.resps), okTimed, len(s.resps)-okTimed)
}

// localBatch computes a panel or explore payload without the server.
func localBatch(k reqKind, body []byte) ([]byte, error) {
	if k == kindPanel {
		var pr service.PanelRequest
		if err := json.Unmarshal(body, &pr); err != nil {
			return nil, err
		}
		spec, opts, err := pr.SpecOpts()
		if err != nil {
			return nil, err
		}
		res, err := experiments.RunPanel(spec, opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(service.EncodePanel(res))
	}
	var er service.ExploreRequest
	if err := json.Unmarshal(body, &er); err != nil {
		return nil, err
	}
	spec, opts, _, err := er.SpecOpts()
	if err != nil {
		return nil, err
	}
	eval := func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		agg, _, err := experiments.RunReplicatedContext(ctx, p.Cfg, opts.Replicates, 1, nil)
		return agg, false, err
	}
	oc, err := explore.Run(context.Background(), spec, opts, opts.Workers, eval, nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.EncodeExplore(spec, opts, oc))
}

// close stops the live server and removes the data directory.
func (m *serveMix) close() {
	if m.live != nil {
		m.live.stop()
		m.live = nil
	}
	m.client.CloseIdleConnections()
	os.RemoveAll(m.dir)
}

// runServeMix prefills, boots and warms the server, then runs cfg.phases
// timed schedules (the last one traced when traced is set).
func runServeMix(cfg serveConfig, seed uint64, dir, name string, traced bool, rec *recorder, t *tally) (*serveMix, []*serveSample, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	m := newServeMix(cfg, seed, dir, name, rec, t)
	fail := func(err error) (*serveMix, []*serveSample, error) {
		m.close()
		return nil, nil, err
	}
	if err := m.prefill(); err != nil {
		return fail(fmt.Errorf("prefill: %w", err))
	}
	if err := m.boot(); err != nil {
		return fail(fmt.Errorf("boot: %w", err))
	}
	m.warm()
	var samples []*serveSample
	for p := 0; p < cfg.phases; p++ {
		s, err := m.timed(p, traced && p == cfg.phases-1)
		if err != nil {
			return fail(err)
		}
		samples = append(samples, s)
	}
	return m, samples, nil
}

// sloMs is the answer-time limit of an interactive request.
const sloMs = 50

// serveEndToEnd folds one timed schedule into the end-to-end metrics. The
// request latencies (every latency counted from the due time) go to the
// `answers` record: they are reported, not gated, because on a shared
// 2-CPU host their run-to-run spread stayed far above any usable bound
// (README.md).
func serveEndToEnd(m *serveMix, s *serveSample, t *tally) map[string]float64 {
	var hit, miss, late []float64
	interactive, met := 0, 0
	for i := range s.resps {
		r := &s.resps[i]
		late = append(late, r.lateMs)
		if !r.req.kind.interactive() {
			continue
		}
		interactive++
		if !r.answeredOK() {
			continue
		}
		if r.latMs <= sloMs {
			met++
		}
		if r.req.kind.hit() {
			hit = append(hit, r.latMs)
		} else {
			miss = append(miss, r.latMs)
		}
	}
	m.rec.emit("answers", map[string]any{"workload": m.name, "hits": len(hit), "misses": len(miss),
		"hit_p50_ms": median(hit), "hit_p99_ms": quantile(hit, 0.99),
		"miss_p50_ms": median(miss), "miss_p95_ms": quantile(miss, 0.95),
		"slo_met_ratio": ratio(float64(met), float64(interactive)), "batch_p50_ms": median(s.batchMs),
		"late_ms_p50": median(late), "late_ms_p99": quantile(late, 0.99)})
	cycles := float64(s.after.CyclesSimulated - s.before.CyclesSimulated)
	return map[string]float64{
		"wall_s":           s.wall,
		"sim_cycles_per_s": cycles / s.wall,
		"peak_rss_mb":      peakRSSMB(),
		"ok_ratio":         float64(t.attempted-t.failed) / float64(t.attempted),
		"setup_s":          median(m.boots),
	}
}

// serveLayers folds a traced schedule into the serving layers' metrics.
// The front end's share of a hit is the client's round trip minus the
// job's own created-to-finished span.
func serveLayers(s *serveSample, vals map[string]float64) {
	var front, late []float64
	for i := range s.resps {
		r := &s.resps[i]
		late = append(late, r.lateMs)
		if !r.req.kind.hit() || !r.answeredOK() {
			continue
		}
		if d, ok := spanMs(r.final.Created, r.final.Finished); ok {
			front = append(front, r.clientMs-d)
		}
	}
	b, a := s.before, s.after
	lookups := float64((a.CacheHits - b.CacheHits) + (a.CacheMisses - b.CacheMisses))
	expanded := float64(a.ExplorePointsExpanded - b.ExplorePointsExpanded)
	vals["service.front_ms_p50"] = median(front)
	vals["service.queue_wait_ms_p50"] = median(s.queueMs)
	vals["service.queue_wait_ms_p99"] = quantile(s.queueMs, 0.99)
	vals["service.exec_ms_p50"] = median(s.execMs)
	vals["service.queue_depth_max"] = float64(s.depthMax)
	vals["service.coalesced"] = float64(a.JobsCoalesced - b.JobsCoalesced)
	vals["service.cache_hit_ratio"] = ratio(float64(a.CacheHits-b.CacheHits), lookups)
	vals["service.disk_hit_ratio"] = ratio(float64(a.StoreHits-b.StoreHits), float64(a.CacheMisses-b.CacheMisses))
	vals["service.points_simulated"] = float64(a.PointsSimulated - b.PointsSimulated)
	vals["explore.points_expanded"] = expanded
	vals["explore.point_cache_hit_ratio"] = ratio(float64(a.ExplorePointsCacheHit-b.ExplorePointsCacheHit), expanded)
	vals["loadgen.sent"] = float64(len(s.resps))
	vals["loadgen.late_ms_p99"] = quantile(late, 0.99)
}
