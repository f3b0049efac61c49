package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nullgraph"
	"nullgraph/internal/serve"
)

// A workload builds its inputs from the workload seed. Building happens
// before any timing starts.
type workload struct {
	name string
	load func(seed uint64, sz size) (bench, error)
	// rssOverLoop takes peak_rss_mb over the measured loop instead of
	// per set-up (rss.go).
	rssOverLoop bool
}

var workloads = []workload{
	{"shuffle-lj", loadShuffle, false},
	{"serve-mix", loadServe, true},
	{"directed-gen", loadDirected, false},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one workload with its inputs in memory.
type bench interface {
	// info describes the inputs: sizes, widths and computed working
	// sets.
	info() map[string]any
	// start releases any earlier set-up, sets the workload up afresh
	// and completes its first sample or response, recording it in st.
	// It returns the wall and the CPU time from the start of set-up to
	// that first result.
	start(st *loopStats) (wall, cpu time.Duration)
	// drive runs warm samples or requests until budget of measured time
	// has passed, recording each in st and adding their CPU time to
	// st.cpu, and returns the measured time.
	drive(budget time.Duration, tr *tracer, st *loopStats) time.Duration
	close()
}

// loopStats collects the outcomes of one measured loop. A failure is an
// error, a non-2xx response or an output that fails its check.
type loopStats struct {
	mu        sync.Mutex
	lat       []float64 // seconds, successful operations only
	cpu       time.Duration
	attempted int
	failed    int
	firstErr  error
	// windows turns on the peak RSS record of each set-up (rss.go).
	windows bool
	peaks   []float64
	rssErr  error
}

func (st *loopStats) openWindow() {
	if st.windows && st.rssErr == nil {
		st.rssErr = openRSSWindow()
	}
}

func (st *loopStats) closeWindow() {
	if !st.windows || st.rssErr != nil {
		return
	}
	mb, err := rssHighWaterMB()
	if err != nil {
		st.rssErr = err
		return
	}
	st.peaks = append(st.peaks, mb)
}

func (st *loopStats) record(d time.Duration, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		return
	}
	st.lat = append(st.lat, d.Seconds())
}

// batch drives one library entry point a sample at a time.
type batch struct {
	about map[string]any
	open  func() sampler
	cur   sampler
}

// sampler is one set-up of a batch workload.
type sampler interface {
	// sample draws one sample. It returns the time of the library call
	// alone (preparing its input is not timed) and the output check to
	// run once the clock has stopped.
	sample(tr *tracer) (time.Duration, func() error, error)
	close()
}

func (b *batch) info() map[string]any { return b.about }

func (b *batch) start(st *loopStats) (wall, cpu time.Duration) {
	b.close()
	st.openWindow()
	c0, t0 := processCPU(), time.Now()
	b.cur = b.open()
	opened := time.Since(t0)
	d, check, err := b.cur.sample(nil)
	cpu = processCPU() - c0
	st.closeWindow()
	if err == nil {
		err = check()
	}
	st.record(d, err)
	return opened + d, cpu
}

func (b *batch) drive(budget time.Duration, tr *tracer, st *loopStats) time.Duration {
	var busy time.Duration
	// Checks run outside the measured time; the wall limit only stops a
	// loop whose every call fails at once. The garbage a check leaves is
	// collected before the next call, so no sample pays for another's
	// check.
	deadline := time.Now().Add(2*budget + time.Second)
	for busy < budget && time.Now().Before(deadline) {
		c0 := processCPU()
		d, check, err := b.cur.sample(tr)
		st.cpu += processCPU() - c0
		busy += d
		if err == nil {
			err = check()
		}
		st.record(d, err)
		runtime.GC()
	}
	return busy
}

// close releases the current set-up, collects its memory and returns
// the freed pages to the OS, so the next set-up does not start on top
// of it and its peak RSS window starts from the same resident set.
func (b *batch) close() {
	if b.cur != nil {
		b.cur.close()
		b.cur = nil
		debug.FreeOSMemory()
	}
}

// shuffle-lj: Workers=1 Shuffles of fresh copies of one simple graph.
// Every batch loop runs one worker: a two-worker sample's time, CPU
// time included, follows how much of the host its neighbours take
// (cpu.go), so Workers=P is measured by the traced run's probes.

type shuffleSampler struct {
	eng        *nullgraph.Engine
	base, work *nullgraph.Graph
	degrees    []int64
}

func (s *shuffleSampler) sample(tr *tracer) (time.Duration, func() error, error) {
	copy(s.work.Edges, s.base.Edges)
	id := tr.begin("nullgraph.Engine.Shuffle", 0)
	t0 := time.Now()
	_, err := s.eng.Shuffle(s.work)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return d, nil, err
	}
	return d, func() error { return checkShuffled(s.work, s.degrees, len(s.base.Edges)) }, nil
}

func (s *shuffleSampler) close() { s.eng.Close() }

func degreesOf(g *nullgraph.Graph) []int64 {
	deg := make([]int64, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

func loadShuffle(seed uint64, sz size) (bench, error) {
	base, err := liveJournal(seed, sz)
	if err != nil {
		return nil, err
	}
	if err := checkSimple(base.Edges, base.NumVertices); err != nil {
		return nil, fmt.Errorf("shuffle-lj input: %w", err)
	}
	work, degrees := base.Clone(), degreesOf(base)
	opt := nullgraph.Options{Workers: 1, SwapIterations: swapIterations, Seed: derive(seed, "shuffle-lj")}
	m := int64(len(base.Edges))
	return &batch{
		about: map[string]any{
			"input":                 "LiveJournal analog realized by Havel-Hakimi",
			"vertices":              base.NumVertices,
			"edges":                 m,
			"workers":               1,
			"swap_iterations":       swapIterations,
			"swap_bytes_computed":   swapBytes(m),
			"unit_of_samples_per_s": "one Engine.Shuffle sample",
		},
		open: func() sampler {
			return &shuffleSampler{eng: nullgraph.NewEngine(opt), base: base, work: work, degrees: degrees}
		},
	}, nil
}

// directed-gen: one-shot GenerateDirected calls at Workers=1. There is
// no session, so every sample pays its own set-up.

type directedSampler struct {
	dist *nullgraph.JointDistribution
	opt  nullgraph.Options
	seed uint64
	next uint64
}

func (s *directedSampler) sample(tr *tracer) (time.Duration, func() error, error) {
	s.opt.Seed = nullgraph.SampleSeed(s.seed, s.next)
	s.next++
	id := tr.begin("nullgraph.GenerateDirected", 0)
	t0 := time.Now()
	res, err := nullgraph.GenerateDirected(s.dist, s.opt)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return d, nil, err
	}
	return d, func() error { return checkDigraph(res.Graph, int(s.dist.NumVertices())) }, nil
}

func (s *directedSampler) close() {}

func loadDirected(seed uint64, sz size) (bench, error) {
	dist, err := directedJoint(seed, sz)
	if err != nil {
		return nil, err
	}
	opt := nullgraph.Options{Workers: 1, SwapIterations: swapIterations}
	return &batch{
		about: map[string]any{
			"input":                 "joint distribution of two independent power laws",
			"vertices":              dist.NumVertices(),
			"arcs":                  dist.NumArcs(),
			"classes":               dist.NumClasses(),
			"workers":               1,
			"swap_iterations":       swapIterations,
			"arc_bytes_computed":    8 * dist.NumArcs(),
			"unit_of_samples_per_s": "one GenerateDirected sample",
		},
		open: func() sampler { return &directedSampler{dist: dist, opt: opt, seed: derive(seed, "directed-gen")} },
	}, nil
}

// serve-mix: a closed loop of P clients against an in-process server.
// Each client sends its next request only once the previous reply is
// read and verified, as cmd/loadgen's clients do.

type serveBench struct {
	keys    []serveKey
	clients int
	srv     *serve.Server
	handler http.Handler
	ts      *httptest.Server
	client  *http.Client
	next    atomic.Int64
	// tr is the tracer of the loop in progress, nil when untraced; the
	// handler wrapper reads it from the server's goroutines.
	tr atomic.Pointer[tracer]
}

func loadServe(seed uint64, sz size) (bench, error) {
	keys, err := serveKeys(seed, sz)
	if err != nil {
		return nil, err
	}
	return &serveBench{keys: keys, clients: runtime.GOMAXPROCS(0)}, nil
}

func (b *serveBench) info() map[string]any {
	var edges int64
	for _, k := range b.keys {
		edges += k.dist.NumEdges()
	}
	return map[string]any{
		"input":                       "8 fingerprints: 4 power-law distributions x 2 seeds",
		"vertices_per_distribution":   b.keys[0].vertices,
		"mean_distribution_edges":     edges / int64(len(b.keys)),
		"clients":                     b.clients,
		"loop":                        "closed",
		"engine_workers":              1,
		"swap_iterations":             swapIterations,
		"text_share":                  fmt.Sprintf("1 request in %d (assumed)", serveTextEvery),
		"distribution":                fmt.Sprintf("power law, exponent %g, degrees 1-%d (cmd/loadgen's)", serveGamma, serveMaxDegree),
		"swap_bytes_computed_per_key": swapBytes(edges / int64(len(b.keys))),
	}
}

// ServeHTTP wraps the service's handler in a span when a loop is traced.
// The client's span id arrives in X-Bench-Span, so the handler span
// hangs off the request that caused it.
func (b *serveBench) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := b.tr.Load()
	if tr == nil {
		b.handler.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	id := tr.begin("serve.Handler", parent)
	b.handler.ServeHTTP(w, r)
	tr.end(id)
}

func (b *serveBench) start(st *loopStats) (wall, cpu time.Duration) {
	b.close()
	st.openWindow()
	c0, t0 := processCPU(), time.Now()
	b.srv = serve.New(serve.Config{})
	b.handler = b.srv.Handler()
	b.ts = httptest.NewServer(b)
	// The timeout only bounds a hung server; the service's own default
	// deadline is 30 s.
	b.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: b.clients}}
	b.next.Store(0)
	d, err := b.request(0, nil)
	wall, cpu = time.Since(t0), processCPU()-c0
	st.closeWindow()
	st.record(d, err)
	return wall, cpu
}

// request sends request i and verifies its reply. Request i asks for
// fingerprint i mod 8; one in serveTextEvery asks for the text format.
func (b *serveBench) request(i int64, tr *tracer) (time.Duration, error) {
	k := b.keys[i%int64(len(b.keys))]
	binary := i%serveTextEvery != serveTextEvery-1
	format := "binary"
	if !binary {
		format = "text"
	}
	url := fmt.Sprintf("%s/v1/generate?seed=%d&swaps=%d&format=%s", b.ts.URL, k.seed, swapIterations, format)
	id := tr.begin("serve.Request", 0)
	defer tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(k.body))
	if err != nil {
		return 0, err
	}
	if id != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = checkPayload(body, binary, resp.Header, k.vertices)
	}
	return time.Since(t0), err
}

func (b *serveBench) drive(budget time.Duration, tr *tracer, st *loopStats) time.Duration {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	c0, t0 := processCPU(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < budget {
				d, err := b.request(b.next.Add(1), tr)
				st.record(d, err)
			}
		}()
	}
	wg.Wait()
	st.cpu += processCPU() - c0
	return time.Since(t0)
}

// scrape reads the service's /metrics page, summing each series over
// its labels.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		name, _, _ = strings.Cut(name, "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (b *serveBench) close() {
	if b.ts == nil {
		return
	}
	b.client.CloseIdleConnections()
	b.ts.Close()
	// Close reports only engine shutdown trouble, which cannot change a
	// result that was already verified.
	_ = b.srv.Close()
	b.ts, b.srv, b.handler, b.client = nil, nil, nil, nil
	debug.FreeOSMemory()
}
