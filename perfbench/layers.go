package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nullgraph"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/probgen"
	"nullgraph/internal/swap"
)

// The traced run measures each layer through the exported functions
// that later changes keep: probgen.GenerateStop, edgeskip's Generator,
// swap.NewEngine/Reset/Step, the root nullgraph API and serve's handler
// and /metrics page. It never calls code scheduled for rewrite or
// deletion (permute, hashtable, the directed swap engine, core's mixer,
// swap.Run*), so those changes land without editing the benchmark.
//
// Each layer is probed on one fixed input: the workload input that
// exercises it, or for the Generate pipeline's layers (probgen,
// edgeskip, core) the WikiTalk analog, the paper's skewed set. Every
// traced run thus prints the same per-layer metrics whatever its
// workload; only trace.overhead_frac belongs to the run's workload.

// layerMetrics maps a per-layer metric name to its value and unit.
type layerMetrics map[string]metric

// widths returns the worker counts a layer is probed at: 1 and
// GOMAXPROCS. On a 1-core host there is no second width; the .wP
// metrics and speedups are then left out, with a notice.
func widths(notices *[]string) []int {
	p := runtime.GOMAXPROCS(0)
	if p == 1 {
		*notices = append(*notices, "GOMAXPROCS is 1: .wP metrics and speedups are omitted, not copied from .w1")
		return []int{1}
	}
	return []int{1, p}
}

func suffix(w int) string {
	if w == 1 {
		return "w1"
	}
	return "wP"
}

// probeLayers runs every probe and returns their metrics and tracers.
// Output checks of probe results are recorded in st.
func probeLayers(seed uint64, sz size, budget time.Duration, st *loopStats, notices *[]string) (layerMetrics, []*tracer, error) {
	ws := widths(notices)
	out := layerMetrics{}
	var tracers []*tracer
	wiki, err := analog("WikiTalk", seed, sz)
	if err != nil {
		return nil, nil, err
	}
	keys, err := serveKeys(seed, sz)
	if err != nil {
		return nil, nil, err
	}
	lj, err := liveJournal(seed, sz)
	if err != nil {
		return nil, nil, err
	}
	probes := []struct {
		scope string
		run   func(tr *tracer) error
	}{
		{"swap", func(tr *tracer) error { return probeSwap(tr, seed, lj, ws, out, st) }},
		{"probgen", func(tr *tracer) error { probeProbgen(tr, wiki, ws, out); return nil }},
		{"edgeskip", func(tr *tracer) error { return probeEdgeskip(tr, seed, wiki, ws, out, st) }},
		{"core", func(tr *tracer) error { return probeCore(tr, seed, wiki, out, st) }},
		{"core", func(tr *tracer) error { return probeShuffleCheck(tr, seed, lj, out, st) }},
		{"graph", func(tr *tracer) error { return probeGraph(tr, keys, out, st) }},
		{"serve", func(tr *tracer) error { return probeServe(tr, keys, budget, out, st) }},
		{"directed", func(tr *tracer) error { return probeDirected(tr, seed, sz, ws, out, st) }},
	}
	for _, p := range probes {
		tr := newTracer(p.scope)
		tracers = append(tracers, tr)
		if err := p.run(tr); err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", p.scope, err)
		}
	}
	return out, tracers, nil
}

func (m layerMetrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// probeSwap times swap.NewEngine, warm Steps and Reset on the
// shuffle-lj graph at each width.
func probeSwap(tr *tracer, seed uint64, base *nullgraph.Graph, ws []int, out layerMetrics, st *loopStats) error {
	degrees, work := degreesOf(base), base.Clone()
	const steps = 3
	var attempts, successes int64
	var allocs uint64
	var ms0, ms1 runtime.MemStats
	for _, w := range ws {
		sfx := suffix(w)
		copy(work.Edges, base.Edges)
		opt := swap.Options{Iterations: swapIterations, Workers: w, Seed: derive(seed, "probe-swap"), TrackSwapped: true}
		id := tr.begin("swap.NewEngine."+sfx, 0)
		eng := swap.NewEngine(work, opt)
		tr.end(id)
		eng.Step() // warm-up: first-touch of the table and scratch
		runtime.ReadMemStats(&ms0)
		for i := 0; i < steps; i++ {
			id := tr.begin("swap.Step."+sfx, 0)
			s := eng.Step()
			tr.end(id)
			attempts += s.Attempts
			successes += s.Successes
		}
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		st.record(0, checkShuffled(work, degrees, len(base.Edges)))
		copy(work.Edges, base.Edges)
		id = tr.begin("swap.Reset."+sfx, 0)
		eng.Reset(work)
		tr.end(id)
		eng.Close()
	}
	for _, w := range ws {
		out.set("swap.step_s."+suffix(w), median(tr.durations("swap.Step."+suffix(w))), "s")
	}
	if len(ws) > 1 {
		out.set("swap.speedup", out["swap.step_s.w1"].Value/out["swap.step_s.wP"].Value, "x")
	}
	// Engine construction and rebinding are reported at GOMAXPROCS
	// workers, shuffle-lj's width.
	wide := suffix(ws[len(ws)-1])
	out.set("swap.new_engine_s", median(tr.durations("swap.NewEngine."+wide)), "s")
	out.set("swap.reset_s", median(tr.durations("swap.Reset."+wide)), "s")
	out.set("swap.accept_ratio", float64(successes)/float64(attempts), "ratio")
	out.set("swap.step_allocs", float64(allocs)/float64(steps*len(ws)), "count")
	return nil
}

// probeProbgen times cold attachment-probability generation on the
// WikiTalk analog.
func probeProbgen(tr *tracer, dist *nullgraph.DegreeDistribution, ws []int, out layerMetrics) {
	for _, w := range ws {
		name := "probgen.GenerateStop." + suffix(w)
		for r := 0; r < 5; r++ {
			id := tr.begin(name, 0)
			probgen.GenerateStop(dist, w, nil)
			tr.end(id)
		}
		out.set("probgen.generate_s."+suffix(w), median(tr.durations(name)), "s")
	}
	out.set("probgen.classes", float64(dist.NumClasses()), "count")
}

// probeEdgeskip times warm edge-skipping on the WikiTalk analog and
// compares its edge count with the expected one.
func probeEdgeskip(tr *tracer, seed uint64, dist *nullgraph.DegreeDistribution, ws []int, out layerMetrics, st *loopStats) error {
	mat := probgen.Generate(dist, 1)
	expected := edgeskip.ExpectedEdges(dist, mat)
	var yields []float64
	for _, w := range ws {
		name := "edgeskip.Generator.Generate." + suffix(w)
		gen := edgeskip.NewGenerator(edgeskip.Options{Workers: w})
		if _, err := gen.Generate(dist, mat, derive(seed, "probe-edgeskip"), nil); err != nil {
			return err
		}
		for r := 0; r < 5; r++ {
			id := tr.begin(name, 0)
			el, err := gen.Generate(dist, mat, derive(seed, "probe-edgeskip")+uint64(r+1), nil)
			tr.end(id)
			if err != nil {
				return err
			}
			yields = append(yields, float64(len(el.Edges))/expected)
			st.record(0, checkGenerated(el, dist))
		}
		out.set("edgeskip.generate_s."+suffix(w), median(tr.durations(name)), "s")
	}
	out.set("edgeskip.edge_yield", mean(yields), "ratio")
	return nil
}

// probeCore measures what a Workers=1 Engine adds around its phases on
// warm WikiTalk samples: wall time outside Result.Phases, heap
// bytes allocated per sample, and each phase's share of the call.
func probeCore(tr *tracer, seed uint64, dist *nullgraph.DegreeDistribution, out layerMetrics, st *loopStats) error {
	eng := nullgraph.NewEngine(nullgraph.Options{Workers: 1, SwapIterations: swapIterations, Seed: derive(seed, "probe-core")})
	defer eng.Close()
	if _, err := eng.Generate(dist); err != nil {
		return err
	}
	const samples = 3
	overhead := make([]float64, 0, samples)
	var wall, prob, edges, swp time.Duration
	var res *nullgraph.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < samples; r++ {
		id := tr.begin("nullgraph.Engine.Generate", 0)
		t0 := time.Now()
		var err error
		res, err = eng.Generate(dist)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		overhead = append(overhead, (d - res.Phases.Total()).Seconds())
		wall += d
		prob += res.Phases.Probabilities
		edges += res.Phases.EdgeGeneration
		swp += res.Phases.Swapping
	}
	runtime.ReadMemStats(&ms1)
	st.record(0, checkGenerated(res.Graph, dist))
	out.set("core.overhead_s", median(overhead), "s")
	out.set("core.alloc_bytes_per_sample", float64(ms1.TotalAlloc-ms0.TotalAlloc)/samples, "bytes")
	out.set("core.phase_share.probabilities", prob.Seconds()/wall.Seconds(), "ratio")
	out.set("core.phase_share.edge_generation", edges.Seconds()/wall.Seconds(), "ratio")
	out.set("core.phase_share.swapping", swp.Seconds()/wall.Seconds(), "ratio")
	return nil
}

// probeShuffleCheck measures the part of a shuffle-lj sample that is
// not swapping: Engine.Shuffle first checks on one thread that its
// input is simple (Graph.SatisfiesSpace) and only then runs the swap
// iterations. core.shuffle_check_share is that check's time over a warm
// Workers=1 Shuffle's, as shuffle-lj runs it: the share a swap gain
// cannot reach.
func probeShuffleCheck(tr *tracer, seed uint64, base *nullgraph.Graph, out layerMetrics, st *loopStats) error {
	for r := 0; r < 3; r++ {
		id := tr.begin("nullgraph.Graph.SatisfiesSpace", 0)
		simple := base.SatisfiesSpace(nullgraph.SpaceSimple)
		tr.end(id)
		if !simple {
			return fmt.Errorf("the shuffle-lj graph is not simple")
		}
	}
	eng := nullgraph.NewEngine(nullgraph.Options{Workers: 1, SwapIterations: swapIterations, Seed: derive(seed, "probe-shuffle")})
	defer eng.Close()
	degrees, work := degreesOf(base), base.Clone()
	// The first call builds the swap engine; the second is warm.
	for r := 0; r < 2; r++ {
		copy(work.Edges, base.Edges)
		id := tr.begin("nullgraph.Engine.Shuffle", 0)
		_, err := eng.Shuffle(work)
		tr.end(id)
		if err != nil {
			return err
		}
		st.record(0, checkShuffled(work, degrees, len(base.Edges)))
	}
	check := median(tr.durations("nullgraph.Graph.SatisfiesSpace"))
	out.set("core.shuffle_check_share", check/tr.durations("nullgraph.Engine.Shuffle")[1], "ratio")
	return nil
}

// probeGraph times the I/O the service does per request: decoding a
// serve-mix request body and encoding a graph of that distribution in
// both response formats.
func probeGraph(tr *tracer, keys []serveKey, out layerMetrics, st *loopStats) error {
	var buf bytes.Buffer
	for r := 0; r < 3; r++ {
		// Keys come in pairs sharing one distribution.
		for i := 0; i < len(keys); i += 2 {
			k := keys[i]
			id := tr.begin("graph.ReadDistribution", 0)
			_, err := nullgraph.ReadDistribution(bytes.NewReader(k.body))
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	for i := 0; i < len(keys); i += 2 {
		k := keys[i]
		res, err := nullgraph.Generate(k.dist, nullgraph.Options{Workers: 1, SwapIterations: swapIterations, Seed: k.seed})
		if err != nil {
			return err
		}
		st.record(0, checkGenerated(res.Graph, k.dist))
		for r := 0; r < 3; r++ {
			buf.Reset()
			id := tr.begin("graph.WriteGraphBinary", 0)
			err := nullgraph.WriteGraphBinary(&buf, res.Graph)
			tr.end(id)
			if err != nil {
				return err
			}
			buf.Reset()
			id = tr.begin("graph.WriteGraph", 0)
			err = nullgraph.WriteGraph(&buf, res.Graph)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	out.set("graph.decode_dist_ms", 1000*median(tr.durations("graph.ReadDistribution")), "ms")
	out.set("graph.encode_binary_ms", 1000*median(tr.durations("graph.WriteGraphBinary")), "ms")
	out.set("graph.encode_text_ms", 1000*median(tr.durations("graph.WriteGraph")), "ms")
	return nil
}

// probeServe runs a traced serve-mix loop on a fresh server and splits
// the request time into handler, transport, generation and the rest.
// It needs probeGraph's metrics for the decode and encode shares.
func probeServe(tr *tracer, keys []serveKey, budget time.Duration, out layerMetrics, st *loopStats) error {
	b := &serveBench{keys: keys, clients: runtime.GOMAXPROCS(0)}
	defer b.close()
	b.start(st)
	before, err := b.scrape()
	if err != nil {
		return err
	}
	// The loop's requests plus the one start sent.
	requests := -st.attempted + 1
	b.drive(budget, tr, st)
	requests += st.attempted
	after, err := b.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	handler := tr.durations("serve.Handler")
	out.set("serve.handler_ms.p50", 1000*quantile(handler, 0.5), "ms")
	out.set("serve.handler_ms.p90", 1000*quantile(handler, 0.9), "ms")
	out.set("serve.transport_ms.p50", 1000*median(tr.selfTimes("serve.Request", "serve.Handler")), "ms")
	generate := 1000 * delta("nullgraphd_phase_seconds_total") / delta("nullgraphd_samples_served_total")
	out.set("serve.generate_ms", generate, "ms")
	// One request in serveTextEvery is text (serveBench.request).
	text := 1.0 / serveTextEvery
	encode := (1-text)*out["graph.encode_binary_ms"].Value + text*out["graph.encode_text_ms"].Value
	out.set("serve.unattributed_ms", 1000*mean(handler)-generate-out["graph.decode_dist_ms"].Value-encode, "ms")
	out.set("serve.cold_share", after["nullgraphd_pool_keys"]/float64(requests), "ratio")
	return nil
}

// probeDirected times one-shot directed generation on the directed-gen
// joint distribution at each width.
func probeDirected(tr *tracer, seed uint64, sz size, ws []int, out layerMetrics, st *loopStats) error {
	dist, err := directedJoint(seed, sz)
	if err != nil {
		return err
	}
	for _, w := range ws {
		name := "nullgraph.GenerateDirected." + suffix(w)
		for r := 0; r < 2; r++ {
			id := tr.begin(name, 0)
			res, err := nullgraph.GenerateDirected(dist, nullgraph.Options{Workers: w, SwapIterations: swapIterations, Seed: derive(seed, "probe-directed") + uint64(r)})
			tr.end(id)
			if err != nil {
				return err
			}
			st.record(0, checkDigraph(res.Graph, int(dist.NumVertices())))
		}
		out.set("directed.generate_s."+suffix(w), median(tr.durations(name)), "s")
	}
	if len(ws) > 1 {
		out.set("directed.speedup", out["directed.generate_s.w1"].Value/out["directed.generate_s.wP"].Value, "x")
	}
	return nil
}
