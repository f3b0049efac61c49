package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"nullgraph"
	"nullgraph/internal/datasets"
)

// size scales every input. fullSize is what the benchmark runs;
// tinySize is what the self-test runs.
type size struct {
	// analogVertices caps the Table I analogs (WikiTalk, LiveJournal).
	analogVertices int64
	// serveVertices is the vertex count of each serve-mix distribution.
	serveVertices int64
	// directedVertices is the vertex count of the directed joint
	// distribution.
	directedVertices int64
}

var (
	fullSize = size{analogVertices: 150_000, serveVertices: 20_000, directedVertices: 50_000}
	tinySize = size{analogVertices: 3_000, serveVertices: 1_000, directedVertices: 3_000}
)

// swapIterations is the mixing budget of every sample: the paper's ~10
// iterations to steady state.
const swapIterations = 10

// derive returns an independent stream seed for one named input, so
// every input follows from the workload seed alone.
func derive(seed uint64, name string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// analog builds the scaled synthetic degree distribution of a Table I
// graph.
func analog(name string, seed uint64, sz size) (*nullgraph.DegreeDistribution, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return datasets.Load(spec, datasets.LoadOptions{MaxVertices: sz.analogVertices, Seed: derive(seed, name)})
}

// liveJournal realizes the LiveJournal analog as one simple graph
// (Havel–Hakimi), the input every shuffle-lj sample starts from.
func liveJournal(seed uint64, sz size) (*nullgraph.Graph, error) {
	dist, err := analog("LiveJournal", seed, sz)
	if err != nil {
		return nil, err
	}
	return nullgraph.HavelHakimi(dist)
}

// serveKey is one fingerprint of the serve-mix: a request body and the
// query that, with it, selects one pooled engine.
type serveKey struct {
	dist     *nullgraph.DegreeDistribution
	body     []byte
	seed     uint64
	vertices int
}

// The serve-mix traffic follows cmd/loadgen, the repository's only
// record of caller traffic: power laws of 20k vertices with exponent
// 2.1 and maximum degree 100, 10 swaps, binary responses, each client
// sending its next request once the last reply is read. What loadgen
// does not fix is an assumption, not checked against real traffic:
// that the four distributions are independent draws of loadgen's law
// (loadgen sends one), and that one request in five asks for text
// (loadgen asks for none).
const (
	serveGamma     = 2.1
	serveMaxDegree = 100
	// serveTextEvery makes every serveTextEvery-th request a text one.
	serveTextEvery = 5
)

// serveKeys builds the eight serve-mix fingerprints: each of four
// distributions under two request seeds.
func serveKeys(seed uint64, sz size) ([]serveKey, error) {
	var keys []serveKey
	for i := 0; i < 4; i++ {
		dist, err := nullgraph.PowerLawDistribution(sz.serveVertices, 1, serveMaxDegree, serveGamma, derive(seed, fmt.Sprintf("serve-dist-%d", i)))
		if err != nil {
			return nil, err
		}
		var body bytes.Buffer
		if err := nullgraph.WriteDistribution(&body, dist); err != nil {
			return nil, err
		}
		for j := 0; j < 2; j++ {
			keys = append(keys, serveKey{
				dist:     dist,
				body:     body.Bytes(),
				seed:     derive(seed, fmt.Sprintf("serve-seed-%d-%d", i, j)),
				vertices: int(dist.NumVertices()),
			})
		}
	}
	return keys, nil
}

// directedJoint pairs two independent power-law degree sequences into
// one joint (out, in) distribution. The in-degrees are shuffled so the
// pairing is independent, and the smaller side is topped up one stub
// at a time at random vertices until the two sums balance.
func directedJoint(seed uint64, sz size) (*nullgraph.JointDistribution, error) {
	const gamma, dmax = 2.1, 1500
	seq := func(name string) ([]int64, error) {
		d, err := nullgraph.PowerLawDistribution(sz.directedVertices, 1, dmax, gamma, derive(seed, name))
		if err != nil {
			return nil, err
		}
		return d.ToDegrees(), nil
	}
	out, err := seq("directed-out")
	if err != nil {
		return nil, err
	}
	in, err := seq("directed-in")
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(derive(seed, "directed-pair"), 0))
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	var diff int64
	for i := range out {
		diff += out[i] - in[i]
	}
	for diff != 0 {
		short := in
		if diff < 0 {
			short = out
		}
		if v := r.IntN(len(short)); short[v] < dmax {
			short[v]++
			if diff > 0 {
				diff--
			} else {
				diff++
			}
		}
	}
	return nullgraph.JointFromDegrees(out, in), nil
}

// swapBytes is the computed (not measured) size of the swap engine's
// per-edge state for m edges: the edge list, the edge table (the next
// power of two at or above 4m slots of 8 bytes), the permutation target
// and the ever-swapped flags. Permutation scratch is not included.
func swapBytes(m int64) int64 {
	slots := int64(1)
	for slots < 4*m {
		slots <<= 1
	}
	return 8*m + 8*slots + 4*m + m
}
