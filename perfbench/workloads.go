package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sparqlrw/internal/workload"
)

// Universe size shared by every workload: 1000 persons and 3000
// Southampton papers (plus the KISTI mirrors, KISTI-only papers and the
// citation-metrics set derived from them).
const (
	universePersons = 1000
	universePapers  = 3000
)

func universeConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers, cfg.Seed = universePersons, universePapers, seed
	return cfg
}

// Query shapes the workloads draw from.
const (
	shapeFigure1 = iota // workload.Figure1Query: rewrite-and-federate
	shapeCross          // workload.CrossVocabularyQuery: decomposed join
)

// query is one request of a workload's stream.
type query struct {
	shape  int
	person int
	// threshold, when >= 0, adds FILTER(?c > threshold.frac) to a
	// cross-vocabulary query; frac is the request number plus one, so the
	// text never repeats (and the result cache never answers it).
	threshold int
	frac      int
	text      string
}

func (q query) filtered() bool { return q.threshold >= 0 }

// workloadSpec is one benchmark workload: how the deployment is
// configured and how its query stream is drawn.
type workloadSpec struct {
	name string
	// resultCache and views switch the serving tier's result cache (512
	// entries) and the materialized-view tier (MinFrequency 2, MaxViews
	// 8) on; both are off otherwise.
	resultCache bool
	views       bool
	// openRate is the open-loop phase's fixed request rate (queries/s),
	// about half the closed-loop throughput on a 2-core machine.
	openRate float64
	// warmup is how many queries warm the deployment before timing.
	warmup int
	// writeEvery re-posts the AKT-KISTI alignment document after every
	// writeEvery timed queries (0 = never).
	writeEvery int
	// next draws request seq of the stream seeded by seed.
	next func(seed int64, seq uint64, hot []int) query
}

// hotPersons is the size of the hot workload's person population.
const hotPersons = 32

var workloads = map[string]*workloadSpec{
	"fanout": {
		name:     "fanout",
		openRate: 170,
		warmup:   200,
		next: func(seed int64, seq uint64, _ []int) query {
			r := newStreamRand(seed, seq)
			return makeQuery(shapeFigure1, r.intn(universePersons), -1, 0)
		},
	},
	"join": {
		name:     "join",
		openRate: 80,
		warmup:   100,
		next: func(seed int64, seq uint64, _ []int) query {
			r := newStreamRand(seed, seq)
			return makeQuery(shapeCross, r.intn(universePersons), -1, 0)
		},
	},
	"hot": {
		name:        "hot",
		resultCache: true,
		views:       true,
		openRate:    275,
		warmup:      400,
		writeEvery:  1000,
		next: func(seed int64, seq uint64, hot []int) query {
			r := newStreamRand(seed, seq)
			person := hot[zipfRank(r.float())]
			if r.intn(2) == 0 {
				return makeQuery(shapeFigure1, person, -1, 0)
			}
			return makeQuery(shapeCross, person, r.intn(99), int(seq)+1)
		},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func makeQuery(shape, person, threshold, frac int) query {
	q := query{shape: shape, person: person, threshold: threshold, frac: frac}
	switch shape {
	case shapeFigure1:
		q.text = workload.Figure1Query(person)
	case shapeCross:
		q.text = workload.CrossVocabularyQuery(person)
		if q.filtered() {
			body := strings.TrimSuffix(strings.TrimRight(q.text, "\n"), "}")
			q.text = fmt.Sprintf("%s  FILTER (?c > %d.%09d)\n}", body, threshold, frac)
		}
	}
	return q
}

// hotPopulation picks the hot workload's persons, a fixed function of
// the universe seed so every stream seed sees the same population.
func hotPopulation(universeSeed int64) []int {
	r := newStreamRand(universeSeed, math.MaxUint64)
	perm := make([]int, universePersons)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:hotPersons]
}

// zipfCDF is the cumulative Zipf(s=1) distribution over hotPersons ranks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, hotPersons)
	total := 0.0
	for k := 1; k <= hotPersons; k++ {
		total += 1 / float64(k)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}()

// zipfRank maps a uniform draw in [0,1) to a Zipf rank in [0, hotPersons).
func zipfRank(u float64) int {
	i := sort.SearchFloat64s(zipfCDF, u)
	if i >= hotPersons {
		i = hotPersons - 1
	}
	return i
}

// streamRand is a splitmix64 generator keyed by (seed, seq): request seq
// of a stream is the same whichever client draws it, in whatever order.
type streamRand struct{ state uint64 }

func newStreamRand(seed int64, seq uint64) *streamRand {
	return &streamRand{state: uint64(seed)*0x9E3779B97F4A7C15 ^ (seq+1)*0xBF58476D1CE4E5B9}
}

func (r *streamRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *streamRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *streamRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }
