package main

// The deployment process: three SPARQL endpoints, the sameAs service over
// HTTP and the mediator's /sparql handler, wired the way cmd/mediator
// wires them (same defaults, same option plumbing), all on loopback. It
// also serves a small control listener the load generator reads between
// phases: process CPU, Go allocation counters, goroutines and — in
// traced runs — the benchmark's own per-handler wrappers around the
// endpoints and the sameAs service.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// deployInfo is the line the deployment prints on stdout once every
// listener is up and every knowledge base is registered.
type deployInfo struct {
	Mediator string `json:"mediator"`
	Control  string `json:"control"`
}

// runDeploy builds and serves the deployment until stdin closes (the
// load generator holds the other end, so the deployment never outlives
// it).
func runDeploy(args []string) error {
	opts, err := parseDeployFlags(args)
	if err != nil {
		return err
	}
	spec, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	slog.SetDefault(logger)

	u := workload.Generate(universeConfig(opts.universeSeed))
	metricsStore := workload.MetricsStore(u)

	var wrappers []*handlerStats
	wrap := func(name string, h http.Handler, record bool) http.Handler {
		if !opts.trace {
			return h
		}
		hs := &handlerStats{name: name, next: h, record: record}
		wrappers = append(wrappers, hs)
		return hs
	}
	listen := func(h http.Handler) (string, error) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		go func() { _ = http.Serve(lis, h) }()
		return "http://" + lis.Addr().String(), nil
	}
	sotonEP := endpoint.NewServer("southampton", u.Southampton)
	kistiEP := endpoint.NewServer("kisti", u.KISTI)
	metricsEP := endpoint.NewServer("metrics", metricsStore)
	for _, ep := range []*endpoint.Server{sotonEP, kistiEP, metricsEP} {
		ep.MaxRequestBody = endpoint.DefaultMaxRequestBody
	}
	sotonURL, err := listen(wrap("southampton", sotonEP, true))
	if err != nil {
		return err
	}
	kistiURL, err := listen(wrap("kisti", kistiEP, true))
	if err != nil {
		return err
	}
	metricsURL, err := listen(wrap("metrics", metricsEP, true))
	if err != nil {
		return err
	}
	corefURL, err := listen(wrap("coref", coref.Handler(u.Coref), false))
	if err != nil {
		return err
	}

	dsKB, err := datasetKB(u, metricsStore, sotonURL, kistiURL, metricsURL)
	if err != nil {
		return err
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		return err
	}
	if err := alignKB.Add(workload.ECS2DBpedia()); err != nil {
		return err
	}

	// cmd/mediator's defaults, flag for flag; only the result cache and
	// the view tier differ per workload.
	mopts := []mediate.Option{
		mediate.WithRewriteFilters(true),
		mediate.WithObservability(obs.Options{
			Logger:        logger,
			SlowQuery:     time.Second,
			TraceRingSize: 128,
			TraceSample:   1,
			AuditMaxBytes: obs.DefaultAuditMaxBytes,
		}),
		mediate.WithFederation(federate.Options{
			Concurrency:     8,
			EndpointTimeout: 10 * time.Second,
			MaxRetries:      1,
			CacheSize:       256,
			HedgeMinDelay:   25 * time.Millisecond,
		}),
	}
	resultCache := -1
	if spec.resultCache {
		resultCache = 512
	}
	mopts = append(mopts,
		mediate.WithServing(serve.Options{CacheSize: resultCache, CacheTTL: 5 * time.Minute}),
		mediate.WithPlanner(plan.Options{ValuesBatch: 50}),
		mediate.WithDecomposer(decompose.Options{BindBatch: 30, MaxBindRows: 1024}),
	)
	if spec.views {
		mopts = append(mopts, mediate.WithViews(view.Options{MaxTriples: 50000}))
	}
	m := mediate.New(dsKB, alignKB, coref.NewClient(corefURL), mopts...)
	m.Client.MaxResponseBody = endpoint.DefaultMaxResponseBody

	mediatorURL, err := listen(mediate.Handler(m))
	if err != nil {
		return err
	}
	control := &controlState{wrappers: wrappers}
	controlURL, err := listen(control.handler())
	if err != nil {
		return err
	}
	line, _ := json.Marshal(deployInfo{Mediator: mediatorURL, Control: controlURL})
	fmt.Println(string(line))

	// Serve until the load generator closes our stdin (or dies).
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// datasetKB registers the three data sets with the voiD statistics the
// decomposer's estimator reads, exactly as cmd/mediator does.
func datasetKB(u *workload.Universe, metricsStore interface {
	PredicateCount(rdf.Term) int
	Size() int
}, sotonURL, kistiURL, metricsURL string) (*voidkb.KB, error) {
	partition := func(st interface{ PredicateCount(rdf.Term) int }, preds ...string) map[string]int64 {
		out := make(map[string]int64, len(preds))
		for _, p := range preds {
			out[p] = int64(st.PredicateCount(rdf.NewIRI(p)))
		}
		return out
	}
	kb := voidkb.NewKB()
	for _, ds := range []*voidkb.Dataset{{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: sotonURL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{rdf.AKTNS},
		Triples:        int64(u.Southampton.Size()),
		PropertyPartitions: partition(u.Southampton,
			rdf.AKTHasAuthor, rdf.AKTHasTitle, rdf.AKTHasDate, rdf.AKTFullName),
	}, {
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kistiURL,
		URISpace:       workload.KistiURIPattern,
		Vocabularies:   []string{rdf.KISTINS},
		Triples:        int64(u.KISTI.Size()),
		PropertyPartitions: partition(u.KISTI,
			rdf.KISTIHasCreator, rdf.KISTIHasCreatorInfo, rdf.KISTITitle),
	}, {
		URI: workload.MetricsVoidURI, Title: "Citation metrics",
		SPARQLEndpoint: metricsURL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{workload.MetricsNS},
		Triples:        int64(metricsStore.Size()),
		PropertyPartitions: partition(metricsStore,
			workload.MetricsCitationCount, workload.MetricsVenue),
	}} {
		if err := kb.Add(ds); err != nil {
			return nil, err
		}
	}
	return kb, nil
}

// handlerStats is the benchmark's wrapper around one backend handler:
// request count, handler busy time, response bytes and failed responses,
// plus (for SPARQL endpoints) a bounded sample of sub-query texts and
// their response bodies for the per-layer replays. Counting is gated by
// on, so a traced run can also measure an unwrapped phase.
type handlerStats struct {
	name   string
	next   http.Handler
	record bool

	on       atomic.Bool
	requests atomic.Int64
	busyNS   atomic.Int64
	bytes    atomic.Int64
	failed   atomic.Int64

	mu      sync.Mutex
	samples []exchange
}

// exchange is one recorded endpoint request/response pair.
type exchange struct {
	Endpoint string `json:"endpoint"`
	Query    string `json:"query"`
	Body     []byte `json:"body"`
}

const (
	maxSamplesPerHandler = 300
	maxSampleBody        = 1 << 20
)

func (h *handlerStats) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	var query string
	var capture *bytes.Buffer
	if h.record && r.Method == http.MethodPost {
		h.mu.Lock()
		want := len(h.samples) < maxSamplesPerHandler
		h.mu.Unlock()
		if want {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if form, err := url.ParseQuery(string(body)); err == nil {
				query = form.Get("query")
			}
			capture = &bytes.Buffer{}
		}
	}
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK, capture: capture}
	h.next.ServeHTTP(cw, r)
	h.busyNS.Add(int64(time.Since(start)))
	h.requests.Add(1)
	h.bytes.Add(cw.n)
	if cw.status >= 400 {
		h.failed.Add(1)
	}
	if capture != nil && query != "" && cw.status == http.StatusOK && capture.Len() < maxSampleBody {
		h.mu.Lock()
		if len(h.samples) < maxSamplesPerHandler {
			h.samples = append(h.samples, exchange{Endpoint: h.name, Query: query, Body: capture.Bytes()})
		}
		h.mu.Unlock()
	}
}

// countingWriter counts response bytes and keeps streaming intact: the
// endpoints flush the first row early, so Flush must pass through.
type countingWriter struct {
	http.ResponseWriter
	status  int
	n       int64
	capture *bytes.Buffer
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	if c.capture != nil && c.capture.Len() < maxSampleBody {
		c.capture.Write(p[:n])
	}
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlerSnapshot is one wrapper's counters as served by /layers.
type handlerSnapshot struct {
	Requests int64 `json:"requests"`
	BusyNS   int64 `json:"busyNs"`
	Bytes    int64 `json:"bytes"`
	Failed   int64 `json:"failed"`
}

// runtimeSnapshot is the deployment's process-level counters.
type runtimeSnapshot struct {
	CPUNS      int64   `json:"cpuNs"` // user+sys
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"allocBytes"`
	GCCPU      float64 `json:"gcCpuSeconds"`
	BusyCPU    float64 `json:"busyCpuSeconds"` // Go runtime's non-idle CPU estimate
	MaxRSSKB   int64   `json:"maxRssKb"`
}

type controlState struct {
	wrappers []*handlerStats
}

func (c *controlState) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/runtime", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, readRuntime())
	})
	// /goroutines counts the goroutines that are not parked HTTP
	// connection plumbing (keep-alive pools differ from phase to phase
	// without anything having leaked).
	mux.HandleFunc("/goroutines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, workGoroutines())
	})
	mux.HandleFunc("/layers", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]handlerSnapshot{}
		for _, h := range c.wrappers {
			out[h.name] = handlerSnapshot{
				Requests: h.requests.Load(), BusyNS: h.busyNS.Load(),
				Bytes: h.bytes.Load(), Failed: h.failed.Load(),
			}
		}
		writeJSON(w, out)
	})
	// /wrappers?on=1 switches the per-handler wrappers on (and clears
	// the recorded samples), ?on=0 off.
	mux.HandleFunc("/wrappers", func(w http.ResponseWriter, r *http.Request) {
		on := r.URL.Query().Get("on") == "1"
		for _, h := range c.wrappers {
			if on {
				h.mu.Lock()
				h.samples = nil
				h.mu.Unlock()
			}
			h.on.Store(on)
		}
		writeJSON(w, map[string]bool{"on": on})
	})
	mux.HandleFunc("/samples", func(w http.ResponseWriter, r *http.Request) {
		var out []exchange
		for _, h := range c.wrappers {
			h.mu.Lock()
			out = append(out, h.samples...)
			h.mu.Unlock()
		}
		writeJSON(w, out)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

func readRuntime() runtimeSnapshot {
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := ru.Utime.Nano() + ru.Stime.Nano()
	return runtimeSnapshot{
		CPUNS:      cpu,
		Mallocs:    samples[0].Value.Uint64() + samples[5].Value.Uint64(),
		AllocBytes: samples[1].Value.Uint64(),
		GCCPU:      samples[2].Value.Float64(),
		BusyCPU:    samples[3].Value.Float64() - samples[4].Value.Float64(),
		MaxRSSKB:   ru.Maxrss,
	}
}

// workGoroutines counts live goroutines minus idle HTTP connection
// plumbing (client-side persistConn loops, server-side connections
// waiting for their next request), grouped by the functions on their
// stacks so a leak can be told apart from noise.
func workGoroutines() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		idle := strings.Contains(g, "net/http.(*persistConn)") ||
			strings.Contains(g, "net/http.(*connReader).backgroundRead") ||
			(strings.Contains(g, "net/http.(*conn).serve") && !strings.Contains(g, "ServeHTTP"))
		if idle || strings.TrimSpace(g) == "" {
			continue
		}
		var frames []string
		for _, line := range strings.Split(g, "\n")[1:] {
			if line != "" && !strings.HasPrefix(line, "\t") {
				if i := strings.LastIndex(line, "("); i > 0 {
					line = line[:i]
				}
				frames = append(frames, line)
			}
		}
		out[strings.Join(frames, " < ")]++
	}
	return out
}
