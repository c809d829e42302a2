package mediate

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// corefJoinQuery is a cross-vocabulary join the decomposer splits over
// the Southampton and metrics endpoints, so the view tier can
// materialize it; every ?a comes back in its canonical sameAs spelling.
const corefJoinQuery = `PREFIX akt:<` + rdf.AKTNS + `>
PREFIX m:<` + workload.MetricsNS + `>
SELECT ?paper ?a ?c WHERE { ?paper akt:has-author ?a . ?paper m:citationCount ?c }`

// newCorefStack serves a small universe's Southampton and metrics stores
// and builds a mediator over them with the sameAs source corefSrc builds.
func newCorefStack(t *testing.T, corefSrc func(u *workload.Universe) funcs.CorefSource, opts ...Option) (*Mediator, *workload.Universe) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 30, 90
	u := workload.Generate(cfg)
	serveStore := func(name string, st *store.Store) string {
		srv := httptest.NewServer(endpoint.NewServer(name, st))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	metrics := workload.MetricsStore(u)
	count := func(st *store.Store, p string) map[string]int64 {
		return map[string]int64{p: int64(st.PredicateCount(rdf.NewIRI(p)))}
	}
	dsKB := voidkb.NewKB()
	for _, ds := range []*voidkb.Dataset{{
		URI: workload.SotonVoidURI, SPARQLEndpoint: serveStore("southampton", u.Southampton),
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples:            int64(u.Southampton.Size()),
		PropertyPartitions: count(u.Southampton, rdf.AKTHasAuthor),
	}, {
		URI: workload.MetricsVoidURI, SPARQLEndpoint: serveStore("metrics", metrics),
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples:            int64(metrics.Size()),
		PropertyPartitions: count(metrics, workload.MetricsCitationCount),
	}} {
		if err := dsKB.Add(ds); err != nil {
			t.Fatal(err)
		}
	}
	m := New(dsKB, align.NewKB(), corefSrc(u), opts...)
	t.Cleanup(m.Close)
	return m, u
}

// authors runs the join and returns how often each ?a value occurs.
func authors(t *testing.T, m *Mediator) map[string]int {
	t.Helper()
	fr, err := federatedSelect(m, corefJoinQuery, rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Solutions) == 0 {
		t.Fatal("join answered no rows")
	}
	out := map[string]int{}
	for _, sol := range fr.Solutions {
		out[sol["a"].Value]++
	}
	return out
}

func waitViewReady(t *testing.T, m *Mediator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if vs := m.Stats().Views; vs != nil && len(vs.Views) == 1 && vs.Views[0].State == "ready" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("view never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warm answers the join twice and checks that the second answer came
// from the tier under test; it returns one canonical author IRI.
func warm(t *testing.T, m *Mediator) string {
	t.Helper()
	first := authors(t, m)
	if m.Views != nil {
		waitViewReady(t, m)
	}
	authors(t, m)
	st := m.Stats()
	cacheHits, viewHits := uint64(0), uint64(0)
	if st.Serving != nil && st.Serving.Cache != nil {
		cacheHits = st.Serving.Cache.Hits
	}
	if st.Views != nil {
		viewHits = st.Views.Hits
	}
	if cacheHits+viewHits == 0 {
		t.Fatal("the repeated join was answered by neither the result cache nor a view")
	}
	for a := range first {
		return a
	}
	return ""
}

// TestSameAsChangeInvalidatesCaches: an owl:sameAs link that gives an
// entity a new smallest alias must show up in the very next answer,
// whichever tier (result cache, view) held the old one.
func TestSameAsChangeInvalidatesCaches(t *testing.T) {
	const alias = "http://0.example/id/alias"
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"result-cache", []Option{WithServing(serve.Options{})}},
		{"view", []Option{WithViews(view.Options{MinFrequency: 1})}},
		{"both", []Option{WithServing(serve.Options{}), WithViews(view.Options{MinFrequency: 1})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cs *coref.Store
			m, _ := newCorefStack(t, func(u *workload.Universe) funcs.CorefSource {
				cs = u.Coref
				return cs
			}, tc.opts...)
			target := warm(t, m)
			cs.Add(target, alias)
			got := authors(t, m)
			if got[target] != 0 || got[alias] == 0 {
				t.Fatalf("answer after the sameAs change: %d rows under the old representative, %d under the new", got[target], got[alias])
			}
			if m.Views != nil {
				waitViewReady(t, m)
				hits := m.Stats().Views.Hits
				got = authors(t, m)
				if m.Serve == nil && m.Stats().Views.Hits != hits+1 {
					t.Fatal("the refreshed view did not answer")
				}
				if got[target] != 0 || got[alias] == 0 {
					t.Fatalf("refreshed view: %d rows under the old representative, %d under the new", got[target], got[alias])
				}
			}
		})
	}
}

// TestSameAsChangeSeenThroughClient: behind a remote co-reference
// service the change is seen at the client's next reply (or health
// probe), after which no cache serves the old representative.
func TestSameAsChangeSeenThroughClient(t *testing.T) {
	var (
		cs     *coref.Store
		client *coref.Client
	)
	m, _ := newCorefStack(t, func(u *workload.Universe) funcs.CorefSource {
		cs = u.Coref
		srv := httptest.NewServer(coref.Handler(cs))
		t.Cleanup(srv.Close)
		client = coref.NewClient(srv.URL)
		return client
	}, WithServing(serve.Options{}), WithViews(view.Options{MinFrequency: 1}))
	target := warm(t, m)

	const alias = "http://1.example/id/alias"
	cs.Add(target, alias)
	client.Equivalents("http://unseen.example/x") // the next reply
	if got := authors(t, m); got[target] != 0 || got[alias] == 0 {
		t.Fatalf("after the next reply: %d rows under the old representative, %d under the new", got[target], got[alias])
	}

	const alias2 = "http://0.example/id/alias"
	m.StartHealthProbes(10 * time.Millisecond)
	cs.Add(alias, alias2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := authors(t, m)
		if got[alias2] > 0 && got[alias] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health probes never revealed the change: %d rows under %s", got[alias], alias)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseCancelsStalledSameAsLookup: a query stalled on an
// unresponsive sameAs service ends as soon as the mediator is closed,
// not after the client's 10 s timeout, and leaves no goroutine behind.
func TestCloseCancelsStalledSameAsLookup(t *testing.T) {
	arrived := make(chan struct{}, 1)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	defer stall.Close()
	var client *coref.Client
	m, _ := newCorefStack(t, func(*workload.Universe) funcs.CorefSource {
		client = coref.NewClient(stall.URL)
		return client
	})
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := federatedSelect(m, corefJoinQuery, rdf.AKTNS, nil)
		done <- err
	}()
	<-arrived
	start := time.Now()
	m.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the query stayed stalled after Close")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("query ended %s after Close", d)
	}
	client.HTTP.CloseIdleConnections()
	m.Client.HTTP.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, %d before the query", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
