package coref

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sparqlrw/internal/rdf"
)

func TestAddSameEquivalents(t *testing.T) {
	s := NewStore()
	s.Add("http://a/1", "http://b/1")
	s.Add("http://b/1", "http://c/1")
	if !s.Same("http://a/1", "http://c/1") {
		t.Fatal("transitivity broken")
	}
	if !s.Same("http://c/1", "http://a/1") {
		t.Fatal("symmetry broken")
	}
	if s.Same("http://a/1", "http://d/1") {
		t.Fatal("unrelated URIs reported same")
	}
	if !s.Same("http://x/self", "http://x/self") {
		t.Fatal("reflexivity broken")
	}
	eq := s.Equivalents("http://a/1")
	if len(eq) != 3 {
		t.Fatalf("class = %v", eq)
	}
}

func TestUnknownURISingleton(t *testing.T) {
	s := NewStore()
	eq := s.Equivalents("http://unknown/x")
	if len(eq) != 1 || eq[0] != "http://unknown/x" {
		t.Fatalf("singleton = %v", eq)
	}
	if s.Canonical("http://unknown/x") != "http://unknown/x" {
		t.Fatal("canonical of unknown must be itself")
	}
}

func TestFirstMatching(t *testing.T) {
	s := NewStore()
	s.Add("http://southampton.rkbexplorer.com/id/person-02686", "http://kisti.rkbexplorer.com/id/PER_00000000105047")
	s.Add("http://southampton.rkbexplorer.com/id/person-02686", "http://dbpedia.org/resource/Nigel_Shadbolt")
	re := regexp.MustCompile(`http://kisti\.rkbexplorer\.com/id/\S*`)
	got, ok := s.FirstMatching("http://southampton.rkbexplorer.com/id/person-02686", re)
	if !ok || got != "http://kisti.rkbexplorer.com/id/PER_00000000105047" {
		t.Fatalf("FirstMatching = %q %v", got, ok)
	}
	re2 := regexp.MustCompile(`http://nowhere\.example/\S*`)
	if _, ok := s.FirstMatching("http://southampton.rkbexplorer.com/id/person-02686", re2); ok {
		t.Fatal("unexpected match")
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	s := NewStore()
	s.Add("http://b/x", "http://a/x")
	s.Add("http://c/x", "http://b/x")
	for i := 0; i < 5; i++ {
		if got := s.Canonical("http://c/x"); got != "http://a/x" {
			t.Fatalf("canonical = %q", got)
		}
	}
}

func TestLoadGraphAndDump(t *testing.T) {
	s := NewStore()
	g := rdf.Graph{
		rdf.NewTriple(rdf.NewIRI("http://a/1"), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI("http://b/1")),
		rdf.NewTriple(rdf.NewIRI("http://a/2"), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI("http://b/2")),
		rdf.NewTriple(rdf.NewIRI("http://a/1"), rdf.NewIRI("http://other/prop"), rdf.NewIRI("http://b/9")),
	}
	if n := s.LoadGraph(g); n != 2 {
		t.Fatalf("loaded %d", n)
	}
	dump := s.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump = %v", dump)
	}
	s2 := NewStore()
	s2.LoadGraph(dump)
	if !s2.Same("http://a/1", "http://b/1") || !s2.Same("http://a/2", "http://b/2") {
		t.Fatal("dump/reload lost classes")
	}
}

func TestLoadNTriples(t *testing.T) {
	s := NewStore()
	n, err := s.LoadNTriples(`<http://a/1> <` + rdf.OWLSameAs + `> <http://b/1> .`)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := s.LoadNTriples("garbage"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestClassesAndMembers(t *testing.T) {
	s := NewStore()
	s.Add("a", "b")
	s.Add("c", "d")
	s.Add("b", "a") // duplicate union
	if s.Classes() != 2 || s.Members() != 4 || s.Pairs() != 3 {
		t.Fatalf("classes=%d members=%d pairs=%d", s.Classes(), s.Members(), s.Pairs())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(fmt.Sprintf("http://w%d/u%d", w, i), fmt.Sprintf("http://hub/u%d", i))
				s.Equivalents(fmt.Sprintf("http://hub/u%d", i))
			}
		}(w)
	}
	wg.Wait()
	// every class has 8 spokes + hub
	if got := len(s.Equivalents("http://hub/u5")); got != 9 {
		t.Fatalf("class size = %d, want 9", got)
	}
}

// Property: union-find maintains an equivalence relation (reflexive,
// symmetric, transitive) over arbitrary pair sequences.
func TestEquivalenceRelationProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		s := NewStore()
		names := func(n uint8) string { return fmt.Sprintf("http://u/%d", n%16) }
		for i := 0; i+1 < len(pairs); i += 2 {
			s.Add(names(pairs[i]), names(pairs[i+1]))
		}
		// For every pair of members, Same must agree with class membership.
		for n := 0; n < 16; n++ {
			cls := s.Equivalents(names(uint8(n)))
			inClass := map[string]bool{}
			for _, x := range cls {
				inClass[x] = true
			}
			for m := 0; m < 16; m++ {
				if s.Same(names(uint8(n)), names(uint8(m))) != inClass[names(uint8(m))] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPServiceAndClient(t *testing.T) {
	s := NewStore()
	s.Add("http://a/1", "http://b/1")
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	c := NewClient(srv.URL)
	eq := c.Equivalents("http://a/1")
	if len(eq) != 2 {
		t.Fatalf("client equivalents = %v", eq)
	}
	members, classes, pairs, err := c.Stats()
	if err != nil || members != 2 || classes != 1 || pairs != 1 {
		t.Fatalf("stats = %d %d %d %v", members, classes, pairs, err)
	}
	// unknown URI -> singleton
	if eq := c.Equivalents("http://nope/x"); len(eq) != 1 {
		t.Fatalf("unknown = %v", eq)
	}
}

func TestClientDegradesGracefully(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listening
	eq := c.Equivalents("http://a/1")
	if len(eq) != 1 || eq[0] != "http://a/1" {
		t.Fatalf("degraded = %v", eq)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	srv := httptest.NewServer(Handler(NewStore()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/equivalents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func BenchmarkEquivalentsLargeClass(b *testing.B) {
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Add("http://hub/x", fmt.Sprintf("http://m%d/x", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Equivalents("http://hub/x")
	}
}

// countingService serves the co-reference API over s and counts every
// request it receives.
func countingService(t *testing.T, s *Store) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	h := Handler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

func newTestClient(t *testing.T, url string) *Client {
	t.Helper()
	c := NewClient(url)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestStoreCanonicalFollowsMerges(t *testing.T) {
	s := NewStore()
	var fired atomic.Int64
	cancel := s.Subscribe(func() { fired.Add(1) })
	s.Add("http://m/x", "http://k/x")
	s.Add("http://z/x", "http://y/x")
	s.Add("http://k/x", "http://m/x") // already one class: no merge
	if n := fired.Load(); n != 2 {
		t.Fatalf("subscribers fired %d times, want 2 (one per merge)", n)
	}
	held := s.Equivalents("http://m/x")
	s.Add("http://y/x", "http://m/x")
	if got := s.Canonical("http://z/x"); got != "http://k/x" {
		t.Fatalf("canonical = %s, want http://k/x", got)
	}
	if want := []string{"http://k/x", "http://m/x"}; !slices.Equal(held, want) {
		t.Fatalf("a published class slice changed under a merge: %v, want %v", held, want)
	}
	if got := s.Equivalents("http://y/x"); !slices.IsSorted(got) || len(got) != 4 {
		t.Fatalf("merged class = %v", got)
	}
	cancel()
	s.Add("http://a/x", "http://k/x")
	if n := fired.Load(); n != 3 {
		t.Fatalf("subscribers fired %d times after cancel, want 3", n)
	}
}

func TestClientMemoHitMakesNoRequest(t *testing.T) {
	s := NewStore()
	s.Add("http://b/1", "http://a/1")
	srv, requests := countingService(t, s)
	c := newTestClient(t, srv.URL)
	if got := c.Canonical("http://b/1"); got != "http://a/1" {
		t.Fatalf("canonical = %s", got)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("first lookup made %d requests, want 1", n)
	}
	for i := 0; i < 3; i++ {
		c.Canonical("http://b/1")
		c.Equivalents("http://b/1")
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("memo hits made %d requests, want 0", n-1)
	}
}

func TestClientOneFetchFillsClass(t *testing.T) {
	s := NewStore()
	s.Add("http://c/1", "http://b/1")
	s.Add("http://b/1", "http://a/1")
	srv, requests := countingService(t, s)
	c := newTestClient(t, srv.URL)
	first := c.Equivalents("http://c/1")
	for _, m := range []string{"http://a/1", "http://b/1", "http://c/1"} {
		if got := c.Canonical(m); got != "http://a/1" {
			t.Fatalf("canonical(%s) = %s", m, got)
		}
		if eq := c.Equivalents(m); &eq[0] != &first[0] {
			t.Fatalf("members of one class do not share its memoised slice")
		}
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("class lookups made %d requests, want 1", n)
	}
}

func TestClientNewGenerationDropsMemo(t *testing.T) {
	s := NewStore()
	s.Add("http://k/1", "http://s/1")
	srv, requests := countingService(t, s)
	c := newTestClient(t, srv.URL)
	var fired atomic.Int64
	c.Subscribe(func() { fired.Add(1) })
	if got := c.Canonical("http://s/1"); got != "http://k/1" {
		t.Fatalf("canonical = %s", got)
	}

	s.Add("http://s/1", "http://a/1")
	// The memo still answers until a reply reveals the new generation.
	if got := c.Canonical("http://s/1"); got != "http://k/1" || requests.Load() != 1 {
		t.Fatalf("memo hit = %s after %d requests", got, requests.Load())
	}
	c.Equivalents("http://unrelated/1") // any reply carries the generation
	if n := fired.Load(); n != 1 {
		t.Fatalf("subscribers fired %d times, want 1", n)
	}
	if got := c.Canonical("http://s/1"); got != "http://a/1" {
		t.Fatalf("canonical after generation change = %s, want http://a/1", got)
	}

	// Revalidate (the health prober's call) sees a change with no lookup.
	s.Add("http://a/1", "http://0/1")
	if err := c.Revalidate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != 2 {
		t.Fatalf("subscribers fired %d times after Revalidate, want 2", n)
	}
	if got := c.Canonical("http://k/1"); got != "http://0/1" {
		t.Fatalf("canonical after Revalidate = %s, want http://0/1", got)
	}
	if err := c.Revalidate(context.Background()); err != nil || fired.Load() != 2 {
		t.Fatalf("an unchanged generation fired subscribers (err %v)", err)
	}
}

func TestClientTransportErrorNotMemoised(t *testing.T) {
	s := NewStore()
	s.Add("http://b/1", "http://a/1")
	h := Handler(s)
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL)
	if eq := c.Equivalents("http://b/1"); !slices.Equal(eq, []string{"http://b/1"}) {
		t.Fatalf("degraded class = %v, want the singleton", eq)
	}
	failing.Store(false)
	if got := c.Canonical("http://b/1"); got != "http://a/1" {
		t.Fatalf("canonical after recovery = %s: the degraded answer was memoised", got)
	}
}

// bigClassService answers /equivalents?uri=<base> with a synthetic class
// of n members <base>/0 ... <base>/n-1 plus base itself, n read from the
// base's last path segment.
func bigClassService(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		n, _ := strconv.Atoi(uri[strings.LastIndexByte(uri, '/')+1:])
		members := make([]string, 0, n+1)
		members = append(members, uri)
		for i := 0; i < n; i++ {
			members = append(members, uri+"/"+strconv.Itoa(i))
		}
		_ = json.NewEncoder(w).Encode(equivalentsResponse{URI: uri, Equivalents: members, Generation: "g.1"})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClientMemoCap(t *testing.T) {
	c := newTestClient(t, bigClassService(t).URL)
	half := strconv.Itoa(maxMemoURIs/2 + 1)
	c.Equivalents("http://a/" + half)
	c.Equivalents("http://b/" + half) // would overflow: drops the memo first
	c.mu.RLock()
	n, _, aKept := len(c.memo), c.memo["http://b/"+half], c.memo["http://a/"+half] != nil
	c.mu.RUnlock()
	if n > maxMemoURIs || aKept {
		t.Fatalf("memo holds %d URIs (cap %d), first class kept: %v", n, maxMemoURIs, aKept)
	}
	c.Equivalents("http://c/" + strconv.Itoa(maxMemoURIs)) // larger than the cap on its own
	c.mu.RLock()
	n = len(c.memo)
	c.mu.RUnlock()
	if n > maxMemoURIs {
		t.Fatalf("memo holds %d URIs, cap %d", n, maxMemoURIs)
	}
}

// TestClientConcurrentLookupsAcrossGenerations hammers Equivalents and
// Canonical from several goroutines while the store merges (flipping the
// generation) and new URIs force replies; run with -race.
func TestClientConcurrentLookupsAcrossGenerations(t *testing.T) {
	s := NewStore()
	for i := 0; i < 16; i++ {
		s.Add(fmt.Sprintf("http://s/%d", i), fmt.Sprintf("http://k/%d", i))
	}
	srv, _ := countingService(t, s)
	c := newTestClient(t, srv.URL)
	var fired atomic.Int64
	c.Subscribe(func() { fired.Add(1) })
	c.Equivalents("http://s/0") // learn the first generation
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				uri := fmt.Sprintf("http://s/%d", (i+w)%16)
				eq := c.Equivalents(uri)
				if rep := c.Canonical(uri); !slices.IsSorted(eq) || !slices.Contains(eq, uri) || rep > uri {
					t.Errorf("inconsistent class %v / representative %s for %s", eq, rep, uri)
					return
				}
				if i%20 == 0 {
					c.Equivalents(fmt.Sprintf("http://fresh/%d/%d", w, i))
				}
			}
		}(w)
	}
	for i := 0; i < 16; i++ {
		s.Add(fmt.Sprintf("http://k/%d", i), fmt.Sprintf("http://a/%d", i))
	}
	wg.Wait()
	c.Equivalents("http://fresh/final")
	for i := 0; i < 16; i++ {
		if got, want := c.Canonical(fmt.Sprintf("http://s/%d", i)), fmt.Sprintf("http://a/%d", i); got != want {
			t.Fatalf("canonical after the last generation = %s, want %s", got, want)
		}
	}
	if fired.Load() == 0 {
		t.Fatal("no generation change was noticed")
	}
}

// TestClientCloseCancelsStalledLookup: a lookup stalled on an
// unresponsive service returns (degraded) as soon as the client is
// closed, not after the 10 s client timeout, and leaves no goroutine
// behind.
func TestClientCloseCancelsStalledLookup(t *testing.T) {
	before := runtime.NumGoroutine()
	arrived := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	c := NewClient(srv.URL)
	done := make(chan []string)
	go func() { done <- c.Equivalents("http://a/1") }()
	<-arrived
	start := time.Now()
	_ = c.Close()
	select {
	case eq := <-done:
		if !slices.Equal(eq, []string{"http://a/1"}) {
			t.Fatalf("cancelled lookup = %v, want the singleton", eq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the stalled lookup")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled lookup took %s", d)
	}
	c.HTTP.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
