package coref

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// equivalentsResponse is the JSON wire format of the REST service,
// mirroring the sameas.org API shape the paper wraps ("returns all the
// URIs that are equivalent to the one given in input"), plus the
// generation of the store the class was read from.
type equivalentsResponse struct {
	URI         string   `json:"uri"`
	Equivalents []string `json:"equivalents"`
	Generation  string   `json:"generation,omitempty"`
}

// statsResponse is the wire format of GET /stats.
type statsResponse struct {
	Members    int    `json:"members"`
	Classes    int    `json:"classes"`
	Pairs      int    `json:"pairs"`
	Generation string `json:"generation,omitempty"`
}

// Handler serves the co-reference REST API over a Store:
//
//	GET /equivalents?uri=<uri>  ->  {"uri": ..., "equivalents": [...], "generation": ...}
//	GET /stats                  ->  {"members": n, "classes": n, "pairs": n, "generation": ...}
//
// The generation changes whenever the store merges two classes (and
// differs between two stores, so a restarted service never repeats
// one); clients drop what they memoised when it changes. The API has no
// write path.
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/equivalents", func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		if uri == "" {
			http.Error(w, "missing uri parameter", http.StatusBadRequest)
			return
		}
		// The class and the generation are read under one lock: a class
		// stamped with a later generation than its own would be memoised
		// by a client as current.
		s.mu.RLock()
		reply := equivalentsResponse{URI: uri, Equivalents: s.equivalentsLocked(uri), Generation: s.generationLocked()}
		s.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reply)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		st := statsResponse{
			Members:    len(s.classOf),
			Classes:    s.classes,
			Pairs:      s.pairs,
			Generation: s.generationLocked(),
		}
		s.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	return mux
}

// maxMemoURIs caps how many URIs a Client memoises. On overflow the memo
// is dropped wholesale and refills from the classes in use.
const maxMemoURIs = 1 << 16

// Client queries a remote co-reference service; it implements the same
// Equivalents/Canonical contract as a local Store so the sameas function
// and the merge can be backed by either.
//
// Every class it fetches is memoised once and shared under each of its
// members, so after the first lookup of any member the class is an
// in-memory read. Freshness: each reply carries the service's
// generation; a reply from a new generation drops the memo and notifies
// subscribers, so a change is seen at the next reply (or the next
// Revalidate). The client never asks the service per query just to
// revalidate. Create one with NewClient.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// ctx is cancelled by Close and bounds every request.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.RWMutex
	memo map[string]*class
	gen  generation
	subs subscribers
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	ctx, cancel := context.WithCancel(context.Background())
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
		ctx:     ctx,
		cancel:  cancel,
	}
}

// Close cancels the client's in-flight and future requests; lookups the
// memo cannot answer then degrade to singleton classes. Safe to call more
// than once.
func (c *Client) Close() error {
	c.cancel()
	return nil
}

// Subscribe registers fn to be called when a reply reveals that the
// service's generation changed (its classes may have moved). The
// returned cancel function removes the subscription.
func (c *Client) Subscribe(fn func()) (cancel func()) {
	return c.subs.add(&c.mu, fn)
}

// Equivalents returns the equivalence class of uri, sorted; the slice is
// shared and must not be modified. On transport errors it degrades to
// the singleton class, matching the paper's default behaviour (an
// unresolvable URI simply stays untranslated); a degraded answer is never
// memoised.
func (c *Client) Equivalents(uri string) []string {
	return c.class(uri).members
}

// Canonical returns the deterministic representative of uri's class (its
// lexicographically smallest member).
func (c *Client) Canonical(uri string) string {
	return c.class(uri).rep()
}

func (c *Client) class(uri string) *class {
	c.mu.RLock()
	cl := c.memo[uri]
	c.mu.RUnlock()
	if cl != nil {
		return cl
	}
	cl, gen, err := c.fetch(uri)
	if err != nil {
		return &class{members: []string{uri}}
	}
	c.adopt(gen, cl)
	return cl
}

func (c *Client) fetch(uri string) (*class, generation, error) {
	var parsed equivalentsResponse
	if err := c.getJSON(c.ctx, "/equivalents?uri="+url.QueryEscape(uri), &parsed); err != nil {
		return nil, generation{}, err
	}
	if len(parsed.Equivalents) == 0 {
		return nil, generation{}, errors.New("coref: empty equivalence class")
	}
	return newClass(uri, parsed.Equivalents), parseGeneration(parsed.Generation), nil
}

// adopt moves the client to the service generation gen, unless a reply
// from a newer one overtook it, and memoises cl (when non-nil) under
// every member; a class larger than the whole memo is not kept. Moving
// off a known generation drops the memo and notifies subscribers once
// the lock is released.
func (c *Client) adopt(gen generation, cl *class) {
	c.mu.Lock()
	if gen.before(c.gen) {
		c.mu.Unlock()
		return
	}
	var notify []func()
	if gen != c.gen {
		if c.gen != (generation{}) {
			notify = c.subs.snapshot()
		}
		c.gen = gen
		c.memo = nil
	}
	if cl != nil && len(cl.members) <= maxMemoURIs {
		if c.memo == nil || len(c.memo)+len(cl.members) > maxMemoURIs {
			c.memo = make(map[string]*class)
		}
		for _, m := range cl.members {
			c.memo[m] = cl
		}
	}
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
}

// Revalidate reads the service's generation from /stats and, when it
// changed, drops the memo and notifies subscribers. The mediator's health
// prober calls it, so an idle mediator also notices a changed service.
func (c *Client) Revalidate(ctx context.Context) error {
	_, err := c.stats(ctx)
	return err
}

// Stats fetches service statistics (and, like Revalidate, adopts the
// service's generation).
func (c *Client) Stats() (members, classes, pairs int, err error) {
	st, err := c.stats(c.ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	return st.Members, st.Classes, st.Pairs, nil
}

func (c *Client) stats(ctx context.Context) (*statsResponse, error) {
	var st statsResponse
	if err := c.getJSON(ctx, "/stats", &st); err != nil {
		return nil, err
	}
	c.adopt(parseGeneration(st.Generation), nil)
	return &st, nil
}

// getJSON GETs path from the service and decodes the JSON reply into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("coref: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("coref: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coref: GET %s: status %d", path, resp.StatusCode)
	}
	// Read the body to EOF, so the connection is reused.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("coref: reading %s: %w", path, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("coref: decoding %s: %w", path, err)
	}
	return nil
}

// generation identifies a store state on the service: nonce names the
// store (it changes when the service restarts), n counts its merges.
type generation struct {
	nonce string
	n     uint64
}

// parseGeneration reads the wire form "<nonce>.<n>"; any other string is
// taken whole as the nonce, so it still compares by equality.
func parseGeneration(s string) generation {
	nonce, count, ok := strings.Cut(s, ".")
	n, err := strconv.ParseUint(count, 10, 64)
	if !ok || err != nil {
		return generation{nonce: s}
	}
	return generation{nonce: nonce, n: n}
}

// before reports whether g is an older state of the same store than cur.
func (g generation) before(cur generation) bool {
	return g.nonce == cur.nonce && g.n < cur.n
}
