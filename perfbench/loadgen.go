package main

// The load generator: closed- and open-loop load over POST /sparql
// with at most two connections, checking every answer against the
// oracle.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/workload"
)

// maxConns bounds the generator's connections to the mediator.
const maxConns = 2

// outcome is one timed request.
type outcome struct {
	q        query
	sched    time.Time
	ok       bool
	err      error
	write    bool          // an alignment re-post, not a query
	latency  time.Duration // scheduled send (open loop) or send (closed loop) to last byte
	firstRow time.Duration // scheduled send to the first binding's bytes (0 = no rows)
	lag      time.Duration // actual send minus scheduled send (open loop)
	body     []byte
}

// loadgen drives one deployment.
type loadgen struct {
	spec      *workloadSpec
	seed      int64
	warmSeed  int64
	hot       []int
	oracle    *oracle
	mediator  string
	client    *http.Client
	alignDoc  string
	keepBody  atomic.Int64  // bodies still to keep for replays
	seq       atomic.Uint64 // timed requests drawn
	warmSeq   atomic.Uint64 // warm-up requests drawn
	queries   atomic.Int64  // timed queries sent (paces the write stream)
	writes    atomic.Int64  // alignment re-posts sent
	answered  atomic.Int64  // queries answered (any outcome)
	correct   atomic.Int64  // queries answered correctly
	checkFail atomic.Value  // first check failure, for diagnostics
}

func newLoadgen(spec *workloadSpec, seed, warmSeed int64, hot []int, o *oracle, mediator string) *loadgen {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &loadgen{
		spec: spec, seed: seed, warmSeed: warmSeed, hot: hot, oracle: o, mediator: mediator,
		client:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		alignDoc: align.FormatTurtle([]*align.OntologyAlignment{workload.AKT2KISTI()}),
	}
}

// warmBase numbers warm-up requests apart from timed ones (hot's
// filtered queries embed the number, so the two never share a text).
const warmBase = 500_000_000

// nextQuery draws the next timed request of the --seed stream, or the
// next warm-up request. Warm-up draws from the universe seed, so every
// stream seed starts from the same warmed state (for hot, the same
// materialized views).
func (g *loadgen) nextQuery(timed bool) query {
	if timed {
		return g.spec.next(g.seed, g.seq.Add(1)-1, g.hot)
	}
	return g.spec.next(g.warmSeed, warmBase+g.warmSeq.Add(1)-1, g.hot)
}

// firstRowMarker opens the bindings array; the first binding follows.
var firstRowMarker = []byte(`"bindings":[`)

// do sends one query, scheduled at sched, and checks its answer.
func (g *loadgen) do(ctx context.Context, q query, sched time.Time) outcome {
	out := outcome{q: q, sched: sched}
	start := time.Now()
	out.lag = start.Sub(sched)
	form := url.Values{"query": {q.text}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.mediator+"/sparql",
		strings.NewReader(form.Encode()))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := g.client.Do(req)
	if err != nil {
		out.err = err
		out.latency = time.Since(sched)
		return out
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	chunk := make([]byte, 32<<10)
	markerAt := -1
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			body.Write(chunk[:n])
			if out.firstRow == 0 {
				b := body.Bytes()
				if markerAt < 0 {
					markerAt = bytes.Index(b, firstRowMarker)
				}
				if markerAt >= 0 {
					rest := bytes.TrimLeft(b[markerAt+len(firstRowMarker):], " \n\r\t")
					if len(rest) > 0 && rest[0] == '{' {
						out.firstRow = time.Since(sched)
					}
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			out.err = rerr
			out.latency = time.Since(sched)
			return out
		}
	}
	out.latency = time.Since(sched)
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, truncate(body.String(), 200))
		return out
	}
	var doc selectDoc
	if err := json.Unmarshal(body.Bytes(), &doc); err != nil {
		out.err = fmt.Errorf("decoding answer: %w", err)
		return out
	}
	if err := g.oracle.check(q, &doc); err != nil {
		out.err = fmt.Errorf("wrong answer for person %d (shape %d): %w", q.person, q.shape, err)
		return out
	}
	if g.keepBody.Load() > 0 && g.keepBody.Add(-1) >= 0 {
		out.body = body.Bytes()
	}
	out.ok = true
	return out
}

// postAlignments re-posts the AKT-KISTI alignment document, as an
// operator reloading the alignment file would.
func (g *loadgen) postAlignments(ctx context.Context) outcome {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.mediator+"/api/alignments",
		strings.NewReader(g.alignDoc))
	if err != nil {
		return outcome{write: true, err: err}
	}
	req.Header.Set("Content-Type", "text/turtle")
	resp, err := g.client.Do(req)
	out := outcome{write: true}
	if err != nil {
		out.err = err
		return out
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("alignment post: status %d: %s", resp.StatusCode, truncate(string(body), 200))
		return out
	}
	g.writes.Add(1)
	out.ok = true
	return out
}

// send sends the stream's next query and, when the write stream is due,
// an alignment re-post before it. Warm-up requests never write.
func (g *loadgen) send(ctx context.Context, sched time.Time, timed bool, record func(outcome)) {
	if timed && g.spec.writeEvery > 0 {
		if n := g.queries.Add(1); n%int64(g.spec.writeEvery) == 0 {
			record(g.postAlignments(ctx))
		}
	}
	out := g.do(ctx, g.nextQuery(timed), sched)
	if out.err != nil {
		g.checkFail.CompareAndSwap(nil, out.err.Error())
	} else {
		g.correct.Add(1)
	}
	g.answered.Add(1)
	record(out)
}

// phaseResult aggregates one phase's outcomes.
type phaseResult struct {
	outcomes  []outcome
	attempted int
	failed    int
}

func (p *phaseResult) add(o outcome) {
	p.outcomes = append(p.outcomes, o)
	p.attempted++
	if !o.ok {
		p.failed++
	}
}

func (p *phaseResult) queries() int {
	n := 0
	for _, o := range p.outcomes {
		if !o.write {
			n++
		}
	}
	return n
}

// closedLoop runs maxConns clients back to back for d (or, when n > 0,
// until n queries have been sent).
func (g *loadgen) closedLoop(d time.Duration, n int, timed bool) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	record := func(o outcome) {
		mu.Lock()
		res.add(o)
		mu.Unlock()
	}
	var sent atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n > 0 {
					if sent.Add(1) > int64(n) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				g.send(context.Background(), time.Now(), timed, record)
			}
		}()
	}
	wg.Wait()
	return res
}

// openLoop sends at a fixed rate for d: request i is scheduled at
// start + i/rate and timed from that instant, so a queue building behind
// the two connections shows up as latency instead of hiding
// (coordinated omission).
func (g *loadgen) openLoop(rate float64, d time.Duration) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	record := func(o outcome) {
		mu.Lock()
		res.add(o)
		mu.Unlock()
	}
	total := int64(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				sched := start.Add(time.Duration(i) * interval)
				if wait := time.Until(sched); wait > 0 {
					time.Sleep(wait)
				}
				g.send(context.Background(), sched, true, record)
			}
		}()
	}
	wg.Wait()
	return res
}

// getJSON fetches a JSON document from the deployment.
func (g *loadgen) getJSON(u string, v any) error {
	resp, err := g.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, truncate(string(body), 200))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
