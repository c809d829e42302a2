// Package coref implements the co-reference (owl:sameAs) service the
// paper's sameas function depends on (§3.3): an equivalence store over
// URIs with regex-filtered selection, plus an HTTP REST service and client
// that stand in for the sameas.org API the paper wraps.
package coref

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/rdf"
)

// class is one owl:sameAs equivalence class. Its members are kept
// sorted, so the class representative — the lexicographically smallest
// member, the one deterministic rule every merge, cache key, graph
// stream and view canonicalises by — is members[0]. A members slice is
// never mutated once published: a merge builds a new one, so readers may
// hand the slice out without copying.
type class struct {
	members []string
}

func (c *class) rep() string { return c.members[0] }

// newClass builds the class of uri from an unordered member list (a
// remote service's reply), adding uri itself when the list omits it.
func newClass(uri string, members []string) *class {
	out := make([]string, 0, len(members)+1)
	out = append(out, members...)
	if !slices.Contains(out, uri) {
		out = append(out, strings.Clone(uri))
	}
	slices.Sort(out)
	return &class{members: slices.Compact(out)}
}

// mergeSorted returns the sorted union of two disjoint sorted slices in
// a new slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// subscribers is a set of change callbacks, guarded by its owner's lock.
type subscribers struct {
	fns  map[int]func()
	next int
}

// add registers fn under mu and returns the function removing it.
func (l *subscribers) add(mu sync.Locker, fn func()) (cancel func()) {
	mu.Lock()
	defer mu.Unlock()
	if l.fns == nil {
		l.fns = map[int]func(){}
	}
	id := l.next
	l.next++
	l.fns[id] = fn
	return func() {
		mu.Lock()
		defer mu.Unlock()
		delete(l.fns, id)
	}
}

// snapshot returns the callbacks to run once the owner's lock is
// released; the owner's lock must be held.
func (l *subscribers) snapshot() []func() {
	return slices.Collect(maps.Values(l.fns))
}

// Store maintains owl:sameAs equivalence classes over URIs. Every known
// URI maps straight to its class, and a merge relabels the smaller class
// into the larger, so Equivalents and Canonical are map reads under a
// read lock. All methods are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	classOf map[string]*class
	classes int
	pairs   int
	// merges counts the Adds that joined two classes. With nonce, drawn
	// when the store is created, it forms the generation the HTTP
	// service stamps on its replies, so a client's memo can tell a
	// changed (or restarted) store from the one it was filled from.
	merges uint64
	nonce  uint64
	subs   subscribers
}

// NewStore returns an empty equivalence store.
func NewStore() *Store {
	return &Store{classOf: map[string]*class{}, nonce: rand.Uint64()}
}

func (s *Store) ensure(x string) *class {
	c := s.classOf[x]
	if c == nil {
		c = &class{members: []string{x}}
		s.classOf[x] = c
		s.classes++
	}
	return c
}

// Subscribe registers fn to be called after every Add that merges two
// classes, once the store lock is released. The mediator uses it to drop
// caches holding answers canonicalised under the old classes. The
// returned cancel function removes the subscription.
func (s *Store) Subscribe(fn func()) (cancel func()) {
	return s.subs.add(&s.mu, fn)
}

// Add records that a and b identify the same resource (owl:sameAs).
func (s *Store) Add(a, b string) {
	s.mu.Lock()
	s.pairs++
	ca, cb := s.ensure(a), s.ensure(b)
	if ca == cb {
		s.mu.Unlock()
		return
	}
	// Relabel the smaller class into the larger: each URI moves
	// O(log n) times over any sequence of merges.
	if len(ca.members) < len(cb.members) {
		ca, cb = cb, ca
	}
	ca.members = mergeSorted(ca.members, cb.members)
	for _, x := range cb.members {
		s.classOf[x] = ca
	}
	s.classes--
	s.merges++
	notify := s.subs.snapshot()
	s.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
}

// Same reports whether a and b are in the same equivalence class. Every
// URI is trivially the same as itself.
func (s *Store) Same(a, b string) bool {
	if a == b {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ca := s.classOf[a]
	return ca != nil && ca == s.classOf[b]
}

// Equivalents returns the full equivalence class of uri (including uri
// itself), sorted. The slice is shared and must not be modified. Unknown
// URIs yield a singleton class.
func (s *Store) Equivalents(uri string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.equivalentsLocked(uri)
}

// equivalentsLocked is Equivalents; s.mu must be held.
func (s *Store) equivalentsLocked(uri string) []string {
	if c := s.classOf[uri]; c != nil {
		return c.members
	}
	return []string{uri}
}

// Canonical returns the deterministic representative of uri's class (its
// lexicographically smallest member). Used to smush URIs when merging
// federated results.
func (s *Store) Canonical(uri string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.classOf[uri]; c != nil {
		return c.rep()
	}
	return uri
}

// FirstMatching returns the first member of uri's equivalence class that
// matches the compiled pattern, in sorted order, and whether one exists.
// This is the lookup behind the paper's sameas(x, regex) function.
func (s *Store) FirstMatching(uri string, re *regexp.Regexp) (string, bool) {
	for _, cand := range s.Equivalents(uri) {
		if re.MatchString(cand) {
			return cand, true
		}
	}
	return "", false
}

// Classes returns the number of equivalence classes (including
// singletons created by Add).
func (s *Store) Classes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.classes
}

// Members returns the number of URIs known to the store.
func (s *Store) Members() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.classOf)
}

// Pairs returns the number of Add calls (sameAs assertions ingested).
func (s *Store) Pairs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pairs
}

// LoadGraph ingests every owl:sameAs triple of g, returning the number of
// assertions added.
func (s *Store) LoadGraph(g rdf.Graph) int {
	n := 0
	for _, t := range g {
		if t.P.Value == rdf.OWLSameAs && t.S.IsIRI() && t.O.IsIRI() {
			s.Add(t.S.Value, t.O.Value)
			n++
		}
	}
	return n
}

// LoadNTriples ingests owl:sameAs triples from N-Triples text.
func (s *Store) LoadNTriples(src string) (int, error) {
	g, err := ntriples.ParseString(src)
	if err != nil {
		return 0, fmt.Errorf("coref: %w", err)
	}
	return s.LoadGraph(g), nil
}

// generationLocked formats the store generation; s.mu must be held.
func (s *Store) generationLocked() string {
	return strconv.FormatUint(s.nonce, 16) + "." + strconv.FormatUint(s.merges, 10)
}

// Dump exports the store as owl:sameAs triples linking every member to its
// canonical representative (a minimal spanning representation).
func (s *Store) Dump() rdf.Graph {
	s.mu.RLock()
	links := make(map[string]string, len(s.classOf))
	for x, c := range s.classOf {
		if rep := c.rep(); rep != x {
			links[x] = rep
		}
	}
	s.mu.RUnlock()
	var g rdf.Graph
	for _, x := range slices.Sorted(maps.Keys(links)) {
		g.AddTriple(rdf.NewIRI(x), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI(links[x]))
	}
	return g
}
