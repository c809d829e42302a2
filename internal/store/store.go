// Package store implements an indexed, concurrency-safe, in-memory RDF
// triple store. Terms are interned to dense uint32 ids through a Dict and
// three indexes (SPO, POS, OSP) are kept over the packed id triples, so
// any triple pattern with at least one bound position is answered by
// index lookup rather than a scan, and equality during matching is
// integer comparison. It is the one storage substrate behind the SPARQL
// evaluator, the SPARQL protocol endpoints, the materialized views and
// the materialisation baseline.
package store

import (
	"slices"
	"sync"

	"sparqlrw/internal/rdf"
)

// idIndex is a three-level index over dictionary ids; the per-level maps
// are keyed by uint32 instead of full rdf.Term structs, so lookups hash a
// machine word rather than a multi-field string struct.
type idIndex map[uint32]map[uint32]map[uint32]struct{}

func (ix idIndex) add(a, b, c uint32) bool {
	m1, ok := ix[a]
	if !ok {
		m1 = make(map[uint32]map[uint32]struct{})
		ix[a] = m1
	}
	m2, ok := m1[b]
	if !ok {
		m2 = make(map[uint32]struct{})
		m1[b] = m2
	}
	if _, exists := m2[c]; exists {
		return false
	}
	m2[c] = struct{}{}
	return true
}

func (ix idIndex) remove(a, b, c uint32) bool {
	m1, ok := ix[a]
	if !ok {
		return false
	}
	m2, ok := m1[b]
	if !ok {
		return false
	}
	if _, exists := m2[c]; !exists {
		return false
	}
	delete(m2, c)
	if len(m2) == 0 {
		delete(m1, b)
		if len(m1) == 0 {
			delete(ix, a)
		}
	}
	return true
}

// Store is a dictionary-encoded in-memory triple store. The zero value is
// not usable; create stores with New.
type Store struct {
	mu   sync.RWMutex
	dict *Dict
	spo  idIndex
	pos  idIndex
	osp  idIndex
	size int
	// predCount tracks triples per predicate for selectivity estimation
	// (used by the evaluator's join-order heuristic, cf. Stocker et al.,
	// which the paper cites for BGP optimisation).
	predCount map[uint32]int
	// classCount tracks instances per rdf:type object.
	classCount map[uint32]int
	typeID     uint32
}

// rdfType is the rdf:type predicate, which feeds the class counters.
var rdfType = rdf.NewIRI(rdf.RDFType)

// New returns an empty store with its own dictionary.
func New() *Store {
	d := NewDict()
	return &Store{
		dict:       d,
		spo:        make(idIndex),
		pos:        make(idIndex),
		osp:        make(idIndex),
		predCount:  make(map[uint32]int),
		classCount: make(map[uint32]int),
		typeID:     d.Intern(rdfType),
	}
}

// Add inserts a triple; it reports whether the triple was not already
// present. Triples containing variables or wildcards are rejected.
func (s *Store) Add(t rdf.Triple) bool {
	if !validData(t) {
		return false
	}
	sid, pid, oid := s.dict.Intern(t.S), s.dict.Intern(t.P), s.dict.Intern(t.O)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spo.add(sid, pid, oid) {
		return false
	}
	s.pos.add(pid, oid, sid)
	s.osp.add(oid, sid, pid)
	s.size++
	s.predCount[pid]++
	if pid == s.typeID {
		s.classCount[oid]++
	}
	return true
}

// AddGraph inserts every triple of g and returns the number added.
func (s *Store) AddGraph(g rdf.Graph) int {
	n := 0
	for _, t := range g {
		if s.Add(t) {
			n++
		}
	}
	return n
}

// Remove deletes a triple; it reports whether the triple was present.
// The dictionary never shrinks: ids stay valid even after their last
// triple is gone.
func (s *Store) Remove(t rdf.Triple) bool {
	sid, pid, oid, ok := s.encodePattern(t)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spo.remove(sid, pid, oid) {
		return false
	}
	s.pos.remove(pid, oid, sid)
	s.osp.remove(oid, sid, pid)
	s.size--
	// Decrement only counters that exist: a stale or duplicated removal
	// must never leave a negative (or resurrect a zero) entry.
	decrement(s.predCount, pid)
	if pid == s.typeID {
		decrement(s.classCount, oid)
	}
	return true
}

func decrement(counts map[uint32]int, id uint32) {
	if n, ok := counts[id]; ok {
		if n <= 1 {
			delete(counts, id)
		} else {
			counts[id] = n - 1
		}
	}
}

// Has reports whether the exact ground triple is present.
func (s *Store) Has(t rdf.Triple) bool {
	sid, pid, oid, ok := s.encodePattern(t)
	if !ok {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok = s.spo[sid][pid][oid]
	return ok
}

// Size returns the number of triples.
func (s *Store) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// PredicateCount returns the number of triples with predicate p, used for
// selectivity-based join ordering.
func (s *Store) PredicateCount(p rdf.Term) int {
	pid, ok := s.dict.Lookup(p)
	if !ok {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.predCount[pid]
}

// ClassCount returns the number of instances of class c (triples of the
// form ?s rdf:type c).
func (s *Store) ClassCount(c rdf.Term) int {
	cid, ok := s.dict.Lookup(c)
	if !ok {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.classCount[cid]
}

// validData accepts only ground terms and blank nodes (data-level
// existentials); variables and wildcards cannot be stored.
func validData(t rdf.Triple) bool {
	for _, x := range []rdf.Term{t.S, t.P, t.O} {
		if x.Kind != rdf.KindIRI && x.Kind != rdf.KindLiteral && x.Kind != rdf.KindBlank {
			return false
		}
	}
	return true
}

// bound reports whether a term constrains a match position: variables and
// the zero wildcard are unbound, everything else is a fixed value.
func bound(t rdf.Term) bool {
	return t.Kind != rdf.KindAny && t.Kind != rdf.KindVar
}

// wildcardID encodes an unbound pattern position.
const wildcardID = ^uint32(0)

// encodePattern translates a pattern's bound positions to ids. ok is
// false when some bound position names a term the dictionary has never
// seen — then nothing can match. Unbound positions encode as wildcardID,
// which no interned term gets, so Has and Remove find nothing for them.
func (s *Store) encodePattern(pattern rdf.Triple) (sid, pid, oid uint32, ok bool) {
	enc := func(t rdf.Term) (uint32, bool) {
		if !bound(t) {
			return wildcardID, true
		}
		return s.dict.Lookup(t)
	}
	if sid, ok = enc(pattern.S); !ok {
		return
	}
	if pid, ok = enc(pattern.P); !ok {
		return
	}
	oid, ok = enc(pattern.O)
	return
}

// snapshot appends the packed id triples matching the encoded pattern to
// out under the read lock. Where an index level or a counter gives the
// match count up front, out grows once.
func (s *Store) snapshot(out [][3]uint32, sid, pid, oid uint32) [][3]uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sb, pb, ob := sid != wildcardID, pid != wildcardID, oid != wildcardID
	switch {
	case sb && pb && ob:
		if _, ok := s.spo[sid][pid][oid]; ok {
			out = append(out, [3]uint32{sid, pid, oid})
		}
	case sb && pb:
		m := s.spo[sid][pid]
		out = slices.Grow(out, len(m))
		for o := range m {
			out = append(out, [3]uint32{sid, pid, o})
		}
	case sb && ob:
		m := s.osp[oid][sid]
		out = slices.Grow(out, len(m))
		for p := range m {
			out = append(out, [3]uint32{sid, p, oid})
		}
	case pb && ob:
		m := s.pos[pid][oid]
		out = slices.Grow(out, len(m))
		for sv := range m {
			out = append(out, [3]uint32{sv, pid, oid})
		}
	case sb:
		for p, m2 := range s.spo[sid] {
			for o := range m2 {
				out = append(out, [3]uint32{sid, p, o})
			}
		}
	case pb:
		out = slices.Grow(out, s.predCount[pid])
		for o, m2 := range s.pos[pid] {
			for sv := range m2 {
				out = append(out, [3]uint32{sv, pid, o})
			}
		}
	case ob:
		for sv, m2 := range s.osp[oid] {
			for p := range m2 {
				out = append(out, [3]uint32{sv, p, oid})
			}
		}
	default:
		out = slices.Grow(out, s.size)
		for sv, m1 := range s.spo {
			for p, m2 := range m1 {
				for o := range m2 {
					out = append(out, [3]uint32{sv, p, o})
				}
			}
		}
	}
	return out
}

// Match invokes fn for every stored triple matching the pattern; pattern
// positions that are variables or the zero Term act as wildcards. fn
// returning false stops the iteration early.
//
// The matching ids are collected under the store's read lock and decoded
// under one dictionary read lock; fn runs outside both, so it may safely
// call back into the store (including Add/Remove — mutations do not
// affect the already-collected snapshot).
func (s *Store) Match(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	for _, t := range s.MatchAll(pattern) {
		if !fn(t) {
			return
		}
	}
}

// MatchAll returns all stored triples matching the pattern. See Match for
// the wildcard convention.
func (s *Store) MatchAll(pattern rdf.Triple) []rdf.Triple {
	sid, pid, oid, ok := s.encodePattern(pattern)
	if !ok {
		return nil
	}
	// Small matches (most bound-join probes) snapshot into this stack
	// buffer, so the decoded triples are their only heap allocation.
	var buf [16][3]uint32
	return s.dict.decode(s.snapshot(buf[:0], sid, pid, oid))
}

// Count returns the number of triples matching the pattern, using the
// statistics maps or an index walk where either is cheaper than a scan.
func (s *Store) Count(pattern rdf.Triple) int {
	sid, pid, oid, ok := s.encodePattern(pattern)
	if !ok {
		return 0
	}
	if n, ok := s.indexedCount(sid, pid, oid); ok {
		return n
	}
	return len(s.snapshot(nil, sid, pid, oid))
}

// indexedCount answers Count from the statistics maps or a single index
// level; ok is false for the shapes that need a scan.
func (s *Store) indexedCount(sid, pid, oid uint32) (n int, ok bool) {
	sb, pb, ob := sid != wildcardID, pid != wildcardID, oid != wildcardID
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case !sb && !pb && !ob:
		return s.size, true
	case pb && !sb && !ob:
		return s.predCount[pid], true
	case sb && pb && !ob:
		return len(s.spo[sid][pid]), true
	case pb && ob && !sb:
		return len(s.pos[pid][oid]), true
	case sb && ob && !pb:
		return len(s.osp[oid][sid]), true
	}
	return 0, false
}

// Triples returns all triples as a graph in deterministic sorted order.
func (s *Store) Triples() rdf.Graph {
	g := rdf.Graph(s.MatchAll(rdf.Triple{}))
	return g.Sort()
}

// Clone returns an independent deep copy of the store.
func (s *Store) Clone() *Store {
	c := New()
	for _, t := range s.MatchAll(rdf.Triple{}) {
		c.Add(t)
	}
	return c
}

// Subjects returns the distinct subjects of triples matching (any, p, o).
func (s *Store) Subjects(p, o rdf.Term) []rdf.Term {
	return distinct(s.MatchAll(rdf.Triple{P: p, O: o}), func(t rdf.Triple) rdf.Term { return t.S })
}

// Objects returns the distinct objects of triples matching (s, p, any).
func (s *Store) Objects(subj, p rdf.Term) []rdf.Term {
	return distinct(s.MatchAll(rdf.Triple{S: subj, P: p}), func(t rdf.Triple) rdf.Term { return t.O })
}

func distinct(ts []rdf.Triple, pick func(rdf.Triple) rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	var out []rdf.Term
	for _, t := range ts {
		x := pick(t)
		if _, ok := seen[x]; !ok {
			seen[x] = struct{}{}
			out = append(out, x)
		}
	}
	return out
}

// FirstObject returns some object of (s, p, ?) and whether one exists.
func (s *Store) FirstObject(subj, p rdf.Term) (rdf.Term, bool) {
	var res rdf.Term
	found := false
	s.Match(rdf.Triple{S: subj, P: p}, func(t rdf.Triple) bool {
		res, found = t.O, true
		return false
	})
	return res, found
}
