package federate

import (
	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
)

// merger is the streaming merge stage: workers feed raw solutions in,
// the merger canonicalises every IRI binding to the deterministic
// representative of its owl:sameAs class, drops duplicates, and emits
// each first occurrence downstream immediately — whole endpoints are
// never buffered. One merger serves one federated run; it is driven by a
// single goroutine, so the seen set needs no locking.
type merger struct {
	coref funcs.CorefSource
	// emit receives each canonical, first-seen solution; returning false
	// stops the merge (the downstream consumer is gone).
	emit       func(eval.Solution) bool
	seen       map[string]bool
	duplicates int
}

func newMerger(coref funcs.CorefSource, emit func(eval.Solution) bool) *merger {
	return &merger{
		coref: coref,
		emit:  emit,
		seen:  make(map[string]bool),
	}
}

// run consumes solutions until the channel is closed or the downstream
// consumer stops accepting; it keeps draining after a stopped consumer so
// producing workers are never blocked on the channel.
func (m *merger) run(ch <-chan eval.Solution, done chan<- struct{}) {
	emitting := true
	for sol := range ch {
		if emitting {
			emitting = m.add(sol)
		}
	}
	close(done)
}

func (m *merger) add(sol eval.Solution) bool {
	canon := m.canonicalise(sol)
	key := canon.Key()
	if m.seen[key] {
		m.duplicates++
		return true
	}
	m.seen[key] = true
	return m.emit(canon)
}

// canonicalise maps every IRI binding to the representative of its
// owl:sameAs class, so the same entity coming from two URI spaces merges.
func (m *merger) canonicalise(sol eval.Solution) eval.Solution {
	out := make(eval.Solution, len(sol))
	for k, v := range sol {
		out[k] = funcs.CanonicalTerm(m.coref, v)
	}
	return out
}
