package sta

import (
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// excMatcher precompiles one exception's point lists to node sets and
// clock sets for fast path matching.
type excMatcher struct {
	e *sdc.Exception

	// inert marks an exception none of whose anchors resolved in this
	// context (e.g. a uniquified exception referencing a clock that only
	// exists in another mode) — it can never match a path.
	inert bool

	fromNodes  map[graph.NodeID]bool // empty map = no pin restriction
	fromClocks map[ClockID]bool
	fromEdge   sdc.EdgeSel

	throughs  []map[graph.NodeID]bool
	thruEdges []sdc.EdgeSel

	toNodes  map[graph.NodeID]bool
	toClocks map[ClockID]bool
	toEdge   sdc.EdgeSel
}

// progress values per exception inside a vector.
const progDead = -1 // cannot match on this path (from side failed)

// excSet is the compiled exception set of a context plus the progress
// vector interner. The interner is safe for concurrent use so relation
// queries (pass-2 per-endpoint propagations) can run in parallel on one
// context.
type excSet struct {
	ctx      *Context
	matchers []excMatcher

	// nodeMatchers indexes, per node, the matchers with a through group
	// containing that node — advance() only needs to look at those. A
	// node-indexed slice, not a map: advance() consults it once per (tag,
	// arc) on every propagation, and most nodes carry no matchers.
	nodeMatchers [][]int32

	// Progress vector interning: id → vector; vectors are immutable once
	// stored. mu guards both structures.
	mu     sync.RWMutex
	vecs   [][]int8
	vecIDs map[string]int32

	// Per-vector candidate indices, computed lazily: fullByVec lists the
	// matchers fully matched by the vector (the only ones completed() can
	// return), aliveByVec the matchers not dead on it (the only ones the
	// pass-3 suffix DP can consult). Both depend on the vector alone, and
	// vectors are immutable, so the memos never invalidate. candMu guards
	// both maps.
	candMu     sync.RWMutex
	fullByVec  map[int32][]int32
	aliveByVec map[int32][]int32

	// seedVec memo: the seed is pure in its arguments (matchers are
	// immutable after compile), and every propagation re-seeds the same
	// launch pins — an O(matchers) scan plus a vector interning each
	// time. seedMu guards the map.
	seedMu   sync.RWMutex
	seedMemo map[seedKey]int32
}

type seedKey struct {
	start       graph.NodeID
	launch      ClockID
	edge, trans sdc.EdgeSel
}

func newExcSet(ctx *Context) *excSet {
	s := &excSet{ctx: ctx, vecIDs: map[string]int32{}}
	for _, e := range ctx.Mode.Exceptions {
		m := excMatcher{e: e,
			fromNodes:  map[graph.NodeID]bool{},
			fromClocks: map[ClockID]bool{},
			toNodes:    map[graph.NodeID]bool{},
			toClocks:   map[ClockID]bool{},
		}
		m.fromEdge = e.From.Edge
		m.toEdge = e.To.Edge
		for _, pin := range e.From.Pins {
			if id, ok := ctx.G.NodeByName(pin.Name); ok {
				m.fromNodes[expandStartpoint(ctx.G, id)] = true
			} else {
				ctx.warnf("%s line %d: -from object %q not in design", e.Kind, e.Line, pin.Name)
			}
		}
		for _, c := range e.From.Clocks {
			if id, ok := ctx.clockByName[c]; ok {
				m.fromClocks[id] = true
			} else {
				ctx.warnf("%s line %d: -from clock %q undefined in this mode", e.Kind, e.Line, c)
			}
		}
		for _, pin := range e.To.Pins {
			if id, ok := ctx.G.NodeByName(pin.Name); ok {
				m.toNodes[id] = true
			} else {
				ctx.warnf("%s line %d: -to object %q not in design", e.Kind, e.Line, pin.Name)
			}
		}
		for _, c := range e.To.Clocks {
			if id, ok := ctx.clockByName[c]; ok {
				m.toClocks[id] = true
			} else {
				ctx.warnf("%s line %d: -to clock %q undefined in this mode", e.Kind, e.Line, c)
			}
		}
		for _, t := range e.Throughs {
			nodes := map[graph.NodeID]bool{}
			for _, pin := range t.Pins {
				if id, ok := ctx.G.NodeByName(pin.Name); ok {
					nodes[id] = true
				} else {
					ctx.warnf("%s line %d: -through object %q not in design", e.Kind, e.Line, pin.Name)
				}
			}
			m.throughs = append(m.throughs, nodes)
			m.thruEdges = append(m.thruEdges, t.Edge)
		}
		// A side whose anchors were all specified but none resolved makes
		// the exception inert in this context.
		if !e.From.Empty() && len(m.fromNodes) == 0 && len(m.fromClocks) == 0 {
			m.inert = true
		}
		if !e.To.Empty() && len(m.toNodes) == 0 && len(m.toClocks) == 0 {
			m.inert = true
		}
		for _, nodes := range m.throughs {
			if len(nodes) == 0 {
				m.inert = true
			}
		}
		s.matchers = append(s.matchers, m)
	}
	s.nodeMatchers = make([][]int32, ctx.G.NumNodes())
	for i := range s.matchers {
		seen := map[graph.NodeID]bool{}
		for _, nodes := range s.matchers[i].throughs {
			for n := range nodes {
				if !seen[n] {
					seen[n] = true
					s.nodeMatchers[n] = append(s.nodeMatchers[n], int32(i))
				}
			}
		}
	}
	return s
}

// expandStartpoint maps a -from anchor onto the startpoint node the data
// propagation uses: a register's Q (or D) pin anchor is normalized to the
// register's clock pin, matching the paper's startpoint naming (rA/CP).
func expandStartpoint(g *graph.Graph, id graph.NodeID) graph.NodeID {
	node := g.Node(id)
	if node.Inst != nil && node.Inst.Cell.Sequential {
		cp := node.Inst.Cell.ClockPin()
		if cpID, ok := g.NodeByName(node.Inst.Name + "/" + cp); ok {
			return cpID
		}
	}
	return id
}

// Count returns the number of exceptions.
func (s *excSet) Count() int { return len(s.matchers) }

// internVec returns the id for a progress vector, interning it. The
// lookup key of a vector of up to 64 exceptions lives in a stack buffer
// (a map index by string(b) does not allocate), so only a vector seen
// for the first time allocates a key.
func (s *excSet) internVec(v []int8) int32 {
	var buf [64]byte
	b := buf[:0]
	for _, x := range v {
		b = append(b, byte(x))
	}
	s.mu.RLock()
	id, ok := s.vecIDs[string(b)]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.vecIDs[string(b)]; ok {
		return id
	}
	id = int32(len(s.vecs))
	s.vecs = append(s.vecs, append([]int8(nil), v...))
	s.vecIDs[string(b)] = id
	return id
}

// vec returns the vector for an id. The returned slice is immutable.
func (s *excSet) vec(id int32) []int8 {
	s.mu.RLock()
	v := s.vecs[id]
	s.mu.RUnlock()
	return v
}

// seedVec builds the initial progress vector for a path starting at the
// given node with the given launch clock and launch edge. Exceptions whose
// from side cannot match the path are dead; others start at progress 0 and
// are immediately advanced through the startpoint node itself.
func (s *excSet) seedVec(start graph.NodeID, launch ClockID, launchEdge sdc.EdgeSel, trans sdc.EdgeSel) int32 {
	key := seedKey{start: start, launch: launch, edge: launchEdge, trans: trans}
	s.seedMu.RLock()
	id, ok := s.seedMemo[key]
	s.seedMu.RUnlock()
	if ok {
		return id
	}
	var buf [64]int8
	v := scratchVec(&buf, len(s.matchers))
	for i := range s.matchers {
		m := &s.matchers[i]
		if m.inert || !m.fromMatches(start, launch, launchEdge) {
			v[i] = progDead
			continue
		}
		v[i] = advanceOne(m, 0, start, trans)
	}
	id = s.internVec(v)
	s.seedMu.Lock()
	if s.seedMemo == nil {
		s.seedMemo = map[seedKey]int32{}
	}
	s.seedMemo[key] = id
	s.seedMu.Unlock()
	return id
}

// fromMatches applies the -from side. A list mixing pins and clocks is an
// OR per SDC; an empty list matches everything.
func (m *excMatcher) fromMatches(start graph.NodeID, launch ClockID, launchEdge sdc.EdgeSel) bool {
	if len(m.fromNodes) == 0 && len(m.fromClocks) == 0 {
		return true
	}
	if !edgeOK(m.fromEdge, launchEdge) {
		return false
	}
	if m.fromNodes[start] {
		return true
	}
	return launch != NoClock && m.fromClocks[launch]
}

// toMatches applies the -to side at an endpoint with a capture clock and
// the data transition there.
func (m *excMatcher) toMatches(end graph.NodeID, capture ClockID, trans sdc.EdgeSel) bool {
	if len(m.toNodes) == 0 && len(m.toClocks) == 0 {
		return true
	}
	if !edgeOK(m.toEdge, trans) {
		return false
	}
	if m.toNodes[end] {
		return true
	}
	return capture != NoClock && m.toClocks[capture]
}

func edgeOK(want, have sdc.EdgeSel) bool {
	return want == sdc.EdgeBoth || have == sdc.EdgeBoth || want == have
}

// advanceOne advances one exception's progress through a node.
func advanceOne(m *excMatcher, p int8, node graph.NodeID, trans sdc.EdgeSel) int8 {
	for int(p) < len(m.throughs) && m.throughs[p][node] && edgeOK(m.thruEdges[p], trans) {
		p++
	}
	return p
}

// scratchVec returns an n-exception candidate vector in buf, or on the
// heap past 64 exceptions. internVec copies a vector it stores, so
// nothing kept points into buf.
func scratchVec(buf *[64]int8, n int) []int8 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int8, n)
}

// advance walks a progress vector through a node, returning the interned
// id of the result (which may be the input id unchanged). Only matchers
// with a through anchor on this node can change; the candidate vector is
// built in a stack buffer.
func (s *excSet) advance(id int32, node graph.NodeID, trans sdc.EdgeSel) int32 {
	cands := s.nodeMatchers[node]
	if len(cands) == 0 {
		return id
	}
	v := s.vec(id)
	var buf [64]int8
	var out []int8
	for _, i := range cands {
		if v[i] == progDead {
			continue
		}
		np := advanceOne(&s.matchers[i], v[i], node, trans)
		if np != v[i] {
			if out == nil {
				out = scratchVec(&buf, len(v))
				copy(out, v)
			}
			out[i] = np
		}
	}
	if out == nil {
		return id
	}
	return s.internVec(out)
}

// fullCandidates returns (memoized per vector) the ascending matcher
// indices whose through progress is complete — the only exceptions
// completed() can ever return for this vector.
func (s *excSet) fullCandidates(vecID int32) []int32 {
	s.candMu.RLock()
	cands, ok := s.fullByVec[vecID]
	s.candMu.RUnlock()
	if ok {
		return cands
	}
	v := s.vec(vecID)
	for i := range s.matchers {
		if v[i] != progDead && int(v[i]) == len(s.matchers[i].throughs) {
			cands = append(cands, int32(i))
		}
	}
	s.candMu.Lock()
	if s.fullByVec == nil {
		s.fullByVec = map[int32][]int32{}
	}
	s.fullByVec[vecID] = cands
	s.candMu.Unlock()
	return cands
}

// aliveCandidates returns (memoized per vector) the ascending matcher
// indices not dead on this vector.
func (s *excSet) aliveCandidates(vecID int32) []int32 {
	s.candMu.RLock()
	cands, ok := s.aliveByVec[vecID]
	s.candMu.RUnlock()
	if ok {
		return cands
	}
	v := s.vec(vecID)
	for i := range v {
		if v[i] != progDead {
			cands = append(cands, int32(i))
		}
	}
	s.candMu.Lock()
	if s.aliveByVec == nil {
		s.aliveByVec = map[int32][]int32{}
	}
	s.aliveByVec[vecID] = cands
	s.candMu.Unlock()
	return cands
}

// completed appends to out the exceptions fully matched for a path
// ending at end with the given capture clock, data transition and check
// side.
func (s *excSet) completed(out []*sdc.Exception, vecID int32, end graph.NodeID, capture ClockID, trans sdc.EdgeSel, check relation.CheckType) []*sdc.Exception {
	for _, i := range s.fullCandidates(vecID) {
		m := &s.matchers[i]
		if !m.appliesTo(check) {
			continue
		}
		if !m.toMatches(end, capture, trans) {
			continue
		}
		out = append(out, m.e)
	}
	return out
}

// appliesTo reports whether the exception applies to the setup (max) or
// hold (min) check side. set_max_delay is max-side, set_min_delay is
// min-side; -setup/-hold flags narrow false paths and multicycles.
func (m *excMatcher) appliesTo(check relation.CheckType) bool {
	switch m.e.Kind {
	case sdc.MaxDelay:
		return check == relation.Setup
	case sdc.MinDelay:
		return check == relation.Hold
	}
	switch m.e.SetupHold {
	case sdc.MaxOnly:
		return check == relation.Setup
	case sdc.MinOnly:
		return check == relation.Hold
	default:
		return true
	}
}

// stateOf resolves the winning exception into a relation state.
func stateOf(winner *sdc.Exception) relation.State {
	if winner == nil {
		return relation.StateValid
	}
	switch winner.Kind {
	case sdc.FalsePath:
		return relation.StateFalse
	case sdc.MulticyclePath:
		return relation.MCP(winner.Multiplier)
	case sdc.MaxDelay:
		return relation.MaxDelay(winner.Value)
	case sdc.MinDelay:
		return relation.MinDelay(winner.Value)
	default:
		return relation.StateValid
	}
}
