package sta

import (
	"cmp"
	"slices"
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// excMatcher is one compiled exception: everything that is not a pin
// anchor. Its resolved pins live in the excSet's anchor table.
type excMatcher struct {
	e *sdc.Exception

	// inert marks an exception none of whose anchors resolved in this
	// context (e.g. a uniquified exception referencing a clock that only
	// exists in another mode) — it can never match a path.
	inert bool
	// edgeSensitive marks a -to or -through list with a rise/fall
	// selector: pass 3's edge-blind suffix walk cannot decide it.
	edgeSensitive bool
	nThru         int8 // through groups

	fromClocks, toClocks []ClockID // sorted
}

// excRef is one resolved pin anchor: its matcher and its role there
// (roleFrom, roleTo, or through group k ≥ 0).
type excRef struct {
	m, role int32
}

// Anchor roles besides through group k. Both stay clear of progDead, so
// a dead progress never matches an anchor.
const (
	roleFrom int32 = -3
	roleTo   int32 = -2
)

// progress values per exception inside a vector.
const progDead = -1 // cannot match on this path (from side failed)

// excVec is one interned progress vector with the candidate lists that
// depend on it alone: full holds the matchers whose through progress is
// complete (the only ones winner() can return), alive the matchers not
// dead (the only ones the pass-3 suffix DP can consult). All three are
// immutable once stored.
type excVec struct {
	v           []int8
	full, alive []int32
}

// excSet is the compiled exception set of a context plus the progress
// vector interner. The interner is safe for concurrent use so relation
// queries (pass-2 per-endpoint propagations) can run in parallel on one
// context.
type excSet struct {
	matchers []excMatcher

	// The anchor table: node n's anchors are refs[off[n]:off[n+1]], in
	// (matcher, role) order and without duplicates. -from anchors sit on
	// the startpoint node the data propagation uses.
	refs []excRef
	off  []int32

	// Progress vector interning: id → record; records are immutable once
	// stored. mu guards both structures.
	mu     sync.RWMutex
	vecs   []excVec
	vecIDs map[string]int32

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
	s := &excSet{vecIDs: map[string]int32{}}
	type anchor struct {
		node graph.NodeID
		ref  excRef
	}
	var anchors []anchor
	// pins adds one point list's resolved pins in role; it reports
	// whether any resolved.
	pins := func(e *sdc.Exception, i int32, role int32, side string, l *sdc.PointList) bool {
		n := len(anchors)
		for _, pin := range l.Pins {
			id, ok := ctx.G.NodeByName(pin.Name)
			if !ok {
				ctx.warnf("%s line %d: %s object %q not in design", e.Kind, e.Line, side, pin.Name)
				continue
			}
			if role == roleFrom {
				id = expandStartpoint(ctx.G, id)
			}
			anchors = append(anchors, anchor{id, excRef{i, role}})
		}
		return len(anchors) > n
	}
	clocks := func(e *sdc.Exception, side string, l *sdc.PointList) []ClockID {
		var out []ClockID
		for _, c := range l.Clocks {
			if id, ok := ctx.clockByName[c]; ok {
				out = append(out, id)
			} else {
				ctx.warnf("%s line %d: %s clock %q undefined in this mode", e.Kind, e.Line, side, c)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for i, e := range ctx.Mode.Exceptions {
		i := int32(i)
		m := excMatcher{e: e, nThru: int8(len(e.Throughs))}
		// A side whose anchors were all specified but none resolved makes
		// the exception inert in this context.
		fromPins := pins(e, i, roleFrom, "-from", e.From)
		m.fromClocks = clocks(e, "-from", e.From)
		m.inert = !e.From.Empty() && !fromPins && len(m.fromClocks) == 0
		toPins := pins(e, i, roleTo, "-to", e.To)
		m.toClocks = clocks(e, "-to", e.To)
		m.inert = m.inert || !e.To.Empty() && !toPins && len(m.toClocks) == 0
		m.edgeSensitive = e.To.Edge != sdc.EdgeBoth
		for k, t := range e.Throughs {
			m.inert = !pins(e, i, int32(k), "-through", t) || m.inert
			m.edgeSensitive = m.edgeSensitive || t.Edge != sdc.EdgeBoth
		}
		s.matchers = append(s.matchers, m)
	}
	// Anchors were added in (matcher, role) order, so a stable sort by
	// node keeps that order within a node and puts duplicates side by
	// side.
	slices.SortStableFunc(anchors, func(a, b anchor) int { return cmp.Compare(a.node, b.node) })
	anchors = slices.Compact(anchors)
	s.refs = make([]excRef, len(anchors))
	s.off = make([]int32, ctx.G.NumNodes()+1)
	for k, a := range anchors {
		s.refs[k] = a.ref
		s.off[a.node+1]++
	}
	for n := 1; n < len(s.off); n++ {
		s.off[n] += s.off[n-1]
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

// anchors returns node n's anchors in (matcher, role) order.
func (s *excSet) anchors(n graph.NodeID) []excRef {
	return s.refs[s.off[n]:s.off[n+1]]
}

// anchorsOf returns matcher i's anchors on node n, in role order.
func (s *excSet) anchorsOf(n graph.NodeID, i int32) []excRef {
	refs := s.anchors(n)
	lo, _ := slices.BinarySearchFunc(refs, i, func(r excRef, i int32) int { return cmp.Compare(r.m, i) })
	hi := lo
	for hi < len(refs) && refs[hi].m == i {
		hi++
	}
	return refs[lo:hi]
}

// anchored reports whether matcher i has an anchor in role on node n.
func (s *excSet) anchored(n graph.NodeID, i, role int32) bool {
	return slices.Contains(s.anchorsOf(n, i), excRef{i, role})
}

// internVec returns the id for a progress vector, interning it with its
// candidate lists. The lookup key of a vector of up to 64 exceptions
// lives in a stack buffer (a map index by string(b) does not allocate),
// so only a vector seen for the first time allocates.
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
	rec := excVec{v: append([]int8(nil), v...)}
	nAlive, nFull := 0, 0
	for i, p := range v {
		if p != progDead {
			nAlive++
		}
		if p == s.matchers[i].nThru {
			nFull++
		}
	}
	if nAlive > 0 {
		// One allocation holds both lists: alive, then full.
		cands := make([]int32, 0, nAlive+nFull)
		for i, p := range v {
			if p != progDead {
				cands = append(cands, int32(i))
			}
		}
		for i, p := range v {
			if p == s.matchers[i].nThru {
				cands = append(cands, int32(i))
			}
		}
		rec.alive, rec.full = cands[:nAlive:nAlive], cands[nAlive:]
	}
	id = int32(len(s.vecs))
	s.vecs = append(s.vecs, rec)
	s.vecIDs[string(b)] = id
	return id
}

// rec returns the interned record for an id.
func (s *excSet) rec(id int32) excVec {
	s.mu.RLock()
	r := s.vecs[id]
	s.mu.RUnlock()
	return r
}

// vec returns the vector for an id. The returned slice is immutable.
func (s *excSet) vec(id int32) []int8 { return s.rec(id).v }

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
		i := int32(i)
		if s.matchers[i].inert || !s.fromMatches(i, start, launch, launchEdge) {
			v[i] = progDead
			continue
		}
		v[i] = s.advanceOne(i, 0, start, trans)
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

// fromMatches applies matcher i's -from side. A list mixing pins and
// clocks is an OR per SDC; an empty list matches everything.
func (s *excSet) fromMatches(i int32, start graph.NodeID, launch ClockID, launchEdge sdc.EdgeSel) bool {
	m := &s.matchers[i]
	return m.e.From.Empty() || edgeOK(m.e.From.Edge, launchEdge) &&
		(s.anchored(start, i, roleFrom) || hasClock(m.fromClocks, launch))
}

// toMatches applies matcher i's -to side at an endpoint with a capture
// clock and the data transition there.
func (s *excSet) toMatches(i int32, end graph.NodeID, capture ClockID, trans sdc.EdgeSel) bool {
	m := &s.matchers[i]
	return m.e.To.Empty() || edgeOK(m.e.To.Edge, trans) &&
		(s.anchored(end, i, roleTo) || hasClock(m.toClocks, capture))
}

func hasClock(sorted []ClockID, c ClockID) bool {
	_, ok := slices.BinarySearch(sorted, c)
	return ok
}

func edgeOK(want, have sdc.EdgeSel) bool {
	return want == sdc.EdgeBoth || have == sdc.EdgeBoth || want == have
}

// advanceOne advances matcher i's progress p through a node: past every
// consecutive through group, from group p on, that holds the node and
// accepts the transition.
func (s *excSet) advanceOne(i int32, p int8, node graph.NodeID, trans sdc.EdgeSel) int8 {
	return s.step(i, p, s.anchorsOf(node, i), trans)
}

// step is advanceOne over matcher i's anchors on the node. They come in
// role order, so one scan passes consecutive groups; -from and -to
// roles never equal a progress.
func (s *excSet) step(i int32, p int8, run []excRef, trans sdc.EdgeSel) int8 {
	for _, r := range run {
		if r.role == int32(p) && edgeOK(s.matchers[i].e.Throughs[p].Edge, trans) {
			p++
		}
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
// anchored on this node can change, one run of anchors each; the
// candidate vector is built in a stack buffer.
func (s *excSet) advance(id int32, node graph.NodeID, trans sdc.EdgeSel) int32 {
	refs := s.anchors(node)
	if len(refs) == 0 {
		return id
	}
	v := s.vec(id)
	var buf [64]int8
	var out []int8
	for k := 0; k < len(refs); {
		i := refs[k].m
		j := k + 1
		for j < len(refs) && refs[j].m == i {
			j++
		}
		if p := v[i]; p != progDead {
			if np := s.step(i, p, refs[k:j], trans); np != p {
				if out == nil {
					out = scratchVec(&buf, len(v))
					copy(out, v)
				}
				out[i] = np
			}
		}
		k = j
	}
	if out == nil {
		return id
	}
	return s.internVec(out)
}

// completed appends to out the exceptions fully matched for a path
// ending at end with the given capture clock, data transition and check
// side, in matcher order.
func (s *excSet) completed(out []*sdc.Exception, vecID int32, end graph.NodeID, capture ClockID, trans sdc.EdgeSel, check relation.CheckType) []*sdc.Exception {
	for _, i := range s.rec(vecID).full {
		if s.matchers[i].appliesTo(check) && s.toMatches(i, end, capture, trans) {
			out = append(out, s.matchers[i].e)
		}
	}
	return out
}

// winner returns the exception that governs a path ending at end with
// the given capture clock, data transition and check side: the sdc
// precedence winner of the completed exceptions, or nil.
func (s *excSet) winner(vecID int32, end graph.NodeID, capture ClockID, trans sdc.EdgeSel, check relation.CheckType) *sdc.Exception {
	var best *sdc.Exception
	for _, i := range s.rec(vecID).full {
		if s.matchers[i].appliesTo(check) && s.toMatches(i, end, capture, trans) {
			best = sdc.Prefer(best, s.matchers[i].e)
		}
	}
	return best
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
