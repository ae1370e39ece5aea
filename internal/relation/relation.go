// Package relation defines timing relationships, the paper's §2 core
// abstraction: the constraint state of a set of timing paths identified by
// startpoint, endpoint, launch clock, capture clock, rise/fall type and
// min/max (setup/hold) check type.
//
// Relation states form a restrictiveness order used to compute the
// merged-mode target: a path's merged state must equal the most
// restrictive of its per-mode states over the modes that time it —
// "timed iff timed in at least one mode, never more optimistic than any
// mode that times it".
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the constraint state kind of a set of paths.
type Kind int8

// State kinds.
const (
	// Valid: paths are timed single-cycle, no exception applies.
	Valid Kind = iota
	// Multicycle: a set_multicycle_path governs the paths.
	Multicycle
	// MaxDelayK / MinDelayK: a set_max_delay / set_min_delay governs.
	MaxDelayK
	MinDelayK
	// False: paths are false (set_false_path, exclusive clock groups, or
	// case-analysis/disable kill) — not timed.
	False
)

// State is one constraint state: the kind plus its parameter.
type State struct {
	Kind  Kind
	Mult  int     // Multicycle multiplier
	Value float64 // Max/MinDelay value
}

// Common states.
var (
	StateValid = State{Kind: Valid}
	StateFalse = State{Kind: False}
)

// MCP returns a multicycle state.
func MCP(mult int) State { return State{Kind: Multicycle, Mult: mult} }

// MaxDelay returns a max-delay state.
func MaxDelay(v float64) State { return State{Kind: MaxDelayK, Value: v} }

// MinDelay returns a min-delay state.
func MinDelay(v float64) State { return State{Kind: MinDelayK, Value: v} }

// String renders the state in the paper's table notation.
func (s State) String() string {
	switch s.Kind {
	case Valid:
		return "V"
	case Multicycle:
		return fmt.Sprintf("MCP(%d)", s.Mult)
	case MaxDelayK:
		return fmt.Sprintf("MAX(%g)", s.Value)
	case MinDelayK:
		return fmt.Sprintf("MIN(%g)", s.Value)
	case False:
		return "FP"
	default:
		return fmt.Sprintf("State(%d)", int(s.Kind))
	}
}

// restrictiveness returns a sortable rank: lower = more restrictive.
// Valid (single cycle) is the tightest check; false path is no check at
// all. Multicycle relaxes with the multiplier. Delay overrides sit
// between: a smaller max-delay is tighter.
func restrictRank(s State) float64 {
	switch s.Kind {
	case Valid:
		return 0
	case MinDelayK:
		// A larger min-delay is a tighter hold-side bound; rank
		// decreases as value grows.
		return 1 - s.Value/1e9
	case MaxDelayK:
		return 2 + s.Value/1e9
	case Multicycle:
		return 10 + float64(s.Mult)
	case False:
		return 1e18
	default:
		return 1e17
	}
}

// MoreRestrictive returns the more restrictive of two states.
func MoreRestrictive(a, b State) State {
	if restrictRank(b) < restrictRank(a) {
		return b
	}
	return a
}

// Relaxed reports whether the merged state is more relaxed (optimistic)
// than the target state — the unsafe direction for sign-off. The partial
// order: false path relaxes everything; a larger multicycle multiplier
// relaxes a smaller one (Valid ≡ MCP(1)); a larger max-delay or smaller
// min-delay relaxes its counterpart. Explicit delay bounds are assumed
// tighter than cycle-based checks (they are in any practical SDC), so a
// merged mode that adds a delay bound is pessimistic, while one that
// drops a target's delay bound is optimistic.
func Relaxed(merged, target State) bool {
	if merged == target {
		return false
	}
	if merged.Kind == False {
		return true
	}
	if target.Kind == False {
		return false // merged times paths the target does not: pessimistic
	}
	mcpOf := func(s State) (int, bool) {
		switch s.Kind {
		case Valid:
			return 1, true
		case Multicycle:
			return s.Mult, true
		}
		return 0, false
	}
	if mm, ok := mcpOf(merged); ok {
		if tm, ok2 := mcpOf(target); ok2 {
			return mm > tm
		}
	}
	if merged.Kind == MaxDelayK && target.Kind == MaxDelayK {
		return merged.Value > target.Value
	}
	if merged.Kind == MinDelayK && target.Kind == MinDelayK {
		return merged.Value < target.Value
	}
	if merged.Kind == MaxDelayK || merged.Kind == MinDelayK {
		return false // extra delay bound tightens: pessimistic
	}
	return true // cycle-based merged vs delay-bounded target: optimistic
}

// Set is a small set of states in first-insertion order. The first state
// is stored inline, so the zero (empty) set and a singleton allocate
// nothing — most path groups hold one state. The states after the first
// live in an overflow slice that is never appended to in place: Add
// copies it, so a copied Set never sees another copy's additions.
type Set struct {
	has   bool // the first state is present
	kind  Kind
	mult  int
	value float64
	more  *[]State // states after the first; nil when there are none
}

// NewSet builds a set from states.
func NewSet(states ...State) Set {
	var s Set
	for _, st := range states {
		s.Add(st)
	}
	return s
}

// first returns the inline state; valid only when s.has.
func (s *Set) first() State { return State{Kind: s.kind, Mult: s.mult, Value: s.value} }

// rest returns the states after the first.
func (s *Set) rest() []State {
	if s.more == nil {
		return nil
	}
	return *s.more
}

// Add inserts a state if not present.
func (s *Set) Add(st State) {
	if !s.has {
		s.has, s.kind, s.mult, s.value = true, st.Kind, st.Mult, st.Value
		return
	}
	if s.Contains(st) {
		return
	}
	rest := s.rest()
	more := append(rest[:len(rest):len(rest)], st)
	s.more = &more
}

// AddSet inserts every state of other.
func (s *Set) AddSet(other Set) {
	if !other.has {
		return
	}
	s.Add(other.first())
	for _, st := range other.rest() {
		s.Add(st)
	}
}

// Len returns the number of distinct states.
func (s Set) Len() int {
	if !s.has {
		return 0
	}
	return 1 + len(s.rest())
}

// Empty reports whether the set has no states.
func (s Set) Empty() bool { return !s.has }

// insertion returns the states in first-insertion order.
func (s *Set) insertion() []State {
	if !s.has {
		return nil
	}
	return append([]State{s.first()}, s.rest()...)
}

// States returns the states sorted by restrictiveness (most first).
func (s Set) States() []State {
	out := s.insertion()
	sort.Slice(out, func(i, j int) bool { return restrictRank(out[i]) < restrictRank(out[j]) })
	return out
}

// Contains reports membership.
func (s Set) Contains(st State) bool {
	if !s.has {
		return false
	}
	if s.first() == st {
		return true
	}
	for _, have := range s.rest() {
		if have == st {
			return true
		}
	}
	return false
}

// Single returns the only state, if the set is a singleton.
func (s Set) Single() (State, bool) {
	if s.has && s.more == nil {
		return s.first(), true
	}
	return State{}, false
}

// Equal reports set equality (order independent).
func (s Set) Equal(other Set) bool {
	if s.Len() != other.Len() {
		return false
	}
	if !s.has {
		return true
	}
	if !other.Contains(s.first()) {
		return false
	}
	for _, st := range s.rest() {
		if !other.Contains(st) {
			return false
		}
	}
	return true
}

// String renders the set in the paper's table notation ("FP, V").
func (s Set) String() string {
	if !s.has {
		return "-"
	}
	if s.more == nil {
		return s.first().String()
	}
	states := s.States()
	parts := make([]string, 0, len(states))
	for _, st := range states {
		parts = append(parts, st.String())
	}
	return strings.Join(parts, ", ")
}

// CheckType distinguishes the min/max (hold/setup) side of a relation.
type CheckType int8

// Check types.
const (
	Setup CheckType = iota // max-path analysis
	Hold                   // min-path analysis
)

func (c CheckType) String() string {
	if c == Hold {
		return "hold"
	}
	return "setup"
}

// CompareResult is the outcome of comparing individual-mode and merged
// relation state sets, per the paper's Tables 2–4.
type CompareResult int8

// Compare results.
const (
	Match CompareResult = iota
	Mismatch
	Ambiguous
)

func (c CompareResult) String() string {
	switch c {
	case Match:
		return "M"
	case Mismatch:
		return "X"
	default:
		return "A"
	}
}

// Compare compares the target (individual-mode) and merged state sets for
// one path group. A pair of identical singletons matches; differing
// singletons mismatch; anything with multiple states on either side is
// ambiguous and must be refined at a finer granularity.
func Compare(target, merged Set) CompareResult {
	ts, tok := target.Single()
	ms, mok := merged.Single()
	if tok && mok {
		if ts == ms {
			return Match
		}
		return Mismatch
	}
	return Ambiguous
}

// MergeTarget folds per-mode states of one path group into the merged
// target state: the most restrictive state over the modes that time the
// group; False only when every mode agrees the group is false (or dead).
// The modes slice holds one state per mode in which the group's clocks
// exist; it must be non-empty.
func MergeTarget(modes []State) State {
	out := modes[0]
	for _, st := range modes[1:] {
		out = MoreRestrictive(out, st)
	}
	return out
}
