package relation

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestStateString(t *testing.T) {
	cases := []struct {
		s    State
		want string
	}{
		{StateValid, "V"},
		{StateFalse, "FP"},
		{MCP(2), "MCP(2)"},
		{MaxDelay(5), "MAX(5)"},
		{MinDelay(0.5), "MIN(0.5)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestMoreRestrictive(t *testing.T) {
	cases := []struct{ a, b, want State }{
		{StateValid, StateFalse, StateValid},
		{StateFalse, StateValid, StateValid},
		{MCP(2), StateValid, StateValid},
		{MCP(2), MCP(3), MCP(2)},
		{MCP(2), StateFalse, MCP(2)},
		{MaxDelay(3), MaxDelay(5), MaxDelay(3)},
		{MaxDelay(3), StateFalse, MaxDelay(3)},
		{StateFalse, StateFalse, StateFalse},
		{MinDelay(2), MinDelay(1), MinDelay(2)}, // larger min-delay is tighter
	}
	for _, c := range cases {
		if got := MoreRestrictive(c.a, c.b); got != c.want {
			t.Errorf("MoreRestrictive(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMoreRestrictiveCommutativeIdempotent(t *testing.T) {
	states := []State{StateValid, StateFalse, MCP(2), MCP(3), MCP(5), MaxDelay(1), MaxDelay(9), MinDelay(0.1)}
	for _, a := range states {
		for _, b := range states {
			ab, ba := MoreRestrictive(a, b), MoreRestrictive(b, a)
			if ab != ba {
				t.Errorf("not commutative: %v vs %v → %v / %v", a, b, ab, ba)
			}
			if MoreRestrictive(a, a) != a {
				t.Errorf("not idempotent for %v", a)
			}
			// result is one of the inputs
			if ab != a && ab != b {
				t.Errorf("result %v not in inputs %v, %v", ab, a, b)
			}
		}
	}
}

func TestMergeTargetAssociative(t *testing.T) {
	f := func(picks []uint8) bool {
		states := []State{StateValid, StateFalse, MCP(2), MCP(3), MaxDelay(4)}
		if len(picks) < 2 {
			return true
		}
		var modes []State
		for _, p := range picks {
			modes = append(modes, states[int(p)%len(states)])
		}
		// Fold left equals fold right.
		left := MergeTarget(modes)
		right := modes[len(modes)-1]
		for i := len(modes) - 2; i >= 0; i-- {
			right = MoreRestrictive(modes[i], right)
		}
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	var s Set
	if !s.Empty() || s.String() != "-" {
		t.Error("zero set must be empty and print '-'")
	}
	s.Add(StateValid)
	s.Add(StateFalse)
	s.Add(StateValid) // dedup
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if !s.Contains(StateFalse) || s.Contains(MCP(2)) {
		t.Error("Contains wrong")
	}
	if _, ok := s.Single(); ok {
		t.Error("two-element set reported single")
	}
	// States sorted most restrictive first: V before FP.
	got := s.States()
	if got[0] != StateValid || got[1] != StateFalse {
		t.Errorf("States() = %v", got)
	}
	if s.String() != "V, FP" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet(StateValid, StateFalse)
	b := NewSet(StateFalse, StateValid)
	c := NewSet(StateValid)
	if !a.Equal(b) {
		t.Error("order must not matter")
	}
	if a.Equal(c) {
		t.Error("different sets reported equal")
	}
	var d Set
	d.AddSet(a)
	if !d.Equal(a) {
		t.Error("AddSet lost states")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		target, merged Set
		want           CompareResult
	}{
		{NewSet(StateFalse), NewSet(StateValid), Mismatch},
		{NewSet(StateValid), NewSet(StateValid), Match},
		{NewSet(StateFalse, StateValid), NewSet(StateValid), Ambiguous},
		{NewSet(StateFalse, StateValid), NewSet(StateFalse, StateValid), Ambiguous},
		{NewSet(MCP(2)), NewSet(MCP(2)), Match},
		{NewSet(MCP(2)), NewSet(MCP(3)), Mismatch},
	}
	for _, c := range cases {
		if got := Compare(c.target, c.merged); got != c.want {
			t.Errorf("Compare(%v,%v) = %v, want %v", c.target, c.merged, got, c.want)
		}
	}
}

func TestCompareResultString(t *testing.T) {
	if Match.String() != "M" || Mismatch.String() != "X" || Ambiguous.String() != "A" {
		t.Error("result strings wrong")
	}
}

func TestMergeTargetPaperSemantics(t *testing.T) {
	// Path false in all modes → false in merged.
	if got := MergeTarget([]State{StateFalse, StateFalse}); got != StateFalse {
		t.Errorf("all-FP → %v", got)
	}
	// Path valid in one mode → must be timed.
	if got := MergeTarget([]State{StateFalse, StateValid}); got != StateValid {
		t.Errorf("FP+V → %v", got)
	}
	// MCP(2) in one mode, valid in another → single-cycle governs.
	if got := MergeTarget([]State{MCP(2), StateValid}); got != StateValid {
		t.Errorf("MCP+V → %v", got)
	}
	// MCP(2) and MCP(3) → tighter multiplier.
	if got := MergeTarget([]State{MCP(3), MCP(2)}); got != MCP(2) {
		t.Errorf("MCP3+MCP2 → %v", got)
	}
	// FP in one mode, MCP in other → MCP governs.
	if got := MergeTarget([]State{StateFalse, MCP(2)}); got != MCP(2) {
		t.Errorf("FP+MCP → %v", got)
	}
}

func TestRelaxedAntisymmetric(t *testing.T) {
	states := []State{StateValid, StateFalse, MCP(2), MCP(3), MCP(5),
		MaxDelay(1), MaxDelay(9), MinDelay(0.1), MinDelay(2)}
	for _, a := range states {
		for _, b := range states {
			if a == b {
				if Relaxed(a, b) {
					t.Errorf("Relaxed(%v,%v) true on equal states", a, b)
				}
				continue
			}
			if Relaxed(a, b) && Relaxed(b, a) {
				t.Errorf("Relaxed symmetric for %v, %v", a, b)
			}
		}
	}
}

func TestRelaxedSemantics(t *testing.T) {
	cases := []struct {
		merged, target State
		want           bool
	}{
		{StateFalse, StateValid, true},  // dropping a check is optimistic
		{StateValid, StateFalse, false}, // extra check is pessimistic
		{MCP(3), MCP(2), true},          // looser multicycle
		{MCP(2), MCP(3), false},         // tighter multicycle
		{MCP(2), StateValid, true},      // Valid ≡ MCP(1)
		{StateValid, MCP(2), false},
		{MaxDelay(5), MaxDelay(3), true}, // looser bound
		{MaxDelay(3), MaxDelay(5), false},
		{MinDelay(1), MinDelay(2), true}, // smaller min-delay is looser
		{MinDelay(2), MinDelay(1), false},
		{MaxDelay(3), StateValid, false}, // extra bound assumed tighter
		{StateValid, MaxDelay(3), true},  // dropped bound is optimistic
		{StateFalse, MCP(2), true},
		{MCP(2), StateFalse, false},
	}
	for _, c := range cases {
		if got := Relaxed(c.merged, c.target); got != c.want {
			t.Errorf("Relaxed(%v, %v) = %v, want %v", c.merged, c.target, got, c.want)
		}
	}
}

// TestSetInline covers the inline-first layout: the zero set is empty,
// Add deduplicates and keeps first-insertion order, Equal ignores order,
// String renders 0–3 states, a copy never sees another copy's additions,
// and a singleton costs no allocation.
func TestSetInline(t *testing.T) {
	if size := unsafe.Sizeof(Set{}); size > 32 {
		t.Errorf("Set is %d bytes, want at most 32", size)
	}
	var zero Set
	if !zero.Empty() || zero.Len() != 0 || zero.Contains(StateValid) || zero.String() != "-" {
		t.Errorf("zero set: Empty=%v Len=%d String=%q", zero.Empty(), zero.Len(), zero.String())
	}
	if _, ok := zero.Single(); ok {
		t.Error("zero set reported single")
	}

	var s Set
	for _, st := range []State{MCP(2), StateFalse, MCP(2), StateValid, StateFalse, StateValid} {
		s.Add(st)
	}
	if got, want := s.insertion(), []State{MCP(2), StateFalse, StateValid}; !reflect.DeepEqual(got, want) {
		t.Errorf("insertion order %v, want %v", got, want)
	}
	if !s.Equal(NewSet(StateValid, MCP(2), StateFalse)) || s.Equal(NewSet(StateValid, MCP(2))) ||
		s.Equal(NewSet(StateValid, MCP(2), MCP(3))) {
		t.Error("Equal must compare contents, ignoring order")
	}

	for _, c := range []struct {
		states []State
		want   string
	}{
		{nil, "-"},
		{[]State{StateFalse}, "FP"},
		{[]State{StateFalse, StateValid}, "V, FP"},
		{[]State{StateFalse, MCP(3), MaxDelay(2)}, "MAX(2), MCP(3), FP"},
	} {
		if got := NewSet(c.states...).String(); got != c.want {
			t.Errorf("NewSet(%v).String() = %q, want %q", c.states, got, c.want)
		}
	}

	a := NewSet(StateValid, StateFalse)
	b := a
	b.Add(MCP(2))
	a.Add(MCP(3))
	if a.Contains(MCP(2)) || b.Contains(MCP(3)) || a.Len() != 3 || b.Len() != 3 {
		t.Errorf("copies share additions: a=%v b=%v", a, b)
	}

	single := NewSet(MCP(4))
	if n := testing.AllocsPerRun(100, func() {
		var x Set
		x.Add(MCP(4))
		x.Add(MCP(4))
	}); n != 0 {
		t.Errorf("singleton Add allocated %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var x Set
		x.AddSet(single)
		x.AddSet(single)
	}); n != 0 {
		t.Errorf("singleton AddSet allocated %.1f times", n)
	}
}
