package sdc

// Exception precedence follows the standard SDC rules the paper's Table 1
// discussion relies on ("false-path overrides the multicycle-path"):
//
//  1. Command rank: set_false_path beats set_max_delay/set_min_delay,
//     which beat set_multicycle_path.
//  2. Within one command, point specificity wins: pin/port -from or -to
//     anchors beat clock anchors, which beat unanchored sides; -through
//     groups break remaining ties.
//  3. Among equally specific survivors the tool must still be
//     deterministic and pessimistic: the smallest multicycle multiplier,
//     the smallest max-delay, the largest min-delay.

// KindRank returns the command rank (higher overrides lower).
func KindRank(k ExceptionKind) int {
	switch k {
	case FalsePath:
		return 3
	case MaxDelay, MinDelay:
		return 2
	case MulticyclePath:
		return 1
	default:
		return 0
	}
}

// Specificity scores the from/to/through anchoring of an exception; a
// higher score is more specific and wins within one command rank.
func (e *Exception) Specificity() int {
	score := 0
	switch {
	case len(e.From.Pins) > 0:
		score += 400
	case len(e.From.Clocks) > 0:
		score += 200
	}
	switch {
	case len(e.To.Pins) > 0:
		score += 40
	case len(e.To.Clocks) > 0:
		score += 20
	}
	score += len(e.Throughs)
	return score
}

// Winner picks the exception that governs a path matched by all the
// candidates, or nil for an empty slice.
func Winner(cands []*Exception) *Exception {
	var best *Exception
	for _, e := range cands {
		best = Prefer(best, e)
	}
	return best
}

// Prefer is one step of Winner: the governing one of the winner so far
// (nil for none) and the next candidate.
func Prefer(best, e *Exception) *Exception {
	if best == nil {
		return e
	}
	kr, kb := KindRank(e.Kind), KindRank(best.Kind)
	switch {
	case kr > kb:
		return e
	case kr < kb:
		return best
	}
	sr, sb := e.Specificity(), best.Specificity()
	switch {
	case sr > sb:
		return e
	case sr < sb:
		return best
	}
	return pessimistic(best, e)
}

// pessimistic picks the tighter of two equally ranked exceptions.
func pessimistic(a, b *Exception) *Exception {
	switch a.Kind {
	case MulticyclePath:
		if b.Kind == MulticyclePath && b.Multiplier < a.Multiplier {
			return b
		}
	case MaxDelay:
		if b.Kind == MaxDelay && b.Value < a.Value {
			return b
		}
	case MinDelay:
		if b.Kind == MinDelay && b.Value > a.Value {
			return b
		}
	}
	return a
}
