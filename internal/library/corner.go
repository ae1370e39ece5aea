package library

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Corner describes one operating corner of an MCMM scenario matrix: a
// named point in the process/voltage/temperature space, expressed as
// multiplicative derates over the nominal delay model plus an optional
// SDC overlay. A scenario is a (mode, corner) pair: the mode's SDC with
// the corner's overlay appended (Deploy), analyzed under the corner's
// derates.
//
// Scale factors of zero mean "unset" and behave as 1.0, so the zero
// Corner is the neutral corner. A nil *Corner in sta.Options selects the
// corner-less nominal path bit-for-bit (no multiplications are applied
// at all), which is the compatibility guarantee the corner-less API
// relies on.
//
// The JSON form is the corner object of every surface that takes
// corners: the service's merge requests, fabric clique specs and the
// CLI's -corners file.
type Corner struct {
	// Name identifies the corner ("ss_0p72v_125c", "wc", ...). Names
	// must be unique within a corner set.
	Name string `json:"name"`

	// DelayScale scales every combinational/launch arc delay, early and
	// late alike (global process/temperature derate).
	DelayScale float64 `json:"delay_scale,omitempty"`
	// EarlyScale additionally scales the early (min) delay values —
	// an OCV-style early derate (< 1 widens hold pessimism).
	EarlyScale float64 `json:"early_scale,omitempty"`
	// LateScale additionally scales the late (max) delay values
	// (> 1 widens setup pessimism).
	LateScale float64 `json:"late_scale,omitempty"`
	// MarginScale scales library setup/hold check margins (and
	// output-delay port margins), modelling corner-dependent
	// characterization guard-bands.
	MarginScale float64 `json:"margin_scale,omitempty"`

	// SDC is an optional constraint overlay appended to every mode's
	// SDC text when building this corner's analysis context (clock
	// uncertainty, input transitions, extra loads...). Overlays refine
	// the environment of existing clocks and ports; they must not
	// create clocks (enforced at scenario construction).
	SDC string `json:"sdc,omitempty"`
}

// Deploy returns a mode's SDC text as deployed in this corner: the text
// with the corner's overlay appended on lines of its own, or the text
// unchanged when the corner has no overlay.
func (c *Corner) Deploy(text string) string {
	if c.SDC == "" {
		return text
	}
	return text + "\n" + c.SDC + "\n"
}

// factorOr1 maps the zero value to the neutral factor.
func factorOr1(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// DelayFactor returns the effective global delay scale (1.0 when unset).
func (c *Corner) DelayFactor() float64 { return factorOr1(c.DelayScale) }

// EarlyFactor returns the effective early-path scale (1.0 when unset).
func (c *Corner) EarlyFactor() float64 { return factorOr1(c.EarlyScale) }

// LateFactor returns the effective late-path scale (1.0 when unset).
func (c *Corner) LateFactor() float64 { return factorOr1(c.LateScale) }

// MarginFactor returns the effective check-margin scale (1.0 when unset).
func (c *Corner) MarginFactor() float64 { return factorOr1(c.MarginScale) }

// Neutral reports whether the corner changes nothing relative to the
// nominal corner-less analysis: all factors 1.0 and no SDC overlay.
func (c *Corner) Neutral() bool {
	return c.DelayFactor() == 1 && c.EarlyFactor() == 1 &&
		c.LateFactor() == 1 && c.MarginFactor() == 1 && c.SDC == ""
}

// Key is the corner's canonical cache identity: every semantic field in
// a fixed order, floats rendered shortest-round-trip, the overlay
// content-hashed. Two corners with equal keys produce identical
// analysis results for the same mode.
func (c *Corner) Key() string {
	var b strings.Builder
	b.WriteString(c.Name)
	for _, f := range []float64{c.DelayFactor(), c.EarlyFactor(), c.LateFactor(), c.MarginFactor()} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	}
	b.WriteByte('|')
	sum := sha256.Sum256([]byte(c.SDC))
	b.WriteString(hex.EncodeToString(sum[:8]))
	return b.String()
}

// CornerSetKey is the canonical cache identity of an ordered corner
// set; the empty string for an empty set (the corner-less path).
func CornerSetKey(corners []Corner) string {
	if len(corners) == 0 {
		return ""
	}
	keys := make([]string, len(corners))
	for i := range corners {
		keys[i] = corners[i].Key()
	}
	return strings.Join(keys, ";")
}

// ValidateCorners checks a corner set: every corner named, names
// unique. An empty set is valid (it means corner-less analysis).
func ValidateCorners(corners []Corner) error {
	seen := make(map[string]bool, len(corners))
	for i := range corners {
		name := corners[i].Name
		if name == "" {
			return fmt.Errorf("corner %d: name required", i)
		}
		if seen[name] {
			return fmt.Errorf("duplicate corner name %q", name)
		}
		seen[name] = true
	}
	return nil
}
