package sta

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// Fingerprint is the content address of an analysis context: the timing
// graph's digest, the mode's resolved SDC text (sdc.Write is a canonical
// deterministic rendering, so semantically identical re-parses hash
// equal), and the one analysis option that changes results
// (MaxLaunchEdges — worker count and tracing only change how the same
// answer is computed). Two NewContext calls with equal fingerprints
// produce contexts with identical analysis results, which is what lets
// the incremental engine (internal/incr) reuse a built context instead
// of rebuilding it.
func Fingerprint(g *graph.Graph, mode *sdc.Mode, opt Options) string {
	return FingerprintText(g, sdc.Write(mode), opt)
}

// FingerprintText is Fingerprint for callers that already rendered the
// mode's SDC text (avoids re-writing the mode per lookup).
func FingerprintText(g *graph.Graph, modeText string, opt Options) string {
	maxEdges := opt.MaxLaunchEdges
	if maxEdges <= 0 {
		maxEdges = 64
	}
	parts := []string{g.Fingerprint(), modeText, strconv.Itoa(maxEdges)}
	// The corner changes analysis results, so it is part of the content
	// address. Nil keeps the historical 3-part hash so corner-less
	// fingerprints (and the disk caches keyed by them) stay stable.
	if opt.Corner != nil {
		parts = append(parts, "corner", opt.Corner.Key())
	}
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stamp is the serializable identity + shape summary of a built context.
// The incremental engine stores it beside cached artifacts so a cache
// consumer can assert that a reused context really matches the inputs it
// claims (a cheap integrity check, not a substitute for the key), and
// explain/trace surfaces can cite which context a cached result came
// from without holding the context itself.
type Stamp struct {
	// Fingerprint is the context's content address (see Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Mode is the mode name the context was built for.
	Mode string `json:"mode"`
	// Clocks, DisabledArcs and Warnings summarize the resolved shape.
	Clocks       int `json:"clocks"`
	DisabledArcs int `json:"disabled_arcs"`
	Warnings     int `json:"warnings"`
}

// Stamp computes the context's stamp.
func (ctx *Context) Stamp() Stamp {
	disabled := 0
	for _, d := range ctx.ArcDisabled {
		if d {
			disabled++
		}
	}
	return Stamp{
		Fingerprint:  Fingerprint(ctx.G, ctx.Mode, ctx.Opt),
		Mode:         ctx.Mode.Name,
		Clocks:       len(ctx.Clocks),
		DisabledArcs: disabled,
		Warnings:     len(ctx.Warnings),
	}
}

// MarshalBinary serializes the stamp (JSON under the hood) for the disk
// cache.
func (s Stamp) MarshalBinary() ([]byte, error) { return json.Marshal(s) }

// UnmarshalBinary restores a serialized stamp.
func (s *Stamp) UnmarshalBinary(b []byte) error { return json.Unmarshal(b, s) }
