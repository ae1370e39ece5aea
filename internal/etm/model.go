// Package etm extracts per-block interface timing models — the
// hierarchical abstraction of Li et al. (arXiv 1705.02610, 1705.04981)
// applied to mode merging: a block's combinational interior collapses
// into boundary pins, interface arcs and launch/capture classes, so
// per-block mode merges and an abstract-top merge can stand in for one
// flat whole-chip merge (see internal/core's hierarchical path).
//
// A Model is purely structural (mode-independent) and deterministic for
// a given master graph, which makes it content-addressable: the model
// bytes are cached in internal/incr under the "etm" granularity, keyed
// by the master graph's fingerprint.
package etm

import (
	"encoding/json"
	"fmt"
	"sort"
)

// InterfaceArc summarizes the combinational paths from one boundary
// input to one boundary output: no register crossing, depth counted in
// propagation arcs. MinDepth < MaxDepth implies reconvergence or
// unbalanced cones between the two pins.
type InterfaceArc struct {
	In       string `json:"in"`
	Out      string `json:"out"`
	MinDepth int    `json:"min_depth"`
	MaxDepth int    `json:"max_depth"`
}

// Class ties a boundary data port to the boundary clock input that
// times it: a launch class says "registers clocked from Clock launch
// into Port", a capture class says "data entering Port is captured by
// registers clocked from Clock".
type Class struct {
	Port  string `json:"port"`
	Clock string `json:"clock"`
}

// Model is the extracted interface timing model of one block master.
type Model struct {
	// Block is the master design name.
	Block string `json:"block"`
	// GraphFingerprint content-addresses the master timing graph the
	// model was extracted from.
	GraphFingerprint string `json:"graph_fingerprint"`

	// Inputs / Outputs / ClockIns partition the boundary ports by role.
	// A port that feeds both register clock pins and data logic appears
	// in ClockIns and Inputs.
	Inputs   []string `json:"inputs"`
	Outputs  []string `json:"outputs"`
	ClockIns []string `json:"clock_ins"`

	// RepPins maps each boundary port to a representative interior pin
	// ("inst/pin") on the port's net — the flat-graph node where
	// per-mode boundary annotations (clock tags, case constants, launch
	// sets) are read during projection.
	RepPins map[string]string `json:"rep_pins"`

	// Arcs are the input→output combinational interface arcs.
	Arcs []InterfaceArc `json:"arcs"`

	// LaunchClasses (output × clock-in) and CaptureClasses (input ×
	// clock-in) are the registered interface relations the abstract top
	// models with shell registers.
	LaunchClasses  []Class `json:"launch_classes"`
	CaptureClasses []Class `json:"capture_classes"`
}

// MarshalBinary serializes the model for the incremental disk cache.
func (m *Model) MarshalBinary() ([]byte, error) { return json.Marshal(m) }

// UnmarshalBinary restores a serialized model.
func (m *Model) UnmarshalBinary(b []byte) error { return json.Unmarshal(b, m) }

// Summary renders a one-line shape description for reports.
func (m *Model) Summary() string {
	return fmt.Sprintf("block %s: %d in, %d out, %d clock, %d arcs, %d launch, %d capture",
		m.Block, len(m.Inputs), len(m.Outputs), len(m.ClockIns),
		len(m.Arcs), len(m.LaunchClasses), len(m.CaptureClasses))
}

func sortClasses(cs []Class) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Port != cs[j].Port {
			return cs[i].Port < cs[j].Port
		}
		return cs[i].Clock < cs[j].Clock
	})
}
