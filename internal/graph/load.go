package graph

import (
	"context"
	"fmt"

	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// Load parses a cell library (mini library format; empty selects the
// built-in library) and a structural Verilog netlist against it,
// validates the design and builds its timing graph. top selects the top
// module; empty infers it. ctx is checked between the steps so a
// canceled load of a large design stops early. The returned warnings are
// the design's non-fatal validation findings.
func Load(ctx context.Context, verilog, librarySrc, top string) (*Graph, []string, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	lib := library.Default()
	if librarySrc != "" {
		parsed, err := library.Parse(librarySrc)
		if err != nil {
			return nil, nil, fmt.Errorf("library: %w", err)
		}
		lib = parsed
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	design, err := netlist.ParseVerilog(verilog, lib, top)
	if err != nil {
		return nil, nil, fmt.Errorf("verilog: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	warnings, err := design.Validate()
	if err != nil {
		return nil, nil, fmt.Errorf("design: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	g, err := Build(design)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	return g, warnings, nil
}
