package graph

import (
	"context"
	"fmt"

	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// Source is a design's parse inputs: a structural Verilog netlist, the
// cell library it is parsed against (mini library format; empty selects
// the built-in library) and the top module (empty infers it). Its JSON
// form is the design part of a fabric clique spec.
type Source struct {
	Verilog string `json:"verilog"`
	Top     string `json:"top,omitempty"`
	Library string `json:"library,omitempty"`
}

// Key is the source's content address: the key its built graph is
// cached under in an incr.Cache's design granularity.
func (s Source) Key() string {
	return incr.Hash("lib", s.Library, "top", s.Top, "v", s.Verilog)
}

// Load parses the source's library and netlist, validates the design
// and builds its timing graph. ctx is checked between the steps so a
// canceled load of a large design stops early. The returned warnings are
// the design's non-fatal validation findings.
func Load(ctx context.Context, src Source) (*Graph, []string, error) {
	return load(ctx, src.Library, func(lib *library.Library) (*netlist.Design, error) {
		design, err := netlist.ParseVerilog(src.Verilog, lib, src.Top)
		if err != nil {
			return nil, fmt.Errorf("verilog: %w", err)
		}
		return design, nil
	})
}

// LoadHier is Load for a hierarchical netlist (a top module instantiating
// block modules): the graph is built from the flattened design, and the
// block hierarchy is returned beside it.
func LoadHier(ctx context.Context, src Source) (*Graph, *netlist.HierDesign, []string, error) {
	var hier *netlist.HierDesign
	g, warnings, err := load(ctx, src.Library, func(lib *library.Library) (*netlist.Design, error) {
		h, err := netlist.ParseVerilogHier(src.Verilog, lib, src.Top)
		if err != nil {
			return nil, fmt.Errorf("verilog: %w", err)
		}
		design, err := h.Flatten()
		if err != nil {
			return nil, fmt.Errorf("flatten: %w", err)
		}
		hier = h
		return design, nil
	})
	return g, hier, warnings, err
}

// load is the sequence both loaders share: parse the library, parse the
// netlist against it, validate the design and build its graph.
func load(ctx context.Context, librarySrc string, parse func(*library.Library) (*netlist.Design, error)) (*Graph, []string, error) {
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
	design, err := parse(lib)
	if err != nil {
		return nil, nil, err
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

// LoadCached returns the source's graph from cache's design granularity,
// loading it on a miss. Concurrent callers of one source share a single
// load, which runs under buildCtx rather than ctx, so one caller's
// cancellation cannot fail the others; ctx only bounds this caller's
// wait. hit reports whether the graph was cached or already being built.
func LoadCached(ctx, buildCtx context.Context, cache *incr.Cache, src Source) (g *Graph, hit bool, err error) {
	v, hit, err := cache.Build(ctx, incr.GranDesign, src.Key(), func() (any, error) {
		g, _, err := Load(buildCtx, src)
		return g, err
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*Graph), hit, nil
}
