package netlist

import (
	"fmt"
	"sort"
	"strings"

	"modemerge/internal/library"
)

// PortOnNet declares a top-level port attached to the named net rather
// than a same-named one. It exists for pass-through block masters,
// where one interior net carries both an input and an output port.
func (b *Builder) PortOnNet(name string, dir PortDir, netName string) *Port {
	if _, dup := b.d.portByName[name]; dup {
		b.errf("duplicate port %q", name)
		return b.d.portByName[name]
	}
	p := &Port{Name: name, Dir: dir, Net: b.Net(netName), Index: len(b.d.Ports)}
	p.Net.Ports = append(p.Net.Ports, p)
	b.d.Ports = append(b.d.Ports, p)
	b.d.portByName[name] = p
	return p
}

// BlockInst is one instantiation of a block master inside a hierarchical
// design's top level. Binds maps master port names to top-level net
// names; a missing binding leaves the port dangling (the flattened net
// is named "<inst>/<port>").
type BlockInst struct {
	Name   string
	Master *Design
	Binds  map[string]string
}

// BindOf returns the top net bound to the master port, or the dangling
// default name when unbound.
func (bi *BlockInst) BindOf(port string) string {
	if n, ok := bi.Binds[port]; ok && n != "" {
		return n
	}
	return bi.Name + "/" + port
}

// HierDesign is a two-level view of a design: a top level holding only
// leaf cells and ports, plus block instances of shared master designs.
// Block interiors deeper than one level are flattened into their
// masters. Flatten produces the equivalent flat Design with the same
// "<inst>/<name>" naming the Verilog elaborator uses, so modes written
// against the flat namespace apply unchanged.
type HierDesign struct {
	Name   string
	Lib    *library.Library
	Top    *Design
	Blocks []*BlockInst
}

// Masters returns the distinct block master designs, sorted by name.
func (h *HierDesign) Masters() []*Design {
	seen := map[string]*Design{}
	for _, b := range h.Blocks {
		seen[b.Master.Name] = b.Master
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Design, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}

// Stats aggregates design size across the top level and all block
// instances (each instance counts its master's full interior).
func (h *HierDesign) Stats() Stats {
	s := h.Top.Stats()
	for _, b := range h.Blocks {
		ms := b.Master.Stats()
		s.Cells += ms.Cells
		s.Nets += ms.Nets
		s.Sequential += ms.Sequential
	}
	return s
}

// Flatten expands every block instance into a flat Design. Master
// instance and net names gain an "<inst>/" prefix; master port nets
// dissolve into the bound top nets. A master net tying an input port
// directly to output ports (a feed-through) synthesizes a BUF per
// output port so the flat netlist keeps single-driver nets.
func (h *HierDesign) Flatten() (*Design, error) {
	b := NewBuilder(h.Name, h.Lib)
	for _, p := range h.Top.Ports {
		b.Port(p.Name, p.Dir)
	}
	for _, inst := range h.Top.Insts {
		conns := make(map[string]string, len(inst.Conns))
		for i, net := range inst.Conns {
			if net != nil {
				conns[inst.Cell.Pins[i].Name] = net.Name
			}
		}
		b.Inst(inst.Cell.Name, inst.Name, conns)
	}
	for _, blk := range h.Blocks {
		if err := flattenBlock(b, blk); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func flattenBlock(b *Builder, blk *BlockInst) error {
	m := blk.Master
	for port := range blk.Binds {
		if m.PortByName(port) == nil {
			return fmt.Errorf("block %s: master %s has no port %q", blk.Name, m.Name, port)
		}
	}
	// Resolve every master net to a flat net name. Port nets take the
	// bound top net of their primary port; other attached ports become
	// feed-through BUFs driven from the primary.
	netName := make(map[string]string, len(m.Nets))
	type feed struct{ from, to string }
	var feeds []feed
	for _, n := range m.Nets {
		if len(n.Ports) == 0 {
			netName[n.Name] = blk.Name + "/" + n.Name
			continue
		}
		var ins, outs []*Port
		for _, p := range n.Ports {
			if p.Dir == In {
				ins = append(ins, p)
			} else {
				outs = append(outs, p)
			}
		}
		if len(ins) > 1 {
			return fmt.Errorf("block %s: master %s shorts input ports %q and %q",
				blk.Name, m.Name, ins[0].Name, ins[1].Name)
		}
		primary := ""
		rest := outs
		if len(ins) == 1 {
			primary = blk.BindOf(ins[0].Name)
		} else {
			primary = blk.BindOf(outs[0].Name)
			rest = outs[1:]
		}
		netName[n.Name] = primary
		for _, p := range rest {
			feeds = append(feeds, feed{from: primary, to: blk.BindOf(p.Name)})
		}
	}
	for _, inst := range m.Insts {
		conns := make(map[string]string, len(inst.Conns))
		for i, net := range inst.Conns {
			if net != nil {
				conns[inst.Cell.Pins[i].Name] = netName[net.Name]
			}
		}
		b.Inst(inst.Cell.Name, blk.Name+"/"+inst.Name, conns)
	}
	for i, f := range feeds {
		b.Inst("BUF", fmt.Sprintf("%s/__feed%d", blk.Name, i),
			map[string]string{"A": f.from, "Z": f.to})
	}
	return nil
}

// WriteVerilogHier renders a hierarchical design as structural Verilog:
// one module per distinct master (sorted by name) followed by the top
// module instantiating leaf cells and blocks. The rendering is
// deterministic, and ParseVerilogHier reads it back.
func WriteVerilogHier(h *HierDesign) string {
	var b strings.Builder
	for _, m := range h.Masters() {
		b.WriteString(WriteVerilog(m))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "module %s (", h.Name)
	for i, p := range h.Top.Ports {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(escapeID(p.Name))
	}
	b.WriteString(");\n")
	for _, p := range h.Top.Ports {
		fmt.Fprintf(&b, "  %s %s;\n", p.Dir, escapeID(p.Name))
	}
	wires := map[string]bool{}
	for _, n := range h.Top.Nets {
		if h.Top.PortByName(n.Name) == nil {
			wires[n.Name] = true
		}
	}
	for _, blk := range h.Blocks {
		for _, p := range blk.Master.Ports {
			if n := blk.BindOf(p.Name); h.Top.PortByName(n) == nil {
				wires[n] = true
			}
		}
	}
	names := make([]string, 0, len(wires))
	for n := range wires {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  wire %s;\n", escapeID(n))
	}
	for _, inst := range h.Top.Insts {
		fmt.Fprintf(&b, "  %s %s (", inst.Cell.Name, escapeID(inst.Name))
		first := true
		for i, net := range inst.Conns {
			if net == nil {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, ".%s(%s)", inst.Cell.Pins[i].Name, escapeID(net.Name))
		}
		b.WriteString(");\n")
	}
	for _, blk := range h.Blocks {
		fmt.Fprintf(&b, "  %s %s (", blk.Master.Name, escapeID(blk.Name))
		for i, p := range blk.Master.Ports {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, ".%s(%s)", escapeID(p.Name), escapeID(blk.BindOf(p.Name)))
		}
		b.WriteString(");\n")
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// ParseVerilogHier parses hierarchical structural Verilog, keeping the
// top module's submodule instances as blocks instead of flattening
// them. Each distinct submodule elaborates standalone into a master
// Design (nested hierarchy below it flattens into the master); the top
// module's leaf cells and ports elaborate into the Top design. topName
// selects the top module; empty infers it like ParseVerilog.
func ParseVerilogHier(src string, lib *library.Library, topName string) (*HierDesign, error) {
	byName, top, err := parseTop(src, topName)
	if err != nil {
		return nil, err
	}

	// Elaborate each distinct submodule of the top as a standalone
	// master design.
	masters := map[string]*Design{}
	for _, inst := range top.insts {
		if lib.Cell(inst.module) != nil {
			continue
		}
		child, ok := byName[inst.module]
		if !ok {
			return nil, fmt.Errorf("verilog line %d: unknown cell or module %q", inst.line, inst.module)
		}
		if masters[inst.module] != nil {
			continue
		}
		md, err := newElaborator(lib, byName).elaborate(child)
		if err != nil {
			return nil, fmt.Errorf("module %s: %w", inst.module, err)
		}
		masters[inst.module] = md
	}

	// Elaborate the top level alone: leaf cells and assigns as usual,
	// block instances recorded with their port-bit slots.
	e := newElaborator(lib, byName)
	env, err := e.slotTopPorts(top)
	if err != nil {
		return nil, err
	}
	if err := e.elabLocals(top, "", env); err != nil {
		return nil, err
	}
	type blockRec struct {
		name   string
		module string
		binds  map[string]int // master port bit name -> top slot
	}
	var blocks []blockRec
	for _, inst := range top.insts {
		if cell := lib.Cell(inst.module); cell != nil {
			if err := e.elabLeaf(top, "", env, inst, cell); err != nil {
				return nil, err
			}
			continue
		}
		rec := blockRec{name: inst.name, module: inst.module, binds: map[string]int{}}
		err := e.bindPorts(top, "", env, inst, byName[inst.module], func(port string, bit, slot int) {
			if bit >= 0 {
				port = fmt.Sprintf("%s[%d]", port, bit)
			}
			rec.binds[port] = slot
		})
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, rec)
	}
	topDesign, err := e.materialize(top.name)
	if err != nil {
		return nil, err
	}
	// Resolve bind slots to the same net names materialize chose.
	rootName := map[int]string{}
	for _, p := range e.topPorts {
		rootName[e.find(p.slot)] = p.name
	}
	slotNet := func(slot int) string {
		r := e.find(slot)
		if n, ok := rootName[r]; ok {
			return n
		}
		return e.slotName[r]
	}
	h := &HierDesign{Name: top.name, Lib: lib, Top: topDesign}
	for _, rec := range blocks {
		bi := &BlockInst{Name: rec.name, Master: masters[rec.module], Binds: map[string]string{}}
		for port, slot := range rec.binds {
			bi.Binds[port] = slotNet(slot)
		}
		h.Blocks = append(h.Blocks, bi)
	}
	return h, nil
}
