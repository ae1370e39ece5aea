package sdc

import (
	"fmt"
	"strconv"
	"strings"

	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/tcl"
)

// Parser evaluates an SDC script against a design, producing a Mode.
type Parser struct {
	design *netlist.Design
	mode   *Mode
	res    *Resolver
	interp *tcl.Interp
	// Ignored records commands that were accepted but have no timing
	// meaning for the merging flow (set_units, …).
	Ignored []string
}

// Parse evaluates one SDC script as the named mode. It returns the parsed
// mode and the list of accepted-but-ignored commands.
func Parse(modeName, src string, d *netlist.Design) (*Mode, []string, error) {
	p := NewParser(modeName, d)
	if err := p.Eval(src); err != nil {
		return nil, p.Ignored, err
	}
	return p.Mode(), p.Ignored, nil
}

// NewParser builds a parser for incremental evaluation (several files into
// one mode).
func NewParser(modeName string, d *netlist.Design) *Parser {
	p := &Parser{
		design: d,
		mode:   &Mode{Name: modeName},
		interp: tcl.New(),
	}
	p.res = &Resolver{Design: d, ClockNames: func() []string { return p.mode.ClockNames() }}
	p.register()
	return p
}

// Mode returns the mode parsed so far.
func (p *Parser) Mode() *Mode { return p.mode }

// Eval evaluates additional SDC source into the mode.
func (p *Parser) Eval(src string) error {
	_, err := p.interp.Eval(src)
	return err
}

// Interp exposes the underlying interpreter (for variable injection).
func (p *Parser) Interp() *tcl.Interp { return p.interp }

// args is a parsed command argument set.
type args struct {
	cmd    string
	flags  map[string][]string // flag name (no '-') → values, "" for bare
	order  []string            // flags in occurrence order (for -through/-group)
	pos    []string
	parser *Parser
}

// flagSpec describes one accepted flag; V means it takes a value.
type flagSpec map[string]bool

// parseArgs splits words into flags and positionals per the spec.
func (p *Parser) parseArgs(cmd string, words []string, spec flagSpec) (*args, error) {
	a := &args{cmd: cmd, flags: map[string][]string{}, parser: p}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if len(w) > 1 && w[0] == '-' && !isNumber(w) {
			name := w[1:]
			hasVal, ok := spec[name]
			if !ok {
				// SDC accepts unambiguous option abbreviations (-p for
				// -period).
				var full string
				for cand := range spec {
					if strings.HasPrefix(cand, name) {
						if full != "" {
							return nil, fmt.Errorf("%s: ambiguous option -%s (-%s or -%s)", cmd, name, full, cand)
						}
						full = cand
					}
				}
				if full == "" {
					return nil, fmt.Errorf("%s: unknown option -%s", cmd, name)
				}
				name = full
				hasVal = spec[full]
			}
			val := ""
			if hasVal {
				if i+1 >= len(words) {
					return nil, fmt.Errorf("%s: -%s requires a value", cmd, name)
				}
				i++
				val = words[i]
			}
			a.flags[name] = append(a.flags[name], val)
			a.order = append(a.order, name+"\x00"+val)
		} else {
			a.pos = append(a.pos, w)
		}
	}
	return a, nil
}

func isNumber(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func (a *args) has(name string) bool { _, ok := a.flags[name]; return ok }

func (a *args) str(name string) string {
	if v, ok := a.flags[name]; ok && len(v) > 0 {
		return v[len(v)-1]
	}
	return ""
}

func (a *args) float(name string) (float64, error) {
	v, err := strconv.ParseFloat(a.str(name), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: -%s: bad number %q", a.cmd, name, a.str(name))
	}
	return v, nil
}

func (a *args) int(name string) (int, error) {
	v, err := strconv.Atoi(a.str(name))
	if err != nil {
		return 0, fmt.Errorf("%s: -%s: bad integer %q", a.cmd, name, a.str(name))
	}
	return v, nil
}

// posFloat interprets positional i as a float.
func (a *args) posFloat(i int) (float64, error) {
	if i >= len(a.pos) {
		return 0, fmt.Errorf("%s: missing value argument", a.cmd)
	}
	v, err := strconv.ParseFloat(a.pos[i], 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad value %q", a.cmd, a.pos[i])
	}
	return v, nil
}

// flattenList splits a possibly nested Tcl list into leaf elements.
// Object names never contain whitespace, so an element that still splits
// is a sublist (e.g. produced by [list [get_clocks …] [get_pins …]]).
func flattenList(s string) []string {
	var out []string
	for _, elem := range tcl.SplitList(s) {
		if parts := tcl.SplitList(elem); len(parts) > 1 || len(parts) == 1 && parts[0] != elem {
			out = append(out, flattenList(elem)...)
		} else {
			out = append(out, elem)
		}
	}
	return out
}

// objects decodes a whitespace/Tcl list of object elements with the given
// kind preference, restricted to allowed kinds if any are given.
func (a *args) objects(list string, allowed ...ObjKind) ([]ObjRef, error) {
	var out []ObjRef
	for _, elem := range flattenList(list) {
		ref, err := a.parser.res.DecodeElem(elem, allowed...)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", a.cmd, err)
		}
		if len(allowed) > 0 {
			ok := false
			for _, k := range allowed {
				if ref.Kind == k {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("%s: object %q has kind %s, not allowed here", a.cmd, ref.Name, ref.Kind)
			}
		}
		out = append(out, ref)
	}
	return out, nil
}

// positionalObjects decodes all positional words as one object list.
func (a *args) positionalObjects(allowed ...ObjKind) ([]ObjRef, error) {
	var out []ObjRef
	for _, w := range a.pos {
		refs, err := a.objects(w, allowed...)
		if err != nil {
			return nil, err
		}
		out = append(out, refs...)
	}
	return out, nil
}

// pointList decodes a -from/-through/-to value into clocks and pins.
func (a *args) pointList(list string, edge EdgeSel) (*PointList, error) {
	pl := &PointList{Edge: edge}
	for _, elem := range flattenList(list) {
		ref, err := a.parser.res.DecodeElem(elem)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", a.cmd, err)
		}
		switch ref.Kind {
		case ClockObj:
			pl.Clocks = append(pl.Clocks, ref.Name)
		case PinObj, PortObj:
			pl.Pins = append(pl.Pins, ref)
		case CellObj:
			// A cell in a point list stands for its pins: clock pins on
			// the from side, data pins on the to side; approximate with
			// all pins via the graph-side expansion, storing the instance
			// output/input pins here.
			inst := a.parser.design.InstByName(ref.Name)
			for i := range inst.Cell.Pins {
				pl.Pins = append(pl.Pins, ObjRef{PinObj, inst.PinName(i)})
			}
		}
	}
	return pl, nil
}

func (p *Parser) errLine() int { return p.interp.Line }

// register installs every supported SDC command plus the query commands.
func (p *Parser) register() {
	reg := func(name string, fn func(a *args) (string, error), spec flagSpec) {
		p.interp.Register(name, func(i *tcl.Interp, words []string) (string, error) {
			a, err := p.parseArgs(name, words, spec)
			if err != nil {
				return "", err
			}
			return fn(a)
		})
	}

	// ---- object queries ----
	queryFlags := flagSpec{"quiet": false, "regexp": false, "nocase": false, "hierarchical": false, "filter": true, "of_objects": true}
	p.interp.Register("get_ports", p.queryCmd(func(pats []string) ([]ObjRef, error) { return p.res.Ports(pats) }, queryFlags))
	p.interp.Register("get_pins", p.queryCmd(func(pats []string) ([]ObjRef, error) { return p.res.Pins(pats) }, queryFlags))
	p.interp.Register("get_cells", p.queryCmd(func(pats []string) ([]ObjRef, error) { return p.res.Cells(pats) }, queryFlags))
	p.interp.Register("get_clocks", p.queryCmd(func(pats []string) ([]ObjRef, error) { return p.res.Clocks(pats) }, queryFlags))
	p.interp.Register("all_inputs", func(i *tcl.Interp, words []string) (string, error) {
		return tcl.JoinList(EncodeRefs(p.res.AllInputs())), nil
	})
	p.interp.Register("all_outputs", func(i *tcl.Interp, words []string) (string, error) {
		return tcl.JoinList(EncodeRefs(p.res.AllOutputs())), nil
	})
	p.interp.Register("all_clocks", func(i *tcl.Interp, words []string) (string, error) {
		return tcl.JoinList(EncodeRefs(p.res.AllClocks())), nil
	})
	reg("all_registers", func(a *args) (string, error) {
		refs := p.res.AllRegisters(a.has("clock_pins"), a.has("data_pins"), a.has("output_pins"))
		return tcl.JoinList(EncodeRefs(refs)), nil
	}, flagSpec{"clock_pins": false, "data_pins": false, "output_pins": false})

	// ---- clocks ----
	reg("create_clock", p.cmdCreateClock, flagSpec{
		"period": true, "name": true, "waveform": true, "add": false, "comment": true})
	reg("create_generated_clock", p.cmdCreateGeneratedClock, flagSpec{
		"name": true, "source": true, "divide_by": true, "multiply_by": true,
		"invert": false, "add": false, "master_clock": true, "comment": true,
		"edges": true, "duty_cycle": true})
	reg("set_clock_groups", p.cmdClockGroups, flagSpec{
		"name": true, "physically_exclusive": false, "logically_exclusive": false,
		"asynchronous": false, "allow_paths": false, "group": true, "comment": true})
	reg("set_clock_latency", p.cmdClockLatency, flagSpec{
		"source": false, "min": false, "max": false, "rise": false, "fall": false,
		"early": false, "late": false})
	reg("set_clock_uncertainty", p.cmdClockUncertainty, flagSpec{
		"setup": false, "hold": false, "from": true, "to": true,
		"rise_from": true, "fall_from": true, "rise_to": true, "fall_to": true})
	reg("set_clock_transition", p.cmdClockTransition, flagSpec{
		"min": false, "max": false, "rise": false, "fall": false})
	reg("set_clock_sense", p.cmdClockSense, flagSpec{
		"stop_propagation": false, "positive": false, "negative": false, "clock": true, "clocks": true})
	reg("set_sense", p.cmdClockSense, flagSpec{
		"stop_propagation": false, "positive": false, "negative": false, "clock": true, "clocks": true, "type": true})
	reg("set_propagated_clock", p.cmdPropagatedClock, flagSpec{})

	// ---- IO ----
	reg("set_input_delay", func(a *args) (string, error) { return p.cmdIODelay(a, true) }, flagSpec{
		"clock": true, "clock_fall": false, "min": false, "max": false,
		"add_delay": false, "rise": false, "fall": false, "network_latency_included": false,
		"source_latency_included": false})
	reg("set_output_delay", func(a *args) (string, error) { return p.cmdIODelay(a, false) }, flagSpec{
		"clock": true, "clock_fall": false, "min": false, "max": false,
		"add_delay": false, "rise": false, "fall": false, "network_latency_included": false,
		"source_latency_included": false})

	// ---- environment ----
	reg("set_case_analysis", p.cmdCaseAnalysis, flagSpec{})
	reg("set_disable_timing", p.cmdDisableTiming, flagSpec{"from": true, "to": true})
	reg("set_input_transition", p.cmdInputTransition, flagSpec{
		"min": false, "max": false, "rise": false, "fall": false})
	reg("set_load", p.cmdLoad, flagSpec{"pin_load": false, "wire_load": false, "min": false, "max": false})
	reg("set_drive", p.cmdDrive, flagSpec{"min": false, "max": false, "rise": false, "fall": false})
	reg("set_max_time_borrow", p.cmdMaxTimeBorrow, flagSpec{})
	reg("set_driving_cell", p.cmdDrivingCell, flagSpec{
		"lib_cell": true, "library": true, "pin": true, "from_pin": true,
		"input_transition_rise": true, "input_transition_fall": true, "min": false, "max": false})

	// ---- exceptions ----
	excFlags := flagSpec{
		"from": true, "to": true, "through": true,
		"rise_from": true, "fall_from": true, "rise_to": true, "fall_to": true,
		"rise_through": true, "fall_through": true,
		"setup": false, "hold": false, "rise": false, "fall": false, "comment": true,
	}
	reg("set_false_path", func(a *args) (string, error) { return p.cmdException(a, FalsePath) }, excFlags)
	mcpFlags := flagSpec{}
	for k, v := range excFlags {
		mcpFlags[k] = v
	}
	mcpFlags["start"] = false
	mcpFlags["end"] = false
	reg("set_multicycle_path", func(a *args) (string, error) { return p.cmdException(a, MulticyclePath) }, mcpFlags)
	reg("set_max_delay", func(a *args) (string, error) { return p.cmdException(a, MaxDelay) }, excFlags)
	reg("set_min_delay", func(a *args) (string, error) { return p.cmdException(a, MinDelay) }, excFlags)

	// ---- accepted but ignored ----
	for _, name := range []string{
		"set_units", "set_operating_conditions", "set_wire_load_model",
		"set_wire_load_mode", "set_max_fanout", "set_max_transition",
		"set_max_capacitance", "set_min_capacitance", "group_path",
		"set_timing_derate", "set_max_area", "current_design", "set_hierarchy_separator",
	} {
		name := name
		p.interp.Register(name, func(i *tcl.Interp, words []string) (string, error) {
			p.Ignored = append(p.Ignored, name)
			return "", nil
		})
	}
}

// queryCmd wraps a resolver query as a Tcl command.
func (p *Parser) queryCmd(fn func(patterns []string) ([]ObjRef, error), spec flagSpec) tcl.Command {
	return func(i *tcl.Interp, words []string) (string, error) {
		var pats []string
		for j := 0; j < len(words); j++ {
			w := words[j]
			if len(w) > 1 && w[0] == '-' {
				if takesVal, ok := spec[w[1:]]; ok {
					if takesVal {
						j++
					}
					continue
				}
				return "", fmt.Errorf("unknown option %s", w)
			}
			pats = append(pats, tcl.SplitList(w)...)
		}
		refs, err := fn(pats)
		if err != nil {
			return "", err
		}
		return tcl.JoinList(EncodeRefs(refs)), nil
	}
}

func (p *Parser) cmdCreateClock(a *args) (string, error) {
	if !a.has("period") {
		return "", fmt.Errorf("create_clock: -period is required")
	}
	period, err := a.float("period")
	if err != nil {
		return "", err
	}
	if period <= 0 {
		return "", fmt.Errorf("create_clock: period must be positive")
	}
	c := &Clock{Period: period, Add: a.has("add"), Line: p.errLine(), Comment: a.str("comment")}
	c.Name = a.str("name")
	if err := checkName("create_clock", c.Name, true); err != nil {
		return "", err
	}
	if a.has("waveform") {
		for _, w := range tcl.SplitList(a.str("waveform")) {
			v, err := strconv.ParseFloat(w, 64)
			if err != nil {
				return "", fmt.Errorf("create_clock: bad waveform value %q", w)
			}
			c.Waveform = append(c.Waveform, v)
		}
		if len(c.Waveform) != 2 {
			return "", fmt.Errorf("create_clock: waveform must have exactly 2 edges")
		}
		if c.Waveform[1] <= c.Waveform[0] || c.Waveform[0] < 0 || c.Waveform[1] > period {
			return "", fmt.Errorf("create_clock: invalid waveform %v for period %g", c.Waveform, period)
		}
	} else {
		c.Waveform = []float64{0, period / 2}
	}
	srcs, err := a.positionalObjects(PortObj, PinObj)
	if err != nil {
		return "", err
	}
	c.Sources = srcs
	if c.Name == "" {
		if len(srcs) == 0 {
			return "", fmt.Errorf("create_clock: -name required for virtual clocks")
		}
		c.Name = srcs[0].Name
	}
	return "", p.addClock(c)
}

func (p *Parser) cmdCreateGeneratedClock(a *args) (string, error) {
	c := &Clock{Generated: true, Add: a.has("add"), Invert: a.has("invert"),
		Line: p.errLine(), Comment: a.str("comment")}
	c.Name = a.str("name")
	if err := checkName("create_generated_clock", c.Name, true); err != nil {
		return "", err
	}
	if !a.has("source") {
		return "", fmt.Errorf("create_generated_clock: -source is required")
	}
	masterPins, err := a.objects(a.str("source"), PortObj, PinObj)
	if err != nil {
		return "", err
	}
	c.MasterPins = masterPins
	if a.has("divide_by") {
		if c.DivideBy, err = a.int("divide_by"); err != nil {
			return "", err
		}
		if c.DivideBy < 1 {
			return "", fmt.Errorf("create_generated_clock: -divide_by must be >= 1")
		}
	}
	if a.has("multiply_by") {
		if c.MultiplyBy, err = a.int("multiply_by"); err != nil {
			return "", err
		}
		if c.MultiplyBy < 1 {
			return "", fmt.Errorf("create_generated_clock: -multiply_by must be >= 1")
		}
	}
	if c.DivideBy == 0 && c.MultiplyBy == 0 {
		c.DivideBy = 1
	}
	c.Master = a.str("master_clock")
	if err := checkName("create_generated_clock", c.Master, true); err != nil {
		return "", err
	}
	srcs, err := a.positionalObjects(PortObj, PinObj)
	if err != nil {
		return "", err
	}
	if len(srcs) == 0 {
		return "", fmt.Errorf("create_generated_clock: source objects required")
	}
	c.Sources = srcs
	if c.Name == "" {
		c.Name = srcs[0].Name
	}
	// Resolve master by pin if not named: find a clock defined on the
	// -source pins.
	if c.Master == "" {
		for _, mc := range p.mode.Clocks {
			for _, s := range mc.Sources {
				for _, mp := range masterPins {
					if s.Name == mp.Name {
						c.Master = mc.Name
					}
				}
			}
		}
		if c.Master == "" {
			return "", fmt.Errorf("create_generated_clock %s: cannot resolve master clock from -source; use -master_clock", c.Name)
		}
	} else if p.mode.ClockByName(c.Master) == nil {
		return "", fmt.Errorf("create_generated_clock %s: unknown master clock %q", c.Name, c.Master)
	}
	// Derive the waveform from the master.
	master := p.mode.ClockByName(c.Master)
	c.Period = master.Period
	if c.DivideBy > 1 {
		c.Period = master.Period * float64(c.DivideBy)
	}
	if c.MultiplyBy > 1 {
		c.Period = master.Period / float64(c.MultiplyBy)
	}
	c.Waveform = []float64{0, c.Period / 2}
	if c.Invert {
		c.Waveform = []float64{c.Period / 2, c.Period}
	}
	return "", p.addClock(c)
}

// checkName rejects a name given in the SDC text that Write could not
// reproduce: Write brace-quotes names and refers to clocks by get_clocks
// patterns inside brace lists, so a name holds no whitespace, braces,
// backslashes or double quotes, and a clock name no wildcards.
func checkName(cmd, name string, clock bool) error {
	bad := " \t\r\n{}\\\""
	if clock {
		bad += "*?"
	}
	if strings.ContainsAny(name, bad) {
		return fmt.Errorf("%s: name %q cannot be written back as SDC", cmd, name)
	}
	return nil
}

func (p *Parser) addClock(c *Clock) error {
	if existing := p.mode.ClockByName(c.Name); existing != nil {
		return fmt.Errorf("clock %q already defined (line %d)", c.Name, existing.Line)
	}
	// Without -add, a new clock replaces clocks previously defined on the
	// same source objects.
	if !c.Add && len(c.Sources) > 0 {
		srcSet := map[string]bool{}
		for _, s := range c.Sources {
			srcSet[s.Name] = true
		}
		var kept []*Clock
		for _, other := range p.mode.Clocks {
			overlap := false
			for _, s := range other.Sources {
				if srcSet[s.Name] {
					overlap = true
					break
				}
			}
			if !overlap {
				kept = append(kept, other)
			}
		}
		p.mode.Clocks = kept
	}
	p.mode.Clocks = append(p.mode.Clocks, c)
	return nil
}

func (p *Parser) cmdClockGroups(a *args) (string, error) {
	g := &ClockGroups{Name: a.str("name"), Line: p.errLine()}
	if err := checkName("set_clock_groups", g.Name, false); err != nil {
		return "", err
	}
	switch {
	case a.has("physically_exclusive"):
		g.Kind = PhysicallyExclusive
	case a.has("logically_exclusive"):
		g.Kind = LogicallyExclusive
	case a.has("asynchronous"):
		g.Kind = Asynchronous
	default:
		return "", fmt.Errorf("set_clock_groups: one of -physically_exclusive/-logically_exclusive/-asynchronous required")
	}
	for _, v := range a.flags["group"] {
		refs, err := a.objects(v, ClockObj)
		if err != nil {
			return "", err
		}
		var names []string
		for _, r := range refs {
			names = append(names, r.Name)
		}
		g.Groups = append(g.Groups, names)
	}
	if len(g.Groups) < 2 {
		return "", fmt.Errorf("set_clock_groups: at least two -group lists required")
	}
	p.mode.ClockGroups = append(p.mode.ClockGroups, g)
	return "", nil
}

func minMaxOf(a *args) MinMax {
	switch {
	case a.has("min") && !a.has("max"):
		return MinOnly
	case a.has("max") && !a.has("min"):
		return MaxOnly
	default:
		return MinMaxBoth
	}
}

func edgeOf(a *args) EdgeSel {
	switch {
	case a.has("rise") && !a.has("fall"):
		return EdgeRise
	case a.has("fall") && !a.has("rise"):
		return EdgeFall
	default:
		return EdgeBoth
	}
}

func (p *Parser) cmdClockLatency(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	lat := &ClockLatency{Value: v, Level: minMaxOf(a), Source: a.has("source"),
		Edge: edgeOf(a), Line: p.errLine()}
	if a.has("early") {
		lat.Level = MinOnly
	}
	if a.has("late") {
		lat.Level = MaxOnly
	}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			if r.Kind == ClockObj {
				lat.Clocks = append(lat.Clocks, r.Name)
			} else {
				lat.Pins = append(lat.Pins, r)
			}
		}
	}
	if len(lat.Clocks) == 0 && len(lat.Pins) == 0 {
		return "", fmt.Errorf("set_clock_latency: objects required")
	}
	p.mode.ClockLatencies = append(p.mode.ClockLatencies, lat)
	return "", nil
}

func (p *Parser) cmdClockUncertainty(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	u := &ClockUncertainty{Value: v, Setup: a.has("setup"), Hold: a.has("hold"), Line: p.errLine()}
	if !u.Setup && !u.Hold {
		u.Setup, u.Hold = true, true
	}
	fromFlag := firstNonEmpty(a.str("from"), a.str("rise_from"), a.str("fall_from"))
	toFlag := firstNonEmpty(a.str("to"), a.str("rise_to"), a.str("fall_to"))
	if fromFlag != "" || toFlag != "" {
		if fromFlag == "" || toFlag == "" {
			return "", fmt.Errorf("set_clock_uncertainty: -from and -to must be given together")
		}
		fromRefs, err := a.objects(fromFlag, ClockObj)
		if err != nil {
			return "", err
		}
		toRefs, err := a.objects(toFlag, ClockObj)
		if err != nil {
			return "", err
		}
		if len(fromRefs) != 1 || len(toRefs) != 1 {
			return "", fmt.Errorf("set_clock_uncertainty: exactly one clock per -from/-to supported")
		}
		u.FromClock, u.ToClock = fromRefs[0].Name, toRefs[0].Name
		p.mode.ClockUncertainties = append(p.mode.ClockUncertainties, u)
		return "", nil
	}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			if r.Kind == ClockObj {
				u.Clocks = append(u.Clocks, r.Name)
			} else {
				u.Pins = append(u.Pins, r)
			}
		}
	}
	if len(u.Clocks) == 0 && len(u.Pins) == 0 {
		return "", fmt.Errorf("set_clock_uncertainty: objects required")
	}
	p.mode.ClockUncertainties = append(p.mode.ClockUncertainties, u)
	return "", nil
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

func (p *Parser) cmdClockTransition(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	tr := &ClockTransition{Value: v, Level: minMaxOf(a), Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, ClockObj)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			tr.Clocks = append(tr.Clocks, r.Name)
		}
	}
	if len(tr.Clocks) == 0 {
		return "", fmt.Errorf("set_clock_transition: clocks required")
	}
	p.mode.ClockTransitions = append(p.mode.ClockTransitions, tr)
	return "", nil
}

func (p *Parser) cmdClockSense(a *args) (string, error) {
	s := &ClockSense{StopPropagation: a.has("stop_propagation"),
		Positive: a.has("positive"), Negative: a.has("negative"), Line: p.errLine()}
	clockList := firstNonEmpty(a.str("clock"), a.str("clocks"))
	if clockList != "" {
		refs, err := a.objects(clockList, ClockObj)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			s.Clocks = append(s.Clocks, r.Name)
		}
	}
	pins, err := a.positionalObjects(PinObj, PortObj)
	if err != nil {
		return "", err
	}
	if len(pins) == 0 {
		return "", fmt.Errorf("set_clock_sense: pins required")
	}
	s.Pins = pins
	p.mode.ClockSenses = append(p.mode.ClockSenses, s)
	return "", nil
}

func (p *Parser) cmdPropagatedClock(a *args) (string, error) {
	pc := &PropagatedClock{Line: p.errLine()}
	refs, err := a.positionalObjects()
	if err != nil {
		return "", err
	}
	for _, r := range refs {
		if r.Kind == ClockObj {
			pc.Clocks = append(pc.Clocks, r.Name)
		} else {
			pc.Pins = append(pc.Pins, r)
		}
	}
	if len(pc.Clocks) == 0 && len(pc.Pins) == 0 {
		return "", fmt.Errorf("set_propagated_clock: objects required")
	}
	p.mode.PropagatedClocks = append(p.mode.PropagatedClocks, pc)
	return "", nil
}

func (p *Parser) cmdIODelay(a *args, isInput bool) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	d := &IODelay{IsInput: isInput, Value: v, Level: minMaxOf(a),
		ClockFall: a.has("clock_fall"), Add: a.has("add_delay"), Line: p.errLine()}
	if a.has("clock") {
		refs, err := a.objects(a.str("clock"), ClockObj)
		if err != nil {
			return "", err
		}
		if len(refs) != 1 {
			return "", fmt.Errorf("%s: exactly one -clock required", a.cmd)
		}
		d.Clock = refs[0].Name
	}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, PortObj, PinObj)
		if err != nil {
			return "", err
		}
		d.Ports = append(d.Ports, refs...)
	}
	if len(d.Ports) == 0 {
		return "", fmt.Errorf("%s: ports required", a.cmd)
	}
	p.mode.IODelays = append(p.mode.IODelays, d)
	return "", nil
}

func (p *Parser) cmdCaseAnalysis(a *args) (string, error) {
	if len(a.pos) < 2 {
		return "", fmt.Errorf("set_case_analysis: want value and objects")
	}
	var val library.Logic
	switch a.pos[0] {
	case "0", "zero":
		val = library.L0
	case "1", "one":
		val = library.L1
	default:
		return "", fmt.Errorf("set_case_analysis: bad value %q", a.pos[0])
	}
	ca := &CaseAnalysis{Value: val, Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, PortObj, PinObj)
		if err != nil {
			return "", err
		}
		ca.Objects = append(ca.Objects, refs...)
	}
	p.mode.Cases = append(p.mode.Cases, ca)
	return "", nil
}

func (p *Parser) cmdDisableTiming(a *args) (string, error) {
	d := &DisableTiming{FromPin: a.str("from"), ToPin: a.str("to"), Line: p.errLine()}
	refs, err := a.positionalObjects(PortObj, PinObj, CellObj)
	if err != nil {
		return "", err
	}
	if len(refs) == 0 {
		return "", fmt.Errorf("set_disable_timing: objects required")
	}
	if (d.FromPin != "" || d.ToPin != "") && refs[0].Kind != CellObj {
		return "", fmt.Errorf("set_disable_timing: -from/-to require cell objects")
	}
	d.Objects = refs
	p.mode.Disables = append(p.mode.Disables, d)
	return "", nil
}

func (p *Parser) cmdInputTransition(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	tr := &InputTransition{Value: v, Level: minMaxOf(a), Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, PortObj)
		if err != nil {
			return "", err
		}
		tr.Ports = append(tr.Ports, refs...)
	}
	if len(tr.Ports) == 0 {
		return "", fmt.Errorf("set_input_transition: ports required")
	}
	p.mode.InputTransitions = append(p.mode.InputTransitions, tr)
	return "", nil
}

func (p *Parser) cmdLoad(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	ld := &PortLoad{Value: v, Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, PortObj)
		if err != nil {
			return "", err
		}
		ld.Ports = append(ld.Ports, refs...)
	}
	if len(ld.Ports) == 0 {
		return "", fmt.Errorf("set_load: ports required")
	}
	p.mode.Loads = append(p.mode.Loads, ld)
	return "", nil
}

func (p *Parser) cmdDrive(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	dc := &DrivingCell{Resistance: v, Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w, PortObj)
		if err != nil {
			return "", err
		}
		dc.Ports = append(dc.Ports, refs...)
	}
	if len(dc.Ports) == 0 {
		return "", fmt.Errorf("set_drive: ports required")
	}
	p.mode.DrivingCells = append(p.mode.DrivingCells, dc)
	return "", nil
}

func (p *Parser) cmdMaxTimeBorrow(a *args) (string, error) {
	v, err := a.posFloat(0)
	if err != nil {
		return "", err
	}
	if v < 0 {
		return "", fmt.Errorf("set_max_time_borrow: value must be non-negative")
	}
	mtb := &MaxTimeBorrow{Value: v, Line: p.errLine()}
	for _, w := range a.pos[1:] {
		refs, err := a.objects(w)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			if r.Kind == ClockObj {
				mtb.Clocks = append(mtb.Clocks, r.Name)
			} else {
				mtb.Objects = append(mtb.Objects, r)
			}
		}
	}
	if len(mtb.Clocks) == 0 && len(mtb.Objects) == 0 {
		return "", fmt.Errorf("set_max_time_borrow: objects required")
	}
	p.mode.MaxTimeBorrows = append(p.mode.MaxTimeBorrows, mtb)
	return "", nil
}

func (p *Parser) cmdDrivingCell(a *args) (string, error) {
	dc := &DrivingCell{CellName: a.str("lib_cell"), Line: p.errLine()}
	if dc.CellName == "" {
		return "", fmt.Errorf("set_driving_cell: -lib_cell required")
	}
	refs, err := a.positionalObjects(PortObj)
	if err != nil {
		return "", err
	}
	if len(refs) == 0 {
		return "", fmt.Errorf("set_driving_cell: ports required")
	}
	dc.Ports = refs
	p.mode.DrivingCells = append(p.mode.DrivingCells, dc)
	return "", nil
}

func (p *Parser) cmdException(a *args, kind ExceptionKind) (string, error) {
	e := &Exception{Kind: kind, Line: p.errLine(), Comment: a.str("comment"), Multiplier: 1}
	switch kind {
	case MulticyclePath:
		m, err := a.posFloat(0)
		if err != nil {
			return "", err
		}
		e.Multiplier = int(m)
		if float64(e.Multiplier) != m || e.Multiplier < 0 {
			return "", fmt.Errorf("set_multicycle_path: bad multiplier %q", a.pos[0])
		}
		e.Start = a.has("start")
		a.pos = a.pos[1:]
	case MaxDelay, MinDelay:
		v, err := a.posFloat(0)
		if err != nil {
			return "", err
		}
		e.Value = v
		a.pos = a.pos[1:]
	}
	if len(a.pos) != 0 {
		return "", fmt.Errorf("%s: unexpected positional arguments %v", a.cmd, a.pos)
	}
	switch {
	case a.has("setup") && !a.has("hold"):
		e.SetupHold = MaxOnly
	case a.has("hold") && !a.has("setup"):
		e.SetupHold = MinOnly
	default:
		e.SetupHold = MinMaxBoth
	}
	var err error
	if e.From, err = p.excPoint(a, "from", "rise_from", "fall_from"); err != nil {
		return "", err
	}
	if e.To, err = p.excPoint(a, "to", "rise_to", "fall_to"); err != nil {
		return "", err
	}
	// -through groups in occurrence order (including rise/fall variants).
	for _, entry := range a.order {
		sep := strings.IndexByte(entry, '\x00')
		name, val := entry[:sep], entry[sep+1:]
		var edge EdgeSel
		switch name {
		case "through":
			edge = EdgeBoth
		case "rise_through":
			edge = EdgeRise
		case "fall_through":
			edge = EdgeFall
		default:
			continue
		}
		pl, err := a.pointList(val, edge)
		if err != nil {
			return "", err
		}
		if len(pl.Clocks) > 0 {
			return "", fmt.Errorf("%s: clocks are not valid in -through", a.cmd)
		}
		if pl.Empty() {
			return "", fmt.Errorf("%s: empty -through list", a.cmd)
		}
		e.Throughs = append(e.Throughs, pl)
	}
	if e.From.Empty() && e.To.Empty() && len(e.Throughs) == 0 {
		return "", fmt.Errorf("%s: at least one of -from/-through/-to required", a.cmd)
	}
	p.mode.Exceptions = append(p.mode.Exceptions, e)
	return "", nil
}

// excPoint assembles a -from or -to point list from the base flag and its
// rise/fall variants.
func (p *Parser) excPoint(a *args, base, riseName, fallName string) (*PointList, error) {
	var out *PointList
	for _, f := range []struct {
		flag string
		edge EdgeSel
	}{{base, EdgeBoth}, {riseName, EdgeRise}, {fallName, EdgeFall}} {
		if !a.has(f.flag) {
			continue
		}
		pl, err := a.pointList(a.str(f.flag), f.edge)
		if err != nil {
			return nil, err
		}
		if out != nil {
			return nil, fmt.Errorf("%s: multiple -%s variants not supported", a.cmd, base)
		}
		out = pl
	}
	if out == nil {
		out = &PointList{}
	}
	return out, nil
}
