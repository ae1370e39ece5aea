package sdc

import (
	"fmt"
	"strings"

	"modemerge/internal/netlist"
)

// Glob reports whether name matches pattern. Only '*' (any run) and '?'
// (any single character) are special; '[' and ']' are literal so bus-bit
// names like "d[3]" match verbatim, as SDC tools treat them.
func Glob(pattern, name string) bool {
	return globMatch(pattern, name)
}

func globMatch(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			for len(p) > 0 && p[0] == '*' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if globMatch(p, s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

func hasWildcard(p string) bool { return strings.ContainsAny(p, "*?") }

// Resolver resolves SDC object queries against a design plus the clocks
// defined so far during a parse.
type Resolver struct {
	Design *netlist.Design
	// ClockNames returns currently defined clock names; wired to the mode
	// being parsed.
	ClockNames func() []string
}

// Ports resolves get_ports patterns.
func (r *Resolver) Ports(patterns []string) ([]ObjRef, error) {
	var out []ObjRef
	for _, pat := range patterns {
		if !hasWildcard(pat) {
			if r.Design.PortByName(pat) == nil {
				return nil, fmt.Errorf("get_ports: no port matches %q", pat)
			}
			out = append(out, ObjRef{PortObj, pat})
			continue
		}
		matched := false
		for _, p := range r.Design.Ports {
			if globMatch(pat, p.Name) {
				out = append(out, ObjRef{PortObj, p.Name})
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("get_ports: no port matches %q", pat)
		}
	}
	return out, nil
}

// Pins resolves get_pins patterns of the form inst/PIN (hierarchy is
// already flattened, so '/' occurs inside instance names too; the glob is
// applied to the whole flat pin name).
func (r *Resolver) Pins(patterns []string) ([]ObjRef, error) {
	var out []ObjRef
	for _, pat := range patterns {
		if !hasWildcard(pat) {
			if _, _, err := r.Design.FindPin(pat); err != nil {
				return nil, fmt.Errorf("get_pins: %v", err)
			}
			out = append(out, ObjRef{PinObj, pat})
			continue
		}
		matched := false
		for _, inst := range r.Design.Insts {
			for i := range inst.Cell.Pins {
				name := inst.PinName(i)
				if globMatch(pat, name) {
					out = append(out, ObjRef{PinObj, name})
					matched = true
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("get_pins: no pin matches %q", pat)
		}
	}
	return out, nil
}

// Cells resolves get_cells patterns to instance references.
func (r *Resolver) Cells(patterns []string) ([]ObjRef, error) {
	var out []ObjRef
	for _, pat := range patterns {
		if !hasWildcard(pat) {
			if r.Design.InstByName(pat) == nil {
				return nil, fmt.Errorf("get_cells: no cell matches %q", pat)
			}
			out = append(out, ObjRef{CellObj, pat})
			continue
		}
		matched := false
		for _, inst := range r.Design.Insts {
			if globMatch(pat, inst.Name) {
				out = append(out, ObjRef{CellObj, inst.Name})
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("get_cells: no cell matches %q", pat)
		}
	}
	return out, nil
}

// Clocks resolves get_clocks patterns against the defined clocks.
func (r *Resolver) Clocks(patterns []string) ([]ObjRef, error) {
	names := r.ClockNames()
	var out []ObjRef
	for _, pat := range patterns {
		matched := false
		for _, n := range names {
			if n == pat || hasWildcard(pat) && globMatch(pat, n) {
				out = append(out, ObjRef{ClockObj, n})
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("get_clocks: no clock matches %q", pat)
		}
	}
	return out, nil
}

// AllInputs returns every input port.
func (r *Resolver) AllInputs() []ObjRef {
	var out []ObjRef
	for _, p := range r.Design.Ports {
		if p.Dir == netlist.In {
			out = append(out, ObjRef{PortObj, p.Name})
		}
	}
	return out
}

// AllOutputs returns every output port.
func (r *Resolver) AllOutputs() []ObjRef {
	var out []ObjRef
	for _, p := range r.Design.Ports {
		if p.Dir == netlist.Out {
			out = append(out, ObjRef{PortObj, p.Name})
		}
	}
	return out
}

// AllRegisters returns sequential instances, or their clock/data/output
// pins when the corresponding flag is set.
func (r *Resolver) AllRegisters(clockPins, dataPins, outputPins bool) []ObjRef {
	var out []ObjRef
	for _, inst := range r.Design.Insts {
		if !inst.Cell.Sequential {
			continue
		}
		switch {
		case clockPins:
			if cp := inst.Cell.ClockPin(); cp != "" {
				out = append(out, ObjRef{PinObj, inst.Name + "/" + cp})
			}
		case dataPins:
			for _, dp := range inst.Cell.DataPins() {
				out = append(out, ObjRef{PinObj, inst.Name + "/" + dp})
			}
		case outputPins:
			for _, op := range inst.Cell.Outputs() {
				out = append(out, ObjRef{PinObj, inst.Name + "/" + op})
			}
		default:
			out = append(out, ObjRef{CellObj, inst.Name})
		}
	}
	return out
}

// AllClocks returns every defined clock.
func (r *Resolver) AllClocks() []ObjRef {
	var out []ObjRef
	for _, n := range r.ClockNames() {
		out = append(out, ObjRef{ClockObj, n})
	}
	return out
}

// EncodeRefs renders typed references as the Tcl-collection encoding used
// between query commands and consuming commands ("kind:name" elements).
func EncodeRefs(refs []ObjRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

// DecodeElem decodes one collection element. Elements produced by query
// commands carry a "kind:" prefix and must name an existing object of
// that kind (Tcl word concatenation can glue text onto a query result);
// bare names written directly in a constraint are resolved with the
// given preference order (first match wins): clock, then port, then
// pin, then cell.
func (r *Resolver) DecodeElem(elem string, prefer ...ObjKind) (ObjRef, error) {
	for _, kind := range []ObjKind{PinObj, PortObj, ClockObj, CellObj} {
		if name, ok := strings.CutPrefix(elem, kind.String()+":"); ok {
			if r.exists(kind, name) {
				return ObjRef{kind, name}, nil
			}
			return ObjRef{}, fmt.Errorf("cannot resolve object %q", elem)
		}
	}
	if len(prefer) == 0 {
		prefer = []ObjKind{ClockObj, PortObj, PinObj, CellObj}
	}
	for _, kind := range prefer {
		if r.exists(kind, elem) {
			return ObjRef{kind, elem}, nil
		}
	}
	return ObjRef{}, fmt.Errorf("cannot resolve object %q", elem)
}

// exists reports whether the design, or for clocks the mode so far, has
// an object of the given kind and name.
func (r *Resolver) exists(kind ObjKind, name string) bool {
	switch kind {
	case ClockObj:
		for _, n := range r.ClockNames() {
			if n == name {
				return true
			}
		}
	case PortObj:
		return r.Design.PortByName(name) != nil
	case PinObj:
		_, _, err := r.Design.FindPin(name)
		return err == nil
	case CellObj:
		return r.Design.InstByName(name) != nil
	}
	return false
}
