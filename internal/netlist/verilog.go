package netlist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"modemerge/internal/library"
)

// ParseVerilog parses a structural-Verilog subset and elaborates it into a
// flat Design. topName selects the top module; if empty, the single module
// that is never instantiated is chosen.
//
// Supported constructs: module/endmodule with either header-style or
// body-style port declarations, input/output/wire declarations with
// optional [msb:lsb] vectors, cell and module instances with named or
// positional connections, bit-selects, part-selects, concatenations,
// 1'b0/1'b1 tie literals, simple alias assigns (identifier to identifier),
// and // or /* */ comments. Hierarchy is flattened with '/'-joined names.
func ParseVerilog(src string, lib *library.Library, topName string) (*Design, error) {
	modules, top, err := parseTop(src, topName)
	if err != nil {
		return nil, err
	}
	return newElaborator(lib, modules).elaborate(top)
}

// parseTop parses src's modules and picks the top one: topName, or when
// it is empty the single module that no other module instantiates.
func parseTop(src, topName string) (map[string]*vmodule, *vmodule, error) {
	mods, err := parseModules(src)
	if err != nil {
		return nil, nil, err
	}
	if len(mods) == 0 {
		return nil, nil, fmt.Errorf("verilog: no modules found")
	}
	byName := make(map[string]*vmodule, len(mods))
	for _, m := range mods {
		if _, dup := byName[m.name]; dup {
			return nil, nil, fmt.Errorf("verilog: duplicate module %q", m.name)
		}
		byName[m.name] = m
	}
	top := byName[topName]
	if topName == "" {
		instantiated := map[string]bool{}
		for _, m := range mods {
			for _, inst := range m.insts {
				instantiated[inst.module] = true
			}
		}
		var roots []*vmodule
		for _, m := range mods {
			if !instantiated[m.name] {
				roots = append(roots, m)
			}
		}
		if len(roots) != 1 {
			return nil, nil, fmt.Errorf("verilog: cannot infer top module (%d candidates); pass a top name", len(roots))
		}
		top = roots[0]
	}
	if top == nil {
		return nil, nil, fmt.Errorf("verilog: no module %q", topName)
	}
	return byName, top, nil
}

// ---------- AST ----------

type vrange struct {
	vector   bool
	msb, lsb int
}

func (r vrange) width() int {
	if !r.vector {
		return 1
	}
	if r.msb >= r.lsb {
		return r.msb - r.lsb + 1
	}
	return r.lsb - r.msb + 1
}

// bits returns the bit indices msb-first.
func (r vrange) bits() []int {
	if !r.vector {
		return []int{-1}
	}
	var out []int
	if r.msb >= r.lsb {
		for i := r.msb; i >= r.lsb; i-- {
			out = append(out, i)
		}
	} else {
		for i := r.msb; i <= r.lsb; i++ {
			out = append(out, i)
		}
	}
	return out
}

type vsignal struct {
	name string
	rng  vrange
	dir  int // -1 wire, 0 input, 1 output
}

type vmodule struct {
	name    string
	line    int
	ports   []string // ordered port names
	signals map[string]*vsignal
	sigDecl []string // declaration order
	insts   []*vinst
	assigns []vassign
}

func (m *vmodule) declare(name string, rng vrange, dir int) {
	if s, ok := m.signals[name]; ok {
		// A port may be declared in the header list then given a direction
		// and range in the body.
		if dir >= 0 {
			s.dir = dir
		}
		if rng.vector {
			s.rng = rng
		}
		return
	}
	m.signals[name] = &vsignal{name: name, rng: rng, dir: dir}
	m.sigDecl = append(m.sigDecl, name)
}

type vinst struct {
	module string
	name   string
	line   int
	named  []vconn // named connections, or
	pos    []vexpr // positional connections
}

type vconn struct {
	pin  string
	expr vexpr
}

type vassign struct {
	lhs, rhs vexpr
	line     int
}

// vexpr is a connection expression.
type vexpr interface{ isExpr() }

type vexprEmpty struct{}
type vexprIdent struct{ name string }
type vexprBit struct {
	name string
	bit  int
}
type vexprSlice struct {
	name     string
	msb, lsb int
}
type vexprConst struct{ bits []byte } // msb-first, each 0 or 1
type vexprConcat struct{ parts []vexpr }

func (vexprEmpty) isExpr()  {}
func (vexprIdent) isExpr()  {}
func (vexprBit) isExpr()    {}
func (vexprSlice) isExpr()  {}
func (vexprConst) isExpr()  {}
func (vexprConcat) isExpr() {}

// ---------- tokenizer ----------

type vtok struct {
	text string
	line int
}

// vtokenize lexes src into its tokens. A first scan counts them, so the
// token slice is allocated once at its final size.
func vtokenize(src string) ([]vtok, error) {
	n := 0
	if err := vscan(src, func(string, int) { n++ }); err != nil {
		return nil, err
	}
	toks := make([]vtok, 0, n)
	vscan(src, func(text string, line int) { toks = append(toks, vtok{text, line}) })
	return toks, nil
}

// vscan calls tok with every token of src and its line, in order.
func vscan(src string, tok func(text string, line int)) error {
	line := 1
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return fmt.Errorf("verilog line %d: unterminated block comment", line)
			}
			i += 2
		case strings.IndexByte("()[]{},;.=:", c) >= 0:
			tok(src[i:i+1], line)
			i++
		case c == '\\':
			// Escaped identifier: up to whitespace.
			j := i + 1
			for j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' {
				j++
			}
			tok(src[i+1:j], line)
			i = j
		default:
			j := i
			for j < n && isVlogWordChar(src[j]) {
				j++
			}
			if j == i {
				return fmt.Errorf("verilog line %d: unexpected character %q", line, string(c))
			}
			tok(src[i:j], line)
			i = j
		}
	}
	return nil
}

func isVlogWordChar(c byte) bool {
	return c == '_' || c == '$' || c == '\'' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// ---------- parser ----------

type vparser struct {
	toks []vtok
	pos  int
}

func (p *vparser) errf(format string, args ...any) error {
	line := 0
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("verilog line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *vparser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].text
	}
	return ""
}

func (p *vparser) next() (string, error) {
	if p.pos >= len(p.toks) {
		return "", p.errf("unexpected end of file")
	}
	t := p.toks[p.pos].text
	p.pos++
	return t, nil
}

func (p *vparser) expect(tok string) error {
	got, err := p.next()
	if err != nil {
		return err
	}
	if got != tok {
		p.pos--
		return p.errf("expected %q, got %q", tok, got)
	}
	return nil
}

func (p *vparser) accept(tok string) bool {
	if p.peek() == tok {
		p.pos++
		return true
	}
	return false
}

func parseModules(src string) ([]*vmodule, error) {
	toks, err := vtokenize(src)
	if err != nil {
		return nil, err
	}
	p := &vparser{toks: toks}
	var mods []*vmodule
	for p.pos < len(p.toks) {
		if err := p.expect("module"); err != nil {
			return nil, err
		}
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	return mods, nil
}

func (p *vparser) parseModule() (*vmodule, error) {
	name, err := p.next()
	if err != nil {
		return nil, err
	}
	m := &vmodule{name: name, signals: map[string]*vsignal{}}
	if p.pos > 0 {
		m.line = p.toks[p.pos-1].line
	}
	if p.accept("(") {
		if err := p.parsePortList(m); err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t {
		case "endmodule":
			return m, nil
		case "input", "output", "wire":
			dir := -1
			if t == "input" {
				dir = 0
			} else if t == "output" {
				dir = 1
			}
			if err := p.parseDecl(m, dir); err != nil {
				return nil, err
			}
		case "assign":
			if err := p.parseAssign(m); err != nil {
				return nil, err
			}
		default:
			// Instance: <module> <name> ( conns ) ;
			if err := p.parseInst(m, t); err != nil {
				return nil, err
			}
		}
	}
}

// parsePortList handles both `(a, b, c)` and ANSI `(input clk, output [3:0] q)`.
func (p *vparser) parsePortList(m *vmodule) error {
	if p.accept(")") {
		return nil
	}
	dir := -1
	rng := vrange{}
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		switch t {
		case "input":
			dir, rng = 0, vrange{}
			continue
		case "output":
			dir, rng = 1, vrange{}
			continue
		case "wire":
			continue
		case "[":
			p.pos--
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			rng = r
			continue
		}
		m.ports = append(m.ports, t)
		m.declare(t, rng, dir)
		if p.accept(")") {
			return nil
		}
		if err := p.expect(","); err != nil {
			return err
		}
	}
}

// parseRange parses [msb:lsb].
func (p *vparser) parseRange() (vrange, error) {
	if err := p.expect("["); err != nil {
		return vrange{}, err
	}
	msb, err := p.parseInt()
	if err != nil {
		return vrange{}, err
	}
	if err := p.expect(":"); err != nil {
		return vrange{}, err
	}
	lsb, err := p.parseInt()
	if err != nil {
		return vrange{}, err
	}
	if err := p.expect("]"); err != nil {
		return vrange{}, err
	}
	return vrange{vector: true, msb: msb, lsb: lsb}, nil
}

func (p *vparser) parseInt() (int, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(t)
	if err != nil {
		p.pos--
		return 0, p.errf("expected integer, got %q", t)
	}
	return v, nil
}

// parseDecl parses the rest of `input|output|wire [range] a, b, c;`.
func (p *vparser) parseDecl(m *vmodule, dir int) error {
	rng := vrange{}
	if p.peek() == "[" {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		rng = r
	}
	for {
		name, err := p.next()
		if err != nil {
			return err
		}
		m.declare(name, rng, dir)
		t, err := p.next()
		if err != nil {
			return err
		}
		if t == ";" {
			return nil
		}
		if t != "," {
			p.pos--
			return p.errf("expected ',' or ';' in declaration, got %q", t)
		}
	}
}

func (p *vparser) parseAssign(m *vmodule) error {
	line := 0
	if p.pos > 0 {
		line = p.toks[p.pos-1].line
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	m.assigns = append(m.assigns, vassign{lhs: lhs, rhs: rhs, line: line})
	return nil
}

func (p *vparser) parseInst(m *vmodule, modName string) error {
	instName, err := p.next()
	if err != nil {
		return err
	}
	inst := &vinst{module: modName, name: instName}
	if p.pos > 0 {
		inst.line = p.toks[p.pos-1].line
	}
	if err := p.expect("("); err != nil {
		return err
	}
	if p.accept(")") {
		m.insts = append(m.insts, inst)
		return p.expect(";")
	}
	named := p.peek() == "."
	for {
		if named {
			if err := p.expect("."); err != nil {
				return err
			}
			pin, err := p.next()
			if err != nil {
				return err
			}
			if err := p.expect("("); err != nil {
				return err
			}
			var e vexpr = vexprEmpty{}
			if p.peek() != ")" {
				e, err = p.parseExpr()
				if err != nil {
					return err
				}
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			inst.named = append(inst.named, vconn{pin: pin, expr: e})
		} else {
			var e vexpr = vexprEmpty{}
			if p.peek() != "," && p.peek() != ")" {
				var err error
				e, err = p.parseExpr()
				if err != nil {
					return err
				}
			}
			inst.pos = append(inst.pos, e)
		}
		if p.accept(")") {
			break
		}
		if err := p.expect(","); err != nil {
			return err
		}
	}
	m.insts = append(m.insts, inst)
	return p.expect(";")
}

// parseExpr parses a connection expression.
func (p *vparser) parseExpr() (vexpr, error) {
	if p.accept("{") {
		var parts []vexpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			if p.accept("}") {
				return vexprConcat{parts: parts}, nil
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
	}
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	// Sized literal like 1'b0, 4'b0101, 2'd3.
	if idx := strings.IndexByte(t, '\''); idx > 0 {
		width, err := strconv.Atoi(t[:idx])
		if err != nil || idx+1 >= len(t) {
			return nil, p.errf("bad literal %q", t)
		}
		base := t[idx+1]
		digits := t[idx+2:]
		var value uint64
		switch base {
		case 'b', 'B':
			value, err = strconv.ParseUint(digits, 2, 64)
		case 'd', 'D':
			value, err = strconv.ParseUint(digits, 10, 64)
		case 'h', 'H':
			value, err = strconv.ParseUint(digits, 16, 64)
		default:
			return nil, p.errf("bad literal base in %q", t)
		}
		if err != nil || width <= 0 || width > 64 {
			return nil, p.errf("bad literal %q", t)
		}
		bits := make([]byte, width)
		for i := 0; i < width; i++ {
			bits[width-1-i] = byte(value >> i & 1)
		}
		return vexprConst{bits: bits}, nil
	}
	if t == "" || !isIdentStart(t[0]) {
		p.pos--
		return nil, p.errf("expected expression, got %q", t)
	}
	if p.peek() != "[" {
		return vexprIdent{name: t}, nil
	}
	p.pos++ // '['
	a, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	if p.accept(":") {
		b, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return vexprSlice{name: t, msb: a, lsb: b}, nil
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	return vexprBit{name: t, bit: a}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// ---------- elaboration ----------

// bitKey names one bit of a declared signal within a module instance.
type bitKey struct {
	name string // signal name
	bit  int    // -1 for scalars
}

// elaborator flattens the module hierarchy into slots (electrical nodes)
// tracked by a union-find, then materializes a flat Design.
type elaborator struct {
	lib     *library.Library
	modules map[string]*vmodule

	parent   []int
	slotRank []int
	slotName []string // preferred flat name per slot

	leafInsts []flatInst
	tie0      int // slot of constant-0, -1 if unused
	tie1      int
	topPorts  []flatPort
}

type flatInst struct {
	cell  *library.Cell
	name  string
	conns []int // slot per cell pin, -1 unconnected
}

type flatPort struct {
	name string
	dir  PortDir
	slot int
}

func (e *elaborator) newSlot(name string) int {
	id := len(e.parent)
	e.parent = append(e.parent, id)
	e.slotRank = append(e.slotRank, 0)
	e.slotName = append(e.slotName, name)
	return id
}

func (e *elaborator) find(x int) int {
	for e.parent[x] != x {
		e.parent[x] = e.parent[e.parent[x]]
		x = e.parent[x]
	}
	return x
}

func (e *elaborator) union(a, b int) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return
	}
	if e.slotRank[ra] < e.slotRank[rb] {
		ra, rb = rb, ra
	}
	e.parent[rb] = ra
	if e.slotRank[ra] == e.slotRank[rb] {
		e.slotRank[ra]++
	}
	// Prefer shorter (less hierarchical) names for the merged node.
	if better(e.slotName[rb], e.slotName[ra]) {
		e.slotName[ra] = e.slotName[rb]
	}
}

func better(a, b string) bool {
	da, db := strings.Count(a, "/"), strings.Count(b, "/")
	if da != db {
		return da < db
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func newElaborator(lib *library.Library, modules map[string]*vmodule) *elaborator {
	return &elaborator{lib: lib, modules: modules, slotName: []string{}, slotRank: []int{}, parent: []int{}, tie0: -1, tie1: -1}
}

func (e *elaborator) elaborate(top *vmodule) (*Design, error) {
	env, err := e.slotTopPorts(top)
	if err != nil {
		return nil, err
	}
	if err := e.elabModule(top, "", env, 0); err != nil {
		return nil, err
	}
	return e.materialize(top.name)
}

// slotTopPorts gives every bit of the top module's ports a slot, records
// the flat ports, and returns the environment binding them.
func (e *elaborator) slotTopPorts(top *vmodule) (map[bitKey]int, error) {
	env := map[bitKey]int{}
	for _, pname := range top.ports {
		sig := top.signals[pname]
		if sig.dir < 0 {
			return nil, fmt.Errorf("verilog: top port %q has no direction", pname)
		}
		for _, bit := range sig.rng.bits() {
			flat := pname
			if bit >= 0 {
				flat = fmt.Sprintf("%s[%d]", pname, bit)
			}
			slot := e.newSlot(flat)
			env[bitKey{pname, bit}] = slot
			dir := In
			if sig.dir == 1 {
				dir = Out
			}
			e.topPorts = append(e.topPorts, flatPort{name: flat, dir: dir, slot: slot})
		}
	}
	return env, nil
}

const maxDepth = 64

// elabModule walks one module instance. prefix is the hierarchical path
// ("" for top, otherwise "a/b/"), env maps port bits to parent slots.
func (e *elaborator) elabModule(m *vmodule, prefix string, env map[bitKey]int, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("verilog: hierarchy deeper than %d (recursive instantiation of %q?)", maxDepth, m.name)
	}
	if err := e.elabLocals(m, prefix, env); err != nil {
		return err
	}
	// Instances.
	for _, inst := range m.insts {
		if cell := e.lib.Cell(inst.module); cell != nil {
			if err := e.elabLeaf(m, prefix, env, inst, cell); err != nil {
				return err
			}
			continue
		}
		child, ok := e.modules[inst.module]
		if !ok {
			return fmt.Errorf("verilog line %d: unknown cell or module %q", inst.line, inst.module)
		}
		childEnv := map[bitKey]int{}
		err := e.bindPorts(m, prefix, env, inst, child, func(port string, bit, slot int) {
			childEnv[bitKey{port, bit}] = slot
		})
		if err != nil {
			return err
		}
		if err := e.elabModule(child, prefix+inst.name+"/", childEnv, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// elabLocals gives a slot to every local signal bit of m not bound by a
// port, then applies m's alias assigns.
func (e *elaborator) elabLocals(m *vmodule, prefix string, env map[bitKey]int) error {
	for _, name := range m.sigDecl {
		sig := m.signals[name]
		for _, bit := range sig.rng.bits() {
			k := bitKey{name, bit}
			if _, bound := env[k]; bound {
				continue
			}
			flat := prefix + name
			if bit >= 0 {
				flat = fmt.Sprintf("%s%s[%d]", prefix, name, bit)
			}
			env[k] = e.newSlot(flat)
		}
	}
	for _, a := range m.assigns {
		lhs, err := e.exprSlots(m, prefix, env, a.lhs)
		if err != nil {
			return err
		}
		rhs, err := e.exprSlots(m, prefix, env, a.rhs)
		if err != nil {
			return err
		}
		if len(lhs) != len(rhs) {
			return fmt.Errorf("verilog line %d: assign width mismatch %d vs %d", a.line, len(lhs), len(rhs))
		}
		for i := range lhs {
			if lhs[i] < 0 {
				return fmt.Errorf("verilog line %d: assign to open bit", a.line)
			}
			if rhs[i] < 0 {
				continue
			}
			e.union(lhs[i], rhs[i])
		}
	}
	return nil
}

// bindPorts resolves the connections of inst, an instance of module child
// inside m, calling set for every connected bit of child's ports with the
// slot it connects to.
func (e *elaborator) bindPorts(m *vmodule, prefix string, env map[bitKey]int, inst *vinst, child *vmodule, set func(port string, bit, slot int)) error {
	bind := func(portName string, expr vexpr) error {
		sig := child.signals[portName]
		if sig == nil {
			return fmt.Errorf("verilog line %d: module %q has no port %q", inst.line, child.name, portName)
		}
		slots, err := e.exprSlots(m, prefix, env, expr)
		if err != nil {
			return err
		}
		bits := sig.rng.bits()
		if len(slots) == 0 { // unconnected
			return nil
		}
		if len(slots) != len(bits) {
			return fmt.Errorf("verilog line %d: port %q width %d connected to %d bits",
				inst.line, portName, len(bits), len(slots))
		}
		for i, bit := range bits {
			if slots[i] >= 0 {
				set(portName, bit, slots[i])
			}
		}
		return nil
	}
	if inst.pos != nil {
		if len(inst.pos) > len(child.ports) {
			return fmt.Errorf("verilog line %d: %d positional connections for %d ports",
				inst.line, len(inst.pos), len(child.ports))
		}
		for i, expr := range inst.pos {
			if err := bind(child.ports[i], expr); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range inst.named {
		if err := bind(c.pin, c.expr); err != nil {
			return err
		}
	}
	return nil
}

func (e *elaborator) elabLeaf(m *vmodule, prefix string, env map[bitKey]int, inst *vinst, cell *library.Cell) error {
	fi := flatInst{cell: cell, name: prefix + inst.name, conns: make([]int, len(cell.Pins))}
	for i := range fi.conns {
		fi.conns[i] = -1
	}
	bind := func(pinName string, expr vexpr) error {
		idx := -1
		for i, p := range cell.Pins {
			if p.Name == pinName {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("verilog line %d: cell %s has no pin %q", inst.line, cell.Name, pinName)
		}
		slots, err := e.exprSlots(m, prefix, env, expr)
		if err != nil {
			return err
		}
		if len(slots) == 0 {
			return nil
		}
		if len(slots) != 1 {
			return fmt.Errorf("verilog line %d: cell pin %s/%s connected to %d bits",
				inst.line, cell.Name, pinName, len(slots))
		}
		fi.conns[idx] = slots[0]
		return nil
	}
	if inst.pos != nil {
		if len(inst.pos) > len(cell.Pins) {
			return fmt.Errorf("verilog line %d: %d positional connections for cell %s with %d pins",
				inst.line, len(inst.pos), cell.Name, len(cell.Pins))
		}
		for i, expr := range inst.pos {
			if err := bind(cell.Pins[i].Name, expr); err != nil {
				return err
			}
		}
	} else {
		for _, c := range inst.named {
			if err := bind(c.pin, c.expr); err != nil {
				return err
			}
		}
	}
	e.leafInsts = append(e.leafInsts, fi)
	return nil
}

// exprSlots resolves a connection expression to slot ids (msb-first).
// Empty expressions resolve to nil; constant bits resolve to tie slots.
func (e *elaborator) exprSlots(m *vmodule, prefix string, env map[bitKey]int, expr vexpr) ([]int, error) {
	switch x := expr.(type) {
	case vexprEmpty:
		return nil, nil
	case vexprIdent:
		sig := m.signals[x.name]
		if sig == nil {
			return nil, fmt.Errorf("verilog: module %q: undeclared signal %q", m.name, x.name)
		}
		var out []int
		for _, bit := range sig.rng.bits() {
			out = append(out, env[bitKey{x.name, bit}])
		}
		return out, nil
	case vexprBit:
		sig := m.signals[x.name]
		if sig == nil {
			return nil, fmt.Errorf("verilog: module %q: undeclared signal %q", m.name, x.name)
		}
		if !sig.rng.vector {
			return nil, fmt.Errorf("verilog: bit-select on scalar %q", x.name)
		}
		slot, ok := env[bitKey{x.name, x.bit}]
		if !ok {
			return nil, fmt.Errorf("verilog: bit %s[%d] out of range", x.name, x.bit)
		}
		return []int{slot}, nil
	case vexprSlice:
		sig := m.signals[x.name]
		if sig == nil {
			return nil, fmt.Errorf("verilog: module %q: undeclared signal %q", m.name, x.name)
		}
		sub := vrange{vector: true, msb: x.msb, lsb: x.lsb}
		var out []int
		for _, bit := range sub.bits() {
			slot, ok := env[bitKey{x.name, bit}]
			if !ok {
				return nil, fmt.Errorf("verilog: bit %s[%d] out of range", x.name, bit)
			}
			out = append(out, slot)
		}
		return out, nil
	case vexprConst:
		var out []int
		for _, b := range x.bits {
			if b == 0 {
				if e.tie0 < 0 {
					e.tie0 = e.newSlot("__tie0")
				}
				out = append(out, e.tie0)
			} else {
				if e.tie1 < 0 {
					e.tie1 = e.newSlot("__tie1")
				}
				out = append(out, e.tie1)
			}
		}
		return out, nil
	case vexprConcat:
		var out []int
		for _, p := range x.parts {
			s, err := e.exprSlots(m, prefix, env, p)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("verilog: unsupported expression %T", expr)
	}
}

// materialize converts slots and leaf instances into a flat Design.
func (e *elaborator) materialize(topName string) (*Design, error) {
	b := NewBuilder(topName, e.lib)
	// Resolve final names per slot root: prefer top port names.
	rootName := map[int]string{}
	for _, p := range e.topPorts {
		if _, ok := rootName[e.find(p.slot)]; !ok {
			rootName[e.find(p.slot)] = p.name
		}
	}
	name := func(slot int) string {
		r := e.find(slot)
		if n, ok := rootName[r]; ok {
			return n
		}
		rootName[r] = e.slotName[r]
		return e.slotName[r]
	}
	// Ports first so the port nets adopt port names. Several ports may
	// alias to one slot (a pass-through module); the first port owns the
	// net name and later ports attach to the same net. Illegal shorts
	// (two shorted input ports = two drivers) are left for Validate.
	for _, p := range e.topPorts {
		if got := name(p.slot); got != p.name {
			b.PortOnNet(p.name, p.dir, got)
		} else {
			b.Port(p.name, p.dir)
		}
	}
	// Tie cells.
	if e.tie0 >= 0 {
		b.Inst("TIELO", "__tielo", map[string]string{"Z": name(e.tie0)})
	}
	if e.tie1 >= 0 {
		b.Inst("TIEHI", "__tiehi", map[string]string{"Z": name(e.tie1)})
	}
	for _, fi := range e.leafInsts {
		conns := map[string]string{}
		for i, slot := range fi.conns {
			if slot < 0 {
				continue
			}
			conns[fi.cell.Pins[i].Name] = name(slot)
		}
		b.Inst(fi.cell.Name, fi.name, conns)
	}
	return b.Build()
}

// WriteVerilog renders a flat design as a single structural-Verilog
// module, suitable for re-parsing. Net and instance names keep their
// hierarchical '/' characters via escaped identifiers.
func WriteVerilog(d *Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (", d.Name)
	for i, p := range d.Ports {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(escapeID(p.Name))
	}
	b.WriteString(");\n")
	for _, p := range d.Ports {
		fmt.Fprintf(&b, "  %s %s;\n", p.Dir, escapeID(p.Name))
	}
	names := make([]string, 0, len(d.Nets))
	for _, n := range d.Nets {
		if d.portByName[n.Name] == nil {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  wire %s;\n", escapeID(n))
	}
	// A net carrying several ports (a pass-through) renders as assigns
	// from the net's name-owning port to the others, so re-parsing
	// reconstructs the aliasing.
	for _, n := range d.Nets {
		for _, p := range n.Ports {
			if p.Name != n.Name {
				fmt.Fprintf(&b, "  assign %s = %s;\n", escapeID(p.Name), escapeID(n.Name))
			}
		}
	}
	for _, inst := range d.Insts {
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
	b.WriteString("endmodule\n")
	return b.String()
}

func escapeID(name string) string {
	plain := true
	for i := 0; i < len(name); i++ {
		if !isVlogWordChar(name[i]) || name[i] == '\'' {
			plain = false
			break
		}
	}
	if plain && len(name) > 0 && isIdentStart(name[0]) {
		return name
	}
	return "\\" + name + " "
}
