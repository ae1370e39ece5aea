package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// DesignSpec parameterizes a synthetic industrial-shaped design: several
// clock domains, each with a buffered clock tree, a test-clock mux and
// clock-gated functional blocks; blocks are register pipelines with
// random reconvergent combinational clouds and external scan muxes in
// front of every register.
type DesignSpec struct {
	Name string
	Seed int64
	// Domains is the number of functional clock domains.
	Domains int
	// BlocksPerDomain is the number of gated blocks per domain.
	BlocksPerDomain int
	// Stages is the pipeline depth per block.
	Stages int
	// RegsPerStage is the register count per pipeline stage.
	RegsPerStage int
	// CloudDepth is the combinational depth between stages.
	CloudDepth int
	// CrossPaths adds register paths between adjacent domains.
	CrossPaths int
	// IOPairs adds input→logic and logic→output port paths per domain.
	IOPairs int
}

// Validate fills defaults and sanity-checks the spec.
func (s *DesignSpec) Validate() error {
	if s.Name == "" {
		s.Name = "synth"
	}
	if s.Domains <= 0 {
		s.Domains = 2
	}
	if s.BlocksPerDomain <= 0 {
		s.BlocksPerDomain = 2
	}
	if s.Stages <= 0 {
		s.Stages = 3
	}
	if s.RegsPerStage <= 0 {
		s.RegsPerStage = 4
	}
	if s.CloudDepth <= 0 {
		s.CloudDepth = 3
	}
	if s.CrossPaths < 0 || s.IOPairs < 0 {
		return fmt.Errorf("gen: negative path counts")
	}
	if s.IOPairs == 0 {
		s.IOPairs = 2
	}
	return nil
}

// CellEstimate approximates the generated cell count.
func (s DesignSpec) CellEstimate() int {
	perBlock := s.Stages * s.RegsPerStage * (2 + s.CloudDepth)
	return s.Domains * (s.BlocksPerDomain*perBlock + 10)
}

// Generated bundles the design with the structural handles the mode
// generator needs.
type Generated struct {
	Design *netlist.Design
	Spec   DesignSpec

	// ClockPorts per domain, plus the shared test clock port.
	ClockPorts []string
	TestClock  string
	// TestMode and ScanEn are the global control ports.
	TestMode string
	ScanEn   string
	// BlockEnables[d][b] is the clock-gate enable port of a block.
	BlockEnables [][]string
	// BlockFirstRegs[d][b] / BlockLastRegs[d][b] name representative
	// registers (instance names) for exceptions.
	BlockFirstRegs [][]string
	BlockLastRegs  [][]string
	// CrossRegPairs lists (fromReg, toReg) register instance names of
	// cross-domain paths.
	CrossRegPairs [][2]string
	// DataIn / DataOut per domain.
	DataIn  [][]string
	DataOut [][]string
}

// Generate builds the synthetic design deterministically from the spec's
// seed.
func Generate(spec DesignSpec) (*Generated, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := netlist.NewBuilder(spec.Name, library.Default())
	g := &Generated{Spec: spec}

	g.TestClock = "test_clk"
	g.TestMode = "test_mode"
	g.ScanEn = "scan_en"
	b.Port(g.TestClock, netlist.In)
	b.Port(g.TestMode, netlist.In)
	b.Port(g.ScanEn, netlist.In)

	comb := []string{"AND2", "OR2", "NAND2", "NOR2", "XOR2", "AOI21", "OAI21"}

	netCount := 0
	newNet := func(prefix string) string {
		netCount++
		return fmt.Sprintf("%s_n%d", prefix, netCount)
	}

	for d := 0; d < spec.Domains; d++ {
		clkPort := fmt.Sprintf("clk_%d", d)
		b.Port(clkPort, netlist.In)
		g.ClockPorts = append(g.ClockPorts, clkPort)

		// Domain clock: mux between the functional clock and the test
		// clock, then a small buffer tree.
		dmux := fmt.Sprintf("d%d_clkmux", d)
		muxOut := newNet(dmux)
		b.Inst("MUX2", dmux, map[string]string{
			"I0": clkPort, "I1": g.TestClock, "S": g.TestMode, "Z": muxOut})
		rootBuf := fmt.Sprintf("d%d_clkbuf", d)
		rootNet := newNet(rootBuf)
		b.Inst("CLKBUF", rootBuf, map[string]string{"A": muxOut, "Z": rootNet})

		g.BlockEnables = append(g.BlockEnables, nil)
		g.BlockFirstRegs = append(g.BlockFirstRegs, nil)
		g.BlockLastRegs = append(g.BlockLastRegs, nil)
		g.DataIn = append(g.DataIn, nil)
		g.DataOut = append(g.DataOut, nil)

		// IO ports for the domain.
		var inPorts, outPorts []string
		for i := 0; i < spec.IOPairs; i++ {
			in := fmt.Sprintf("d%d_in%d", d, i)
			out := fmt.Sprintf("d%d_out%d", d, i)
			b.Port(in, netlist.In)
			b.Port(out, netlist.Out)
			inPorts = append(inPorts, in)
			outPorts = append(outPorts, out)
		}
		g.DataIn[d] = inPorts
		g.DataOut[d] = outPorts

		for blk := 0; blk < spec.BlocksPerDomain; blk++ {
			prefix := fmt.Sprintf("d%d_b%d", d, blk)
			enPort := fmt.Sprintf("%s_en", prefix)
			b.Port(enPort, netlist.In)
			g.BlockEnables[d] = append(g.BlockEnables[d], enPort)

			// Clock gate: test_mode forces the clock on.
			orName := prefix + "_enor"
			enNet := newNet(orName)
			b.Inst("OR2", orName, map[string]string{"A": enPort, "B": g.TestMode, "Z": enNet})
			icg := prefix + "_icg"
			gclk := newNet(icg)
			b.Inst("ICG", icg, map[string]string{"CK": rootNet, "EN": enNet, "GCK": gclk})

			// Pipeline stages. Stage data[i] are the nets feeding stage i.
			width := spec.RegsPerStage
			data := make([]string, width)
			for i := range data {
				src := inPorts[i%len(inPorts)]
				data[i] = src
			}
			var prevScanQ string
			for st := 0; st < spec.Stages; st++ {
				regQ := make([]string, width)
				for r := 0; r < width; r++ {
					reg := fmt.Sprintf("%s_s%d_r%d", prefix, st, r)
					q := newNet(reg)
					// External scan mux in front of D: functional data
					// or the previous register's Q under scan_en.
					si := prevScanQ
					if si == "" {
						si = inPorts[0]
					}
					smux := reg + "_smux"
					dNet := newNet(smux)
					b.Inst("MUX2", smux, map[string]string{
						"I0": data[r], "I1": si, "S": g.ScanEn, "Z": dNet})
					b.Inst("DFF", reg, map[string]string{"CP": gclk, "D": dNet, "Q": q})
					regQ[r] = q
					prevScanQ = q
					if st == 0 && r == 0 {
						g.BlockFirstRegs[d] = append(g.BlockFirstRegs[d], reg)
					}
					if st == spec.Stages-1 && r == 0 {
						g.BlockLastRegs[d] = append(g.BlockLastRegs[d], reg)
					}
				}
				// Combinational cloud to the next stage (or outputs).
				next := make([]string, width)
				cur := append([]string(nil), regQ...)
				for depth := 0; depth < spec.CloudDepth; depth++ {
					out := make([]string, width)
					for r := 0; r < width; r++ {
						cell := comb[rng.Intn(len(comb))]
						gname := fmt.Sprintf("%s_s%d_c%d_%d", prefix, st, depth, r)
						z := newNet(gname)
						conns := map[string]string{"Z": z}
						ins := library.Default().Cell(cell).Inputs()
						for k, pin := range ins {
							// Reconvergence: random fan-in from this
							// stage's signals.
							conns[pin] = cur[(r+k*rng.Intn(width)+k)%width]
						}
						b.Inst(cell, gname, conns)
						out[r] = z
					}
					cur = out
				}
				copy(next, cur)
				data = next
			}
			// Drive outputs from the last stage.
			for i, out := range outPorts {
				if blk == 0 {
					bufName := fmt.Sprintf("%s_obuf%d", prefix, i)
					b.Inst("BUF", bufName, map[string]string{"A": data[i%len(data)], "Z": out})
				}
			}
			_ = rng
		}
	}

	// Cross-domain register paths.
	for i := 0; i < spec.CrossPaths && spec.Domains > 1; i++ {
		from := i % spec.Domains
		to := (i + 1) % spec.Domains
		fromReg := g.BlockLastRegs[from][i%len(g.BlockLastRegs[from])]
		toBlk := i % len(g.BlockFirstRegs[to])
		prefix := fmt.Sprintf("x%d", i)
		// A buffer from the source register's Q into an extra capture
		// register in the target domain.
		srcInst := b.MustPinNet(fromReg, "Q")
		xbuf := prefix + "_buf"
		xnet := fmt.Sprintf("%s_n", prefix)
		b.Inst("BUF", xbuf, map[string]string{"A": srcInst, "Z": xnet})
		xreg := prefix + "_reg"
		gclkNet := b.MustPinNet(g.BlockFirstRegs[to][toBlk], "CP")
		b.Inst("DFF", xreg, map[string]string{"CP": gclkNet, "D": xnet, "Q": prefix + "_q"})
		g.CrossRegPairs = append(g.CrossRegPairs, [2]string{fromReg, xreg})
	}

	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.Design = d
	return g, nil
}

// modeBuilder accumulates SDC text.
type modeBuilder struct {
	b strings.Builder
}

func (m *modeBuilder) addf(format string, args ...any) {
	fmt.Fprintf(&m.b, format+"\n", args...)
}

// ModeSDC is one generated timing mode as SDC text.
type ModeSDC struct {
	Name string
	Text string
}

// FamilySpec parameterizes a generated mode family. Groups are mutually
// non-mergeable (their port input-transition values differ beyond any
// reasonable tolerance); modes within a group are mergeable variants
// (functional / scan-shift / test configurations with differing cases and
// exceptions).
type FamilySpec struct {
	// Groups is the number of non-mergeable groups (the expected merged
	// mode count).
	Groups int
	// ModesPerGroup lists the size of each group; len must equal Groups.
	ModesPerGroup []int
	// BasePeriod is the fastest functional clock period.
	BasePeriod float64
	// FunctionalOnly replaces the scan-shift and test-capture variants
	// (v=1, v=2) with functional variants of the same index, so every
	// mode of a group creates the same clocks with the same periods.
	// Such families are the ones whose merged clock namespace stays
	// shared across members, so member relation maps compare key for key.
	FunctionalOnly bool
	// Corners is the number of operating corners of the scenario matrix
	// (see CornerSet); 0 means corner-less analysis.
	Corners int
}

// TotalModes sums the group sizes.
func (f FamilySpec) TotalModes() int {
	total := 0
	for _, n := range f.ModesPerGroup {
		total += n
	}
	return total
}

// Modes generates the SDC text of every mode of the family against the
// generated design. Within a group, mode variant v cycles through:
//
//	v=0: functional — domain clocks, clock-gate enables on, per-domain IO
//	     delays, cross-domain false paths, an MCP on one block.
//	v=1: scan shift — a slow clock on the test clock port only,
//	     test_mode=1, scan_en=1.
//	v=2: test capture — domain clocks plus a divided generated clock on
//	     domain 0, test_mode=0, alternating block enables.
//	v≥3: functional variants — different block-enable cases and different
//	     per-variant false paths / multicycles.
func (g *Generated) Modes(f FamilySpec) []ModeSDC {
	return g.ModesWithExtra(f, nil)
}

// ModesWithExtra generates the family like Modes, then appends the SDC
// lines returned by extra(grp, v) to each mode's text. It is the
// perturbation hook the differential fuzzing harness uses to inject
// randomized per-mode constraints (extra exceptions, case analysis,
// disabled arcs) without re-deriving the structural handles. A nil extra
// is allowed and means no perturbation.
func (g *Generated) ModesWithExtra(f FamilySpec, extra func(grp, v int) []string) []ModeSDC {
	if f.BasePeriod <= 0 {
		f.BasePeriod = 2.0
	}
	var out []ModeSDC
	for grp := 0; grp < f.Groups; grp++ {
		// Group signature: an input-transition value incompatible across
		// groups.
		tr := 0.05 * float64(1+grp*3)
		for v := 0; v < f.ModesPerGroup[grp]; v++ {
			name := fmt.Sprintf("g%d_m%d", grp, v)
			m := &modeBuilder{}
			m.addf("# mode %s", name)
			// Real SDC files set pad constraints in Tcl loops; exercise
			// the interpreter's control flow the same way.
			m.addf("foreach __p {%s} {", strings.Join(g.allDataIns(), " "))
			m.addf("  set_input_transition %.4g [get_ports $__p]", tr)
			m.addf("}")
			switch {
			case !f.FunctionalOnly && v == 1:
				g.scanShiftMode(m, f, grp)
			case !f.FunctionalOnly && v == 2:
				g.testCaptureMode(m, f, grp)
			default:
				g.functionalMode(m, f, grp, v)
			}
			if extra != nil {
				for _, line := range extra(grp, v) {
					m.addf("%s", line)
				}
			}
			out = append(out, ModeSDC{Name: name, Text: m.b.String()})
		}
	}
	return out
}

// CornerSet renders f.Corners deterministic operating corners, modelled
// on a voltage/temperature sweep: corner 0 is the typical point (neutral
// factors, no overlay); odd corners lean slow — rising global and late
// derates, growing check margins, and an SDC overlay adding pad load on
// the data outputs; even corners lean fast — shrinking delays with an
// extra early derate, and an overlay tightening the data-input
// transitions. Overlays reference only ports (which exist in every mode
// of every family, unlike clocks) and never create clocks, as the merge
// engine requires.
func (g *Generated) CornerSet(f FamilySpec) []library.Corner {
	if f.Corners <= 0 {
		return nil
	}
	out := make([]library.Corner, f.Corners)
	for c := range out {
		crn := library.Corner{Name: fmt.Sprintf("c%d", c)}
		switch {
		case c == 0:
			// Typical: the neutral corner.
		case c%2 == 1:
			crn.DelayScale = 1 + 0.05*float64(c)
			crn.LateScale = 1.05
			crn.MarginScale = 1 + 0.1*float64(c)
			var b strings.Builder
			for d := range g.DataOut {
				for _, outp := range g.DataOut[d] {
					fmt.Fprintf(&b, "set_load %.4g [get_ports %s]\n", 0.02*float64(c+1), outp)
				}
			}
			crn.SDC = b.String()
		default:
			crn.DelayScale = 1 / (1 + 0.04*float64(c))
			crn.EarlyScale = 0.95
			var b strings.Builder
			for _, in := range g.allDataIns() {
				fmt.Fprintf(&b, "set_input_transition %.4g [get_ports %s]\n", 0.03*float64(c), in)
			}
			crn.SDC = b.String()
		}
		out[c] = crn
	}
	return out
}

func (g *Generated) allDataIns() []string {
	var out []string
	for _, ins := range g.DataIn {
		out = append(out, ins...)
	}
	return out
}

func (g *Generated) functionalMode(m *modeBuilder, f FamilySpec, grp, v int) {
	for d, port := range g.ClockPorts {
		period := f.BasePeriod * float64(d+1)
		m.addf("create_clock -name clk_d%d -period %.4g [get_ports %s]", d, period, port)
	}
	m.addf("set_case_analysis 0 [get_ports %s]", g.TestMode)
	m.addf("set_case_analysis 0 [get_ports %s]", g.ScanEn)
	// Block enables: variants disable different blocks.
	for d := range g.BlockEnables {
		for blk, en := range g.BlockEnables[d] {
			val := 1
			if (blk+v)%3 == 0 && v >= 3 {
				val = 0
			}
			m.addf("set_case_analysis %d [get_ports %s]", val, en)
		}
	}
	// IO delays referenced to the domain clocks.
	for d := range g.DataIn {
		for _, in := range g.DataIn[d] {
			m.addf("set_input_delay %.4g -clock clk_d%d [get_ports %s]", 0.2*f.BasePeriod, d, in)
		}
		for _, outp := range g.DataOut[d] {
			m.addf("set_output_delay %.4g -clock clk_d%d [get_ports %s]", 0.2*f.BasePeriod, d, outp)
		}
	}
	// Cross-domain false paths (asynchronous crossings in functional
	// mode).
	for _, pair := range g.CrossRegPairs {
		m.addf("set_false_path -from [get_pins %s/CP] -to [get_pins %s/D]", pair[0], pair[1])
	}
	// A multicycle on one block's last stage, varying per variant.
	if len(g.BlockLastRegs) > 0 && len(g.BlockLastRegs[0]) > 0 {
		blk := v % len(g.BlockLastRegs[0])
		m.addf("set_multicycle_path 2 -setup -from [get_pins %s/CP]", g.BlockLastRegs[0][blk])
	}
	// Variant-specific false path.
	if v >= 3 && len(g.BlockFirstRegs) > 0 {
		d := v % len(g.BlockFirstRegs)
		blk := v % len(g.BlockFirstRegs[d])
		m.addf("set_false_path -from [get_pins %s/CP]", g.BlockFirstRegs[d][blk])
	}
}

func (g *Generated) scanShiftMode(m *modeBuilder, f FamilySpec, grp int) {
	m.addf("create_clock -name scan_clk -period %.4g [get_ports %s]", 4*f.BasePeriod, g.TestClock)
	m.addf("set_case_analysis 1 [get_ports %s]", g.TestMode)
	m.addf("set_case_analysis 1 [get_ports %s]", g.ScanEn)
	for d := range g.BlockEnables {
		for _, en := range g.BlockEnables[d] {
			m.addf("set_case_analysis 1 [get_ports %s]", en)
		}
	}
	for _, in := range g.allDataIns() {
		m.addf("set_input_delay %.4g -clock scan_clk [get_ports %s]", f.BasePeriod, in)
	}
	for d := range g.DataOut {
		for _, outp := range g.DataOut[d] {
			m.addf("set_output_delay %.4g -clock scan_clk [get_ports %s]", f.BasePeriod, outp)
		}
	}
	m.addf("set_clock_uncertainty 0.1 [get_clocks scan_clk]")
}

func (g *Generated) testCaptureMode(m *modeBuilder, f FamilySpec, grp int) {
	for d, port := range g.ClockPorts {
		period := f.BasePeriod * float64(d+1)
		m.addf("create_clock -name clk_d%d -period %.4g [get_ports %s]", d, period, port)
	}
	// Divided capture clock on domain 0's gated tree.
	m.addf("create_generated_clock -name cap_div2 -source [get_ports %s] -divide_by 2 [get_pins d0_clkbuf/Z]",
		g.ClockPorts[0])
	m.addf("set_case_analysis 0 [get_ports %s]", g.TestMode)
	m.addf("set_case_analysis 0 [get_ports %s]", g.ScanEn)
	for d := range g.BlockEnables {
		for blk, en := range g.BlockEnables[d] {
			m.addf("set_case_analysis %d [get_ports %s]", (blk+1)%2, en)
		}
	}
	// Board-level delays are shared with the functional modes (the same
	// pads and the same reference clocks).
	for d := range g.DataIn {
		clock := fmt.Sprintf("clk_d%d", d)
		for _, in := range g.DataIn[d] {
			m.addf("set_input_delay %.4g -clock %s [get_ports %s]", 0.2*f.BasePeriod, clock, in)
		}
		for _, outp := range g.DataOut[d] {
			m.addf("set_output_delay %.4g -clock %s [get_ports %s]", 0.2*f.BasePeriod, clock, outp)
		}
	}
	for _, pair := range g.CrossRegPairs {
		m.addf("set_false_path -from [get_pins %s/CP] -to [get_pins %s/D]", pair[0], pair[1])
	}
}
