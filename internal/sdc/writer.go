package sdc

import (
	"fmt"
	"strings"
)

// Write renders a mode back to SDC text. The output re-parses to an
// equivalent mode and is the final artifact of the merging flow.
func Write(m *Mode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Mode: %s\n", m.Name)

	for _, c := range m.Clocks {
		b.WriteString(writeClock(c))
	}
	for _, g := range m.ClockGroups {
		b.WriteString(writeClockGroups(g))
	}
	for _, l := range m.ClockLatencies {
		b.WriteString(writeClockLatency(l))
	}
	for _, u := range m.ClockUncertainties {
		b.WriteString(writeClockUncertainty(u))
	}
	for _, t := range m.ClockTransitions {
		b.WriteString(writeClockTransition(t))
	}
	for _, s := range m.ClockSenses {
		b.WriteString(writeClockSense(s))
	}
	for _, pc := range m.PropagatedClocks {
		b.WriteString(writePropagatedClock(pc))
	}
	for _, ca := range m.Cases {
		fmt.Fprintf(&b, "set_case_analysis %s %s\n", ca.Value, objectArgs(ca.Objects))
	}
	for _, d := range m.Disables {
		b.WriteString(writeDisable(d))
	}
	for _, d := range m.IODelays {
		b.WriteString(writeIODelay(d))
	}
	for _, t := range m.InputTransitions {
		fmt.Fprintf(&b, "set_input_transition%s %g %s\n", minMaxFlag(t.Level), t.Value, objectArgs(t.Ports))
	}
	for _, l := range m.Loads {
		fmt.Fprintf(&b, "set_load %g %s\n", l.Value, objectArgs(l.Ports))
	}
	for _, dc := range m.DrivingCells {
		if dc.CellName != "" {
			fmt.Fprintf(&b, "set_driving_cell -lib_cell %s %s\n", dc.CellName, objectArgs(dc.Ports))
		} else {
			fmt.Fprintf(&b, "set_drive %g %s\n", dc.Resistance, objectArgs(dc.Ports))
		}
	}
	for _, mtb := range m.MaxTimeBorrows {
		fmt.Fprintf(&b, "set_max_time_borrow %g %s\n", mtb.Value, clockAndPinArgs(mtb.Clocks, mtb.Objects))
	}
	for _, e := range m.Exceptions {
		b.WriteString(WriteException(e))
	}
	return b.String()
}

func writeClock(c *Clock) string {
	var b strings.Builder
	if c.Generated {
		fmt.Fprintf(&b, "create_generated_clock -name %s -source %s", quoteName(c.Name), objectArgs(c.MasterPins))
		if c.Master != "" {
			fmt.Fprintf(&b, " -master_clock %s", quoteName(c.Master))
		}
		if c.DivideBy > 1 {
			fmt.Fprintf(&b, " -divide_by %d", c.DivideBy)
		}
		if c.MultiplyBy > 1 {
			fmt.Fprintf(&b, " -multiply_by %d", c.MultiplyBy)
		}
		if c.Invert {
			b.WriteString(" -invert")
		}
	} else {
		fmt.Fprintf(&b, "create_clock -name %s -period %g", quoteName(c.Name), c.Period)
		if len(c.Waveform) == 2 && (c.Waveform[0] != 0 || c.Waveform[1] != c.Period/2) {
			fmt.Fprintf(&b, " -waveform {%g %g}", c.Waveform[0], c.Waveform[1])
		}
	}
	if c.Add {
		b.WriteString(" -add")
	}
	if c.Comment != "" {
		fmt.Fprintf(&b, " -comment %s", quoteText(c.Comment))
	}
	if len(c.Sources) > 0 {
		fmt.Fprintf(&b, " %s", objectArgs(c.Sources))
	}
	b.WriteString("\n")
	return b.String()
}

func writeClockGroups(g *ClockGroups) string {
	var b strings.Builder
	b.WriteString("set_clock_groups")
	if g.Name != "" {
		fmt.Fprintf(&b, " -name %s", quoteName(g.Name))
	}
	fmt.Fprintf(&b, " -%s", g.Kind)
	for _, grp := range g.Groups {
		fmt.Fprintf(&b, " -group [get_clocks {%s}]", strings.Join(grp, " "))
	}
	b.WriteString("\n")
	return b.String()
}

func writeClockLatency(l *ClockLatency) string {
	var b strings.Builder
	b.WriteString("set_clock_latency")
	if l.Source {
		b.WriteString(" -source")
	}
	b.WriteString(minMaxFlag(l.Level))
	switch l.Edge {
	case EdgeRise:
		b.WriteString(" -rise")
	case EdgeFall:
		b.WriteString(" -fall")
	}
	fmt.Fprintf(&b, " %g %s\n", l.Value, clockAndPinArgs(l.Clocks, l.Pins))
	return b.String()
}

func writeClockUncertainty(u *ClockUncertainty) string {
	var b strings.Builder
	b.WriteString("set_clock_uncertainty")
	if u.Setup && !u.Hold {
		b.WriteString(" -setup")
	}
	if u.Hold && !u.Setup {
		b.WriteString(" -hold")
	}
	if u.FromClock != "" {
		fmt.Fprintf(&b, " -from [get_clocks %s] -to [get_clocks %s] %g\n",
			quoteName(u.FromClock), quoteName(u.ToClock), u.Value)
		return b.String()
	}
	fmt.Fprintf(&b, " %g %s\n", u.Value, clockAndPinArgs(u.Clocks, u.Pins))
	return b.String()
}

func writeClockTransition(t *ClockTransition) string {
	return fmt.Sprintf("set_clock_transition%s %g [get_clocks {%s}]\n",
		minMaxFlag(t.Level), t.Value, strings.Join(t.Clocks, " "))
}

func writeClockSense(s *ClockSense) string {
	var b strings.Builder
	b.WriteString("set_clock_sense")
	if s.StopPropagation {
		b.WriteString(" -stop_propagation")
	}
	if s.Positive {
		b.WriteString(" -positive")
	}
	if s.Negative {
		b.WriteString(" -negative")
	}
	if len(s.Clocks) > 0 {
		fmt.Fprintf(&b, " -clock [get_clocks {%s}]", strings.Join(s.Clocks, " "))
	}
	fmt.Fprintf(&b, " %s", objectArgs(s.Pins))
	if s.Comment != "" {
		fmt.Fprintf(&b, " ;# %s", s.Comment)
	}
	b.WriteString("\n")
	return b.String()
}

func writePropagatedClock(pc *PropagatedClock) string {
	return fmt.Sprintf("set_propagated_clock %s\n", clockAndPinArgs(pc.Clocks, pc.Pins))
}

func writeDisable(d *DisableTiming) string {
	var b strings.Builder
	b.WriteString("set_disable_timing")
	if d.FromPin != "" {
		fmt.Fprintf(&b, " -from %s", quoteName(d.FromPin))
	}
	if d.ToPin != "" {
		fmt.Fprintf(&b, " -to %s", quoteName(d.ToPin))
	}
	fmt.Fprintf(&b, " %s", objectArgs(d.Objects))
	if d.Comment != "" {
		fmt.Fprintf(&b, " ;# %s", d.Comment)
	}
	b.WriteString("\n")
	return b.String()
}

func writeIODelay(d *IODelay) string {
	var b strings.Builder
	if d.IsInput {
		b.WriteString("set_input_delay")
	} else {
		b.WriteString("set_output_delay")
	}
	fmt.Fprintf(&b, " %g", d.Value)
	if d.Clock != "" {
		fmt.Fprintf(&b, " -clock [get_clocks %s]", quoteName(d.Clock))
	}
	if d.ClockFall {
		b.WriteString(" -clock_fall")
	}
	b.WriteString(minMaxFlag(d.Level))
	if d.Add {
		b.WriteString(" -add_delay")
	}
	fmt.Fprintf(&b, " %s\n", objectArgs(d.Ports))
	return b.String()
}

// WriteException renders a single exception command.
func WriteException(e *Exception) string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	switch e.Kind {
	case MulticyclePath:
		fmt.Fprintf(&b, " %d", e.Multiplier)
		if e.Start {
			b.WriteString(" -start")
		}
	case MaxDelay, MinDelay:
		fmt.Fprintf(&b, " %g", e.Value)
	}
	switch e.SetupHold {
	case MaxOnly:
		b.WriteString(" -setup")
	case MinOnly:
		b.WriteString(" -hold")
	}
	b.WriteString(pointFlag("from", e.From))
	for _, t := range e.Throughs {
		b.WriteString(pointFlag("through", t))
	}
	b.WriteString(pointFlag("to", e.To))
	if e.Comment != "" {
		fmt.Fprintf(&b, " -comment %s", quoteText(e.Comment))
	}
	b.WriteString("\n")
	return b.String()
}

func pointFlag(base string, pl *PointList) string {
	if pl.Empty() {
		return ""
	}
	flag := base
	switch pl.Edge {
	case EdgeRise:
		flag = "rise_" + base
	case EdgeFall:
		flag = "fall_" + base
	}
	var parts []string
	if len(pl.Clocks) > 0 {
		parts = append(parts, fmt.Sprintf("[get_clocks {%s}]", strings.Join(pl.Clocks, " ")))
	}
	if len(pl.Pins) > 0 {
		parts = append(parts, objectArgs(pl.Pins))
	}
	inner := parts[0]
	if len(parts) > 1 {
		inner = "[list " + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprintf(" -%s %s", flag, inner)
}

// objectArgs renders typed references as the appropriate query commands.
func objectArgs(refs []ObjRef) string {
	var ports, pins, cells []string
	for _, r := range refs {
		switch r.Kind {
		case PortObj:
			ports = append(ports, r.Name)
		case PinObj:
			pins = append(pins, r.Name)
		case CellObj:
			cells = append(cells, r.Name)
		case ClockObj:
			// clocks are written via get_clocks by the callers
		}
	}
	var parts []string
	if len(ports) > 0 {
		parts = append(parts, fmt.Sprintf("[get_ports {%s}]", strings.Join(ports, " ")))
	}
	if len(pins) > 0 {
		parts = append(parts, fmt.Sprintf("[get_pins {%s}]", strings.Join(pins, " ")))
	}
	if len(cells) > 0 {
		parts = append(parts, fmt.Sprintf("[get_cells {%s}]", strings.Join(cells, " ")))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "[list " + strings.Join(parts, " ") + "]"
}

func clockAndPinArgs(clocks []string, pins []ObjRef) string {
	var parts []string
	if len(clocks) > 0 {
		parts = append(parts, fmt.Sprintf("[get_clocks {%s}]", strings.Join(clocks, " ")))
	}
	if len(pins) > 0 {
		parts = append(parts, objectArgs(pins))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "[list " + strings.Join(parts, " ") + "]"
}

func minMaxFlag(m MinMax) string {
	switch m {
	case MinOnly:
		return " -min"
	case MaxOnly:
		return " -max"
	default:
		return ""
	}
}

// quoteText renders free text as a double-quoted Tcl word that reads back
// verbatim: backslash escapes for the quote, backslash, substitution
// characters and line breaks, every other byte as is.
func quoteText(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\', '[', '$':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func quoteName(n string) string {
	if strings.ContainsAny(n, " \t[]{}$\"") {
		return "{" + n + "}"
	}
	return n
}
