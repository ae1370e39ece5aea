package core

import (
	"fmt"
	"math"
	"sort"

	"modemerge/internal/library"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// preliminary runs §3.1: the preliminary mode merging steps, each under
// its own child span of sp.
func (mg *Merger) preliminary(sp *obs.Span) error {
	step := func(name string, fn func()) {
		c := sp.Child(name)
		fn()
		c.Finish()
	}
	step("clock_union", mg.unionClocks)                 // §3.1.1
	step("clock_constraints", mg.mergeClockConstraints) // §3.1.2
	step("io_delays", mg.unionIODelays)                 // §3.1.3
	step("case_intersect", mg.intersectCases)           // §3.1.4
	step("disable_intersect", mg.intersectDisables)     // §3.1.5
	step("drive_load", mg.mergeDriveLoad)               // §3.1.6
	step("clock_exclusivity", mg.inferClockExclusivity) // §3.1.7
	c := sp.Child("exception_merge")                    // §3.1.9 + §3.1.10
	err := mg.mergeExceptions()
	c.Finish()
	return err
}

// modeNames maps mode indices to names.
func (mg *Merger) modeNames(idx []int) []string {
	out := make([]string, len(idx))
	for i, m := range idx {
		out[i] = mg.modes[m].Name
	}
	return out
}

// clockUnionKey identifies duplicate clocks across modes: same sources and
// waveform (§3.1.1), and for generated clocks the same derivation from the
// same (merged) master.
func (mg *Merger) clockUnionKey(m int, c *sdc.Clock) string {
	key := c.SourceKey() + "|" + c.WaveformKey()
	if c.Generated {
		key += "|" + c.GenKey() + "|" + mg.cmap.mapName(m, c.Master)
	}
	return key
}

// unionClocks implements §3.1.1: iterate all clocks of all modes, add each
// non-duplicate to the merged mode, renaming on conflicts, and build the
// two-way clock map.
func (mg *Merger) unionClocks() {
	byKey := map[string]string{} // union key → merged name
	taken := map[string]bool{}
	for m, mode := range mg.modes {
		mg.cmap.toMerged[m] = map[string]string{}
		for _, c := range mode.Clocks {
			key := mg.clockUnionKey(m, c)
			if mergedName, dup := byKey[key]; dup {
				mg.cmap.toMerged[m][c.Name] = mergedName
				mg.cmap.members[mergedName][m] = c.Name
				continue
			}
			name := c.Name
			for i := 1; taken[name]; i++ {
				name = fmt.Sprintf("%s_%d", c.Name, i)
			}
			if name != c.Name {
				mg.Report.RenamedClocks++
				mg.Report.prov(obs.Provenance{
					Stage:      "prelim/clock_union",
					Rule:       "§3.1.1 clock union",
					Action:     obs.ActionRename,
					Constraint: fmt.Sprintf("create_clock %s -> %s", c.Name, name),
					Clocks:     []string{name},
					Modes:      []string{mode.Name},
					Detail:     "name collides with a non-duplicate clock of an earlier mode",
				})
			}
			taken[name] = true
			byKey[key] = name

			mc := *c
			mc.Name = name
			mc.Waveform = append([]float64(nil), c.Waveform...)
			mc.Sources = append([]sdc.ObjRef(nil), c.Sources...)
			if c.Generated {
				mc.MasterPins = append([]sdc.ObjRef(nil), c.MasterPins...)
				mc.Master = mg.cmap.mapName(m, c.Master)
			}
			// Every merged clock coexists with others on possibly shared
			// sources; -add keeps them from replacing one another.
			if len(mc.Sources) > 0 {
				mc.Add = true
			}
			mg.merged.Clocks = append(mg.merged.Clocks, &mc)
			mg.cmap.order = append(mg.cmap.order, name)
			members := make([]string, len(mg.modes))
			members[m] = c.Name
			mg.cmap.members[name] = members
			mg.cmap.toMerged[m][c.Name] = name
		}
	}
	mg.Report.MergedClocks = len(mg.merged.Clocks)
}

// mergeClockConstraints implements §3.1.2: latency, uncertainty and
// transition constraints merge per merged clock, picking the minimum of
// min values and the maximum of max values.
func (mg *Merger) mergeClockConstraints() {
	type latAcc struct {
		min, max float64
		has      bool
	}
	// (merged clock, source?) → accumulated latency.
	lat := map[string]*latAcc{}
	latKey := func(clock string, source bool) string {
		if source {
			return clock + "\x00src"
		}
		return clock
	}
	uncSetup := map[string]float64{}
	uncHold := map[string]float64{}
	uncHas := map[string][2]bool{}
	interUnc := map[[2]string][2]float64{}
	interHas := map[[2]string][2]bool{}
	type trAcc struct {
		min, max float64
		has      bool
	}
	trans := map[string]*trAcc{}
	propagated := map[string]bool{}

	for m, mode := range mg.modes {
		for _, l := range mode.ClockLatencies {
			for _, cn := range l.Clocks {
				k := latKey(mg.cmap.mapName(m, cn), l.Source)
				a := lat[k]
				if a == nil {
					a = &latAcc{min: math.Inf(1), max: math.Inf(-1)}
					lat[k] = a
				}
				a.has = true
				if l.Level != sdc.MaxOnly && l.Value < a.min {
					a.min = l.Value
				}
				if l.Level != sdc.MinOnly && l.Value > a.max {
					a.max = l.Value
				}
			}
		}
		for _, u := range mode.ClockUncertainties {
			if u.FromClock != "" {
				k := [2]string{mg.cmap.mapName(m, u.FromClock), mg.cmap.mapName(m, u.ToClock)}
				v, h := interUnc[k], interHas[k]
				if u.Setup {
					v[0] = math.Max(v[0], u.Value)
					h[0] = true
				}
				if u.Hold {
					v[1] = math.Max(v[1], u.Value)
					h[1] = true
				}
				interUnc[k], interHas[k] = v, h
				continue
			}
			for _, cn := range u.Clocks {
				k := mg.cmap.mapName(m, cn)
				h := uncHas[k]
				if u.Setup {
					uncSetup[k] = math.Max(uncSetup[k], u.Value)
					h[0] = true
				}
				if u.Hold {
					uncHold[k] = math.Max(uncHold[k], u.Value)
					h[1] = true
				}
				uncHas[k] = h
			}
		}
		for _, tr := range mode.ClockTransitions {
			for _, cn := range tr.Clocks {
				k := mg.cmap.mapName(m, cn)
				a := trans[k]
				if a == nil {
					a = &trAcc{min: math.Inf(1), max: math.Inf(-1)}
					trans[k] = a
				}
				a.has = true
				if tr.Level != sdc.MaxOnly && tr.Value < a.min {
					a.min = tr.Value
				}
				if tr.Level != sdc.MinOnly && tr.Value > a.max {
					a.max = tr.Value
				}
			}
		}
		for _, pc := range mode.PropagatedClocks {
			for _, cn := range pc.Clocks {
				propagated[mg.cmap.mapName(m, cn)] = true
			}
		}
	}

	emitMinMax := func(clock string, source bool, a *latAcc) {
		if !a.has {
			return
		}
		minV, maxV := a.min, a.max
		if math.IsInf(minV, 1) {
			minV = maxV
		}
		if math.IsInf(maxV, -1) {
			maxV = minV
		}
		if minV == maxV {
			mg.merged.ClockLatencies = append(mg.merged.ClockLatencies,
				&sdc.ClockLatency{Value: minV, Source: source, Clocks: []string{clock}})
			return
		}
		mg.merged.ClockLatencies = append(mg.merged.ClockLatencies,
			&sdc.ClockLatency{Value: minV, Level: sdc.MinOnly, Source: source, Clocks: []string{clock}},
			&sdc.ClockLatency{Value: maxV, Level: sdc.MaxOnly, Source: source, Clocks: []string{clock}})
	}
	for _, name := range mg.cmap.order {
		if a := lat[latKey(name, false)]; a != nil {
			emitMinMax(name, false, a)
		}
		if a := lat[latKey(name, true)]; a != nil {
			emitMinMax(name, true, a)
		}
		if h := uncHas[name]; h[0] || h[1] {
			if h[0] && h[1] && uncSetup[name] == uncHold[name] {
				mg.merged.ClockUncertainties = append(mg.merged.ClockUncertainties,
					&sdc.ClockUncertainty{Value: uncSetup[name], Setup: true, Hold: true, Clocks: []string{name}})
			} else {
				if h[0] {
					mg.merged.ClockUncertainties = append(mg.merged.ClockUncertainties,
						&sdc.ClockUncertainty{Value: uncSetup[name], Setup: true, Clocks: []string{name}})
				}
				if h[1] {
					mg.merged.ClockUncertainties = append(mg.merged.ClockUncertainties,
						&sdc.ClockUncertainty{Value: uncHold[name], Hold: true, Clocks: []string{name}})
				}
			}
		}
		if a := trans[name]; a != nil && a.has {
			minV, maxV := a.min, a.max
			if math.IsInf(minV, 1) {
				minV = maxV
			}
			if math.IsInf(maxV, -1) {
				maxV = minV
			}
			if minV == maxV {
				mg.merged.ClockTransitions = append(mg.merged.ClockTransitions,
					&sdc.ClockTransition{Value: minV, Clocks: []string{name}})
			} else {
				mg.merged.ClockTransitions = append(mg.merged.ClockTransitions,
					&sdc.ClockTransition{Value: minV, Level: sdc.MinOnly, Clocks: []string{name}},
					&sdc.ClockTransition{Value: maxV, Level: sdc.MaxOnly, Clocks: []string{name}})
			}
		}
		if propagated[name] {
			mg.merged.PropagatedClocks = append(mg.merged.PropagatedClocks,
				&sdc.PropagatedClock{Clocks: []string{name}})
		}
	}
	var interKeys [][2]string
	for k := range interUnc {
		interKeys = append(interKeys, k)
	}
	sort.Slice(interKeys, func(i, j int) bool {
		return interKeys[i][0]+interKeys[i][1] < interKeys[j][0]+interKeys[j][1]
	})
	for _, k := range interKeys {
		v, h := interUnc[k], interHas[k]
		u := &sdc.ClockUncertainty{FromClock: k[0], ToClock: k[1], Setup: h[0], Hold: h[1]}
		u.Value = math.Max(v[0], v[1])
		mg.merged.ClockUncertainties = append(mg.merged.ClockUncertainties, u)
	}
}

// unionIODelays implements §3.1.3: every unique external delay (with its
// reference clock mapped) joins the merged mode with -add_delay.
func (mg *Merger) unionIODelays() {
	seen := map[string]bool{}
	for m, mode := range mg.modes {
		for _, d := range mode.IODelays {
			nd := *d
			nd.Ports = append([]sdc.ObjRef(nil), d.Ports...)
			if d.Clock != "" {
				nd.Clock = mg.cmap.mapName(m, d.Clock)
			}
			nd.Add = true
			key := nd.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			mg.merged.IODelays = append(mg.merged.IODelays, &nd)
		}
	}
}

// intersectCases implements §3.1.4: case analysis present in every mode
// with a consistent value joins the merged mode; objects that are cased in
// every mode with conflicting values never toggle in any mode and
// translate to set_disable_timing; the rest are dropped (the refinement
// phase will precisely disable any extra paths).
func (mg *Merger) intersectCases() {
	type caseInfo struct {
		values   map[int]string // mode → value string ("0"/"1")
		obj      sdc.ObjRef
		conflict bool
	}
	byObj := map[string]*caseInfo{}
	var order []string
	modesOf := func(info *caseInfo) []string {
		var idx []int
		for m := range info.values {
			idx = append(idx, m)
		}
		sort.Ints(idx)
		return mg.modeNames(idx)
	}
	for m, mode := range mg.modes {
		for _, ca := range mode.Cases {
			for _, obj := range ca.Objects {
				key := obj.String()
				info := byObj[key]
				if info == nil {
					info = &caseInfo{values: map[int]string{}, obj: obj}
					byObj[key] = info
					order = append(order, key)
				}
				v := ca.Value.String()
				if prev, ok := info.values[m]; ok && prev != v {
					info.conflict = true
				}
				info.values[m] = v
			}
		}
	}
	for _, key := range order {
		info := byObj[key]
		allModes := len(info.values) == len(mg.modes)
		same := !info.conflict
		if same && allModes {
			first := info.values[0]
			for _, v := range info.values {
				if v != first {
					same = false
					break
				}
			}
			if same {
				val := parseLogic(first)
				mg.merged.Cases = append(mg.merged.Cases,
					&sdc.CaseAnalysis{Value: val, Objects: []sdc.ObjRef{info.obj}})
				continue
			}
		}
		if allModes {
			// Cased in every mode with conflicting values: the object
			// never toggles in any individual mode, so disabling timing
			// through it is exact (§3.1.8's inferred CSTR1/CSTR2).
			mg.merged.Disables = append(mg.merged.Disables, &sdc.DisableTiming{
				Objects:  []sdc.ObjRef{info.obj},
				Inferred: true,
				Comment:  "inferred: case-analysis values conflict across merged modes",
			})
			mg.Report.TranslatedCases++
			mg.Report.prov(obs.Provenance{
				Stage:      "prelim/case_intersect",
				Rule:       "§3.1.4 case-analysis intersection",
				Action:     obs.ActionTranslate,
				Constraint: "set_case_analysis -> set_disable_timing " + info.obj.String(),
				Pins:       []string{info.obj.String()},
				Modes:      modesOf(info),
				Detail:     "cased in every mode with conflicting values; object never toggles",
			})
			continue
		}
		mg.Report.DroppedCases++
		mg.Report.prov(obs.Provenance{
			Stage:      "prelim/case_intersect",
			Rule:       "§3.1.4 case-analysis intersection",
			Action:     obs.ActionDrop,
			Constraint: "set_case_analysis " + info.obj.String(),
			Pins:       []string{info.obj.String()},
			Modes:      modesOf(info),
			Detail:     "not cased consistently in every mode; refinement restores precision",
		})
	}
}

func parseLogic(s string) library.Logic {
	if s == "1" {
		return library.L1
	}
	return library.L0
}

// intersectDisables implements §3.1.5: only disables present in every mode
// survive.
func (mg *Merger) intersectDisables() {
	counts := map[string]int{}
	first := map[string]*sdc.DisableTiming{}
	var order []string
	for m, mode := range mg.modes {
		seenInMode := map[string]bool{}
		for _, d := range mode.Disables {
			key := d.Key()
			if seenInMode[key] {
				continue
			}
			seenInMode[key] = true
			counts[key]++
			if m == 0 {
				first[key] = d
				order = append(order, key)
			}
		}
	}
	for _, key := range order {
		if counts[key] == len(mg.modes) {
			d := *first[key]
			d.Objects = append([]sdc.ObjRef(nil), first[key].Objects...)
			mg.merged.Disables = append(mg.merged.Disables, &d)
			continue
		}
		mg.Report.prov(obs.Provenance{
			Stage:      "prelim/disable_intersect",
			Rule:       "§3.1.5 disable intersection",
			Action:     obs.ActionDrop,
			Constraint: "set_disable_timing " + key,
			Detail: fmt.Sprintf("present in %d of %d modes; only disables common to all modes survive",
				counts[key], len(mg.modes)),
		})
	}
}

// mergeDriveLoad implements §3.1.6: drive and load constraints must agree
// across modes within the tolerance; the merged mode takes the pessimistic
// (larger) value.
func (mg *Merger) mergeDriveLoad() {
	type acc struct {
		value float64
		n     int
		ok    bool
	}
	inputTr := map[string]*acc{}
	loads := map[string]*acc{}
	drives := map[string]*acc{}
	drivingCells := map[string]string{}
	var trOrder, loadOrder, drvOrder []string

	collect := func(m map[string]*acc, order *[]string, key string, v float64) *acc {
		a := m[key]
		if a == nil {
			a = &acc{value: v, ok: true}
			m[key] = a
			*order = append(*order, key)
		} else {
			if !within(a.value, v, mg.opt.Tolerance) {
				a.ok = false
			}
			a.value = math.Max(a.value, v)
		}
		a.n++
		return a
	}

	for _, mode := range mg.modes {
		for _, tr := range mode.InputTransitions {
			for _, p := range tr.Ports {
				collect(inputTr, &trOrder, p.Name, tr.Value)
			}
		}
		for _, l := range mode.Loads {
			for _, p := range l.Ports {
				collect(loads, &loadOrder, p.Name, l.Value)
			}
		}
		for _, dc := range mode.DrivingCells {
			for _, p := range dc.Ports {
				if dc.CellName != "" {
					if prev, ok := drivingCells[p.Name]; ok && prev != dc.CellName {
						mg.Report.warnf("set_driving_cell on %s differs across modes (%s vs %s); keeping %s",
							p.Name, prev, dc.CellName, prev)
						continue
					}
					drivingCells[p.Name] = dc.CellName
				} else {
					collect(drives, &drvOrder, p.Name, dc.Resistance)
				}
			}
		}
	}
	for _, p := range trOrder {
		a := inputTr[p]
		if !a.ok {
			mg.Report.warnf("set_input_transition on %s beyond tolerance across modes; using max %g", p, a.value)
		}
		mg.merged.InputTransitions = append(mg.merged.InputTransitions,
			&sdc.InputTransition{Value: a.value, Ports: []sdc.ObjRef{{Kind: sdc.PortObj, Name: p}}})
	}
	for _, p := range loadOrder {
		a := loads[p]
		if !a.ok {
			mg.Report.warnf("set_load on %s beyond tolerance across modes; using max %g", p, a.value)
		}
		mg.merged.Loads = append(mg.merged.Loads,
			&sdc.PortLoad{Value: a.value, Ports: []sdc.ObjRef{{Kind: sdc.PortObj, Name: p}}})
	}
	for _, p := range drvOrder {
		a := drives[p]
		if !a.ok {
			mg.Report.warnf("set_drive on %s beyond tolerance across modes; using max %g", p, a.value)
		}
		mg.merged.DrivingCells = append(mg.merged.DrivingCells,
			&sdc.DrivingCell{Resistance: a.value, Ports: []sdc.ObjRef{{Kind: sdc.PortObj, Name: p}}})
	}
	var dcPorts []string
	for p := range drivingCells {
		dcPorts = append(dcPorts, p)
	}
	sort.Strings(dcPorts)
	for _, p := range dcPorts {
		mg.merged.DrivingCells = append(mg.merged.DrivingCells,
			&sdc.DrivingCell{CellName: drivingCells[p], Ports: []sdc.ObjRef{{Kind: sdc.PortObj, Name: p}}})
	}
}

// inferClockExclusivity implements §3.1.7: merged clock pairs that cannot
// co-exist in any individual mode become physically exclusive. Two clocks
// co-exist in a mode when both exist there and the mode does not itself
// declare them exclusive.
func (mg *Merger) inferClockExclusivity() {
	names := mg.cmap.order
	n := len(names)
	if n < 2 {
		return
	}
	coexist := make([][]bool, n)
	for i := range coexist {
		coexist[i] = make([]bool, n)
	}
	// Iterate scenario contexts, not base modes: in a corner-aware merge
	// two clocks co-exist iff they co-exist in some (mode, corner)
	// scenario, so inferred exclusivity holds in every corner.
	for m := range mg.ctxs {
		ctx := mg.ctxs[m]
		for i := 0; i < n; i++ {
			li := mg.cmap.localName(names[i], m)
			if li == "" {
				continue
			}
			idI, okI := ctx.ClockByName(li)
			if !okI || !ctx.ClockActive(idI) {
				// A clock that captures and launches nothing in this mode
				// (replaced by a generated clock, fully blocked, …) does
				// not co-exist with anything here.
				continue
			}
			for j := i + 1; j < n; j++ {
				lj := mg.cmap.localName(names[j], m)
				if lj == "" {
					continue
				}
				idJ, okJ := ctx.ClockByName(lj)
				if !okJ || !ctx.ClockActive(idJ) {
					continue
				}
				if !ctx.Exclusive(idI, idJ) {
					coexist[i][j] = true
					coexist[j][i] = true
				}
			}
		}
	}
	// Try to express the exclusivity relation as one grouping: clocks
	// with identical coexistence rows share a group. Valid iff exactly
	// the cross-group pairs are exclusive.
	group := make([]int, n)
	var sigs []string
	for i := 0; i < n; i++ {
		sig := ""
		for j := 0; j < n; j++ {
			if i == j || coexist[i][j] {
				sig += "1"
			} else {
				sig += "0"
			}
		}
		found := -1
		for gi, s := range sigs {
			if s == sig {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(sigs)
			sigs = append(sigs, sig)
		}
		group[i] = found
	}
	valid := len(sigs) > 1
	for i := 0; i < n && valid; i++ {
		for j := i + 1; j < n && valid; j++ {
			crossGroup := group[i] != group[j]
			if crossGroup == coexist[i][j] {
				valid = false
			}
		}
	}
	var pairs int
	if valid {
		groups := make([][]string, len(sigs))
		for i, gi := range group {
			groups[gi] = append(groups[gi], names[i])
		}
		mg.merged.ClockGroups = append(mg.merged.ClockGroups, &sdc.ClockGroups{
			Name: "merged_exclusive", Kind: sdc.PhysicallyExclusive, Groups: groups})
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !coexist[i][j] {
					pairs++
				}
			}
		}
	} else {
		// Fall back to one pairwise command per exclusive pair.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if coexist[i][j] {
					continue
				}
				pairs++
				mg.merged.ClockGroups = append(mg.merged.ClockGroups, &sdc.ClockGroups{
					Name:   fmt.Sprintf("excl_%s_%s", names[i], names[j]),
					Kind:   sdc.PhysicallyExclusive,
					Groups: [][]string{{names[i]}, {names[j]}},
				})
			}
		}
	}
	mg.Report.ExclusivePairs = pairs
}
