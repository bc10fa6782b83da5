package main

import (
	"fmt"
	"io"
	"sort"
)

// worseShare is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means worse, negative better.
func worseShare(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints one row per (workload, metric) with both values,
// the ratio b/a and its base a, and returns how many end-to-end metrics
// got worse by more than their bound plus how many workloads' error share
// grew. Layer and raw metrics are listed without a verdict: they have no
// bound.
func compareResults(sp *spec, a, b *resultFile, w io.Writer) (regressions int) {
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %8s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "verdict")
	row := func(wl, name string, av, bv float64, unit, verdict string) {
		ratio := "-"
		if av != 0 {
			ratio = fmt.Sprintf("%.3f", bv/av)
		}
		fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %8s  %s %s\n", wl, name, av, bv, ratio, verdict, unit)
	}
	for _, wl := range workloads {
		oa, ob := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if oa == nil || ob == nil {
			continue
		}
		for _, ms := range sp.EndToEnd {
			ma, okA := oa.EndToEnd[ms.Name]
			mb, okB := ob.EndToEnd[ms.Name]
			if !okA || !okB {
				continue
			}
			worse := worseShare(ms.Better, ma.Value, mb.Value)
			verdict := fmt.Sprintf("ok (bound %.0f%%)", 100*ms.Bound)
			if worse > ms.Bound {
				verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*worse, 100*ms.Bound)
				regressions++
			}
			row(wl.Name, ms.Name, ma.Value, mb.Value, ma.Unit, verdict)
		}
		verdict := "ok (bound 0)"
		if ob.errorShare() > oa.errorShare() {
			verdict = "WORSE: error share grew"
			regressions++
		}
		row(wl.Name, "error_share", oa.errorShare(), ob.errorShare(), "fraction", verdict)
		for _, group := range []struct{ a, b metrics }{{oa.Raw, ob.Raw}, {oa.PerLayer, ob.PerLayer}} {
			names := make([]string, 0, len(group.a))
			for name := range group.a {
				if _, ok := group.b[name]; ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				row(wl.Name, name, group.a[name].Value, group.b[name].Value, group.a[name].Unit, "")
			}
		}
	}
	return regressions
}

func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, b := new(resultFile), new(resultFile)
	for _, in := range []struct {
		path string
		into *resultFile
	}{{pathA, a}, {pathB, b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if n := compareResults(sp, a, b, stdout); n > 0 {
		fmt.Fprintf(stdout, "%d regressions beyond their bounds\n", n)
		return 1
	}
	fmt.Fprintln(stdout, "no end-to-end metric is worse by more than its bound")
	return 0
}
