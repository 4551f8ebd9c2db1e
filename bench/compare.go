package main

import (
	"fmt"
	"io"
)

// verdict applies a bound to a base and a changed summary of one metric.
// A cell whose own run-to-run spread exceeds the bound is unresolved, not
// unchanged; otherwise the changed median may be worse than the base median
// by at most the bound.
func verdict(m metric, base, changed summary) string {
	if base.Median == 0 {
		if changed.Median == 0 {
			return "same"
		}
		return "REGRESSION"
	}
	worse := (changed.Median - base.Median) / base.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case base.spread() > m.Bound || changed.spread() > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "REGRESSION"
	case worse < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload and metric of two result files
// and returns non-zero on a regression or any failed check.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	byName := map[string]wlResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(stdout, "A (base) %s commit %s seed %d\nB        %s commit %s seed %d\n", pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(stdout, "%-12s %-36s %-6s %12s %24s %12s %24s %10s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "verdict")
	row := func(wl string, m metric, sa, sb summary, verdict string) {
		ratio := "n/a"
		if sa.Median != 0 {
			ratio = fmt.Sprintf("%.4f", sb.Median/sa.Median)
		}
		fmt.Fprintf(stdout, "%-12s %-36s %-6s %12.6g %24s %12.6g %24s %10s  %s\n", wl, m.Name, m.Unit,
			sa.Median, fmt.Sprintf("%.5g..%.5g", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("%.5g..%.5g", sb.Q1, sb.Q3), ratio, verdict)
	}
	bad := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-12s missing from B\n", ra.Name)
			bad++
			continue
		}
		for _, m := range endToEnd {
			v := verdict(m, ra.Metrics[m.Name], rb.Metrics[m.Name])
			if v == "REGRESSION" {
				bad++
			}
			row(ra.Name, m, ra.Metrics[m.Name], rb.Metrics[m.Name], fmt.Sprintf("%s (bound %.0f%%)", v, m.Bound*100))
		}
		ff := metric{Name: failFrac, Unit: "ratio"}
		v := "same"
		if ra.Failed > 0 || rb.Failed > 0 {
			v = "FAILED CHECKS"
			bad++
		}
		row(ra.Name, ff, ra.Metrics[failFrac], rb.Metrics[failFrac], v)
		same := "identical"
		if ra.VirtDigest != rb.VirtDigest {
			same = "differs"
		}
		fmt.Fprintf(stdout, "%-12s %-36s %s\n", ra.Name, "virt_digest", same)
		// Per-layer metrics carry no bound: the ratio is reported, and an
		// exact count is either identical or not.
		for _, m := range perLayer {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := ""
			if m.Clock != "host" {
				v = "identical"
				if sa.Median != sb.Median {
					v = "differs"
				}
			}
			row(ra.Name, m, sa, sb, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressions, failed checks or missing workloads\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression beyond the bounds")
	return 0
}
