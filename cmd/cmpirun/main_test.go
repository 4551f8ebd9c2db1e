package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "cg", "-class", ""}, `unknown NPB class ""`},
		{[]string{"-workload", "cg", "-class", "Sxyz"}, `unknown NPB class "Sxyz"`},
		{[]string{"-workload", "hello", "-mode", "bogus"}, `unknown mode "bogus"`},
		{[]string{"-workload", "osu-latency", "-min", "0"}, "need 1 <= min <= max"},
		{[]string{"-workload", "osu-nope"}, `unknown OSU benchmark "nope"`},
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-hosts", "0"}, "Hosts = 0"},
	} {
		var out bytes.Buffer
		err := run(tc.args, nil, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q before failing", tc.args, out.String())
		}
	}
}

// TestRunEveryWorkload launches each workload once at a small size and
// checks that its report says what it ran.
func TestRunEveryWorkload(t *testing.T) {
	type launch struct {
		workload string
		args     []string
		want     string
	}
	launches := []launch{
		{"hello", []string{"-procs", "4"}, "rank 3/4 on host00-c1: sees 4 co-resident rank(s), allreduce=6"},
		{"graph500", []string{"-scale", "10"}, "validated=true"},
	}
	for _, k := range []string{"ep", "cg", "ft", "is", "mg"} {
		launches = append(launches, launch{k, nil, strings.ToUpper(k) + ".S  time="})
	}
	benches := make([]string, 0, len(osuBenches))
	for b := range osuBenches {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		launches = append(launches, launch{"osu-" + b, []string{"-max", "256", "-iters", "4"}, "\n256        "})
	}
	for _, l := range launches {
		var out bytes.Buffer
		if err := run(append([]string{"-workload", l.workload}, l.args...), nil, &out); err != nil {
			t.Errorf("%s: %v", l.workload, err)
			continue
		}
		if !strings.Contains(out.String(), l.want) || strings.Contains(out.String(), "FAILED") {
			t.Errorf("%s printed\n%s\nwant a report containing %q", l.workload, out.String(), l.want)
		}
	}
}

// TestRunEnvironmentOverridesFlags: MV2_USE_HIERARCHICAL_COLL=1 without -hier
// runs the same hierarchical collectives as -hier, and =0 turns -hier off.
func TestRunEnvironmentOverridesFlags(t *testing.T) {
	base := []string{"-workload", "osu-allreduce", "-hosts", "4", "-containers", "4", "-procs", "32", "-max", "1024", "-iters", "4"}
	report := func(args []string, env map[string]string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, env, &out); err != nil {
			t.Fatalf("run %q with %v: %v", args, env, err)
		}
		return out.String()
	}
	flat := report(base, nil)
	hier := report(append(base, "-hier"), nil)
	if hier == flat {
		t.Fatalf("-hier printed the flat report:\n%s", flat)
	}
	if got := report(base, map[string]string{"MV2_USE_HIERARCHICAL_COLL": "1"}); got != hier {
		t.Errorf("MV2_USE_HIERARCHICAL_COLL=1 printed\n%s\nwant the -hier report\n%s", got, hier)
	}
	if got := report(append(base, "-hier"), map[string]string{"MV2_USE_HIERARCHICAL_COLL": "0"}); got != flat {
		t.Errorf("-hier with MV2_USE_HIERARCHICAL_COLL=0 printed\n%s\nwant the flat report\n%s", got, flat)
	}
}
