package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchstore"
	"repro/internal/dispatch"
)

// Dispatch mode: with -addrs a,b,c (or -addrs-file), run/suite/bench fan
// out across a fleet of labd daemons instead of submitting to a single
// one — the dispatcher (internal/dispatch) probes /v1/healthz, queues
// the suite as scenario-granular work units that per-backend pullers
// drain (fast backends take more; a dying or busy backend spills back
// only its in-flight unit), and merges the per-unit results back into
// the exact artifact a single run would have written. Flags, artifacts,
// and exit codes match -addr mode; -shard is rejected because the
// dispatcher splits the suite itself.

// dispatchMode reports whether a backend fleet was given.
func (rf runFlags) dispatchMode() bool { return rf.addrs != "" || rf.addrsFile != "" }

// backendList resolves -addrs/-addrs-file into the backend addresses.
func backendList(rf runFlags) ([]string, error) {
	if rf.addr != "" {
		return nil, fmt.Errorf("-addr and -addrs are mutually exclusive (one daemon or a fleet, not both)")
	}
	if rf.addrs != "" && rf.addrsFile != "" {
		return nil, fmt.Errorf("-addrs and -addrs-file are mutually exclusive")
	}
	var fields []string
	if rf.addrs != "" {
		fields = strings.Split(rf.addrs, ",")
	} else {
		data, err := os.ReadFile(rf.addrsFile)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			fields = append(fields, strings.FieldsFunc(line, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\t' || r == '\r'
			})...)
		}
	}
	var addrs []string
	for _, f := range fields {
		if f = strings.TrimSpace(f); f != "" {
			addrs = append(addrs, f)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no backend addresses in %s", orFlag(rf))
	}
	return addrs, nil
}

func orFlag(rf runFlags) string {
	if rf.addrsFile != "" {
		return rf.addrsFile
	}
	return "-addrs"
}

// dispatchSuite runs one suite-shaped request across the fleet — the
// dispatch counterpart of remoteSuite.
func dispatchSuite(ctx context.Context, names []string, rf runFlags, errOut io.Writer) (*dispatch.Result, error) {
	addrs, err := backendList(rf)
	if err != nil {
		return nil, err
	}
	if rf.shard != "" {
		return nil, fmt.Errorf("-shard cannot combine with -addrs: the dispatcher owns the shard slice (it runs each scenario as its own work unit)")
	}
	// The same flag-to-spec wiring -addr mode uses; rf.shard is empty
	// here, so the spec's shard fields stay zero for the dispatcher.
	spec, err := remoteJobSpec(names, rf)
	if err != nil {
		return nil, err
	}
	opts := dispatch.Options{Spec: spec}
	if rf.verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(errOut, format+"\n", args...)
		}
		opts.OnEvent = func(ev dispatch.Event) {
			fmt.Fprintf(errOut, "[%s @ %s] ", ev.Shard, ev.Backend)
			renderProgress(errOut, ev.Event.Scenario, ev.Event.Phase, ev.Event.Message)
		}
	}
	return dispatch.Run(ctx, addrs, opts)
}

// dispatchBench runs the suite across the fleet and unions the
// per-unit report sets into one snapshot through benchstore.Merge —
// the same refusal-guarded path `bench -merge` takes for on-disk
// shards, so overlapping units and quick/full mixes cannot poison the
// trajectory here either.
func dispatchBench(ctx context.Context, names []string, rf runFlags, label string, errOut io.Writer) (*benchstore.Snapshot, error) {
	dres, err := dispatchSuite(ctx, names, rf, errOut)
	if err != nil {
		return nil, err
	}
	// A partial run is not a trajectory point: refuse to record it.
	if err := dres.Suite.Err(); err != nil {
		return nil, fmt.Errorf("suite failed, no snapshot written: %w", err)
	}
	var snaps []*benchstore.Snapshot
	for _, u := range dres.Units {
		s := benchstore.FromReports("", u.Result.Reports()...)
		// Each unit's configuration class comes from its own result, so
		// Merge's quick/full-mix refusal actually guards the fleet's
		// results against each other rather than restating one flag n
		// times.
		s.Quick = u.Result.Quick
		snaps = append(snaps, s)
	}
	snap, err := benchstore.Merge(snaps...)
	if err != nil {
		return nil, err
	}
	snap.Label = label
	return snap, nil
}

// dispatchRun is `labctl run` across the fleet: the units run under the
// run command's serial, fail-fast spec (a failure skips every unit not
// yet taken), and the merged outcomes render exactly like a single
// run's.
func dispatchRun(ctx context.Context, stdout, errOut io.Writer, names []string, rf runFlags) error {
	rf.parallel, rf.failFast = 1, true
	dres, err := dispatchSuite(ctx, names, rf, errOut)
	if err != nil {
		return err
	}
	return finishRun(stdout, dres.Suite, dres.Raw, rf.outPath)
}
