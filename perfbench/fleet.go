package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/dispatch"
	"repro/internal/dispatch/dispatchtest"
	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/labd"
	"repro/internal/scenario"
)

// fleetScenarios are the short hand-written quick scenarios. Each runs
// for at most a few tens of milliseconds, so the service overhead around
// them (job lifecycle, HTTP, event streaming, queueing, merging) is a
// large share of the suite's time. mlcompare, packetlevel and rl are left
// out: their compute would swamp that overhead.
var fleetScenarios = []string{
	"rstinject", "mlpredict", "bufferbloat", "throttlesweep", "fct",
	"multipath", "workload", "latencymigration", "flowaggregation", "failover",
}

const (
	// fleetBackends in-process labd daemons, one job worker each.
	fleetBackends = 2
	// fleetHeapSuites suites run before the live heap is read. The
	// daemons keep every job, so the heap grows with the suites run; a
	// fixed count keeps host speed out of heap_live_mb.
	fleetHeapSuites = 20
	// fleetOrders seeded scenario orders are cycled, suite by suite.
	fleetOrders = 8
)

// bootFleet is the fleet-suite set-up: the backends boot and answer
// their first health probe.
func bootFleet(ctx context.Context, tr *tracer, op int64) (*dispatchtest.Cluster, error) {
	root := tr.begin("setup", -1, op)
	defer tr.end(root)
	sp := tr.begin("labd.boot", root, op)
	c := dispatchtest.New(fleetBackends, labd.Config{Workers: 1})
	tr.end(sp)
	sp = tr.begin("labd.Health", root, op)
	defer tr.end(sp)
	for _, a := range c.Addrs() {
		if _, err := labd.NewClient(a).Health(ctx); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func runFleetSuite(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	tr := cfg.tr
	var cluster *dispatchtest.Cluster
	setup, err := repeatSetup(func(i int) error {
		var err error
		cluster, err = bootFleet(ctx, tr, int64(i))
		return err
	}, func() { cluster.Close() })
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	res.e2e["setup_s"] = setup

	orders := genSuiteOrders(cfg.seed, fleetScenarios, fleetOrders)
	addrs := cluster.Addrs()
	clients := map[string]*labd.Client{}
	for _, a := range addrs {
		clients[a] = labd.NewClient(a)
	}
	suite := func(i int) dispatch.Options {
		return dispatch.Options{Spec: labd.JobSpec{Scenarios: orders[i%len(orders)], Quick: true}}
	}
	// One untimed rehearsal suite fills the lazily built state.
	if _, err := dispatch.Run(ctx, addrs, suite(0)); err != nil {
		return nil, fmt.Errorf("rehearsal suite: %w", err)
	}
	// Every merged suite must equal an in-process run of the same
	// scenarios in every metric; only wall time may differ.
	ref, err := scenario.RunSuite(ctx, fleetScenarios, scenario.SuiteOptions{Quick: true})
	if err != nil {
		return nil, fmt.Errorf("reference suite: %w", err)
	}
	want := map[string]scenario.Outcome{}
	for _, o := range ref.Outcomes {
		want[o.Scenario] = o
	}

	var lay fleetLayers
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		if i == fleetHeapSuites {
			res.e2e["heap_live_mb"] = heapLiveMB()
		}
		sp := tr.begin("dispatch.Run", -1, int64(i))
		t0 := time.Now()
		r, err := dispatch.Run(ctx, addrs, suite(i))
		el := time.Since(t0)
		tr.end(sp)
		res.ops = append(res.ops, ms(el))
		res.attempted += len(fleetScenarios)
		if err != nil {
			res.failed += len(fleetScenarios)
			fmt.Fprintln(errLog, "perfbench: fleet-suite: dispatch:", err)
			continue
		}
		for _, o := range r.Suite.Outcomes {
			if o.Error != "" || o.Skipped {
				res.failed++
			}
		}
		if cfg.tamper && i == 0 {
			r.Suite.Outcomes[0].Report.Metrics["tampered"] = 1
		}
		if err := sameSuite(r.Suite, want); err != nil {
			res.failAll("fleet-suite: suite %d differs from the in-process run: %v", i, err)
		}
		if tr != nil {
			if err := lay.add(ctx, tr, sp, int64(i), el, r, clients); err != nil {
				return nil, err
			}
		}
	}
	res.e2e["throughput_per_s"] = float64(len(fleetScenarios)) / (median(res.ops) / 1e3)
	if _, ok := res.e2e["heap_live_mb"]; !ok {
		res.e2e["heap_live_mb"] = heapLiveMB()
	}
	if tr != nil {
		lay.report(res.layer)
	}
	return res, nil
}

// sameSuite compares a suite result with the reference outcomes, keyed by
// scenario, in everything but wall time.
func sameSuite(got *scenario.SuiteResult, want map[string]scenario.Outcome) error {
	if len(got.Outcomes) != len(want) {
		return fmt.Errorf("%d outcomes, want %d", len(got.Outcomes), len(want))
	}
	for _, g := range got.Outcomes {
		w, ok := want[g.Scenario]
		if !ok || g.Error != w.Error || g.Skipped != w.Skipped {
			return fmt.Errorf("%s: error %q, want %q", g.Scenario, g.Error, w.Error)
		}
		if (g.Report == nil) != (w.Report == nil) {
			return fmt.Errorf("%s: report presence differs", g.Scenario)
		}
		if g.Report == nil {
			continue
		}
		if g.Report.EmulatedSeconds != w.Report.EmulatedSeconds {
			return fmt.Errorf("%s: emulated_seconds %v vs %v", g.Scenario, g.Report.EmulatedSeconds, w.Report.EmulatedSeconds)
		}
		if len(g.Report.Metrics) != len(w.Report.Metrics) {
			return fmt.Errorf("%s: %d metrics vs %d", g.Scenario, len(g.Report.Metrics), len(w.Report.Metrics))
		}
		for _, k := range sortedKeys(w.Report.Metrics) {
			gv, ok := g.Report.Metrics[k]
			if !ok || math.Float64bits(gv) != math.Float64bits(w.Report.Metrics[k]) {
				return fmt.Errorf("%s: metric %s = %v, want %v", g.Scenario, k, gv, w.Report.Metrics[k])
			}
		}
	}
	return nil
}

// fleetLayers accumulates the traced fleet-suite's per-layer samples.
type fleetLayers struct {
	queueWaitMs, execOverheadMs, unitOverheadMs []float64
	submitMs, healthMs                          []float64
	attempts, units, requeues, suites           int
	scenarioWallS                               float64
}

// add reads back every unit's job from the backend that ran it, records
// the jobs as child spans of the suite, and makes one direct health probe
// and one direct submission.
func (l *fleetLayers) add(ctx context.Context, tr *tracer, parent int32, op int64, suite time.Duration, r *dispatch.Result, clients map[string]*labd.Client) error {
	var lifetimes time.Duration
	for _, u := range r.Units {
		st, err := clients[u.Backend].Job(ctx, u.JobID)
		if err != nil {
			return fmt.Errorf("reading job %s: %w", u.JobID, err)
		}
		if st.StartedAt == nil || st.FinishedAt == nil || len(u.Result.Outcomes) != 1 || u.Result.Outcomes[0].Report == nil {
			return fmt.Errorf("job %s has no finished single-scenario result", u.JobID)
		}
		wall := u.Result.Outcomes[0].Report.WallSeconds
		job := int32(len(tr.spans))
		tr.add("labd.job", parent, op, st.CreatedAt, *st.FinishedAt)
		tr.add("labd.exec", job, op, *st.StartedAt, *st.FinishedAt)
		l.queueWaitMs = append(l.queueWaitMs, ms(st.StartedAt.Sub(st.CreatedAt)))
		l.execOverheadMs = append(l.execOverheadMs, ms(st.FinishedAt.Sub(*st.StartedAt))-wall*1e3)
		lifetimes += st.FinishedAt.Sub(st.CreatedAt)
		l.attempts += u.Attempts
		l.requeues += len(u.Requeues)
		l.scenarioWallS += wall
	}
	l.units += len(r.Units)
	l.suites++
	l.unitOverheadMs = append(l.unitOverheadMs,
		ms(suite*fleetBackends-lifetimes)/float64(len(r.Units)))

	c := clients[r.Units[0].Backend]
	t0 := time.Now()
	sp := tr.begin("labd.Health", -1, op)
	if _, err := c.Health(ctx); err != nil {
		return err
	}
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("labd.Submit", -1, op)
	st, err := c.Submit(ctx, labd.JobSpec{Scenarios: fleetScenarios[:1], Quick: true})
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return err
	}
	if _, err := c.Wait(ctx, st.ID, nil); err != nil {
		return err
	}
	l.healthMs = append(l.healthMs, ms(t1.Sub(t0)))
	l.submitMs = append(l.submitMs, ms(t2.Sub(t1)))
	return nil
}

func (l *fleetLayers) report(L map[string]float64) {
	L["labd.queue_wait_ms"] = median(l.queueWaitMs)
	L["labd.exec_overhead_ms"] = median(l.execOverheadMs)
	L["labd.submit_ms"] = median(l.submitMs)
	L["labd.health_ms"] = median(l.healthMs)
	L["dispatch.unit_overhead_ms"] = median(l.unitOverheadMs)
	L["dispatch.attempts_per_unit"] = float64(l.attempts) / float64(l.units)
	L["dispatch.requeues"] = float64(l.requeues)
	L["scenario.wall_s"] = l.scenarioWallS / float64(l.suites)
}
