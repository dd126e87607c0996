package dataplane

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// runFullScan is the reference full-tier scheduler the link event queue
// is checked against: each pass finds the earliest head arrival by
// scanning every link, then scans every link again in index order and
// drains what is due. A frame sent at the current instant onto a link
// the second scan has passed waits for the next pass. When peak is
// non-nil it records the largest population any cap check saw.
func runFullScan(peak *int) func(*Engine, context.Context) (Stats, error) {
	return func(e *Engine, ctx context.Context) (Stats, error) {
		fs := e.full
		for i, ns := range e.nodes {
			batch := ns.queue
			ns.queue = nil
			for _, pkt := range batch {
				e.forwardFull(i, ns, pkt, fs.now)
			}
		}
		e.pending = 0
		for fs.inFlight > 0 {
			select {
			case <-ctx.Done():
				return e.stats, ctx.Err()
			default:
			}
			e.stats.Rounds++
			var next link.Time
			found := false
			for i := range fs.links {
				if t, ok := fs.links[i].path.Next(); ok && (!found || t < next) {
					next, found = t, true
				}
			}
			if !found {
				break
			}
			if next > fs.now {
				fs.now = next
			}
			for i := range fs.links {
				l := &fs.links[i]
				for {
					n := e.inFlight()
					if peak != nil && n > *peak {
						*peak = n
					}
					if n > e.cfg.MaxInFlight {
						return e.stats, e.errCap(n)
					}
					f, ok := l.path.Pop(fs.now)
					if !ok {
						break
					}
					e.arriveFull(l, f)
				}
			}
		}
		return e.stats, nil
	}
}

// cancelAfter is a context whose Done channel reads as closed from its
// n+1-th call on: both schedulers poll Done once per pass, so it cancels
// them at the same pass boundary.
type cancelAfter struct {
	context.Context
	n      int
	closed chan struct{}
}

func newCancelAfter(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), n: n, closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.n == 0 {
		return c.closed
	}
	c.n--
	return nil
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	return nil
}

// schedCase is one randomized differential case: a topology, an engine
// configuration, and a seed driving routes, packet sizes, waves, resets
// and cancellations.
type schedCase struct {
	name string
	tp   *topo.Topology
	cfg  Config
	seed int64
	// cancelWave, when ≥ 0, runs that wave under a context canceled
	// after cancelPasses passes; the next wave's Run resumes it.
	cancelWave, cancelPasses int
	// resetWave, when ≥ 0, resets the engine before that wave.
	resetWave int
	waves     int
	// loop injects the cyclic amplifying multicast of the triangle
	// topology instead of routes between hosts.
	loop bool
}

// schedSnap is everything observable after one Run.
type schedSnap struct {
	InjectErr, RunErr string
	Stats             Stats
	Now               link.Time
	Delivered         []Packet
	Links             []link.Stats
	Nodes             []NodeStats
}

// schedOutcome is a whole case's observable history.
type schedOutcome struct {
	Snaps []schedSnap
	Trace []TraceEvent
	// peakPop is the largest population right after an inject, for the
	// cap-edge test; it is not compared.
	peakPop int
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// linkTemplates are the full-tier link configurations the differential
// cases draw from: zero latency (several passes per instant), finite
// rate without delay, the topology's own attributes, small queues,
// reordering, and both loss models.
var linkTemplates = []link.FullConfig{
	{RateMbps: -1, DelayMs: -1},
	{RateMbps: -1, DelayMs: -1, Loss: link.Bernoulli(0.05)},
	{RateMbps: 40, DelayMs: -1, QueuePkts: 3},
	{},
	{QueuePkts: 2, Loss: link.GilbertElliott(0.05, 0.3, 0.01, 0.5)},
	{RateMbps: 100, DelayMs: 0.2, ReorderProb: 0.3, ReorderWindowMs: 0.5, QueuePkts: 8},
	{DelayMs: -1, ReorderProb: 0.2, ReorderWindowMs: 0.01, Loss: link.Bernoulli(0.02)},
}

// caseRoutes encodes, from rng, a handful of unicast, PoT and multicast
// routes between the topology's hosts.
func caseRoutes(e *Engine, rng *rand.Rand) []*Route {
	hosts := e.topo.NodesOfKind(topo.Host)
	var routes []*Route
	for k := 0; k < 6; k++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		p, err := e.topo.ShortestPath(src, dst, topo.ByHops)
		if err != nil {
			continue
		}
		var r *Route
		if k%3 == 2 {
			r, err = e.PoTRoute(p, rng.Int63())
		} else {
			r, err = e.UnicastRoute(p)
		}
		if err == nil {
			routes = append(routes, r)
		}
	}
	// A multicast tree: the union of shortest paths from one host to
	// several others (acyclic, since every edge goes one hop farther from
	// the source).
	src := hosts[rng.Intn(len(hosts))]
	sets := map[string]uint64{}
	root := ""
	for _, dst := range hosts {
		if dst == src || rng.Intn(3) == 0 {
			continue
		}
		p, err := e.topo.ShortestPath(src, dst, topo.ByHops)
		if err != nil {
			continue
		}
		for i := 1; i < len(p.Nodes)-1; i++ {
			n, err := e.topo.Node(p.Nodes[i])
			if err != nil {
				continue
			}
			port, err := n.Port(p.Nodes[i+1])
			if err != nil {
				continue
			}
			sets[p.Nodes[i]] |= 1 << port
		}
		root = p.Nodes[1]
	}
	if root != "" {
		if r, err := e.MulticastRoute(root, sets); err == nil {
			routes = append(routes, r)
		}
	}
	return routes
}

// loopRouteID is the triangle's cyclic amplifying multicast: s
// replicates to i and d, both send back to s.
func loopRouteID(t *testing.T, e *Engine) []byte {
	t.Helper()
	var hops []polka.MultipathHop
	for _, n := range []struct {
		name    string
		towards []string
	}{{"s", []string{"i", "d"}}, {"i", []string{"s"}}, {"d", []string{"s"}}} {
		sw, err := e.Domain().Switch(n.name)
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.Topology().Node(n.name)
		if err != nil {
			t.Fatal(err)
		}
		var mask uint64
		for _, to := range n.towards {
			p, err := node.Port(to)
			if err != nil {
				t.Fatal(err)
			}
			mask |= 1 << p
		}
		hops = append(hops, polka.MultipathHop{NodeID: sw.NodeID(), Ports: mask})
	}
	rid, err := polka.ComputeMultipathRouteID(hops)
	if err != nil {
		t.Fatal(err)
	}
	return polka.RouteIDBytes(rid)
}

// injectWave offers one wave of IMIX-sized packets over the routes, plus
// a few packets bound to be dropped: short TTLs, a routeID injected at a
// node it was not encoded for, a PoT packet skipping its first hop.
func injectWave(e *Engine, routes []*Route, rng *rand.Rand) error {
	imix := []int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500}
	for _, r := range routes {
		n := 1 + rng.Intn(12)
		pkts := make([]Packet, n)
		for i := range pkts {
			pkts[i] = r.NewPacket(imix[rng.Intn(len(imix))])
			if rng.Intn(10) == 0 {
				pkts[i].TTL = 1 + rng.Intn(2)
			}
		}
		if err := e.InjectBatch(r.Inject, pkts); err != nil {
			return err
		}
	}
	if len(routes) > 1 {
		a, b := routes[0], routes[len(routes)-1]
		if _, err := e.Inject(b.Inject, a.NewPacket(100)); err != nil {
			return err
		}
		if b.Mode == PoT && len(b.Hops) > 1 {
			if _, err := e.Inject(b.Hops[1].Node, b.NewPacket(100)); err != nil {
				return err
			}
		}
	}
	return nil
}

// drive runs a case under one scheduler and records its history.
func drive(t *testing.T, c schedCase, run func(*Engine, context.Context) (Stats, error)) schedOutcome {
	t.Helper()
	var out schedOutcome
	cfg := c.cfg
	cfg.Trace = func(ev TraceEvent) { out.Trace = append(out.Trace, ev) }
	e, err := New(c.tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(c.seed))
	var routes []*Route
	var loop []byte
	if c.loop {
		loop = loopRouteID(t, e)
	} else {
		routes = caseRoutes(e, rng)
	}
	for w := 0; w < c.waves; w++ {
		if w == c.resetWave {
			e.Reset()
		}
		var injErr error
		if c.loop {
			_, injErr = e.Inject("s", Packet{RouteID: loop, Mode: Multicast, Size: 100, TTL: 4 + rng.Intn(7)})
		} else {
			injErr = injectWave(e, routes, rng)
		}
		if n := e.inFlight(); n > out.peakPop {
			out.peakPop = n
		}
		ctx := context.Context(context.Background())
		if w == c.cancelWave {
			ctx = newCancelAfter(c.cancelPasses)
		}
		st, err := run(e, ctx)
		out.Snaps = append(out.Snaps, snapshot(t, e, st, injErr, err))
	}
	return out
}

// snapshot records what the engine shows after a Run.
func snapshot(t *testing.T, e *Engine, st Stats, injErr, runErr error) schedSnap {
	t.Helper()
	snap := schedSnap{InjectErr: errText(injErr), RunErr: errText(runErr), Stats: st, Now: e.VirtualNow()}
	for _, p := range e.Delivered() {
		p.Proof = nil // engine-local pointer; Acc and Nonce carry its effect
		snap.Delivered = append(snap.Delivered, p)
	}
	for i := range e.full.links {
		snap.Links = append(snap.Links, e.full.links[i].path.Stats())
	}
	for _, ns := range e.nodes {
		s, err := e.NodeStats(ns.name)
		if err != nil {
			t.Fatal(err)
		}
		snap.Nodes = append(snap.Nodes, s)
	}
	return snap
}

// compareOutcomes fails the test at the first divergence of got from
// want.
func compareOutcomes(t *testing.T, name string, want, got schedOutcome) {
	t.Helper()
	if !reflect.DeepEqual(want.Trace, got.Trace) {
		n := len(want.Trace)
		if len(got.Trace) < n {
			n = len(got.Trace)
		}
		for i := 0; i < n; i++ {
			if want.Trace[i] != got.Trace[i] {
				t.Fatalf("%s: trace event %d: want %+v, got %+v", name, i, want.Trace[i], got.Trace[i])
			}
		}
		t.Fatalf("%s: trace lengths: want %d, got %d", name, len(want.Trace), len(got.Trace))
	}
	for w := range want.Snaps {
		a, b := want.Snaps[w], got.Snaps[w]
		switch {
		case a.InjectErr != b.InjectErr || a.RunErr != b.RunErr:
			t.Fatalf("%s wave %d: errors: want (%q, %q), got (%q, %q)", name, w, a.InjectErr, a.RunErr, b.InjectErr, b.RunErr)
		case a.Stats != b.Stats:
			t.Fatalf("%s wave %d: stats:\nwant %+v\ngot  %+v", name, w, a.Stats, b.Stats)
		case a.Now != b.Now:
			t.Fatalf("%s wave %d: virtual clock: want %v, got %v", name, w, a.Now, b.Now)
		case !reflect.DeepEqual(a.Delivered, b.Delivered):
			t.Fatalf("%s wave %d: delivered streams diverge (%d vs %d packets)", name, w, len(a.Delivered), len(b.Delivered))
		case !reflect.DeepEqual(a.Links, b.Links):
			t.Fatalf("%s wave %d: link counters diverge", name, w)
		case !reflect.DeepEqual(a.Nodes, b.Nodes):
			t.Fatalf("%s wave %d: node counters diverge", name, w)
		}
	}
}

// randomCase builds differential case i.
func randomCase(t *testing.T, i int) schedCase {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(i)))
	tp, err := topo.RandomTopology(topo.RandomConfig{
		Cores: 3 + rng.Intn(8), ExtraLinks: rng.Intn(9), Hosts: 3 + rng.Intn(5), Seed: int64(100 + i)})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := polka.NewMultipathDomain(tp.NodesOfKind(topo.Core), tp.MaxPort())
	if err != nil {
		t.Fatal(err)
	}
	c := schedCase{
		name: fmt.Sprintf("case%d", i),
		tp:   tp,
		cfg: Config{Domain: dom, LinkMode: LinkFull, Link: linkTemplates[i%len(linkTemplates)],
			Seed: rng.Int63(), RecordPaths: rng.Intn(2) == 0},
		seed:       rng.Int63(),
		waves:      2 + rng.Intn(3),
		cancelWave: -1,
		resetWave:  -1,
	}
	if rng.Intn(2) == 0 {
		c.cancelWave, c.cancelPasses = 0, rng.Intn(6)
	}
	if rng.Intn(2) == 0 {
		c.resetWave = c.waves - 1
	}
	return c
}

// loopCase builds the triangle amplification case under link template i.
func loopCase(t *testing.T, i int) schedCase {
	t.Helper()
	tri, err := topo.BuildTriangle(topo.LinkAttrs{CapacityMbps: 10, DelayMs: 1},
		topo.LinkAttrs{CapacityMbps: 10, DelayMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := polka.NewMultipathDomain(tri.Nodes(), tri.MaxPort())
	if err != nil {
		t.Fatal(err)
	}
	return schedCase{
		name:       fmt.Sprintf("loop%d", i),
		tp:         tri,
		cfg:        Config{Domain: dom, LinkMode: LinkFull, Link: linkTemplates[i%len(linkTemplates)], Seed: int64(i)},
		seed:       int64(i),
		waves:      3,
		cancelWave: 1, cancelPasses: i % 4,
		resetWave: -1,
		loop:      true,
	}
}

// TestSchedulerMatchesScan is the differential oracle: the link event
// queue must reproduce the two-scan scheduler exactly — Stats with
// Rounds, the trace stream, the delivered stream, the virtual clock,
// every link's and node's counters and every error — over randomized
// topologies, seeds, sizes, link configurations, multicast and PoT
// traffic, mid-run cancels with a resuming Run, and resets.
func TestSchedulerMatchesScan(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 14
	}
	for i := 0; i < cases; i++ {
		c := randomCase(t, i)
		compareOutcomes(t, c.name, drive(t, c, runFullScan(nil)), drive(t, c, (*Engine).Run))
	}
	for i := range linkTemplates {
		c := loopCase(t, i)
		compareOutcomes(t, c.name, drive(t, c, runFullScan(nil)), drive(t, c, (*Engine).Run))
	}
}

// TestSchedulerMatchesScanAtCapEdge runs each case with MaxInFlight at
// the peak population the scan scheduler saw — both must succeed — and
// one below it, where both must fail at the same point with the same
// error.
func TestSchedulerMatchesScanAtCapEdge(t *testing.T) {
	var cases []schedCase
	for i := 0; i < 8; i++ {
		cases = append(cases, randomCase(t, i))
	}
	for i := 0; i < 3; i++ {
		cases = append(cases, loopCase(t, i))
	}
	for _, c := range cases {
		peak := 0
		c.cfg.MaxInFlight = 1 << 20
		probe := drive(t, c, runFullScan(&peak))
		if probe.peakPop > peak {
			peak = probe.peakPop
		}
		for _, cap := range []int{peak, peak - 1} {
			if cap < 1 {
				continue
			}
			c.cfg.MaxInFlight = cap
			name := fmt.Sprintf("%s/cap%d", c.name, cap)
			want, got := drive(t, c, runFullScan(nil)), drive(t, c, (*Engine).Run)
			compareOutcomes(t, name, want, got)
			failed := false
			for _, s := range got.Snaps {
				failed = failed || s.InjectErr != "" || (s.RunErr != "" && s.RunErr != context.Canceled.Error())
			}
			if failed != (cap < peak) {
				t.Fatalf("%s: peak population %d: cap error %v, want %v", name, peak, failed, cap < peak)
			}
		}
	}
}

// TestFullModeResetMatchesFresh: an engine reset in place — here from
// the middle of a canceled run, with frames still on the wires — replays
// a wave exactly as it ran on the fresh engine: stats, trace, delivered
// stream, clock, and every link's and node's counters.
func TestFullModeResetMatchesFresh(t *testing.T) {
	for i := 0; i < 12; i++ {
		c := randomCase(t, i)
		var trace []TraceEvent
		cfg := c.cfg
		cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
		e, err := New(c.tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wave := func(seed int64, ctx context.Context) schedOutcome {
			trace = nil
			rng := rand.New(rand.NewSource(seed))
			injErr := injectWave(e, caseRoutes(e, rng), rng)
			st, err := e.Run(ctx)
			return schedOutcome{Snaps: []schedSnap{snapshot(t, e, st, injErr, err)}, Trace: trace}
		}
		first := wave(c.seed, context.Background())
		wave(c.seed+1, newCancelAfter(2))
		e.Reset()
		compareOutcomes(t, c.name+"/reset", first, wave(c.seed, context.Background()))
	}
}
