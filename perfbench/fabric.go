package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/dataplane"
	"repro/internal/gf2"
	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// Fabric workload sizes. The k=8 fat-tree has 80 switches and 128 hosts.
const (
	fabricK      = 8
	fabricRoutes = 256
	// fabricPatterns distinct waves are cycled; every repeat of a pattern
	// must reproduce the digest of its first run.
	fabricPatterns = 16
	// Packets per wave. The full tier offers fewer at once so that the
	// bounded link queues deliver most packets.
	fastPktsPerWave = 4096
	fullPktsPerWave = 1024
	fastPktBytes    = 64
	// Full-tier link template: topology rates and delays, bounded
	// tail-drop queues and 0.1% Bernoulli wire loss.
	fullQueuePkts = 256
	fullLossP     = 0.001
)

// fabric is one set-up of the fabric workloads: the topology, the PolKA
// domain over its switches, an engine, and the encoded routes.
type fabric struct {
	topo   *topo.Topology
	dom    *polka.Domain
	engine *dataplane.Engine
	specs  []routeSpec
	routes []*dataplane.Route
	// links lists every directed link of the forwarding plane as
	// (from, to), in a fixed order, for the full tier's digest.
	links [][2]string
}

// engineConfig is the engine configuration of a tier.
func engineConfig(dom *polka.Domain, full bool, workers int, seed int64) dataplane.Config {
	if full {
		return dataplane.Config{Domain: dom, LinkMode: dataplane.LinkFull, Seed: seed,
			Link: link.FullConfig{QueuePkts: fullQueuePkts, Loss: link.Bernoulli(fullLossP)}}
	}
	return dataplane.Config{Domain: dom, Workers: workers}
}

// buildFabric is the fabric set-up: topology, shortest-path routes,
// encoding and VerifyRoute. It returns the number of routes that failed
// verification.
func buildFabric(seed int64, full bool, workers int, tr *tracer, op int64) (*fabric, int, error) {
	root := tr.begin("setup", -1, op)
	defer tr.end(root)

	sp := tr.begin("topo.build", root, op)
	t, err := topo.FatTree(topo.DefaultFatTreeConfig(fabricK))
	if err != nil {
		return nil, 0, err
	}
	specs := genRoutes(seed, t.NodesOfKind(topo.Host), podOf, fabricRoutes)
	table := t.SPTable(topo.ByDelay)
	paths := make([][]topo.Path, len(specs))
	for i, s := range specs {
		for _, d := range s.dsts {
			p, err := table.Path(s.src, d)
			if err != nil {
				return nil, 0, fmt.Errorf("route %d: %w", i, err)
			}
			paths[i] = append(paths[i], p)
		}
	}
	tr.end(sp)

	sp = tr.begin("polka.domain", root, op)
	switches := append(t.NodesOfKind(topo.Edge), t.NodesOfKind(topo.Core)...)
	dom, err := polka.NewMultipathDomain(switches, t.MaxPort())
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	sp = tr.begin("dataplane.New", root, op)
	eng, err := dataplane.New(t, engineConfig(dom, full, workers, seed))
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	fb := &fabric{topo: t, dom: dom, engine: eng, specs: specs}
	sp = tr.begin("polka.encode", root, op)
	bad := 0
	for i, s := range specs {
		var r *dataplane.Route
		switch s.kind {
		case kindUnicast:
			r, err = eng.UnicastRoute(paths[i][0])
		case kindPoT:
			r, err = eng.PoTRoute(paths[i][0], s.potSeed)
		case kindMulticast:
			r, err = multicastRoute(eng, t, paths[i])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("route %d: %w", i, err)
		}
		if err := eng.VerifyRoute(r); err != nil {
			bad++
		}
		fb.routes = append(fb.routes, r)
	}
	tr.end(sp)

	for _, name := range dom.Nodes() {
		n, err := t.Node(name)
		if err != nil {
			return nil, 0, err
		}
		for _, nb := range n.Neighbors() {
			fb.links = append(fb.links, [2]string{name, nb})
		}
	}
	return fb, bad, nil
}

// podOf returns the pod of a fat-tree host ("pod3-edge1-h0" → "pod3").
func podOf(host string) string {
	pod, _, _ := strings.Cut(host, "-")
	return pod
}

// multicastRoute encodes the tree that is the union of shortest paths
// from one source host: every switch replicates to the ports its paths
// leave through.
func multicastRoute(eng *dataplane.Engine, t *topo.Topology, paths []topo.Path) (*dataplane.Route, error) {
	sets := map[string]uint64{}
	for _, p := range paths {
		ports, err := t.PortsAlong(p)
		if err != nil {
			return nil, err
		}
		for n := 1; n < len(p.Nodes)-1; n++ {
			sets[p.Nodes[n]] |= 1 << ports[n]
		}
	}
	return eng.MulticastRoute(paths[0].Nodes[1], sets)
}

// wave is one pre-stamped traffic pattern: the bursts in injection order
// and their packets.
type wave struct {
	bursts []burst
	pkts   [][]dataplane.Packet
	// idRoute maps an engine packet ID (1-based, in injection order) to
	// its route.
	idRoute  []int32
	injected int
	// ref is the digest of the pattern's first run.
	ref uint64
}

// stampWaves generates the fabric traffic patterns. The full tier offers
// the unicast and PoT routes only, at IMIX sizes.
func stampWaves(seed int64, fb *fabric, full bool) []*wave {
	perWave := fastPktsPerWave
	size := func() int { return fastPktBytes }
	if full {
		perWave = fullPktsPerWave
		size = imixSizer(seed)
	}
	var out []*wave
	for _, bs := range genWaves(seed, fb.specs, full, fabricPatterns, perWave) {
		w := &wave{bursts: bs, pkts: make([][]dataplane.Packet, len(bs))}
		for j, b := range bs {
			pkts := make([]dataplane.Packet, b.n)
			for k := range pkts {
				pkts[k] = fb.routes[b.route].NewPacket(size())
				w.idRoute = append(w.idRoute, int32(b.route))
			}
			w.pkts[j] = pkts
			w.injected += b.n
		}
		out = append(out, w)
	}
	return out
}

// inject offers every burst of the wave to the engine.
func inject(eng *dataplane.Engine, fb *fabric, w *wave) error {
	for j, b := range w.bursts {
		if err := eng.InjectBatch(fb.routes[b.route].Inject, w.pkts[j]); err != nil {
			return err
		}
	}
	return nil
}

// waveStats are the simulated statistics of one wave that feed the
// per-layer counters.
type waveStats struct {
	stats      dataplane.Stats
	sent       uint64  // frames accepted onto full-tier links
	sojournP99 float64 // worst per-link p99 queueing delay, virtual ms
	virtual    link.Time
}

// digest hashes the simulated outcome of the wave the engine just ran:
// Stats, per-route deliveries, and on the full tier the virtual clock and
// every link's counters and queueing delay. The same pattern on the same
// routes must always hash the same.
func digest(eng *dataplane.Engine, fb *fabric, w *wave, st dataplane.Stats, counts []uint64, full bool) (uint64, waveStats, error) {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) {
		buf = append(buf[:0], byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		h.Write(buf)
	}
	for _, v := range []uint64{st.Injected, st.Hops, st.Delivered, st.DeliveredBytes,
		st.TTLDrops, st.BadPortDrops, st.PoTDrops, st.QueueDrops, st.LossDrops,
		st.PoTVerified, st.Rounds} {
		put(v)
	}
	for i := range counts {
		counts[i] = 0
	}
	for _, p := range eng.Delivered() {
		counts[w.idRoute[p.ID-1]]++
	}
	for _, c := range counts {
		put(c)
	}
	ws := waveStats{stats: st}
	if full {
		ws.virtual = eng.VirtualNow()
		put(uint64(ws.virtual))
		for _, l := range fb.links {
			ls, err := eng.LinkStats(l[0], l[1])
			if err != nil {
				return 0, ws, err
			}
			p99 := ls.QueueDelayP99Ms()
			put(ls.Sent)
			put(ls.Delivered)
			put(ls.QueueDrops)
			put(ls.LossDrops)
			put(math.Float64bits(p99))
			ws.sent += ls.Sent
			ws.sojournP99 = math.Max(ws.sojournP99, p99)
		}
	}
	return h.Sum64(), ws, nil
}

// runWave injects and runs one wave, returning the engine stats and the
// host time of InjectBatch+Run.
func runWave(ctx context.Context, eng *dataplane.Engine, fb *fabric, w *wave, tr *tracer, op int64) (dataplane.Stats, time.Duration, error) {
	root := tr.begin("wave", -1, op)
	start := time.Now()
	sp := tr.begin("dataplane.InjectBatch", root, op)
	if err := inject(eng, fb, w); err != nil {
		return dataplane.Stats{}, 0, err
	}
	tr.end(sp)
	sp = tr.begin("dataplane.Run", root, op)
	st, err := eng.Run(ctx)
	tr.end(sp)
	el := time.Since(start)
	tr.end(root)
	return st, el, err
}

// runFabric drives fabric-fast (full=false) or fabric-full (full=true).
func runFabric(ctx context.Context, cfg runConfig, full bool) (*result, error) {
	res := newResult()
	tr := cfg.tr
	workers := runtime.NumCPU()
	if full {
		workers = 1
	}

	// Set up several times; the first build is the reference replica the
	// digests are re-checked on, the last one is timed.
	var ref, fb *fabric
	bad := 0
	setup, err := repeatSetup(func(i int) error {
		b, n, err := buildFabric(cfg.seed, full, workers, tr, int64(i))
		if i == 0 {
			ref = b
		}
		fb, bad = b, n
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.attempted += len(fb.routes)
	res.failed += bad

	waves := stampWaves(cfg.seed, fb, full)
	counts := make([]uint64, len(fb.routes))
	eng := fb.engine

	// Rehearsal: one untimed pass warms the engine's pooled state and
	// records each pattern's digest; the reference replica must agree.
	var cycle []waveStats
	for _, w := range waves {
		for _, e := range []*dataplane.Engine{eng, ref.engine} {
			st, _, err := runWave(ctx, e, fb, w, nil, -1)
			if err != nil {
				return nil, err
			}
			d, ws, err := digest(e, fb, w, st, counts, full)
			if err != nil {
				return nil, err
			}
			e.Reset()
			if e == eng {
				w.ref = d
				cycle = append(cycle, ws)
			} else if d != w.ref {
				res.failAll("fabric: a fresh replica's digest %x differs from %x", d, w.ref)
			}
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if tr != nil {
		budget /= 2
	}
	var (
		rates              []float64
		cycDeliv           uint64
		cycTime            time.Duration
		injected, hops     uint64
		bursts, sent       uint64
		runTime, virtualNs float64
	)
	start := time.Now()
	i := 0
	for ; i%len(waves) != 0 || time.Since(start) < budget; i++ {
		w := waves[i%len(waves)]
		st, el, err := runWave(ctx, eng, fb, w, tr, int64(i))
		if err != nil {
			return nil, err
		}
		res.ops = append(res.ops, ms(el))
		d, ws, err := digest(eng, fb, w, st, counts, full)
		if err != nil {
			return nil, err
		}
		if cfg.tamper && i == 0 {
			d ^= 1
		}
		if d != w.ref {
			res.failAll("fabric: wave %d digest %x, its pattern's first run gave %x", i, d, w.ref)
		}
		sp := tr.begin("dataplane.Reset", -1, int64(i))
		eng.Reset()
		tr.end(sp)
		cycDeliv += st.Delivered
		cycTime += el
		if (i+1)%len(waves) == 0 {
			rates = append(rates, float64(cycDeliv)/cycTime.Seconds())
			cycDeliv, cycTime = 0, 0
		}
		injected += st.Injected
		hops += st.Hops
		bursts += uint64(len(w.bursts))
		sent += ws.sent
		runTime += el.Seconds()
		virtualNs += float64(ws.virtual)
	}
	res.attempted += i
	res.e2e["throughput_per_s"] = median(rates)
	res.e2e["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(fb)
	runtime.KeepAlive(ref)
	if tr == nil {
		return res, nil
	}

	// Per-layer metrics from the spans of the timed phase and set-up.
	agg := tr.perName()
	L := res.layer
	L["topo.build_ms"] = ms(agg["topo.build"].total) / float64(agg["topo.build"].count)
	L["polka.encode_us_per_route"] = float64(agg["polka.encode"].total.Microseconds()) /
		float64(agg["polka.encode"].count*len(fb.routes))
	L["dataplane.inject_ns_per_pkt"] = float64(agg["dataplane.InjectBatch"].self) / float64(injected)
	L["dataplane.run_ns_per_hop"] = float64(agg["dataplane.Run"].self) / float64(hops)
	L["dataplane.reset_us"] = float64(agg["dataplane.Reset"].self.Microseconds()) / float64(agg["dataplane.Reset"].count)
	L["dataplane.hops_per_pkt"] = float64(hops) / float64(injected)
	L["dataplane.mean_burst_pkts"] = float64(injected) / float64(bursts)
	var total dataplane.Stats
	var virt, p99 float64
	for _, ws := range cycle {
		total.TTLDrops += ws.stats.TTLDrops
		total.BadPortDrops += ws.stats.BadPortDrops
		total.PoTDrops += ws.stats.PoTDrops
		total.QueueDrops += ws.stats.QueueDrops
		total.LossDrops += ws.stats.LossDrops
		virt += ws.virtual.Ms()
		p99 = math.Max(p99, ws.sojournP99)
	}
	L["dataplane.drops_ttl"] = float64(total.TTLDrops)
	L["dataplane.drops_bad_port"] = float64(total.BadPortDrops)
	L["dataplane.drops_pot"] = float64(total.PoTDrops)
	L["dataplane.drops_queue"] = float64(total.QueueDrops)
	L["dataplane.drops_loss"] = float64(total.LossDrops)
	if full {
		L["link.ns_per_frame"] = float64(agg["dataplane.Run"].self) / float64(sent)
		L["link.virtual_s_per_s"] = virtualNs / 1e9 / runTime
		L["link.queue_drops"] = float64(total.QueueDrops)
		L["link.loss_drops"] = float64(total.LossDrops)
		L["link.sojourn_p99_ms"] = p99
		L["link.virtual_ms"] = virt / float64(len(cycle))
	}

	allocs, err := allocsPerPkt(ctx, eng, fb, waves)
	if err != nil {
		return nil, err
	}
	L["dataplane.allocs_per_pkt"] = allocs

	// A serial fast-tier engine on the same routes and waves: the base of
	// the parallel speedup (fabric-fast) and of the full/fast cost ratio
	// (fabric-full).
	serial, err := dataplane.New(fb.topo, engineConfig(fb.dom, false, 1, cfg.seed))
	if err != nil {
		return nil, err
	}
	side := time.Duration(cfg.seconds * float64(time.Second) / 4)
	if full {
		rates, err := measureCycles(ctx, []*dataplane.Engine{serial}, fb, waves, side, nil)
		if err != nil {
			return nil, err
		}
		fullNsPerHop := float64(agg["dataplane.Run"].self) / float64(hops)
		L["dataplane.full_fast_cost_ratio"] = fullNsPerHop / rates[0].nsPerHop
	} else {
		rates, err := measureCycles(ctx, []*dataplane.Engine{eng, serial}, fb, waves, side, res)
		if err != nil {
			return nil, err
		}
		L["dataplane.serial_pkts_per_s"] = rates[1].pktsPerS
		L["dataplane.parallel_speedup"] = rates[0].pktsPerS / rates[1].pktsPerS
	}

	batchNs, reduceNs, err := replayDecisions(ctx, fb, waves, time.Duration(cfg.seconds*float64(time.Second)/8), res)
	if err != nil {
		return nil, err
	}
	L["polka.batch_ns_per_decision"] = batchNs
	L["gf2.reduce_ns_per_routeid"] = reduceNs
	return res, nil
}

// allocsPerPkt counts heap allocations inside InjectBatch+Run per
// injected packet, over two warm passes of every pattern.
func allocsPerPkt(ctx context.Context, eng *dataplane.Engine, fb *fabric, waves []*wave) (float64, error) {
	var before, after runtime.MemStats
	var allocs, pkts uint64
	for pass := 0; pass < 2; pass++ {
		for _, w := range waves {
			runtime.ReadMemStats(&before)
			if err := inject(eng, fb, w); err != nil {
				return 0, err
			}
			if _, err := eng.Run(ctx); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			pkts += uint64(w.injected)
			eng.Reset()
		}
	}
	return float64(allocs) / float64(pkts), nil
}

// tierRate is an untraced throughput measurement of one engine.
type tierRate struct {
	pktsPerS        float64 // delivered packets per second of InjectBatch+Run
	nsPerHop        float64 // Run time per forwarding decision
	delivered, hops uint64
	total, run      time.Duration
}

// measureCycles runs whole cycles of the waves on each fast-tier engine in
// turn for at least d, so drift in the host's load hits every engine
// alike, and returns each engine's rate. With a non-nil res every wave's
// digest must match its pattern's reference: serial and parallel rounds
// forward identically.
func measureCycles(ctx context.Context, engines []*dataplane.Engine, fb *fabric, waves []*wave, d time.Duration, res *result) ([]tierRate, error) {
	rates := make([]tierRate, len(engines))
	counts := make([]uint64, len(fb.routes))
	for start := time.Now(); time.Since(start) < d; {
		for i, eng := range engines {
			r := &rates[i]
			for _, w := range waves {
				t0 := time.Now()
				if err := inject(eng, fb, w); err != nil {
					return nil, err
				}
				t1 := time.Now()
				st, err := eng.Run(ctx)
				if err != nil {
					return nil, err
				}
				t2 := time.Now()
				r.total += t2.Sub(t0)
				r.run += t2.Sub(t1)
				r.delivered += st.Delivered
				r.hops += st.Hops
				if res != nil {
					d, _, err := digest(eng, fb, w, st, counts, false)
					if err != nil {
						return nil, err
					}
					if d != w.ref {
						res.failAll("fabric: serial and parallel rounds disagree: digest %x, want %x", d, w.ref)
					}
				}
				eng.Reset()
			}
		}
	}
	for i := range rates {
		r := &rates[i]
		r.pktsPerS = float64(r.delivered) / r.total.Seconds()
		r.nsPerHop = float64(r.run.Nanoseconds()) / float64(r.hops)
	}
	return rates, nil
}

// decisionBatch is one node's routeID batch of one forwarding round.
type decisionBatch struct {
	sw   *polka.Switch
	red  *gf2.Reducer
	rids [][]byte
}

// replayDecisions records, on a serial fast-tier engine, the routeID
// batch every node forwards in every round of every wave, then replays
// those batches through Switch.OutputPortBatch and the same bytes through
// Reducer.ReduceBytes for about d each. It returns ns per decision and
// ns per reduced routeID.
func replayDecisions(ctx context.Context, fb *fabric, waves []*wave, d time.Duration, res *result) (float64, float64, error) {
	names := fb.dom.Nodes()
	index := make(map[string]int32, len(names))
	for i, n := range names {
		index[n] = int32(i)
	}
	type event struct {
		node, round int32
		id          uint64
	}
	var events []event
	cfg := engineConfig(fb.dom, false, 1, 0)
	cfg.Trace = func(ev dataplane.TraceEvent) {
		// All packets of a wave are injected before Run, so a decision's
		// round is read off its remaining TTL.
		events = append(events, event{node: index[ev.Node], round: int32(ev.TTL), id: ev.PacketID})
	}
	rec, err := dataplane.New(fb.topo, cfg)
	if err != nil {
		return 0, 0, err
	}
	switches := make([]*polka.Switch, len(names))
	reducers := make([]*gf2.Reducer, len(names))
	for i, n := range names {
		if switches[i], err = fb.dom.Switch(n); err != nil {
			return 0, 0, err
		}
		if reducers[i], err = gf2.NewReducer(switches[i].NodeID()); err != nil {
			return 0, 0, err
		}
	}
	var batches []decisionBatch
	for _, w := range waves {
		events = events[:0]
		if err := inject(rec, fb, w); err != nil {
			return 0, 0, err
		}
		if _, err := rec.Run(ctx); err != nil {
			return 0, 0, err
		}
		rec.Reset()
		rids := make([][]byte, 0, w.injected)
		for _, pkts := range w.pkts {
			for _, p := range pkts {
				rids = append(rids, p.RouteID)
			}
		}
		for k := 0; k < len(events); {
			e := events[k]
			b := decisionBatch{sw: switches[e.node], red: reducers[e.node]}
			last := uint64(0)
			for ; k < len(events) && events[k].node == e.node && events[k].round == e.round; k++ {
				// A multicast packet leaves one event per copy sent.
				if id := events[k].id; id != last {
					b.rids = append(b.rids, rids[id-1])
					last = id
				}
			}
			batches = append(batches, b)
		}
	}
	// The two layers must agree on every decision.
	var ports []uint64
	decisions := 0
	for _, b := range batches {
		ports = b.sw.OutputPortBatch(b.rids, ports[:0])
		for j, rid := range b.rids {
			if b.red.ReduceBytes(rid) != ports[j] {
				res.failAll("fabric: OutputPortBatch and ReduceBytes disagree at %s", b.sw.Name())
			}
		}
		decisions += len(b.rids)
	}
	if decisions == 0 {
		return 0, 0, fmt.Errorf("no forwarding decisions recorded")
	}
	var batchTime, reduceTime time.Duration
	var replayed int
	var sink uint64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		for _, b := range batches {
			ports = b.sw.OutputPortBatch(b.rids, ports[:0])
		}
		t1 := time.Now()
		for _, b := range batches {
			for _, rid := range b.rids {
				sink += b.red.ReduceBytes(rid)
			}
		}
		t2 := time.Now()
		batchTime += t1.Sub(t0)
		reduceTime += t2.Sub(t1)
		replayed += decisions
	}
	runtime.KeepAlive(sink)
	return float64(batchTime.Nanoseconds()) / float64(replayed),
		float64(reduceTime.Nanoseconds()) / float64(replayed), nil
}
