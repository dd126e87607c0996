package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The generator turns the workload seed into every input a run uses:
// host-pair routes and their modes, burst lengths and their interleaving,
// packet sizes, the dashboard's flow pool and migration picks, and the
// fleet's unit orders. Each input family draws
// from its own stream split off the seed, so changing one family (say,
// the burst count) leaves the others as they were.
const (
	streamRoutes = iota + 1
	streamBursts
	streamSizes
	streamFlows
	streamMigrations
	streamSuiteOrder
)

// newStream returns the seeded generator of one input family.
func newStream(seed int64, family int64) *rand.Rand {
	// SplitMix64 finalizer: nearby seeds give unrelated streams.
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(family)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// routeKind is a route's forwarding mode in the generated mix.
type routeKind int

const (
	kindUnicast routeKind = iota
	kindPoT
	kindMulticast
)

// routeSpec is one generated route: a source host and one destination
// (unicast, PoT) or two to four (multicast).
type routeSpec struct {
	kind routeKind
	src  string
	dsts []string
	// potSeed seeds the proof-of-transit context of a PoT route.
	potSeed int64
}

// routeShare is the route mix: the share of routes, and of every wave's
// packets, each kind takes.
var routeShare = [...]float64{kindUnicast: 0.8, kindPoT: 0.1, kindMulticast: 0.1}

// genRoutes draws n routes over the hosts: 80% unicast, 10% PoT and 10%
// multicast with fan-out cycling through 2, 3 and 4. Every destination
// lies in another group (pod) than the source, so all unicast routes
// cross the same number of switches and seeds change which hosts talk,
// not how much work a packet is.
func genRoutes(seed int64, hosts []string, group func(string) string, n int) []routeSpec {
	rng := newStream(seed, streamRoutes)
	out := make([]routeSpec, n)
	nPoT := int(float64(n) * routeShare[kindPoT])
	nMulti := int(float64(n) * routeShare[kindMulticast])
	for i := range out {
		spec := routeSpec{kind: kindUnicast, src: hosts[rng.Intn(len(hosts))]}
		fanout := 1
		switch {
		case i < nMulti:
			spec.kind = kindMulticast
			fanout = 2 + i%3
		case i < nMulti+nPoT:
			spec.kind = kindPoT
			spec.potSeed = rng.Int63()
		}
		seen := map[string]bool{spec.src: true}
		for len(spec.dsts) < fanout {
			d := hosts[rng.Intn(len(hosts))]
			if !seen[d] && group(d) != group(spec.src) {
				seen[d] = true
				spec.dsts = append(spec.dsts, d)
			}
		}
		out[i] = spec
	}
	return out
}

// burst is one InjectBatch call: a run of packets of one route.
type burst struct {
	route int
	n     int
}

// maxBurst bounds a burst's length.
const maxBurst = 256

// burstLen draws a heavy-tailed burst length in [1, maxBurst]: a discrete
// Pareto with tail index 0.9, so about half the bursts are single packets
// (the scalar forwarding path) and a few run to the cap (the run-memo
// path).
func burstLen(rng *rand.Rand) int {
	n := int(math.Pow(1-rng.Float64(), -1/0.9))
	if n < 1 {
		n = 1
	}
	if n > maxBurst {
		n = maxBurst
	}
	return n
}

// genWaves draws count traffic waves of pkts packets each over the
// routes, leaving out multicast when noMulticast is set. Every route kind
// gets its routeShare of each wave's packets (renormalized over the kinds
// offered), as bursts of heavy-tailed length on random routes of that
// kind (the last burst is cut to fit); the bursts of all kinds are then
// interleaved in random order. Fixing the packets per wave and per kind
// keeps a wave's work the same across seeds, so seeds change which routes
// and burst shapes are offered, not how much traffic.
func genWaves(seed int64, specs []routeSpec, noMulticast bool, count, pkts int) [][]burst {
	rng := newStream(seed, streamBursts)
	byKind := map[routeKind][]int{}
	total := 0.0
	for i, s := range specs {
		if noMulticast && s.kind == kindMulticast {
			continue
		}
		if len(byKind[s.kind]) == 0 {
			total += routeShare[s.kind]
		}
		byKind[s.kind] = append(byKind[s.kind], i)
	}
	waves := make([][]burst, count)
	for w := range waves {
		var bs []burst
		for _, kind := range []routeKind{kindUnicast, kindPoT, kindMulticast} {
			routes := byKind[kind]
			if len(routes) == 0 {
				continue
			}
			for left := int(float64(pkts) * routeShare[kind] / total); left > 0; {
				n := burstLen(rng)
				if n > left {
					n = left
				}
				bs = append(bs, burst{route: routes[rng.Intn(len(routes))], n: n})
				left -= n
			}
		}
		rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
		waves[w] = bs
	}
	return waves
}

// imixSizer draws packet sizes from the simple IMIX: 64, 576 and 1500
// bytes in the ratio 7:4:1.
func imixSizer(seed int64) func() int {
	rng := newStream(seed, streamSizes)
	return func() int {
		switch r := rng.Intn(12); {
		case r < 7:
			return 64
		case r < 11:
			return 576
		default:
			return 1500
		}
	}
}

// flowSpec is one flow of the dashboard's pool.
type flowSpec struct {
	name   string
	tos    uint8
	demand float64 // Mbps
}

// genFlowPool deals the te-loop's bounded pool of flow names their ToS
// class and demand. The multiset of demands and of the eight ToS classes
// is the same for every seed; the seed decides which flow gets which, and
// so the order load arrives in. Demands are spread evenly over 0.1 to 0.7
// Mbps: the whole pool offers about 26 Mbps to the lab's 20 + 10 + 5 Mbps
// of tunnels, so tunnels load and drain as flows migrate, and the
// telemetry Hecate trains on keeps varying instead of pinning at zero
// available bandwidth.
func genFlowPool(seed int64, n int) []flowSpec {
	rng := newStream(seed, streamFlows)
	demands, classes := rng.Perm(n), rng.Perm(n)
	out := make([]flowSpec, n)
	for i := range out {
		out[i] = flowSpec{
			name:   fmt.Sprintf("flow%02d", i),
			tos:    uint8(4 * (1 + classes[i]%8)),
			demand: 0.1 + 0.6*(float64(demands[i])+0.5)/float64(n),
		}
	}
	return out
}

// genSuiteOrders returns n seeded orders of the scenario names. The order
// decides which backend pulls which unit from the work queue, and so the
// suite's makespan; cycling through several orders keeps one unlucky
// order from setting a run's figures.
func genSuiteOrders(seed int64, names []string, n int) [][]string {
	rng := newStream(seed, streamSuiteOrder)
	out := make([][]string, n)
	for k := range out {
		order := make([]string, len(names))
		for i, j := range rng.Perm(len(names)) {
			order[i] = names[j]
		}
		out[k] = order
	}
	return out
}
