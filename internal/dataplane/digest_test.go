package dataplane_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/link"
	"repro/internal/topo"
)

// mixedModesOutput writes the mixed-modes run's observable output: Stats
// (Rounds included), the delivered packets in delivery order, and every
// node's counters in domain order.
func mixedModesOutput(t *testing.T, w io.Writer) {
	mixedModesOutputWith(t, w, dataplane.Config{})
}

// mixedModesOutputWith is mixedModesOutput over an engine built from cfg.
func mixedModesOutputWith(t *testing.T, w io.Writer, cfg dataplane.Config) {
	e := dataplane.MixedModesEngine(t, cfg)
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "stats %+v\n", stats)
	for _, k := range dataplane.DeliveredKeys(e.Delivered()) {
		fmt.Fprintf(w, "delivered %+v\n", k)
	}
	for _, name := range e.Domain().Nodes() {
		ns, err := e.NodeStats(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "node %s %+v\n", name, ns)
	}
}

// fullMixedModesOutput writes the mixed-modes run on the full link tier
// with recorded paths: Stats (Rounds included), the delivered packets in
// delivery order with their arrival instants and paths, every node's
// counters and every directed link's counters in domain and port order,
// and the virtual clock. The links are modeled as 100 Mb/s wires with
// 1 ms of propagation, 32-frame egress queues and 5% Bernoulli loss, so
// the 120-packet burst both tail-drops and loses frames.
func fullMixedModesOutput(t *testing.T, w io.Writer) {
	fullOutputWith(t, w, dataplane.Config{LinkMode: dataplane.LinkFull, Seed: 11, RecordPaths: true,
		Link: link.FullConfig{RateMbps: 100, DelayMs: 1, QueuePkts: 32, Loss: link.Bernoulli(0.05)}})
}

// fullTracedOutput is the mixed-modes run on topology-attribute links
// (Link zero: every link's capacity and delay come from the topology)
// with a trace hook; it writes fullMixedModesOutput's lines plus every
// trace event in emission order.
func fullTracedOutput(t *testing.T, w io.Writer) {
	var events []dataplane.TraceEvent
	fullOutputWith(t, w, dataplane.Config{LinkMode: dataplane.LinkFull, Seed: 5, RecordPaths: true,
		Trace: func(ev dataplane.TraceEvent) { events = append(events, ev) }})
	for _, ev := range events {
		fmt.Fprintf(w, "trace %+v\n", ev)
	}
}

// fullOutputWith writes a full-tier mixed-modes run over an engine built
// from cfg; see fullMixedModesOutput.
func fullOutputWith(t *testing.T, w io.Writer, cfg dataplane.Config) {
	e := dataplane.MixedModesEngine(t, cfg)
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "stats %+v\n", stats)
	delivered := e.Delivered()
	for i, k := range dataplane.DeliveredKeys(delivered) {
		fmt.Fprintf(w, "delivered %+v at %d path %+v\n", k, delivered[i].ArrivalNs, delivered[i].Path)
	}
	lab := e.Topology()
	for _, name := range e.Domain().Nodes() {
		ns, err := e.NodeStats(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "node %s %+v\n", name, ns)
		n, err := lab.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range n.Neighbors() {
			ls, err := e.LinkStats(name, nb)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "link %s->%s %+v\n", name, nb, ls)
		}
	}
	fmt.Fprintf(w, "virtual %d\n", e.VirtualNow())
}

// packetLevelOutput writes the packetlevel scenario's Stats and per-route
// reports at the quick size (200 packets per route). Measurement rounds
// are Reset replays of one workload, so two of them yield the quick
// config's counters.
func packetLevelOutput(t *testing.T, w io.Writer) {
	res, err := experiments.RunPacketLevelContext(context.Background(),
		experiments.PacketLevelConfig{PacketsPerRoute: 200, MeasureRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "stats %+v\n", res.Stats)
	for _, r := range res.Routes {
		fmt.Fprintf(w, "route %+v\n", r)
	}
}

// TestOutputMatchesPinnedDigests pins both link tiers' output byte for
// byte: each case's rendered output must hash to its recorded SHA-256.
// The fast-tier digests were taken while the engine still had a sharded
// Workers > 1 round path, and Workers 1, 2, 4 and 8 all produced them;
// the full-tier digests were taken while each tier still carried its own
// copy of the per-packet forwarding rules.
func TestOutputMatchesPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		name   string
		output func(*testing.T, io.Writer)
		want   string
	}{
		{"mixed-modes", mixedModesOutput, mixedModesDigest},
		{"packetlevel-quick", packetLevelOutput, "d2d36a54a42574703a7deaa21d6af167ec744df62ec7e0ed4f9b74ac20c6bbb3"},
		{"full-mixed-modes", fullMixedModesOutput, "d12d63ba9591e80f92c76093aad13298b94147ebb8c8e8f73afe6a6505f912ff"},
		{"full-traced", fullTracedOutput, "d7b8563b70536d79fb2cf00450cf4407ff0b3571c0254d686c13ef557998314b"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := outputDigest(t, c.output); got != c.want {
				t.Fatalf("output digest %s, want %s", got, c.want)
			}
		})
	}
}

// mixedModesDigest is the SHA-256 of mixedModesOutput.
const mixedModesDigest = "c4b8fe924f7e99df2e7ad926acb1af06b9e6afd1138169960a0b903da8b5749c"

// outputDigest hashes what output writes and returns it in hex.
func outputDigest(t *testing.T, output func(*testing.T, io.Writer)) string {
	h := sha256.New()
	output(t, h)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSerialParallelDeliveredIdentical is the determinism contract for
// the deprecated Config.Workers: configurations that still ask for 2, 4
// or 8 workers get the serial loop's output byte for byte — Stats with
// Rounds, the delivered order and contents, and every node's counters —
// under all three modes at once.
func TestSerialParallelDeliveredIdentical(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		got := outputDigest(t, func(t *testing.T, w io.Writer) {
			mixedModesOutputWith(t, w, dataplane.Config{Workers: workers})
		})
		if got != mixedModesDigest {
			t.Fatalf("workers=%d output digest %s, want the serial %s", workers, got, mixedModesDigest)
		}
	}
}

// TestSerialParallelParity checks that a unicast workload over all three
// lab tunnels yields the same Stats and delivered IDs whether or not the
// deprecated Config.Workers is set.
func TestSerialParallelParity(t *testing.T) {
	run := func(workers int) (dataplane.Stats, []uint64) {
		e := dataplane.LabEngine(t, dataplane.Config{Workers: workers})
		for _, tun := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
			r, err := e.UnicastRoute(tun)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InjectBatch(r.Inject, r.NewPackets(50, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, 0, stats.Delivered)
		for _, pkt := range e.Delivered() {
			ids = append(ids, pkt.ID)
		}
		return stats, ids
	}
	serialStats, serialIDs := run(1)
	if serialStats.Delivered != 150 {
		t.Fatalf("serial run delivered %d, want 150", serialStats.Delivered)
	}
	parallelStats, parallelIDs := run(4)
	if serialStats != parallelStats {
		t.Fatalf("stats diverge:\nWorkers=1 %+v\nWorkers=4 %+v", serialStats, parallelStats)
	}
	if !slices.Equal(serialIDs, parallelIDs) {
		t.Fatalf("delivered IDs diverge:\nWorkers=1 %v\nWorkers=4 %v", serialIDs, parallelIDs)
	}
}

// TestTraceMixedModes runs all three forwarding modes at once with a
// trace hook. The hook fires once per emitted copy: once per forwarding
// decision, plus one extra for each multicast replica beyond the first —
// MIA sends every multicast packet both to SAO and to CHI.
func TestTraceMixedModes(t *testing.T) {
	events := uint64(0)
	e := dataplane.MixedModesEngine(t, dataplane.Config{Trace: func(dataplane.TraceEvent) { events++ }})
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(40 + 40 + 80) // unicast + pot + two multicast copies each
	if stats.Delivered != want {
		t.Fatalf("delivered %d, want %d", stats.Delivered, want)
	}
	if stats.PoTVerified != 40 {
		t.Fatalf("potVerified %d, want 40", stats.PoTVerified)
	}
	if want := stats.Hops + 40; events != want {
		t.Fatalf("trace events %d, want Hops %d + 40 replicas = %d", events, stats.Hops, want)
	}
}
