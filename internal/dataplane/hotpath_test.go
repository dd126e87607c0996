package dataplane

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// capErrText is the unified admission-refusal message every cap site
// (Inject, InjectBatch, Run, runFull) must produce — pinned here so the
// sites cannot drift apart again.
func capErrText(n, cap int) string {
	return fmt.Sprintf("dataplane: %d packets in flight exceeds MaxInFlight %d (drain with Run or raise Config.MaxInFlight)", n, cap)
}

// TestInjectBatchAtomic pins batch admission atomicity: a batch that does
// not fit under the cap is rejected without queuing a prefix, consuming
// IDs, or touching counters, so retrying it after a drain never
// double-injects.
func TestInjectBatchAtomic(t *testing.T) {
	e := labEngine(t, Config{MaxInFlight: 10})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(8, 1)); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if err := e.InjectBatch(r.Inject, r.NewPackets(5, 1)); err == nil {
		t.Fatal("overflowing batch accepted")
	} else if want := "batch of 5: " + capErrText(13, 10); err.Error() != want {
		t.Fatalf("batch rejection text:\n got %q\nwant %q", err.Error(), want)
	}
	if after := e.Stats(); after != before {
		t.Fatalf("rejected batch moved counters: %+v -> %+v", before, after)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 8 {
		t.Fatalf("delivered %d, want the 8 admitted packets only", stats.Delivered)
	}
	// The retry fits now and must not have lost or duplicated anything.
	if err := e.InjectBatch(r.Inject, r.NewPackets(5, 1)); err != nil {
		t.Fatalf("retry after drain rejected: %v", err)
	}
	if stats, err = e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 13 || stats.Injected != 13 {
		t.Fatalf("delivered %d injected %d, want 13/13", stats.Delivered, stats.Injected)
	}
	// IDs are a contiguous injection sequence: the rejected batch consumed
	// none.
	ids := make(map[uint64]bool)
	for _, pkt := range e.Delivered() {
		ids[pkt.ID] = true
	}
	for want := uint64(1); want <= 13; want++ {
		if !ids[want] {
			t.Fatalf("ID %d missing from delivered set (rejected batch consumed IDs?)", want)
		}
	}
}

// TestFullModeCancelInjectRerun pins the full-tier accounting across a
// canceled run: packets a canceled runFull left on wires still count
// against the in-flight cap (they live in the link arena with pending
// zeroed), and a later Run drains them to delivery.
func TestFullModeCancelInjectRerun(t *testing.T) {
	e := labEngine(t, Config{
		MaxInFlight: 3,
		LinkMode:    LinkFull,
		Link:        link.FullConfig{RateMbps: -1, DelayMs: -1},
	})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(3, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// The three packets now sit in the link arena, not in node queues —
	// they still occupy the whole cap.
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err == nil {
		t.Fatal("injection accepted while canceled run holds the cap on wires")
	} else if want := capErrText(4, 3); err.Error() != want {
		t.Fatalf("arena-occupancy rejection text:\n got %q\nwant %q", err.Error(), want)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 3 || stats.Dropped() != 0 {
		t.Fatalf("resumed run delivered %d dropped %d, want 3/0", stats.Delivered, stats.Dropped())
	}
	// The wires are clear; the budget is back.
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err != nil {
		t.Fatalf("injection after full drain rejected: %v", err)
	}
}

// TestCapBoundaryUnified is the cap-boundary table: the population may
// reach MaxInFlight exactly at every admission site, n > MaxInFlight is
// refused everywhere, and all sites report the identical message.
func TestCapBoundaryUnified(t *testing.T) {
	const cap = 5
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{MaxInFlight: cap}},
		{"full", Config{MaxInFlight: cap, LinkMode: LinkFull,
			Link: link.FullConfig{RateMbps: -1, DelayMs: -1}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := labEngine(t, mode.cfg)
			r, err := e.UnicastRoute(topo.TunnelPath1())
			if err != nil {
				t.Fatal(err)
			}
			// Exactly at the cap: admitted, and Run completes.
			if err := e.InjectBatch(r.Inject, r.NewPackets(cap, 1)); err != nil {
				t.Fatalf("batch of exactly MaxInFlight rejected: %v", err)
			}
			// One past the cap, from both admission calls.
			if _, err := e.Inject(r.Inject, r.NewPacket(1)); err == nil || err.Error() != capErrText(cap+1, cap) {
				t.Fatalf("Inject at cap+1: got %v, want %q", err, capErrText(cap+1, cap))
			}
			if err := e.InjectBatch(r.Inject, r.NewPackets(2, 1)); err == nil ||
				err.Error() != "batch of 2: "+capErrText(cap+2, cap) {
				t.Fatalf("InjectBatch at cap+2: got %v", err)
			}
			if stats, err := e.Run(context.Background()); err != nil || stats.Delivered != cap {
				t.Fatalf("run at exactly the cap: delivered %d, err %v", stats.Delivered, err)
			}
		})
	}
	t.Run("run-amplification", func(t *testing.T) {
		// The cyclic multicast from TestMaxInFlightStopsAmplification
		// doubles the population per cycle: 1 → 2 → 2 → 4 → 4 → 8, so with
		// MaxInFlight 4 the run must refuse at exactly 8 — populations of
		// exactly 4 passed through the cap check.
		e := triangleEngine(t, Config{MaxInFlight: 4})
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
		if _, err := e.Inject("s", Packet{RouteID: polka.RouteIDBytes(rid), Mode: Multicast, Size: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background()); err == nil || err.Error() != capErrText(8, 4) {
			t.Fatalf("amplifying Run: got %v, want %q", err, capErrText(8, 4))
		}
	})
}

// deliveredKey projects a delivered packet onto its comparable identity:
// everything the engine stamps, excluding the shared Proof pointer.
type deliveredKey struct {
	ID     uint64
	TTL    int
	Size   int
	Mode   Mode
	Egress string
	Acc    string
	RID    string
}

func deliveredKeys(pkts []Packet) []deliveredKey {
	out := make([]deliveredKey, len(pkts))
	for i, pkt := range pkts {
		out[i] = deliveredKey{
			ID: pkt.ID, TTL: pkt.TTL, Size: pkt.Size, Mode: pkt.Mode,
			Egress: pkt.Egress, Acc: pkt.Acc.String(), RID: string(pkt.RouteID),
		}
	}
	return out
}

// TestResetReplaysIdentically pins Reset's contract for the pooled round
// state: a reset engine re-running the same injections reproduces the
// delivered sequence and stats byte for byte, with the recycled buffers
// warm.
func TestResetReplaysIdentically(t *testing.T) {
	e := labEngine(t, Config{})
	uni, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	pot, err := e.PoTRoute(topo.TunnelPath2(), 11)
	if err != nil {
		t.Fatal(err)
	}
	play := func() ([]deliveredKey, Stats) {
		for _, r := range []*Route{uni, pot} {
			if err := e.InjectBatch(r.Inject, r.NewPackets(30, 256)); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return deliveredKeys(e.Delivered()), stats
	}
	firstKeys, firstStats := play()
	for replay := 0; replay < 3; replay++ {
		e.Reset()
		keys, stats := play()
		if stats != firstStats {
			t.Fatalf("replay %d stats diverge:\nfirst  %+v\nreplay %+v", replay, firstStats, stats)
		}
		if len(keys) != len(firstKeys) {
			t.Fatalf("replay %d delivered %d, first %d", replay, len(keys), len(firstKeys))
		}
		for i := range keys {
			if keys[i] != firstKeys[i] {
				t.Fatalf("replay %d delivered[%d] diverges:\nfirst  %+v\nreplay %+v", replay, i, firstKeys[i], keys[i])
			}
		}
	}
}
