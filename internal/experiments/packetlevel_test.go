package experiments

import (
	"context"
	"testing"

	"repro/internal/dataplane"
)

func TestRunPacketLevelSerial(t *testing.T) {
	res, err := RunPacketLevelContext(context.Background(), PacketLevelConfig{PacketsPerRoute: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 5 {
		t.Fatalf("got %d routes, want 5 (three tunnels, multicast, pot)", len(res.Routes))
	}
	for _, r := range res.Routes {
		want := r.Injected
		if r.Mode == dataplane.Multicast {
			want = 2 * r.Injected // two branches re-join at AMS
		}
		if r.Delivered != want {
			t.Errorf("route %s: delivered %d, want %d", r.Label, r.Delivered, want)
		}
		if r.RouteIDBits <= 0 {
			t.Errorf("route %s: routeID is empty", r.Label)
		}
	}
	if res.Stats.Dropped() != 0 {
		t.Fatalf("dropped %d packets", res.Stats.Dropped())
	}
	if res.Stats.PoTVerified != 100 {
		t.Fatalf("potVerified %d, want 100", res.Stats.PoTVerified)
	}
}
