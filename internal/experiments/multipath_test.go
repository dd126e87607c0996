package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/topo"
)

func TestMultipathAggregationEndToEnd(t *testing.T) {
	res, err := RunMultipathAggregationContext(context.Background(), DefaultMultipathConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteIDBits == "" || res.RouteIDBits == "0" {
		t.Fatalf("routeID = %q", res.RouteIDBits)
	}
	// MIA must replicate toward both CHI and CAL under the single label.
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantMask, err := expectedMIAPortSet(lab)
	if err != nil {
		t.Fatal(err)
	}
	var gotMask uint64
	for _, p := range res.PortSets[topo.MIA] {
		gotMask |= 1 << p
	}
	if gotMask != wantMask {
		t.Errorf("MIA port set = %#b, want %#b", gotMask, wantMask)
	}
	if len(res.PortSets[topo.MIA]) != 2 {
		t.Errorf("MIA should split to 2 ports, got %v", res.PortSets[topo.MIA])
	}
	// Single-egress nodes carry one port.
	for _, name := range []string{topo.CAL, topo.AMS} {
		if len(res.PortSets[name]) != 1 {
			t.Errorf("%s port set = %v, want single port", name, res.PortSets[name])
		}
	}
	// The multipath flow sums the branch bottlenecks (10 + 5).
	if math.Abs(res.AggregateMbps-15) > 0.3 {
		t.Errorf("aggregate = %v, want ≈15", res.AggregateMbps)
	}
	if len(res.BranchMbps) != 2 {
		t.Fatalf("branches = %v", res.BranchMbps)
	}
	if math.Abs(res.BranchMbps[0]-10) > 0.3 || math.Abs(res.BranchMbps[1]-5) > 0.3 {
		t.Errorf("branch rates = %v, want ≈[10 5]", res.BranchMbps)
	}
	// Deterministic artifact.
	res2, err := RunMultipathAggregationContext(context.Background(), DefaultMultipathConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.RouteIDBits != res.RouteIDBits || !reflect.DeepEqual(res2.PortSets, res.PortSets) {
		t.Error("multipath run not deterministic")
	}
}
