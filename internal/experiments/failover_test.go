package experiments

import (
	"context"
	"testing"
)

func TestFailureRecoveryShape(t *testing.T) {
	res, err := RunFailureRecoveryContext(context.Background(), fastTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Before the failure the flow saturates tunnel 1.
	if res.SteadyBefore < 18 {
		t.Errorf("steady rate before failure = %v, want ≈20", res.SteadyBefore)
	}
	// The optimizer must move the flow off the dead tunnel 1 onto the
	// best healthy alternative (tunnel 2, 10 Mbps).
	if res.RecoveredTunnel != 2 {
		t.Errorf("recovered onto tunnel %d, want 2", res.RecoveredTunnel)
	}
	if res.SteadyAfter < 9.5 {
		t.Errorf("steady rate after recovery = %v, want ≈10", res.SteadyAfter)
	}
	// During the outage the flow was actually blackholed.
	sawZero := false
	for _, s := range res.Samples {
		if s.Time > res.FailureTime && s.Time <= res.RecoveryTime && s.Total == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Error("no blackholed sample observed during the outage")
	}
	if res.OutageSec <= 0 {
		t.Errorf("outage duration = %v, want > 0", res.OutageSec)
	}
	if res.RecoveryTime <= res.FailureTime {
		t.Error("recovery must follow failure")
	}
}
