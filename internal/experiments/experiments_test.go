package experiments

import (
	"context"
	"testing"
)

func fastTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Model:             "LR", // linear model keeps the suite fast
		Phase1Sec:         30,
		Phase2Sec:         30,
		SampleIntervalSec: 1,
		WarmupSec:         30,
	}
}

func TestFig11LatencyMigrationShape(t *testing.T) {
	res, err := RunLatencyMigrationContext(context.Background(), fastTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: the flow starts on MIA-SAO-AMS (RTT ≥ 40 ms
	// from the 20 ms tc delay) and migrates to MIA-CHI-AMS (a few ms).
	if res.FromTunnel != 1 {
		t.Errorf("FromTunnel = %d", res.FromTunnel)
	}
	if res.ToTunnel != 2 {
		t.Errorf("ToTunnel = %d, want 2 (MIA-CHI-AMS)", res.ToTunnel)
	}
	if res.PreMeanRTT < 40 {
		t.Errorf("pre-migration RTT = %v, want ≥ 40 ms", res.PreMeanRTT)
	}
	if res.PostMeanRTT > 15 {
		t.Errorf("post-migration RTT = %v, want < 15 ms", res.PostMeanRTT)
	}
	if res.PostMeanRTT >= res.PreMeanRTT/2 {
		t.Errorf("migration should at least halve RTT: %v → %v", res.PreMeanRTT, res.PostMeanRTT)
	}
	// Every sample before the migration sits on tunnel 1, after on 2.
	for _, s := range res.Samples {
		if s.Time <= res.MigrationTime && s.Tunnel != 1 {
			t.Errorf("sample at %v on tunnel %d before migration", s.Time, s.Tunnel)
		}
		if s.Time > res.MigrationTime && s.Tunnel != 2 {
			t.Errorf("sample at %v on tunnel %d after migration", s.Time, s.Tunnel)
		}
	}
	if len(res.Samples) < 50 {
		t.Errorf("only %d samples", len(res.Samples))
	}
	if res.EdgeConfig == "" {
		t.Error("missing edge config")
	}
}

func TestFig12FlowAggregationShape(t *testing.T) {
	res, err := RunFlowAggregationContext(context.Background(), fastTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: all three flows share tunnel 1's 20 Mbps → total < 20.
	if res.Phase1MeanTotal > 20.5 || res.Phase1MeanTotal < 15 {
		t.Errorf("phase-1 total = %v, want ≈20 (shared bottleneck)", res.Phase1MeanTotal)
	}
	// Phase 2: flows spread over tunnels 1, 2, 3 → total ≈ 35 at the
	// allocation level (the paper reports ≈30 with protocol overheads).
	if res.Phase2MeanTotal < 30 {
		t.Errorf("phase-2 total = %v, want ≥ 30", res.Phase2MeanTotal)
	}
	if res.Phase2MeanTotal <= res.Phase1MeanTotal+8 {
		t.Errorf("aggregation gain too small: %v → %v", res.Phase1MeanTotal, res.Phase2MeanTotal)
	}
	// The optimizer must have spread the flows across three distinct
	// tunnels.
	seen := map[int]bool{}
	for name, tun := range res.Placements {
		if seen[tun] {
			t.Errorf("flow %s shares tunnel %d with another flow: %v", name, tun, res.Placements)
		}
		seen[tun] = true
	}
	if res.Placements["flow1"] != 1 {
		t.Errorf("flow1 moved off tunnel 1: %v", res.Placements)
	}
}

func TestFig6ComparisonArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full 18-model sweep")
	}
	res, err := RunMLComparisonContext(context.Background(), DefaultMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 || len(res.Ranked) != 18 {
		t.Fatalf("rows/ranked = %d/%d", len(res.Rows), len(res.Ranked))
	}
	if res.Trace.Len() != 500 {
		t.Errorf("trace length = %d", res.Trace.Len())
	}
	if res.Ranked[len(res.Ranked)-1].Name != "GPR" {
		t.Errorf("worst model = %s, want GPR", res.Ranked[len(res.Ranked)-1].Name)
	}
}

func TestFig7And8Artifacts(t *testing.T) {
	// Fig. 7: RFR tracks the observed series closely.
	rfr, err := RunObservedVsPredictedContext(context.Background(), "RFR", DefaultMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8: GPR drifts far from it.
	gpr, err := RunObservedVsPredictedContext(context.Background(), "GPR", DefaultMLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rfr.WiFi.RMSE >= gpr.WiFi.RMSE {
		t.Errorf("RFR WiFi RMSE %v should beat GPR %v", rfr.WiFi.RMSE, gpr.WiFi.RMSE)
	}
	if rfr.LTE.RMSE >= gpr.LTE.RMSE {
		t.Errorf("RFR LTE RMSE %v should beat GPR %v", rfr.LTE.RMSE, gpr.LTE.RMSE)
	}
	if len(rfr.WiFi.Observed) != len(rfr.WiFi.Predicted) || len(rfr.WiFi.Observed) == 0 {
		t.Error("misaligned observed/predicted series")
	}
	if _, err := RunObservedVsPredictedContext(context.Background(), "NotAModel", DefaultMLConfig()); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestTestbedConfigDefaults(t *testing.T) {
	cfg := TestbedConfig{}.withDefaults()
	if cfg.Model != "RFR" || cfg.Phase1Sec != 60 || cfg.Phase2Sec != 60 ||
		cfg.SampleIntervalSec != 1 || cfg.WarmupSec != 30 {
		t.Errorf("defaults = %+v", cfg)
	}
}
