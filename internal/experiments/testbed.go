package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/controlplane"
	"repro/internal/hecate"
	"repro/internal/netem"
)

// TestbedConfig parametrizes the two emulated-testbed experiments.
type TestbedConfig struct {
	// Model names the Hecate regressor ("RFR" default; "LR" for fast CI).
	Model string
	// Phase1Sec is how long the arbitrary allocation runs (paper: 60 s).
	Phase1Sec float64
	// Phase2Sec is how long the optimized allocation is observed.
	Phase2Sec float64
	// SampleIntervalSec is the measurement period (paper: 1 s).
	SampleIntervalSec float64
	// WarmupSec is telemetry accumulation before training (≥ lag+1).
	WarmupSec float64
}

// DefaultTestbedConfig mirrors the paper's experiment timing.
func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Model:             "RFR",
		Phase1Sec:         60,
		Phase2Sec:         60,
		SampleIntervalSec: 1,
		WarmupSec:         30,
	}
}

// QuickTestbedConfig derives the smoke-run variant from the canonical
// defaults: the linear model and halved phases, the settings the examples
// and CI use. Deriving (instead of restating) keeps the quick and paper
// configurations from drifting apart.
func QuickTestbedConfig() TestbedConfig {
	cfg := DefaultTestbedConfig()
	cfg.Model = "LR"
	cfg.Phase1Sec = 30
	cfg.Phase2Sec = 30
	return cfg
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.Model == "" {
		c.Model = "RFR"
	}
	if c.Phase1Sec <= 0 {
		c.Phase1Sec = 60
	}
	if c.Phase2Sec <= 0 {
		c.Phase2Sec = 60
	}
	if c.SampleIntervalSec <= 0 {
		c.SampleIntervalSec = 1
	}
	if c.WarmupSec < 15 {
		c.WarmupSec = 30
	}
	return c
}

// newFramework assembles the lab framework for an experiment.
func newFramework(cfg TestbedConfig) (*controlplane.Framework, error) {
	return controlplane.NewFramework(controlplane.FrameworkConfig{
		Netem:          netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 40},
		Hecate:         hecate.Config{Lag: 10, Horizon: 10, Model: cfg.Model},
		RequestTimeout: 30 * time.Second,
	})
}

// RTTSample is one ping observation of experiment 1.
type RTTSample struct {
	// Time is seconds on the emulated clock.
	Time float64
	// RTTms is the probe's round-trip time.
	RTTms float64
	// Tunnel is the tunnel the probed flow was on at sample time.
	Tunnel int
}

// LatencyMigrationResult is the Fig. 11 artifact.
type LatencyMigrationResult struct {
	// Samples is the full RTT series across both phases.
	Samples []RTTSample
	// MigrationTime is when the PBR retarget happened.
	MigrationTime float64
	// FromTunnel and ToTunnel record the migration (1 → 2 in the paper).
	FromTunnel, ToTunnel int
	// PreMeanRTT and PostMeanRTT summarize the two phases.
	PreMeanRTT, PostMeanRTT float64
	// EdgeConfig is the ingress router's configuration after migration.
	EdgeConfig string
}

// RunLatencyMigrationContext reproduces testbed experiment 1 (Fig. 11): a
// flow is pinned to the high-latency tunnel MIA-SAO-AMS for the first
// phase while ICMP-like probes measure its RTT; the optimizer is then
// consulted with the min-latency objective and the flow migrates — one
// PBR retarget — to MIA-CHI-AMS, where probing continues. The warmup,
// both measurement phases, and Hecate training all abort promptly when
// ctx is canceled.
func RunLatencyMigrationContext(ctx context.Context, cfg TestbedConfig) (*LatencyMigrationResult, error) {
	cfg = cfg.withDefaults()
	f, err := newFramework(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Stop()

	// Warm telemetry up and train the per-tunnel RTT models.
	if err := f.Warmup(ctx, "min-latency", cfg.WarmupSec); err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}

	// Phase (i): the controller allocates the flow to an arbitrary path —
	// tunnel 1 through SAO, carrying the 20 ms tc delay.
	const flowName = "ping-flow"
	if _, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
		Name: flowName, ToS: 4, DemandMbps: 1, PinTunnel: 1,
	}); err != nil {
		return nil, err
	}
	res := &LatencyMigrationResult{FromTunnel: 1, ToTunnel: 2}
	currentTunnel := 1

	probe := func() error {
		p, err := f.TunnelPath(currentTunnel)
		if err != nil {
			return err
		}
		rtt, err := f.Emu.ProbeRTTms(p)
		if err != nil {
			return err
		}
		res.Samples = append(res.Samples, RTTSample{Time: f.Emu.Now(), RTTms: rtt, Tunnel: currentTunnel})
		return nil
	}

	phase1End := f.Emu.Now() + cfg.Phase1Sec
	for f.Emu.Now() < phase1End {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := probe(); err != nil {
			return nil, err
		}
	}

	// Phase (ii): ask the optimizer for a latency-minimizing allocation.
	// The same flow name triggers the PBR retarget.
	resp, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
		Name: flowName, ToS: 4, DemandMbps: 1, Objective: "min-latency",
	})
	if err != nil {
		return nil, err
	}
	res.MigrationTime = f.Emu.Now()
	res.ToTunnel = resp.TunnelID
	currentTunnel = resp.TunnelID

	phase2End := f.Emu.Now() + cfg.Phase2Sec
	for f.Emu.Now() < phase2End {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := probe(); err != nil {
			return nil, err
		}
	}
	res.EdgeConfig = f.Polka.EdgeConfig()

	// Phase summaries.
	var preSum, postSum float64
	var preN, postN int
	for _, s := range res.Samples {
		if s.Time <= res.MigrationTime {
			preSum += s.RTTms
			preN++
		} else {
			postSum += s.RTTms
			postN++
		}
	}
	if preN > 0 {
		res.PreMeanRTT = preSum / float64(preN)
	}
	if postN > 0 {
		res.PostMeanRTT = postSum / float64(postN)
	}
	return res, nil
}

// ThroughputSample is one measurement of experiment 2.
type ThroughputSample struct {
	// Time is seconds on the emulated clock.
	Time float64
	// PerFlow maps flow name → Mbps.
	PerFlow map[string]float64
	// Total is the aggregate Mbps.
	Total float64
}

// FlowAggregationResult is the Fig. 12 artifact.
type FlowAggregationResult struct {
	// Samples is the full throughput series across both phases.
	Samples []ThroughputSample
	// ReallocationTime is when the optimizer spread the flows.
	ReallocationTime float64
	// Phase1MeanTotal and Phase2MeanTotal summarize aggregate throughput
	// before and after (paper: <20 Mbps → ≈30 Mbps).
	Phase1MeanTotal, Phase2MeanTotal float64
	// Placements maps flow name → final tunnel ID.
	Placements map[string]int
	// EdgeConfig is the ingress router's configuration after reallocation.
	EdgeConfig string
}

// RunFlowAggregationContext reproduces testbed experiment 2 (Fig. 12):
// three TCP flows with distinct ToS values all start on tunnel 1 and
// split its 20 Mbps bottleneck; the optimizer is then consulted per flow
// with the bandwidth objective, moving one flow to tunnel 2 and another
// to tunnel 3, raising the aggregate throughput.
func RunFlowAggregationContext(ctx context.Context, cfg TestbedConfig) (*FlowAggregationResult, error) {
	cfg = cfg.withDefaults()
	f, err := newFramework(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Stop()

	if err := f.Warmup(ctx, "max-bandwidth", cfg.WarmupSec); err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}

	flows := []struct {
		name string
		tos  uint8
	}{{"flow1", 4}, {"flow2", 8}, {"flow3", 12}}
	for _, fl := range flows {
		if _, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
			Name: fl.name, ToS: fl.tos, PinTunnel: 1,
		}); err != nil {
			return nil, err
		}
	}
	res := &FlowAggregationResult{Placements: map[string]int{"flow1": 1, "flow2": 1, "flow3": 1}}

	sample := func() error {
		s := ThroughputSample{Time: f.Emu.Now(), PerFlow: make(map[string]float64, len(flows))}
		for _, fl := range flows {
			id, ok := f.Polka.FlowID(fl.name)
			if !ok {
				return fmt.Errorf("experiments: flow %q vanished", fl.name)
			}
			state, err := f.Emu.Flow(id)
			if err != nil {
				return err
			}
			s.PerFlow[fl.name] = state.RateMbps
			s.Total += state.RateMbps
		}
		res.Samples = append(res.Samples, s)
		return nil
	}

	phase1End := f.Emu.Now() + cfg.Phase1Sec
	for f.Emu.Now() < phase1End {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
	}
	res.ReallocationTime = f.Emu.Now()

	// Retrain on the telemetry accumulated through phase 1, which now
	// contains the saturation signal on tunnel 1.
	if err := f.Control.TrainHecateContext(ctx, "max-bandwidth", int(cfg.WarmupSec+cfg.Phase1Sec)); err != nil {
		return nil, fmt.Errorf("experiments: retraining: %w", err)
	}

	// Phase (ii): re-ask the optimizer for flows 2 and 3 under the
	// bandwidth metric. Between the two requests the emulator advances so
	// telemetry reflects the first migration.
	for _, name := range []string{"flow2", "flow3"} {
		resp, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
			Name: name, Objective: "max-bandwidth",
		})
		if err != nil {
			return nil, err
		}
		res.Placements[name] = resp.TunnelID
		if err := f.RunFor(ctx, 5); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
	}

	phase2End := f.Emu.Now() + cfg.Phase2Sec
	for f.Emu.Now() < phase2End {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
	}
	res.EdgeConfig = f.Polka.EdgeConfig()

	var preSum, postSum float64
	var preN, postN int
	for _, s := range res.Samples {
		switch {
		case s.Time <= res.ReallocationTime:
			preSum += s.Total
			preN++
		case s.Time > res.ReallocationTime+15: // let ramps settle
			postSum += s.Total
			postN++
		}
	}
	if preN > 0 {
		res.Phase1MeanTotal = preSum / float64(preN)
	}
	if postN > 0 {
		res.Phase2MeanTotal = postSum / float64(postN)
	}
	return res, nil
}
