package experiments

import (
	"context"
	"fmt"

	"repro/internal/controlplane"
)

// FailoverResult records the failure-recovery experiment: PolKA's claimed
// "robust failure recovery" exercised through the full framework. A flow
// runs on tunnel 1; the MIA-SAO link dies; the optimizer — seeing the
// tunnel's available bandwidth collapse in telemetry — moves the flow to
// a healthy tunnel with one PBR retarget.
type FailoverResult struct {
	// Samples is the flow's throughput over the whole run.
	Samples []ThroughputSample
	// FailureTime and RecoveryTime bracket the outage on the emulated
	// clock.
	FailureTime, RecoveryTime float64
	// RecoveredTunnel is where the flow landed.
	RecoveredTunnel int
	// OutageSec is how long the flow was blackholed (failure → first
	// nonzero sample after recovery).
	OutageSec float64
	// SteadyBefore and SteadyAfter are mean rates before failure and
	// after recovery settles.
	SteadyBefore, SteadyAfter float64
}

// RunFailureRecoveryContext reproduces the failure-recovery scenario
// implied by the paper's PolKA claims (Section I/VII): stateless cores
// make rerouting around a dead link a pure edge operation.
func RunFailureRecoveryContext(ctx context.Context, cfg TestbedConfig) (*FailoverResult, error) {
	cfg = cfg.withDefaults()
	f, err := newFramework(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Stop()

	if err := f.Warmup(ctx, "max-bandwidth", cfg.WarmupSec); err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}

	const flowName = "victim"
	if _, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
		Name: flowName, ToS: 4, PinTunnel: 1,
	}); err != nil {
		return nil, err
	}
	res := &FailoverResult{}
	id, ok := f.Polka.FlowID(flowName)
	if !ok {
		return nil, fmt.Errorf("experiments: flow not registered")
	}
	sample := func() error {
		state, err := f.Emu.Flow(id)
		if err != nil {
			return err
		}
		res.Samples = append(res.Samples, ThroughputSample{
			Time:    f.Emu.Now(),
			PerFlow: map[string]float64{flowName: state.RateMbps},
			Total:   state.RateMbps,
		})
		return nil
	}

	// Steady phase on tunnel 1.
	for i := 0; i < int(cfg.Phase1Sec); i++ {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
	}
	var preSum float64
	for _, s := range res.Samples {
		preSum += s.Total
	}
	res.SteadyBefore = preSum / float64(len(res.Samples))

	// Kill the MIA-SAO link: tunnel 1 blackholes.
	if err := f.Emu.FailLink("MIA", "SAO"); err != nil {
		return nil, err
	}
	res.FailureTime = f.Emu.Now()
	// Let telemetry observe the collapse, then retrain and re-ask.
	if err := f.RunFor(ctx, 12); err != nil {
		return nil, err
	}
	if err := sample(); err != nil {
		return nil, err
	}
	if err := f.Control.TrainHecateContext(ctx, "max-bandwidth", int(f.Emu.Now())); err != nil {
		return nil, err
	}
	resp, err := f.Dash.InsertNewFlow(controlplane.FlowRequest{
		Name: flowName, Objective: "max-bandwidth",
	})
	if err != nil {
		return nil, err
	}
	res.RecoveryTime = f.Emu.Now()
	res.RecoveredTunnel = resp.TunnelID

	// Post-recovery phase.
	firstAlive := -1.0
	for i := 0; i < int(cfg.Phase2Sec); i++ {
		if err := f.RunFor(ctx, cfg.SampleIntervalSec); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
		last := res.Samples[len(res.Samples)-1]
		if firstAlive < 0 && last.Total > 0.1 {
			firstAlive = last.Time
		}
	}
	if firstAlive >= 0 {
		res.OutageSec = firstAlive - res.FailureTime
	}
	var postSum float64
	var postN int
	for _, s := range res.Samples {
		if s.Time > res.RecoveryTime+10 {
			postSum += s.Total
			postN++
		}
	}
	if postN > 0 {
		res.SteadyAfter = postSum / float64(postN)
	}
	return res, nil
}
