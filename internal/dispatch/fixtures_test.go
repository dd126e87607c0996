package dispatch

import (
	"context"
	"sync/atomic"

	"repro/internal/scenario"
)

// The dispatch test registry: deterministic fixtures whose metrics
// depend only on configuration, so merged fleet results can be compared
// byte-for-byte (modulo wall time) against local runs. The test binary
// never imports internal/experiments — the registry holds exactly these.

type fixCfg struct {
	Gain float64
}

// fix is one deterministic fixture scenario.
type fix struct {
	name string
	gain float64
}

func (f fix) Name() string       { return f.name }
func (f fix) Describe() string   { return "dispatch fixture " + f.name }
func (f fix) DefaultConfig() any { return fixCfg{Gain: f.gain} }
func (f fix) QuickConfig() any   { return fixCfg{Gain: f.gain / 2} }
func (f fix) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	c := cfg.(fixCfg)
	env.Phasef("compute", "gain %g", c.Gain)
	rep := &scenario.Report{EmulatedSeconds: f.gain}
	rep.Metric("gain", c.Gain)
	rep.Metric("twice_gain", 2*c.Gain)
	return rep, nil
}

// blockGate arms the blocker fixture for exactly one run: the first run
// that consumes the gate blocks until its context dies or the release
// channel closes; every other run (the requeued one included) returns
// immediately. Chaos tests use it to hold a unit mid-flight on the
// backend about to be killed.
type blockGate struct {
	release chan struct{}
}

var blockerGate atomic.Pointer[blockGate]

// blocker is the "dsp-block" fixture.
type blocker struct{}

func (blocker) Name() string       { return "dsp-block" }
func (blocker) Describe() string   { return "dispatch fixture that can hold one run mid-flight" }
func (blocker) DefaultConfig() any { return fixCfg{Gain: 13} }
func (blocker) QuickConfig() any   { return fixCfg{Gain: 6.5} }
func (blocker) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	if g := blockerGate.Swap(nil); g != nil {
		env.Phasef("blocked", "holding for the chaos monkey")
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-g.release:
		}
	}
	c := cfg.(fixCfg)
	rep := &scenario.Report{EmulatedSeconds: c.Gain}
	rep.Metric("gain", c.Gain)
	rep.Metric("twice_gain", 2*c.Gain)
	return rep, nil
}

// fixtureNames is the sorted full registry of this test binary.
var fixtureNames = []string{"dsp-a", "dsp-block", "dsp-c", "dsp-d", "dsp-e", "dsp-f"}

func init() {
	scenario.Register(fix{name: "dsp-a", gain: 1})
	scenario.Register(blocker{})
	scenario.Register(fix{name: "dsp-c", gain: 3})
	scenario.Register(fix{name: "dsp-d", gain: 4})
	scenario.Register(fix{name: "dsp-e", gain: 5})
	scenario.Register(fix{name: "dsp-f", gain: 6})
}
