package dispatch

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/dispatch/dispatchtest"
	"repro/internal/labd"
)

// TestChaosWedgedBackendMidSuite: a backend that accepts a unit and
// then wedges (control requests stall while its event stream idles) must
// surface as a poll timeout and requeue — not stall the dispatch behind
// the hung connection.
func TestChaosWedgedBackendMidSuite(t *testing.T) {
	cluster := newCluster(t, 2)
	ctx := ctxT(t)

	gate := &blockGate{release: make(chan struct{})}
	blockerGate.Store(gate)
	defer blockerGate.Store(nil)
	defer close(gate.release)

	blocked := make(chan string, 1)
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = Run(ctx, cluster.Addrs(), Options{
			Spec:           labd.JobSpec{Scenarios: fixtureNames, Quick: true},
			RequestTimeout: 500 * time.Millisecond,
			OnEvent: func(ev Event) {
				if ev.Event.Scenario == "dsp-block" && ev.Event.Phase == "blocked" {
					select {
					case blocked <- ev.Backend:
					default:
					}
				}
			},
		})
	}()

	var wedgedAddr string
	select {
	case wedgedAddr = <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("the blocker never reported holding a unit")
	}
	for _, b := range cluster.Backends {
		if b.Addr() == wedgedAddr {
			b.SetFault(dispatchtest.FaultHang)
		}
	}

	select {
	case <-done:
	case <-time.After(45 * time.Second):
		t.Fatal("dispatch stalled behind the wedged backend")
	}
	if runErr != nil {
		t.Fatalf("dispatch after wedge: %v", runErr)
	}
	if err := res.Suite.Err(); err != nil {
		t.Fatalf("merged result not green after requeue: %v", err)
	}
	// Units the wedged backend completed before wedging are legitimate;
	// the held unit itself must have spilled off it onto a survivor.
	block := unitFor(t, res, "dsp-block")
	if block.Backend == wedgedAddr {
		t.Errorf("the held unit is still credited to the wedged backend")
	}
	requeued := false
	for _, off := range block.Requeues {
		if off == wedgedAddr {
			requeued = true
		}
	}
	if !requeued {
		t.Errorf("held unit requeues = %v, want the wedged backend recorded", block.Requeues)
	}
}

// unitFor returns the unit run covering the named scenario.
func unitFor(t *testing.T, res *Result, name string) UnitRun {
	t.Helper()
	for _, u := range res.Units {
		if u.Scenario == name {
			return u
		}
	}
	t.Fatalf("no unit covers %s", name)
	return UnitRun{}
}

// TestChaosKillBackendMidSuite is the chaos e2e: a 3-backend cluster
// loses one backend while its unit is mid-flight (a fixture scenario
// holds the run until the chaos monkey strikes). The dispatcher must
// detect the death, requeue the unit onto a survivor, finish green,
// and produce a merged artifact byte-equivalent (modulo wall time) to a
// single-process run of the same suite.
func TestChaosKillBackendMidSuite(t *testing.T) {
	cluster := newCluster(t, 3)
	ctx := ctxT(t)

	// Arm the blocker: exactly one run (wherever its unit lands) holds
	// until released; the requeued re-run proceeds immediately.
	gate := &blockGate{release: make(chan struct{})}
	blockerGate.Store(gate)
	defer blockerGate.Store(nil)
	defer close(gate.release)

	blocked := make(chan string, 1) // backend address holding dsp-block
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = Run(ctx, cluster.Addrs(), Options{
			Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true},
			OnEvent: func(ev Event) {
				if ev.Event.Scenario == "dsp-block" && ev.Event.Phase == "blocked" {
					select {
					case blocked <- ev.Backend:
					default:
					}
				}
			},
		})
	}()

	var victimAddr string
	select {
	case victimAddr = <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("the blocker never reported holding a unit")
	}
	for _, b := range cluster.Backends {
		if b.Addr() == victimAddr {
			b.Kill() // severs the event stream and cancels the held job
		}
	}

	select {
	case <-done:
	case <-time.After(45 * time.Second):
		t.Fatal("dispatch did not recover from the mid-suite kill")
	}
	if runErr != nil {
		t.Fatalf("dispatch after kill: %v", runErr)
	}
	if err := res.Suite.Err(); err != nil {
		t.Fatalf("merged result not green after requeue: %v", err)
	}

	// Only the victim's in-flight unit re-spills, and exactly once: the
	// whole point of scenario-granular requeue. Everything else ran on
	// its first attempt (either completed before the kill or pulled by a
	// survivor after it).
	block := unitFor(t, res, "dsp-block")
	if block.Backend == victimAddr {
		t.Errorf("the held unit is still credited to the killed backend")
	}
	if block.Attempts != 2 || len(block.Requeues) != 1 || block.Requeues[0] != victimAddr {
		t.Errorf("held unit attempts=%d requeues=%v, want exactly one requeue off the victim",
			block.Attempts, block.Requeues)
	}
	for _, u := range res.Units {
		if u.Scenario != "dsp-block" && u.Attempts != 1 {
			t.Errorf("unit %s took %d attempts; only the in-flight unit should requeue", u.Scenario, u.Attempts)
		}
	}

	// Byte-equivalence (modulo wall time) against a single-process run.
	local := localSuite(t, fixtureNames, true)
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(t, res.Raw), canon(t, localJSON); got != want {
		t.Errorf("post-chaos merged artifact differs from a single run:\n--- dispatch\n%s\n--- local\n%s", got, want)
	}
}
