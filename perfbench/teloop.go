package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/telemetry"
)

// te-loop sizes: the Fig. 4 loop as cmd/frameworkd -broker deploys it.
const (
	tePool    = 64 // bounded pool of flow names
	teBatch   = 16 // InsertNewFlow calls per epoch
	teClients = 2  // concurrent closed-loop dashboard clients
	// teWarmupS emulated seconds of telemetry precede the first training.
	teWarmupS = 30
	// Hecate is retrained every teRetrainS emulated seconds on the last
	// teWindow samples, so training cost stays flat as the run goes on.
	teRetrainS  = 30
	teWindow    = 30
	teObjective = "max-bandwidth"
	// teHeapEpochs epochs run before the live heap is read, between two
	// timed blocks. The emulator keeps every sample, so the heap grows
	// with the epochs run; a fixed count keeps host speed out of
	// heap_live_mb.
	teHeapEpochs = 4 * teRetrainS
)

// teHecate is the optimizer configuration the framework serves with.
var teHecate = hecate.Config{Lag: 10, Horizon: 10, Model: "RFR"}

// teStack is one deployment: a broker on the loopback interface, the
// framework's connection to it, and the framework.
type teStack struct {
	broker *bus.Broker
	conn   *bus.TCPClient
	counts *countingBus // traced runs only
	f      *controlplane.Framework
}

func (s *teStack) close() {
	if s.f != nil {
		s.f.Stop()
	}
	if s.conn != nil {
		_ = s.conn.Close() // teardown: the broker goes next
	}
	if s.broker != nil {
		_ = s.broker.Close() // teardown; nothing is left to flush
	}
}

// bootTE is the te-loop set-up: framework boot over the broker, the
// telemetry warm-up and the first training.
func bootTE(ctx context.Context, tr *tracer, op int64) (*teStack, error) {
	root := tr.begin("setup", -1, op)
	defer tr.end(root)
	s := &teStack{}
	var err error
	if s.broker, err = bus.NewBroker("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if s.conn, err = bus.DialBroker(s.broker.Addr()); err != nil {
		s.close()
		return nil, err
	}
	var b bus.Bus = s.conn
	if tr != nil {
		s.counts = &countingBus{Bus: s.conn}
		b = s.counts
	}
	sp := tr.begin("controlplane.NewFramework", root, op)
	s.f, err = controlplane.NewFramework(controlplane.FrameworkConfig{
		Bus:            b,
		Netem:          netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 40},
		Hecate:         teHecate,
		RequestTimeout: 30 * time.Second,
	})
	tr.end(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	sp = tr.begin("netem.warmup", root, op)
	err = s.f.RunFor(ctx, teWarmupS)
	tr.end(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	sp = tr.begin("hecate.train", root, op)
	err = s.f.Control.TrainHecateContext(ctx, teObjective, teWindow)
	tr.end(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// placement is one InsertNewFlow call's outcome.
type placement struct {
	flow       int
	admit      bool
	start, end time.Time
	resp       controlplane.FlowResponse
	err        error
}

func runTELoop(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	tr := cfg.tr
	var st *teStack
	setup, err := repeatSetup(func(i int) error {
		var err error
		st, err = bootTE(ctx, tr, int64(i))
		return err
	}, func() { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.e2e["setup_s"] = setup
	res.attempted++ // the first training

	f := st.f
	pool := genFlowPool(cfg.seed, tePool)
	picks := newStream(cfg.seed, streamMigrations)
	admitted := 0
	var (
		rates                []float64
		blockStart           time.Time
		admitMs, migrateMs   []float64
		probeUs              []float64
		msgs, replies, deliv int64
		placements           int
		emuS                 int
	)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for epoch := 0; epoch%teRetrainS != 0 || time.Since(start) < budget; epoch++ {
		if epoch == teHeapEpochs {
			res.e2e["heap_live_mb"] = heapLiveMB()
		}
		if epoch%teRetrainS == 0 {
			blockStart = time.Now()
		}
		op := int64(epoch)
		sp := tr.begin("netem.RunFor", -1, op)
		err := f.RunFor(ctx, 1)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		emuS++
		if (epoch+1)%teRetrainS == 0 {
			sp := tr.begin("hecate.train", -1, op)
			err := f.Control.TrainHecateContext(ctx, teObjective, teWindow)
			tr.end(sp)
			res.attempted++
			if err != nil {
				res.failed++
				fmt.Fprintln(errLog, "perfbench: te-loop: retraining:", err)
			}
		}

		// The epoch's calls: first placements until the pool is full,
		// then migrations of distinct pool members.
		calls := make([]placement, 0, teBatch)
		for len(calls) < teBatch && admitted < tePool {
			calls = append(calls, placement{flow: admitted, admit: true})
			admitted++
		}
		if n := teBatch - len(calls); n > 0 {
			for _, k := range picks.Perm(tePool)[:n] {
				calls = append(calls, placement{flow: k})
			}
		}
		var m0, r0, d0 int64
		if st.counts != nil {
			m0, r0, d0 = st.counts.snapshot()
		}
		batch := tr.begin("placements", -1, op)
		place(f.Dash, pool, calls)
		tr.end(batch)
		if st.counts != nil {
			m1, r1, d1 := st.counts.snapshot()
			msgs += m1 - m0
			replies += r1 - r0
			deliv += d1 - d0
		}
		placements += len(calls)
		res.attempted += len(calls)
		if cfg.tamper && epoch == 0 {
			calls[len(calls)-1].resp.TunnelID = calls[0].resp.TunnelID%3 + 1
		}
		tunnel := 0
		for _, c := range calls {
			tr.add("controlplane.InsertNewFlow", batch, op, c.start, c.end)
			lat := ms(c.end.Sub(c.start))
			res.ops = append(res.ops, lat)
			if c.admit {
				admitMs = append(admitMs, lat)
			} else {
				migrateMs = append(migrateMs, lat)
			}
			if c.err != nil {
				res.failed++
				fmt.Fprintf(errLog, "perfbench: te-loop: placing %s: %v\n", pool[c.flow].name, c.err)
				continue
			}
			path, err := f.TunnelPath(c.resp.TunnelID)
			if err != nil || path.String() != c.resp.Path || c.resp.FlowName != pool[c.flow].name {
				res.failAll("te-loop: epoch %d: %s placed on tunnel %d (%q), not a provisioned tunnel",
					epoch, pool[c.flow].name, c.resp.TunnelID, c.resp.Path)
			}
			// Every call of an epoch sees the same telemetry and model, so
			// the decisions may not depend on the order they ran in.
			if tunnel == 0 {
				tunnel = c.resp.TunnelID
			} else if c.resp.TunnelID != tunnel {
				res.failAll("te-loop: epoch %d: %s went to tunnel %d, an earlier call of the same epoch to %d",
					epoch, pool[c.flow].name, c.resp.TunnelID, tunnel)
			}
		}
		if tr != nil {
			t0 := time.Now()
			sp := tr.begin("bus.request", -1, op)
			_, err := f.Dash.Telemetry(telemetry.PathBandwidthKey("tunnel1"), 10)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			probeUs = append(probeUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if (epoch+1)%teRetrainS == 0 {
			rates = append(rates, teRetrainS/time.Since(blockStart).Seconds())
		}
	}
	res.e2e["throughput_per_s"] = median(rates)
	if _, ok := res.e2e["heap_live_mb"]; !ok {
		res.e2e["heap_live_mb"] = heapLiveMB()
	}
	if tr == nil {
		return res, nil
	}

	agg := tr.perName()
	L := res.layer
	L["netem.runfor_ms_per_emu_s"] = ms(agg["netem.RunFor"].total) / float64(emuS)
	L["netem.active_flows"] = float64(len(f.Emu.Flows()))
	L["bus.request_us"] = median(probeUs)
	L["bus.msgs_per_placement"] = float64(msgs) / float64(placements)
	L["bus.deliveries_per_reply"] = float64(deliv) / float64(replies)
	L["hecate.train_ms"] = ms(agg["hecate.train"].total) / float64(agg["hecate.train"].count)
	L["controlplane.admit_p50_ms"] = median(admitMs)
	L["controlplane.migrate_p50_ms"] = median(migrateMs)
	rec, err := recommendUs(f.Dash, f.Control.Tunnels(), time.Duration(cfg.seconds*float64(time.Second)/10))
	if err != nil {
		return nil, err
	}
	L["hecate.recommend_us"] = rec
	return res, nil
}

// place runs the calls on teClients concurrent closed-loop clients: each
// sends its next call only when the previous one has returned.
func place(dash *controlplane.Dashboard, pool []flowSpec, calls []placement) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < teClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				fl := pool[calls[i].flow]
				calls[i].start = time.Now()
				calls[i].resp, calls[i].err = dash.InsertNewFlow(controlplane.FlowRequest{
					Name: fl.name, ToS: fl.tos, DemandMbps: fl.demand, Objective: teObjective,
				})
				calls[i].end = time.Now()
			}
		}()
	}
	wg.Wait()
}

// recommendUs replays the optimizer outside the bus: a fresh
// hecate.Optimizer is trained on the telemetry the service holds, then
// Recommend is timed on the latest samples for about d. It returns the
// median µs per Recommend.
func recommendUs(dash *controlplane.Dashboard, tunnels []int, d time.Duration) (float64, error) {
	opt, err := hecate.New(teHecate)
	if err != nil {
		return 0, err
	}
	recent := map[string][]float64{}
	for _, id := range tunnels {
		name := fmt.Sprintf("tunnel%d", id)
		hist, err := dash.Telemetry(telemetry.PathBandwidthKey(name), teWindow)
		if err != nil {
			return 0, err
		}
		if err := opt.TrainPath(name, hist); err != nil {
			return 0, err
		}
		recent[name] = hist[len(hist)-teHecate.Lag:]
	}
	var us []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if _, err := opt.Recommend(recent, hecate.MaxBandwidth); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// countingBus counts the traffic of the bus it wraps: every publish,
// every publish to a reply topic, and every delivery of a reply to a
// subscriber. Several subscribers of one reply topic each receive every
// reply, so deliveries per reply exposes reply-topic fan-out.
type countingBus struct {
	bus.Bus
	publishes, replies, deliveries atomic.Int64
}

func isReplyTopic(topic string) bool {
	return strings.HasSuffix(topic, controlplane.ReplyTopic(""))
}

func (c *countingBus) Publish(m bus.Message) error {
	c.publishes.Add(1)
	if isReplyTopic(m.Topic) {
		c.replies.Add(1)
	}
	return c.Bus.Publish(m)
}

func (c *countingBus) Subscribe(topic string) (<-chan bus.Message, func(), error) {
	in, cancel, err := c.Bus.Subscribe(topic)
	if err != nil || !isReplyTopic(topic) {
		return in, cancel, err
	}
	out := make(chan bus.Message)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(out)
		for m := range in {
			c.deliveries.Add(1)
			select {
			case out <- m:
			case <-done:
				return
			}
		}
	}()
	return out, func() {
		once.Do(func() {
			close(done)
			cancel()
		})
	}, nil
}

func (c *countingBus) snapshot() (publishes, replies, deliveries int64) {
	return c.publishes.Load(), c.replies.Load(), c.deliveries.Load()
}
