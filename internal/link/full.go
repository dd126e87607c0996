package link

import "math/rand"

// FullConfig tunes a FullPath link.
type FullConfig struct {
	// RateMbps is the transmission capacity; frames serialize at this
	// rate, which is what creates transmission latency and queueing.
	// ≤ 0 means infinite (no serialization).
	RateMbps float64
	// DelayMs is the one-way propagation delay added after serialization.
	DelayMs float64
	// QueuePkts bounds the egress queue in frames (waiting plus
	// serializing); a full queue tail-drops. 0 means unbounded.
	QueuePkts int
	// Loss is the wire-loss model (zero value: lossless).
	Loss LossConfig
	// ReorderProb is the probability an accepted frame is held back by an
	// extra uniform jitter in (0, ReorderWindowMs), letting later frames
	// overtake it — bounded out-of-order delivery.
	ReorderProb float64
	// ReorderWindowMs bounds the reorder jitter.
	ReorderWindowMs float64
	// Seed seeds this link's private random stream.
	Seed int64
}

// inflight is one frame on the wire, keyed for the arrival heap by
// (frame.Arrival, order).
type inflight struct {
	order uint64 // insertion tie-break: equal arrivals deliver in send order
	frame Frame
}

// arrivalHeap is a min-heap over (arrival time, insertion order), with
// typed push/pop so no frame is boxed on its way through the link.
type arrivalHeap []inflight

// less orders arrivals by time, then by send order.
func (h arrivalHeap) less(i, j int) bool {
	if a, b := h[i].frame.Arrival, h[j].frame.Arrival; a != b {
		return a < b
	}
	return h[i].order < h[j].order
}

// push inserts it and restores the heap order.
func (h *arrivalHeap) push(it inflight) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// pop removes and returns the earliest arrival; the heap must be
// non-empty.
func (h *arrivalHeap) pop() inflight {
	a := *h
	n := len(a) - 1
	top := a[0]
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && a.less(l, least) {
			least = l
		}
		if r := l + 1; r < n && a.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return top
}

// FullPath is the full tier: a per-link state machine modeling
// transmission latency, bounded tail-drop queueing, propagation delay,
// Bernoulli/Gilbert-Elliott wire loss, and bounded out-of-order delivery.
// All randomness comes from the config's Seed; given equal seeds and an
// equal Send schedule, two FullPaths produce byte-identical behavior.
type FullPath struct {
	cfg  FullConfig
	rng  *rand.Rand
	loss lossState

	lastTxEnd  Time
	txEnds     []Time // serialization-completion times of queued frames
	flight     arrivalHeap
	order      uint64
	maxArrival Time
	stats      Stats
	maxFlight  int // most frames on the wire at once since the last Reset
	// sent is set by the first Send after construction or Reset: only a
	// link offered frames has drawn from rng.
	sent bool
}

// NewFullPath builds a full-tier link. Its random stream is seeded on
// the first Send, so a link that never carries a frame costs no
// generator state.
func NewFullPath(cfg FullConfig) *FullPath {
	return &FullPath{cfg: cfg, loss: lossState{cfg: cfg.Loss}}
}

// Reset rewinds the link to its freshly built state — empty queue and
// wire, zero counters, loss model in its good state, random stream back
// at the start of the config's Seed — so it replays a Send schedule
// exactly as a new link would. Each buffer is kept, emptied, when the
// run just ended filled at least half of it, so a link under steady
// traffic replays without reallocating; a buffer grown for a burst the
// last run did not see is released.
func (p *FullPath) Reset() {
	if p.sent {
		p.rng.Seed(p.cfg.Seed)
	}
	p.txEnds = reuse(p.txEnds, p.stats.MaxQueueDepth)
	p.flight = reuse(p.flight, p.maxFlight)
	p.stats = Stats{queueDelaysMs: reuse(p.stats.queueDelaysMs, len(p.stats.queueDelaysMs))}
	p.loss = lossState{cfg: p.cfg.Loss}
	p.lastTxEnd = 0
	p.order = 0
	p.maxArrival = 0
	p.maxFlight = 0
	p.sent = false
}

// reuse returns buf emptied if used, its peak length over the last run,
// fills at least half of it, and nil otherwise. Append grows a full
// slice to about twice its length, so a buffer the run had to grow is
// normally kept.
func reuse[T any](buf []T, used int) []T {
	if 2*used < cap(buf) {
		return nil
	}
	return buf[:0]
}

// Config returns the link's configuration.
func (p *FullPath) Config() FullConfig { return p.cfg }

// Send offers a frame to the link at virtual time now.
//
// The loss draw happens first and unconditionally (one draw per Send for
// the Bernoulli model), keeping the uniform stream aligned with the
// transmission index even across configs that differ only in loss rate —
// see lossState.drop. Tail-drop is then evaluated against the queue
// bound; a wire-lost frame that clears the queue still consumes
// serialization time (it was transmitted — the bandwidth is gone), which
// is precisely why loss hurts a congestion-limited sender smoothly
// instead of catastrophically.
func (p *FullPath) Send(now Time, f Frame) Verdict {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.cfg.Seed))
	}
	p.sent = true
	lost := p.loss.drop(p.rng)

	// Prune frames that finished serializing; what remains is the queue.
	keep := 0
	for _, end := range p.txEnds {
		if end > now {
			p.txEnds[keep] = end
			keep++
		}
	}
	p.txEnds = p.txEnds[:keep]
	if p.cfg.QueuePkts > 0 && keep >= p.cfg.QueuePkts {
		p.stats.QueueDrops++
		return DropQueue
	}

	txStart := now
	if p.lastTxEnd > txStart {
		txStart = p.lastTxEnd
	}
	var txTime Time
	if p.cfg.RateMbps > 0 {
		// size bytes at R Mbit/s: size*8 / (R*1e6) s = size*8*1e3/R ns.
		txTime = Time(float64(f.Size) * 8 * 1e3 / p.cfg.RateMbps)
	}
	txEnd := txStart + txTime
	p.lastTxEnd = txEnd
	p.txEnds = append(p.txEnds, txEnd)
	if d := len(p.txEnds); d > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = d
	}
	p.stats.queueDelaysMs = append(p.stats.queueDelaysMs, (txStart - now).Ms())

	if lost {
		p.stats.LossDrops++
		return DropLoss
	}

	arrival := txEnd + Ms(p.cfg.DelayMs)
	if p.cfg.ReorderProb > 0 && p.rng.Float64() < p.cfg.ReorderProb {
		arrival += Time(p.rng.Float64() * p.cfg.ReorderWindowMs * 1e6)
	}
	if arrival < p.maxArrival {
		p.stats.Reordered++
	} else {
		p.maxArrival = arrival
	}
	f.Arrival = arrival
	p.flight.push(inflight{order: p.order, frame: f})
	if n := len(p.flight); n > p.maxFlight {
		p.maxFlight = n
	}
	p.order++
	p.stats.Sent++
	return Accepted
}

// Next reports the earliest pending arrival.
func (p *FullPath) Next() (Time, bool) {
	if len(p.flight) == 0 {
		return 0, false
	}
	return p.flight[0].frame.Arrival, true
}

// Pop removes and returns the earliest pending frame if it has arrived by
// now — the single-frame form the dataplane engine's event loop uses to
// avoid slice churn.
func (p *FullPath) Pop(now Time) (Frame, bool) {
	if len(p.flight) == 0 || p.flight[0].frame.Arrival > now {
		return Frame{}, false
	}
	it := p.flight.pop()
	p.stats.Delivered++
	return it.frame, true
}

// Recv appends every frame arrived by now to buf, in arrival order.
func (p *FullPath) Recv(now Time, buf []Frame) []Frame {
	for {
		f, ok := p.Pop(now)
		if !ok {
			return buf
		}
		buf = append(buf, f)
	}
}

// Pending counts frames accepted but not yet received.
func (p *FullPath) Pending() int { return len(p.flight) }

// Stats returns a snapshot of the link counters. The snapshot owns its
// queueing-delay samples: neither later Sends nor a Reset, which reuses
// the sample buffer, can change it.
func (p *FullPath) Stats() Stats {
	s := p.stats
	s.queueDelaysMs = append([]float64(nil), p.stats.queueDelaysMs...)
	return s
}
