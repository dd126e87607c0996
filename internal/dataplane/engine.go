package dataplane

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/polka"
	"repro/internal/topo"
)

// noLink marks a port index with no attached link.
const noLink int32 = -2

// egressLink marks a port whose neighbor is outside the forwarding domain:
// sending there delivers the packet.
const egressLink int32 = -1

// nodeState is the engine's per-switch state.
type nodeState struct {
	name string
	sw   *polka.Switch
	// next maps output port → engine node index of the neighbor, or
	// egressLink / noLink. Index 0 is always noLink (ports are 1-based).
	next []int32
	// neighbor maps output port → neighbor name ("" when unused).
	neighbor []string
	queue    []Packet
	stats    NodeStats
}

// Engine is the packet-level forwarding engine. It is driven from one
// goroutine: configure, inject, run, inspect.
type Engine struct {
	topo    *topo.Topology
	domain  *polka.Domain
	cfg     Config
	nodes   []*nodeState
	index   map[string]int
	nextID  uint64
	pending int
	stats   Stats
	deliv   []Packet
	full    *fullState // nil unless Config.LinkMode == LinkFull
	// batches recycles round input arrays: each round a node's queue is
	// swapped against its consumed batch from the previous round, so
	// queue growth amortizes to zero instead of re-appending from nil.
	batches [][]Packet
	// rids and ports are forwardBatch's scratch: the routeIDs of the
	// batch under forwarding and their output residues.
	rids  [][]byte
	ports []uint64
}

// New builds an engine over the topology. Every node of the domain (the
// configured one, or the default core-node domain) must exist in the
// topology; those nodes become the forwarding plane, and every other node
// is a delivery endpoint.
func New(t *topo.Topology, cfg Config) (*Engine, error) {
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1 << 20
	}
	d := cfg.Domain
	if d == nil {
		cores := t.NodesOfKind(topo.Core)
		if len(cores) == 0 {
			return nil, fmt.Errorf("dataplane: topology has no core nodes and no domain was supplied")
		}
		var err error
		d, err = polka.NewDomain(cores, t.MaxPort())
		if err != nil {
			return nil, fmt.Errorf("dataplane: building default domain: %w", err)
		}
	}
	names := d.Nodes()
	e := &Engine{topo: t, domain: d, cfg: cfg,
		nodes:   make([]*nodeState, 0, len(names)),
		index:   make(map[string]int, len(names)),
		batches: make([][]Packet, len(names)),
	}
	for _, name := range names {
		if !t.HasNode(name) {
			return nil, fmt.Errorf("dataplane: domain node %q not in topology", name)
		}
		e.index[name] = len(e.nodes)
		e.nodes = append(e.nodes, &nodeState{name: name})
	}
	for _, ns := range e.nodes {
		sw, err := d.Switch(ns.name)
		if err != nil {
			return nil, err
		}
		ns.sw = sw
		n, err := t.Node(ns.name)
		if err != nil {
			return nil, err
		}
		deg := n.Degree()
		ns.next = make([]int32, deg+1)
		ns.neighbor = make([]string, deg+1)
		ns.next[0] = noLink
		for i, nb := range n.Neighbors() {
			port := i + 1
			ns.neighbor[port] = nb
			if idx, fwd := e.index[nb]; fwd {
				ns.next[port] = int32(idx)
			} else {
				ns.next[port] = egressLink
			}
		}
		ns.stats.Egress = make([]uint64, deg+1)
	}
	if cfg.LinkMode == LinkFull {
		fs, err := newFullState(e)
		if err != nil {
			return nil, err
		}
		e.full = fs
	}
	return e, nil
}

// errCap is the unified in-flight-cap violation: every admission site
// (Inject, InjectBatch, Run, runFull) enforces the same boundary — the
// packet population may reach MaxInFlight exactly, and n > MaxInFlight is
// refused — and reports it with the same text.
func (e *Engine) errCap(n int) error {
	return fmt.Errorf("dataplane: %d packets in flight exceeds MaxInFlight %d (drain with Run or raise Config.MaxInFlight)",
		n, e.cfg.MaxInFlight)
}

// inFlight is the engine's total packet population: queued at forwarding
// nodes plus resident in the full-tier link arena (packets a canceled
// runFull left on wires).
func (e *Engine) inFlight() int {
	if e.full != nil {
		return e.pending + e.full.inFlight
	}
	return e.pending
}

// admit checks that k more packets fit under the cap.
func (e *Engine) admit(k int) error {
	if n := e.inFlight() + k; n > e.cfg.MaxInFlight {
		return e.errCap(n)
	}
	return nil
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.topo }

// Domain returns the PolKA domain the engine forwards with.
func (e *Engine) Domain() *polka.Domain { return e.domain }

// Inject queues one packet at the named forwarding node and returns its
// engine-assigned ID. The in-flight population (queued packets plus any
// the full link tier still holds on wires) may reach Config.MaxInFlight
// exactly; an injection that would exceed it is refused.
func (e *Engine) Inject(node string, pkt Packet) (uint64, error) {
	idx, ok := e.index[node]
	if !ok {
		return 0, fmt.Errorf("dataplane: %q is not a forwarding node", node)
	}
	if err := e.admit(1); err != nil {
		return 0, err
	}
	if pkt.TTL <= 0 {
		pkt.TTL = e.cfg.DefaultTTL
	}
	e.nextID++
	pkt.ID = e.nextID
	e.nodes[idx].queue = append(e.nodes[idx].queue, pkt)
	e.pending++
	e.stats.Injected++
	return pkt.ID, nil
}

// InjectBatch queues a batch of packets at the named forwarding node.
// Admission is atomic: either the whole batch fits under the in-flight cap
// and is queued, or the engine is left untouched — so a caller retrying a
// rejected batch after draining never double-injects a prefix of it.
func (e *Engine) InjectBatch(node string, pkts []Packet) error {
	idx, ok := e.index[node]
	if !ok {
		return fmt.Errorf("dataplane: %q is not a forwarding node", node)
	}
	if err := e.admit(len(pkts)); err != nil {
		return fmt.Errorf("batch of %d: %w", len(pkts), err)
	}
	q := e.nodes[idx].queue
	for i := range pkts {
		pkt := pkts[i]
		if pkt.TTL <= 0 {
			pkt.TTL = e.cfg.DefaultTTL
		}
		e.nextID++
		pkt.ID = e.nextID
		q = append(q, pkt)
	}
	e.nodes[idx].queue = q
	e.pending += len(pkts)
	e.stats.Injected += uint64(len(pkts))
	return nil
}

// Run forwards every queued packet to completion (delivery or drop) and
// returns the cumulative stats. In fast mode execution proceeds in
// hop-synchronous rounds: each round forwards every queued packet by
// exactly one hop, appending the emitted packets to the destination
// queues for the next round. In full mode (Config.LinkMode == LinkFull)
// execution is an event-driven loop over per-link arrival times in
// virtual time — see runFull. Either way, TTL bounds the work per packet and
// Config.MaxInFlight bounds the population (a crafted multicast routeID
// could otherwise amplify geometrically), so Run terminates even on
// looping routeIDs. A canceled context stops between rounds (or passes),
// leaving undelivered packets queued.
func (e *Engine) Run(ctx context.Context) (Stats, error) {
	if e.full != nil {
		return e.runFull(ctx)
	}
	for e.pending > 0 {
		select {
		case <-ctx.Done():
			return e.stats, ctx.Err()
		default:
		}
		e.stats.Rounds++
		e.pending = e.runRound()
		if e.pending > e.cfg.MaxInFlight {
			return e.stats, e.errCap(e.pending)
		}
	}
	return e.stats, nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Delivered returns the packets delivered since the last Reset, in
// delivery order: in the fast tier round by round, and within a round in
// node order; in the full tier in arrival order.
func (e *Engine) Delivered() []Packet {
	out := make([]Packet, len(e.deliv))
	copy(out, e.deliv)
	return out
}

// NodeStats returns a snapshot of one switch's counters.
func (e *Engine) NodeStats(name string) (NodeStats, error) {
	idx, ok := e.index[name]
	if !ok {
		return NodeStats{}, fmt.Errorf("dataplane: %q is not a forwarding node", name)
	}
	s := e.nodes[idx].stats
	eg := make([]uint64, len(s.Egress))
	copy(eg, s.Egress)
	s.Egress = eg
	return s, nil
}

// Reset clears all queues, counters and the delivered list, keeping the
// topology, domain, reducers — and the warmed scratch slices and queue
// backing arrays, so an engine reused across benchmark iterations runs at
// steady state without reallocating. Full-mode link state rewinds in
// place (virtual clock back to zero, random streams re-seeded; see
// link.FullPath.Reset for which link buffers are kept), so a reset
// engine replays identically.
func (e *Engine) Reset() {
	for _, ns := range e.nodes {
		ns.queue = ns.queue[:0]
		eg := ns.stats.Egress
		for i := range eg {
			eg[i] = 0
		}
		ns.stats = NodeStats{Egress: eg}
	}
	e.stats = Stats{}
	e.deliv = e.deliv[:0]
	e.pending = 0
	e.nextID = 0
	if e.full != nil {
		e.full.reset()
	}
}

// runRound forwards every queued packet one hop. All queues are swapped
// out first, then every batch is forwarded with emit appending straight
// into the destination queues, so no packet is forwarded twice in a round
// and each is copied once per hop. Returns the next round's pending count.
func (e *Engine) runRound() int {
	for i, ns := range e.nodes {
		batch := ns.queue
		ns.queue = e.batches[i][:0]
		e.batches[i] = batch
	}
	for i, ns := range e.nodes {
		if batch := e.batches[i]; len(batch) > 0 {
			e.forwardBatch(ns, batch)
		}
	}
	pending := 0
	for _, ns := range e.nodes {
		pending += len(ns.queue)
	}
	return pending
}

// forwardBatch executes the forwarding decisions for one node's ingress
// batch. The output ports of the whole batch come from a single
// Switch.OutputPortBatch call — runs of packets sharing a routeID cost
// one GF(2) reduction. Runs of live packets agreeing on the residue and
// mode are then moved in bulk (one append memmove plus a TTL fix-up
// sweep): a PoT run accumulates once and stamps the shared result, a
// multicast run bulk-replicates per one-hot port. Only TTL expiry,
// tracing, and path recording fall back to the per-packet path.
func (e *Engine) forwardBatch(ns *nodeState, batch []Packet) {
	e.rids = e.rids[:0]
	for j := range batch {
		e.rids = append(e.rids, batch[j].RouteID)
	}
	e.ports = ns.sw.OutputPortBatch(e.rids, e.ports[:0])
	perPacket := e.cfg.Trace != nil || e.cfg.RecordPaths
	j := 0
	for j < len(batch) {
		pkt := &batch[j]
		if perPacket || pkt.TTL <= 0 {
			e.forwardOne(ns, batch[j], e.ports[j])
			j++
			continue
		}
		// Maximal bulk run: alive packets agreeing on output residue and
		// mode — and, for PoT, on the whole proof state, so one
		// accumulation (and one egress verification) covers the run.
		residue := e.ports[j]
		pot := pkt.Mode == PoT && pkt.Proof != nil
		k := j + 1
		for k < len(batch) {
			q := &batch[k]
			if e.ports[k] != residue || q.Mode != pkt.Mode || q.TTL <= 0 {
				break
			}
			if pot && (q.Proof != pkt.Proof || !q.Nonce.Equal(pkt.Nonce) || !q.Acc.Equal(pkt.Acc)) {
				break
			}
			k++
		}
		run := batch[j:k]
		n := uint64(len(run))
		ns.stats.Rx += n
		e.stats.Hops += n
		if pot {
			acc, err := pkt.Proof.Accumulate(pkt.Acc, ns.name, pkt.Nonce)
			if err != nil {
				// Off the protected path: misrouted PoT packets.
				ns.stats.PoTDrops += n
				e.stats.PoTDrops += n
				j = k
				continue
			}
			for i := range run {
				run[i].Acc = acc
			}
		}
		if pkt.Mode != Multicast {
			e.emitRun(ns, run, residue)
		} else {
			// Multicast: the residue is a one-hot port set; replicate the
			// whole run to each port.
			for mask := residue; mask != 0; mask &= mask - 1 {
				port := uint64(bits.TrailingZeros64(mask))
				e.emitRun(ns, run, port)
			}
		}
		j = k
	}
}

// forwardOne executes one forwarding decision for pkt at node ns — the
// per-packet path of forwardBatch, with the output port already reduced.
func (e *Engine) forwardOne(ns *nodeState, pkt Packet, residue uint64) {
	if !e.arrive(ns, &pkt) {
		return
	}
	if pkt.Mode != Multicast {
		e.emit(ns, pkt, residue)
		return
	}
	// Multicast: the residue is a one-hot port set; replicate to each port.
	for mask := residue; mask != 0; mask &= mask - 1 {
		port := uint64(bits.TrailingZeros64(mask))
		e.emit(ns, pkt, port)
	}
}

// emitRun sends a run of live packets out of ns through one port: the run
// is appended in a single copy to its destination (next-hop queue or the
// delivered list) and the per-packet mutations
// (TTL decrement, egress stamp) are fixed up in place. Rx/Hops accounting
// happens once per run in forwardBatch, so multicast replication through
// repeated emitRun calls counts each packet's arrival once.
func (e *Engine) emitRun(ns *nodeState, run []Packet, port uint64) {
	n := uint64(len(run))
	if port == 0 || port >= uint64(len(ns.next)) || ns.next[port] == noLink {
		ns.stats.BadPortDrops += n
		e.stats.BadPortDrops += n
		return
	}
	dst := ns.next[port]
	if dst >= 0 {
		ns.stats.Tx += n
		ns.stats.Egress[port] += n
		q := append(e.nodes[dst].queue, run...)
		seg := q[len(q)-len(run):]
		for i := range seg {
			seg[i].TTL--
		}
		e.nodes[dst].queue = q
		return
	}
	// Delivery off-domain. A PoT run shares one (Acc, Nonce) — stamped by
	// forwardBatch — so one verification covers every packet in it.
	if run[0].Mode == PoT && run[0].Proof != nil {
		if err := run[0].Proof.Verify(run[0].Acc, run[0].Nonce); err != nil {
			ns.stats.PoTDrops += n
			e.stats.PoTDrops += n
			return
		}
		e.stats.PoTVerified += n
	}
	egress := ns.neighbor[port]
	ns.stats.Tx += n
	ns.stats.Egress[port] += n
	ns.stats.Delivered += n
	e.stats.Delivered += n
	for i := range run {
		e.stats.DeliveredBytes += uint64(run[i].Size)
	}
	d := append(e.deliv, run...)
	seg := d[len(d)-len(run):]
	for i := range seg {
		seg[i].TTL--
		seg[i].Egress = egress
	}
	e.deliv = d
}

// emit sends one copy of pkt out of ns through port: onward to another
// switch's queue, or delivered off-domain, or dropped on an invalid port.
func (e *Engine) emit(ns *nodeState, pkt Packet, port uint64) {
	if !e.depart(ns, &pkt, port) {
		return
	}
	if dst := ns.next[port]; dst >= 0 {
		e.nodes[dst].queue = append(e.nodes[dst].queue, pkt)
		e.sent(ns, &pkt, port)
		return
	}
	e.deliver(ns, &pkt, port)
}

// The per-packet forwarding rules below are the same in both link tiers;
// the tiers differ only in how a departed packet reaches its next hop
// (emit and emitFull) and when it arrives there (at once, or through a
// link.FullPath in virtual time). forwardBatch and emitRun apply the same
// rules run-wise on the fast tier's bulk path.

// arrive applies the arrival rules to pkt at ns: it counts the forwarding
// decision, drops the packet if its TTL has expired, and folds ns's
// transit tag into a PoT packet's accumulator, dropping the packet when
// ns is off its protected path. It reports whether pkt goes on to take an
// output port.
func (e *Engine) arrive(ns *nodeState, pkt *Packet) bool {
	ns.stats.Rx++
	e.stats.Hops++
	if pkt.TTL <= 0 {
		ns.stats.TTLDrops++
		e.stats.TTLDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: 0, Drop: DropTTL})
		return false
	}
	if pkt.Mode == PoT && pkt.Proof != nil {
		acc, err := pkt.Proof.Accumulate(pkt.Acc, ns.name, pkt.Nonce)
		if err != nil {
			// Off the protected path: a misrouted PoT packet.
			ns.stats.PoTDrops++
			e.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: pkt.TTL, Drop: DropPoT})
			return false
		}
		pkt.Acc = acc
	}
	return true
}

// depart applies the departure rules to one copy of pkt leaving ns
// through port: it drops the copy if the port names no attached link,
// and otherwise decrements its TTL and, with Config.RecordPaths, appends
// the visit. It reports whether the copy leaves.
func (e *Engine) depart(ns *nodeState, pkt *Packet, port uint64) bool {
	if port == 0 || port >= uint64(len(ns.next)) || ns.next[port] == noLink {
		ns.stats.BadPortDrops++
		e.stats.BadPortDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropBadPort})
		return false
	}
	pkt.TTL--
	if e.cfg.RecordPaths {
		// Copy-on-append: multicast copies of one packet share the Path
		// backing array, so appending in place would alias.
		path := make([]Visit, len(pkt.Path)+1)
		copy(path, pkt.Path)
		path[len(pkt.Path)] = Visit{Node: ns.name, Port: port}
		pkt.Path = path
	}
	return true
}

// sent counts pkt as sent from ns through port toward another switch and
// traces the forwarding.
func (e *Engine) sent(ns *nodeState, pkt *Packet, port uint64) {
	ns.stats.Tx++
	ns.stats.Egress[port]++
	e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
		Next: ns.neighbor[port], TTL: pkt.TTL})
}

// deliver applies the delivery rules to pkt leaving ns through port
// toward a neighbor outside the domain: it stamps the egress, verifies a
// PoT packet's proof (dropping it on failure), counts the delivery and
// appends pkt to the delivered log.
func (e *Engine) deliver(ns *nodeState, pkt *Packet, port uint64) {
	pkt.Egress = ns.neighbor[port]
	if pkt.Mode == PoT && pkt.Proof != nil {
		if err := pkt.Proof.Verify(pkt.Acc, pkt.Nonce); err != nil {
			ns.stats.PoTDrops++
			e.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
				Next: pkt.Egress, TTL: pkt.TTL, Drop: DropPoT})
			return
		}
		e.stats.PoTVerified++
	}
	ns.stats.Tx++
	ns.stats.Egress[port]++
	ns.stats.Delivered++
	e.stats.Delivered++
	e.stats.DeliveredBytes += uint64(pkt.Size)
	e.deliv = append(e.deliv, *pkt)
	e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
		Next: pkt.Egress, TTL: pkt.TTL, Delivered: true})
}

// trace invokes the trace hook when configured.
func (e *Engine) trace(ev TraceEvent) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(ev)
	}
}
