package dataplane

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/link"
	"repro/internal/topo"
)

// fullLink is one directed full-tier link: the wire leaving node src
// through port, toward either another switch (dst ≥ 0) or a delivery
// endpoint (dst == egressLink).
type fullLink struct {
	src  int32
	port uint64
	dst  int32
	path *link.FullPath
	// pos is the link's slot in fullState.queue, or -1 while the link is
	// not queued (its wire is empty, or runFull is draining it).
	pos int32
}

// linkEvent is one entry of the link event queue: link li holds frames
// whose earliest arrival is at, due in the given pass of that instant.
type linkEvent struct {
	at   link.Time
	pass uint32
	li   int32
}

// before is the event order (arrival, pass, link index): it reproduces a
// scan of every link in index order, once per pass, where a frame sent
// at the current instant onto a link the scan has already passed waits
// for the next pass.
func (a linkEvent) before(b linkEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pass != b.pass {
		return a.pass < b.pass
	}
	return a.li < b.li
}

// fullState is the engine's LinkFull machinery: one FullPath per directed
// link, the event queue over links with frames on the wire, an arena of
// in-flight packets (Frame.Seq carries the arena slot, so no per-hop
// boxing allocates), and the virtual clock.
type fullState struct {
	links  []fullLink
	byPort [][]int32 // node index → port → index into links, or -1
	// queue is an indexed binary min-heap of the links with frames on
	// the wire, in linkEvent order.
	queue []linkEvent
	arena []Packet
	free  []int32
	now   link.Time
	// pass numbers the passes of the current instant from 0; draining is
	// the link runFull is emptying, or -1.
	pass     uint32
	draining int32
	// inFlight counts packets currently on a wire (arena occupancy).
	inFlight int
}

// resolveLinkConfig applies the template semantics of Config.Link to one
// directed link: > 0 fixes the value, 0 inherits the topology attribute,
// < 0 means infinite rate / zero delay.
func resolveLinkConfig(tmpl link.FullConfig, attrs topo.LinkAttrs, seed int64) link.FullConfig {
	cfg := tmpl
	switch {
	case tmpl.RateMbps == 0:
		cfg.RateMbps = attrs.CapacityMbps
	case tmpl.RateMbps < 0:
		cfg.RateMbps = 0 // FullPath treats ≤ 0 as infinite
	}
	switch {
	case tmpl.DelayMs == 0:
		cfg.DelayMs = attrs.DelayMs
	case tmpl.DelayMs < 0:
		cfg.DelayMs = 0
	}
	cfg.Seed = seed
	return cfg
}

// linkSeed derives the private seed of one directed link from the engine
// seed, so link randomness is stable under topology growth and
// independent across links.
func linkSeed(engineSeed int64, from, to string) int64 {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return link.SplitSeed(engineSeed, h.Sum64())
}

// newFullState builds one FullPath per directed link of the forwarding
// plane, including egress links toward delivery endpoints.
func newFullState(e *Engine) (*fullState, error) {
	fs := &fullState{byPort: make([][]int32, len(e.nodes)), draining: -1}
	for i, ns := range e.nodes {
		ports := make([]int32, len(ns.next))
		for port := range ports {
			ports[port] = -1
		}
		for port := 1; port < len(ns.next); port++ {
			if ns.next[port] == noLink {
				continue
			}
			tl, err := e.topo.Link(ns.name, ns.neighbor[port])
			if err != nil {
				return nil, fmt.Errorf("dataplane: link state for %s port %d: %w", ns.name, port, err)
			}
			cfg := resolveLinkConfig(e.cfg.Link, tl.Attrs, linkSeed(e.cfg.Seed, ns.name, ns.neighbor[port]))
			ports[port] = int32(len(fs.links))
			fs.links = append(fs.links, fullLink{
				src:  int32(i),
				port: uint64(port),
				dst:  ns.next[port],
				path: link.NewFullPath(cfg),
				pos:  -1,
			})
		}
		fs.byPort[i] = ports
	}
	return fs, nil
}

// reset rewinds every link in place (see link.FullPath.Reset) and
// empties the event queue and the arena, keeping their capacity, so the
// next run replays a fresh engine's.
func (fs *fullState) reset() {
	for i := range fs.links {
		fs.links[i].path.Reset()
		fs.links[i].pos = -1
	}
	fs.queue = fs.queue[:0]
	clear(fs.arena)
	fs.arena = fs.arena[:0]
	fs.free = fs.free[:0]
	fs.now = 0
	fs.pass = 0
	fs.draining = -1
	fs.inFlight = 0
}

// alloc stores a packet in the arena and returns its slot.
func (fs *fullState) alloc(pkt Packet) int32 {
	if n := len(fs.free); n > 0 {
		slot := fs.free[n-1]
		fs.free = fs.free[:n-1]
		fs.arena[slot] = pkt
		return slot
	}
	fs.arena = append(fs.arena, pkt)
	return int32(len(fs.arena) - 1)
}

// release frees an arena slot.
func (fs *fullState) release(slot int32) {
	fs.arena[slot] = Packet{}
	fs.free = append(fs.free, slot)
}

// schedule keys link li after a frame was accepted onto it. A link being
// drained is keyed when its drain ends, not here. An arrival at the
// current instant joins the current pass if the link comes at or after
// the one being drained, and the next pass if it comes before; a later
// arrival opens pass 0 of its instant. A queued link only ever moves
// earlier: its head can only have moved earlier.
func (fs *fullState) schedule(li int32) {
	if li == fs.draining {
		return
	}
	l := &fs.links[li]
	at, _ := l.path.Next()
	ev := linkEvent{at: at, li: li}
	if at <= fs.now {
		ev.pass = fs.pass
		if li < fs.draining {
			ev.pass++
		}
	}
	if l.pos < 0 {
		fs.push(ev)
	} else if ev.before(fs.queue[l.pos]) {
		fs.queue[l.pos] = ev
		fs.up(int(l.pos))
	}
}

// requeue keys link li after its drain under its next head, if frames
// remain on its wire; that head lies after the current instant, so in
// its pass 0.
func (fs *fullState) requeue(li int32) {
	if at, ok := fs.links[li].path.Next(); ok {
		fs.push(linkEvent{at: at, li: li})
	}
}

// push inserts the event of an unqueued link.
func (fs *fullState) push(ev linkEvent) {
	fs.links[ev.li].pos = int32(len(fs.queue))
	fs.queue = append(fs.queue, ev)
	fs.up(len(fs.queue) - 1)
}

// pop removes the earliest event; the queue must be non-empty.
func (fs *fullState) pop() {
	q := fs.queue
	fs.links[q[0].li].pos = -1
	n := len(q) - 1
	if n > 0 {
		q[0] = q[n]
		fs.links[q[0].li].pos = 0
	}
	fs.queue = q[:n]
	if n > 1 {
		fs.down(0)
	}
}

// up restores the heap order from slot i toward the root.
func (fs *fullState) up(i int) {
	q := fs.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		fs.links[q[i].li].pos = int32(i)
		i = parent
	}
	q[i] = ev
	fs.links[ev.li].pos = int32(i)
}

// down restores the heap order from slot i toward the leaves.
func (fs *fullState) down(i int) {
	q := fs.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		fs.links[q[i].li].pos = int32(i)
		i = c
	}
	q[i] = ev
	fs.links[ev.li].pos = int32(i)
}

// rewindPasses renumbers every queued event to pass 0 — the start of a
// Run, which after a canceled or failed run must first sweep every link
// due at the current instant in index order, however many passes of
// that instant the interrupted run had begun.
func (fs *fullState) rewindPasses() {
	fs.pass = 0
	if len(fs.queue) == 0 {
		return
	}
	for i := range fs.queue {
		fs.queue[i].pass = 0
	}
	for i := len(fs.queue)/2 - 1; i >= 0; i-- {
		fs.down(i)
	}
}

// LinkStats returns the full-tier counters of the directed link from→to.
// It errors in fast mode or when no such link exists in the forwarding
// plane.
func (e *Engine) LinkStats(from, to string) (link.Stats, error) {
	if e.full == nil {
		return link.Stats{}, fmt.Errorf("dataplane: LinkStats requires LinkFull mode")
	}
	idx, ok := e.index[from]
	if !ok {
		return link.Stats{}, fmt.Errorf("dataplane: %q is not a forwarding node", from)
	}
	for _, li := range e.full.byPort[idx] {
		if li >= 0 && e.nodes[idx].neighbor[e.full.links[li].port] == to {
			return e.full.links[li].path.Stats(), nil
		}
	}
	return link.Stats{}, fmt.Errorf("dataplane: no link %s->%s in the forwarding plane", from, to)
}

// VirtualNow returns the engine's virtual clock (zero in fast mode; full
// mode advances it as Run processes arrivals).
func (e *Engine) VirtualNow() link.Time {
	if e.full == nil {
		return 0
	}
	return e.full.now
}

// runFull is the LinkFull execution loop. Freshly injected packets are
// forwarded at the current virtual time; every inter-switch (and egress)
// handoff goes through that link's FullPath, so frames serialize, queue,
// propagate, and may be lost. The loop then takes links off the link
// event queue in (head arrival, pass, link index) order and drains every
// frame due on each at its arrival instant. A pass is one sweep of the
// links due at an instant in index order; a zero-latency frame sent onto
// a link the sweep has already passed is due in the next pass of the
// same instant. Execution is fully deterministic for a given Config.Seed
// and inject schedule. Stats.Rounds counts passes here.
func (e *Engine) runFull(ctx context.Context) (Stats, error) {
	fs := e.full
	fs.rewindPasses()
	for i, ns := range e.nodes {
		for _, pkt := range ns.queue {
			e.forwardFull(i, ns, pkt, fs.now)
		}
		clear(ns.queue)
		ns.queue = ns.queue[:0]
	}
	e.pending = 0
	inPass := false
	for len(fs.queue) > 0 {
		ev := fs.queue[0]
		if !inPass || ev.at != fs.now || ev.pass != fs.pass {
			select {
			case <-ctx.Done():
				return e.stats, ctx.Err()
			default:
			}
			e.stats.Rounds++
			inPass = true
			fs.now, fs.pass = ev.at, ev.pass
		}
		fs.pop()
		fs.draining = ev.li
		l := &fs.links[ev.li]
		for {
			if n := e.inFlight(); n > e.cfg.MaxInFlight {
				fs.draining = -1
				fs.requeue(ev.li)
				return e.stats, e.errCap(n)
			}
			f, ok := l.path.Pop(fs.now)
			if !ok {
				break
			}
			e.arriveFull(l, f)
		}
		fs.draining = -1
		fs.requeue(ev.li)
	}
	if fs.inFlight > 0 {
		return e.stats, fmt.Errorf("dataplane: %d packets counted on the wire but no link holds a frame", fs.inFlight)
	}
	return e.stats, nil
}

// forwardFull executes one forwarding decision at node idx at virtual
// time now: the full tier's counterpart of forwardOne, which reduces the
// output port itself and sends each copy on a link with emitFull.
func (e *Engine) forwardFull(idx int, ns *nodeState, pkt Packet, now link.Time) {
	if !e.arrive(ns, &pkt) {
		return
	}
	residue := ns.sw.OutputPortBytes(pkt.RouteID)
	if pkt.Mode != Multicast {
		e.emitFull(idx, ns, pkt, residue, now)
		return
	}
	for mask := residue; mask != 0; mask &= mask - 1 {
		port := uint64(bits.TrailingZeros64(mask))
		e.emitFull(idx, ns, pkt, port, now)
	}
}

// emitFull offers one copy of pkt to the link out of port at virtual time
// now. A forwarded packet's Tx/Egress counters tick when the wire accepts
// it; a delivered packet's accounting (PoT verification included) is
// deferred to its arrival instant in arriveFull, which is what keeps
// per-node counters identical to fast mode on loss-free links.
func (e *Engine) emitFull(idx int, ns *nodeState, pkt Packet, port uint64, now link.Time) {
	if !e.depart(ns, &pkt, port) {
		return
	}
	fs := e.full
	li := fs.byPort[idx][port]
	l := &fs.links[li]
	slot := fs.alloc(pkt)
	switch l.path.Send(now, link.Frame{Seq: uint64(slot), Size: pkt.Size}) {
	case link.DropQueue:
		fs.release(slot)
		ns.stats.QueueDrops++
		e.stats.QueueDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropQueue})
	case link.DropLoss:
		fs.release(slot)
		ns.stats.LossDrops++
		e.stats.LossDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropLoss})
	case link.Accepted:
		fs.inFlight++
		fs.schedule(li)
		if l.dst >= 0 {
			e.sent(ns, &pkt, port)
		}
	}
}

// arriveFull processes one frame arrival: onward packets take their next
// forwarding decision at the arrival instant; egress packets are
// delivered, attributed to the sending switch, exactly as the fast tier
// delivers them at emit time.
func (e *Engine) arriveFull(l *fullLink, f link.Frame) {
	fs := e.full
	slot := int32(f.Seq)
	pkt := fs.arena[slot]
	fs.release(slot)
	fs.inFlight--
	pkt.ArrivalNs = int64(f.Arrival)
	if l.dst >= 0 {
		e.forwardFull(int(l.dst), e.nodes[l.dst], pkt, f.Arrival)
		return
	}
	e.deliver(e.nodes[l.src], &pkt, l.port)
}
