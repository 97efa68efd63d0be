package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// UDPMesh is the best-effort datagram transport: the node-grouped,
// coalesced-round-frame architecture of the TCP mesh (one writer event
// loop and one reader per node, one v2-style frame per node pair per
// round, co-located delivery never touching a socket) rebuilt on UDP
// sockets — one unconnected socket per node, so a round costs one
// sendmmsg batch instead of n-1 stream writes.
//
// Frames larger than a datagram budget are fragmented across numbered
// datagrams (udp_frame.go documents the layout); receivers reassemble
// by fragment index into a per-peer ring of round slots. There is no
// retransmission and no acknowledgment anywhere: the k-set agreement
// algorithm this repo grows tolerates arbitrary message loss as long as
// a stable skeleton survives, so a lost datagram is semantically just
// another dropped link. Round closure at the receiver is the lossy
// mailbox's deadline+grace rule — absence is the drop signal — while
// Policy-injected drops still travel as explicit bitmap tombstones, so
// simulated faults stay fast and compose with real loss (a tombstone-
// bearing datagram can itself be lost).
//
// The zero-allocation discipline of the TCP path carries over: pooled
// payload buffers, reused frame/fragment scratch, reused reassembly
// slots, and batch send/receive state allocated once — the steady-state
// round trip does not allocate.
type UDPMesh struct {
	n, m  int
	pol   Policy
	opts  UDPOpts
	chunk int // fragment body bytes (all fragments but the last)
	nodes []*udpNode
	addrs []netip.AddrPort
	done  chan struct{}

	mu        sync.Mutex
	claimed   []bool
	closed    bool
	deadNodes []bool
}

// UDPOpts tunes a UDP mesh. The zero value means: 1400-byte datagrams,
// a 2ms round deadline with 300µs grace extensions, 1MiB socket
// buffers, no meter, no simulated wire loss.
type UDPOpts struct {
	// MaxDatagram caps the bytes of one UDP packet, header included.
	// Both sides derive the fragment chunk size from it, so every node
	// of a mesh (and, in a future multi-process deployment, every
	// configured peer) must agree on it.
	MaxDatagram int

	// RoundTimeout is the receiver's per-round closure deadline: how
	// long a Gather waits for senders the bitmap has not accounted for
	// before starting to suspect loss.
	RoundTimeout time.Duration

	// Grace extends a timed-out round while datagrams are still
	// trickling in: after the deadline, the round stays open as long as
	// every Grace window brings at least one new frame, and closes on
	// the first silent window.
	Grace time.Duration

	// SocketBuffer sizes SO_RCVBUF/SO_SNDBUF in bytes (0 = 1MiB). The
	// lossy soak shrinks it to put real kernel-buffer pressure on the
	// mesh.
	SocketBuffer int

	// Meter, when non-nil, records the realized heard-set of every
	// gather — the input of the loss-replay differential mode.
	Meter *HeardMeter

	// DropDatagram, when non-nil, simulates wire loss: a datagram
	// (fragment frag of node from's round-r frame to node to) for which
	// it returns true is silently not sent. Unlike a Policy drop it
	// leaves no tombstone — the receiver must notice the absence — so
	// tests can exercise the deadline closure path deterministically.
	DropDatagram func(r, from, to, frag int) bool

	// DeadAfter enables the stall detector: a sender missing from this
	// many consecutive deadline-closed rounds at one receiver is declared
	// dead — its whole node, since an OS process dying takes every
	// co-located participant with it — and its absences stop costing the
	// deadline. 0 disables detection (every silent round burns the full
	// RoundTimeout, but nothing is ever terminal), which is the right
	// setting when loss is expected to be transient.
	DeadAfter int

	// Counters, when non-nil, receives stall and death events.
	Counters *StallCounters
}

func (o *UDPOpts) withDefaults() UDPOpts {
	opts := *o
	if opts.MaxDatagram == 0 {
		opts.MaxDatagram = 1400
	}
	if opts.RoundTimeout == 0 {
		opts.RoundTimeout = 2 * time.Millisecond
	}
	if opts.Grace == 0 {
		opts.Grace = 300 * time.Microsecond
	}
	if opts.SocketBuffer == 0 {
		opts.SocketBuffer = 1 << 20
	}
	return opts
}

// maxUDPDatagram is the largest UDP payload the protocol allows (the
// IPv4 limit); the floor keeps at least one fragment byte after a
// worst-case header.
const (
	maxUDPDatagram = 65507
	minUDPDatagram = udpHeaderMax + 64
)

// NewUDPLoopback returns the fully distributed mesh — one node and one
// socket per process, bound to 127.0.0.1 on kernel-assigned ports —
// with default options.
func NewUDPLoopback(n int, pol Policy) (*UDPMesh, error) {
	return NewUDPMeshLoopback(n, n, pol, UDPOpts{})
}

// NewUDPMeshLoopback returns a UDP mesh transport for n processes
// grouped onto `nodes` loopback nodes. All sockets are bound and all
// loops running before the constructor returns.
func NewUDPMeshLoopback(n, nodes int, pol Policy, opts UDPOpts) (*UDPMesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: n = %d, need >= 1", n)
	}
	if nodes < 1 || nodes > n {
		return nil, fmt.Errorf("transport: nodes = %d, need 1 <= nodes <= n = %d", nodes, n)
	}
	if pol == nil {
		pol = Perfect{}
	}
	opts = opts.withDefaults()
	if opts.MaxDatagram < minUDPDatagram || opts.MaxDatagram > maxUDPDatagram {
		return nil, fmt.Errorf("transport: MaxDatagram = %d, need %d <= MaxDatagram <= %d",
			opts.MaxDatagram, minUDPDatagram, maxUDPDatagram)
	}
	if opts.Meter != nil && opts.Meter.N() != n {
		return nil, fmt.Errorf("transport: meter for n = %d on an n = %d mesh", opts.Meter.N(), n)
	}
	t := &UDPMesh{
		n:       n,
		m:       nodes,
		pol:     pol,
		opts:    opts,
		chunk:   opts.MaxDatagram - udpHeaderMax,
		claimed: make([]bool, n),
		done:    make(chan struct{}),
	}
	for i := 0; i < t.m; i++ {
		lo, hi := t.nodeLo(i), t.nodeLo(i+1)
		nd := &udpNode{t: t, id: i, lo: lo, hi: hi, ring: newSendRing(lo, hi-lo, true, t.done)}
		nd.boxes = make([]*lossyBuffer, hi-lo)
		for j := range nd.boxes {
			nd.boxes[j] = newLossyBuffer(n)
		}
		t.nodes = append(t.nodes, nd)
	}
	if t.m == 1 {
		return t, nil // single node: every delivery is in-memory
	}

	for i := 0; i < t.m; i++ {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: bind node %d: %w", i, err)
		}
		conn.SetReadBuffer(opts.SocketBuffer)
		conn.SetWriteBuffer(opts.SocketBuffer)
		t.nodes[i].conn = conn
		t.addrs = append(t.addrs, conn.LocalAddr().(*net.UDPAddr).AddrPort())
	}
	for i := 0; i < t.m; i++ {
		nd := t.nodes[i]
		if err := nd.initIO(); err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: node %d io setup: %w", i, err)
		}
		go nd.readLoop()
		go nd.writeLoop()
	}
	return t, nil
}

// MarkDead implements DeadMarker: process p's missing deliveries from
// round fromRound onward become permanent nil tombstones at every
// hosted mailbox of every node — deadline-closed rounds stop waiting
// out its silence — and p's own node's writer stops waiting for its
// contributions.
func (t *UDPMesh) MarkDead(p, fromRound int) {
	if p < 0 || p >= t.n {
		return
	}
	for _, nd := range t.nodes {
		for _, b := range nd.boxes {
			b.markDead(p, fromRound)
		}
	}
	nd := t.nodes[t.nodeOf(p)]
	nd.ring.markDead(p-nd.lo, fromRound)
}

// markNodeDead is the stall detector's terminal verdict: every process
// hosted by the peer node is declared dead from now on. Idempotent.
func (t *UDPMesh) markNodeDead(peer int) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.deadNodes == nil {
		t.deadNodes = make([]bool, t.m)
	}
	if t.deadNodes[peer] {
		t.mu.Unlock()
		return
	}
	t.deadNodes[peer] = true
	t.mu.Unlock()
	lo, hi := t.nodeLo(peer), t.nodeLo(peer+1)
	if c := t.opts.Counters; c != nil {
		c.Dead.Add(int64(hi - lo))
	}
	for p := lo; p < hi; p++ {
		t.MarkDead(p, 1)
	}
}

// nodeLo returns the first process hosted by node i (the same
// contiguous balanced partition as the TCP mesh).
func (t *UDPMesh) nodeLo(i int) int { return i * t.n / t.m }

// nodeOf returns the node hosting process p.
func (t *UDPMesh) nodeOf(p int) int {
	for i := 0; i < t.m; i++ {
		if p >= t.nodeLo(i) && p < t.nodeLo(i+1) {
			return i
		}
	}
	return -1
}

// N implements Transport.
func (t *UDPMesh) N() int { return t.n }

// Nodes returns the node count of the mesh.
func (t *UDPMesh) Nodes() int { return t.m }

// Addrs returns the node socket addresses, indexed by node id (empty
// for a single-node mesh, which never opens a socket).
func (t *UDPMesh) Addrs() []netip.AddrPort { return append([]netip.AddrPort(nil), t.addrs...) }

// Endpoint implements Transport.
func (t *UDPMesh) Endpoint(self int) (Endpoint, error) {
	if self < 0 || self >= t.n {
		return nil, fmt.Errorf("transport: endpoint id %d out of range [0,%d)", self, t.n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if t.claimed[self] {
		return nil, fmt.Errorf("transport: endpoint %d already claimed", self)
	}
	t.claimed[self] = true
	ep := &udpEndpoint{nd: t.nodes[t.nodeOf(self)], self: self, drops: make([]bool, t.n)}
	ep.stall = newStallDetector(t.n, t.opts.DeadAfter, t.opts.Counters, func(q int) {
		t.markNodeDead(t.nodeOf(q))
	})
	return ep, nil
}

// Close implements Transport: it tears down sockets and loops and wakes
// every parked Gather with ErrClosed. Idempotent and safe from any
// goroutine.
func (t *UDPMesh) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	for _, nd := range t.nodes {
		if nd.conn != nil {
			nd.conn.Close() // unblocks the reader and any batch send
		}
		nd.ring.wake() // writer loop re-checks t.done and exits
		for _, b := range nd.boxes {
			b.close()
		}
	}
	return nil
}

// udpNode is one event-loop domain of the mesh: the processes it hosts,
// their lossy mailboxes, the outbound round-aggregation state its
// writer loop consumes, and the node's one socket.
type udpNode struct {
	t      *UDPMesh
	id     int
	lo, hi int // hosted processes [lo, hi)
	boxes  []*lossyBuffer
	conn   *net.UDPConn
	ring   *sendRing // outbound round contributions, consumed by the writer loop

	sender    udpSender   // writer-loop owned
	rcv       udpReceiver // reader-loop owned
	reasm     []*udpReasm // by peer node id, reader-loop owned
	badDgrams int         // datagrams dropped by validation, reader-loop owned
}

func (nd *udpNode) localN() int { return nd.hi - nd.lo }

// initIO prepares the batch send/receive state (platform-specific; see
// udp_batch_linux.go and udp_batch_fallback.go) and the reassembly
// rings. Called once per node after every socket is bound.
func (nd *udpNode) initIO() error {
	t := nd.t
	nd.reasm = make([]*udpReasm, t.m)
	for j := 0; j < t.m; j++ {
		if j == nd.id {
			continue
		}
		snd := t.nodeLo(j+1) - t.nodeLo(j)
		nd.reasm[j] = newUDPReasm(j, snd, nd.localN(), t.chunk)
	}
	if err := nd.sender.init(nd.conn, t.addrs); err != nil {
		return err
	}
	return nd.rcv.init(nd.conn, t.opts.MaxDatagram)
}

// writeLoop is the node's single outbound event loop: for each round in
// order, once the send ring releases it (see sendRing: a writer that
// fell behind ships evicted contributions as loss), it coalesces the
// payloads into one frame body per peer node, fragments each into
// datagrams, and ships the whole round as one batch (one sendmmsg on
// Linux). Send-side Policy drops fold into the frame bitmaps here;
// simulated wire loss (DropDatagram) is applied per fragment.
func (nd *udpNode) writeLoop() {
	t := nd.t
	_, perfect := t.pol.(Perfect)
	bufs := make([]*refBuf, nd.localN())
	var body []byte
	for r := 1; nd.ring.take(r, bufs); r++ {
		for j := 0; j < t.m && !closed(t.done); j++ {
			if j == nd.id {
				continue
			}
			body = nd.appendFrameBody(body[:0], r, j, bufs, perfect)
			nd.queueFrame(r, j, body)
		}
		err := nd.sender.flush()
		for _, rb := range bufs {
			if rb != nil {
				rb.release()
			}
		}
		if closed(t.done) {
			return
		}
		if err != nil {
			// Only a dead socket surfaces here (per-datagram errors are
			// treated as loss); without a socket the node is partitioned
			// for good, so fail its processes rather than stall them.
			nd.failLocal(fmt.Errorf("transport: node %d send: %w", nd.id, err))
			return
		}
	}
}

// appendFrameBody builds the round-r frame body for peer node j: the
// drop bitmap over this node link's sender x receiver matrix, then each
// delivering sender's payload once.
func (nd *udpNode) appendFrameBody(body []byte, r, j int, bufs []*refBuf, perfect bool) []byte {
	t := nd.t
	peerLo, peerHi := t.nodeLo(j), t.nodeLo(j+1)
	rcv := peerHi - peerLo
	bitmapLen := (nd.localN()*rcv + 7) / 8
	bitOff := len(body)
	for i := bitmapLen; i > 0; i-- {
		body = append(body, 0)
	}
	bitmap := body[bitOff:]
	for si := 0; si < nd.localN(); si++ {
		if bufs[si] == nil {
			continue // dead sender: all its bits stay tombstones
		}
		any := false
		for qi := 0; qi < rcv; qi++ {
			if perfect || t.pol.Deliver(r, nd.lo+si, peerLo+qi) {
				bit := si*rcv + qi
				bitmap[bit>>3] |= 1 << (bit & 7)
				any = true
			}
		}
		if any {
			body = binary.AppendUvarint(body, uint64(len(bufs[si].b)))
			body = append(body, bufs[si].b...)
			bitmap = body[bitOff : bitOff+bitmapLen]
		}
	}
	return body
}

// queueFrame fragments a frame body into datagrams and queues them on
// the node's batch sender.
func (nd *udpNode) queueFrame(r, to int, body []byte) {
	t := nd.t
	fragCount := (len(body) + t.chunk - 1) / t.chunk
	if fragCount == 0 {
		fragCount = 1
	}
	for fi := 0; fi < fragCount; fi++ {
		if t.opts.DropDatagram != nil && t.opts.DropDatagram(r, nd.id, to, fi) {
			continue
		}
		lo := fi * t.chunk
		hi := lo + t.chunk
		if hi > len(body) {
			hi = len(body)
		}
		nd.sender.queue(to, udpHeader{from: nd.id, round: r, fragIdx: fi, fragCount: fragCount}, body[lo:hi])
	}
}

// failLocal surfaces a socket failure to every process this node hosts,
// unless the transport is already closing.
func (nd *udpNode) failLocal(err error) {
	if closed(nd.t.done) {
		return
	}
	for _, b := range nd.boxes {
		b.fail(err)
	}
}

// readLoop drains the node's socket until Close, reassembling and
// depositing every valid datagram. Malformed or stale datagrams are
// dropped silently (counted in badDgrams) — on a best-effort transport
// a bad packet is indistinguishable from a lost one.
func (nd *udpNode) readLoop() {
	for {
		if err := nd.rcv.recv(nd); err != nil {
			return // socket closed by Close
		}
	}
}

// handleDatagram validates, reassembles, and (on frame completion)
// deposits one received packet.
func (nd *udpNode) handleDatagram(pkt []byte, from netip.AddrPort) {
	t := nd.t
	hdr, frag, err := parseUDPDatagram(pkt)
	if err != nil || hdr.from >= t.m || hdr.from == nd.id || t.addrs[hdr.from] != from {
		nd.badDgrams++
		return
	}
	ra := nd.reasm[hdr.from]
	body, ok := ra.place(hdr, frag)
	if !ok {
		if body == nil {
			nd.badDgrams++
		}
		return
	}
	if body == nil {
		return // fragment accepted; frame not complete yet
	}
	nd.depositFrame(hdr.from, hdr.round, body)
}

// depositFrame fans a reassembled frame body out to the node's hosted
// mailboxes. A frame that fails validation mid-walk simply stops — the
// deposits already made stand, and the missing ones close as loss.
func (nd *udpNode) depositFrame(peer, round int, body []byte) {
	t := nd.t
	peerLo := t.nodeLo(peer)
	snd := t.nodeLo(peer+1) - peerLo
	rcv := nd.localN()
	err := decodeUDPFrame(body, snd, rcv, func(si, delivered int, payload, bitmap []byte) {
		if delivered == 0 {
			for qi := 0; qi < rcv; qi++ {
				nd.boxes[qi].deposit(peerLo+si, round, nil, nil)
			}
			return
		}
		rb := newRefBuf(payload, int32(delivered))
		for qi := 0; qi < rcv; qi++ {
			bit := si*rcv + qi
			if bitmap[bit>>3]&(1<<(bit&7)) != 0 {
				nd.boxes[qi].deposit(peerLo+si, round, rb.b, rb)
			} else {
				nd.boxes[qi].deposit(peerLo+si, round, nil, nil)
			}
		}
	})
	if err != nil {
		nd.badDgrams++
	}
}

// udpReasm reassembles one peer's fragmented round frames into a ring
// of `window` slots, mirroring the mailbox ring so a frame for any
// depositable round has a slot. All state is owned by the reader
// goroutine; buffers are reused across rounds, so steady state does not
// allocate.
type udpReasm struct {
	peer     int
	chunk    int
	limit    int // reassembled body cap, from transport dims — never from headers
	maxFrags int
	slots    [window]reasmSlot
}

type reasmSlot struct {
	round     int
	fragCount int
	got       int
	lastLen   int
	seen      []uint64
	body      []byte
	done      bool
}

func newUDPReasm(peer, snd, rcv, chunk int) *udpReasm {
	limit := udpFrameLimit(snd, rcv)
	return &udpReasm{
		peer:     peer,
		chunk:    chunk,
		limit:    limit,
		maxFrags: (limit + chunk - 1) / chunk,
	}
}

// place copies one fragment into its round slot. It returns (body,
// true) exactly once per round, when the last fragment lands. A nil
// body with ok == false means the datagram was rejected as invalid (as
// opposed to merely not completing a frame yet).
func (ra *udpReasm) place(hdr udpHeader, frag []byte) ([]byte, bool) {
	if hdr.fragCount > ra.maxFrags {
		return nil, false
	}
	final := hdr.fragIdx == hdr.fragCount-1
	if final {
		if len(frag) == 0 || len(frag) > ra.chunk {
			return nil, false
		}
	} else if len(frag) != ra.chunk {
		return nil, false
	}
	s := &ra.slots[hdr.round%window]
	switch {
	case s.round == hdr.round:
		if s.done || s.fragCount != hdr.fragCount {
			return []byte{}, false // late duplicate or inconsistent header
		}
	case s.round > hdr.round:
		return []byte{}, false // stale round: its slot has moved on
	default:
		// New round claims the slot; whatever partial frame occupied it
		// is lost — which on this transport is always sound.
		s.round = hdr.round
		s.fragCount = hdr.fragCount
		s.got = 0
		s.done = false
		words := (hdr.fragCount + 63) / 64
		if cap(s.seen) < words {
			s.seen = make([]uint64, words)
		}
		s.seen = s.seen[:words]
		for i := range s.seen {
			s.seen[i] = 0
		}
		need := hdr.fragCount * ra.chunk
		if cap(s.body) < need {
			s.body = make([]byte, need)
		}
		s.body = s.body[:need]
	}
	if s.seen[hdr.fragIdx>>6]&(1<<(hdr.fragIdx&63)) != 0 {
		return []byte{}, false // duplicate fragment
	}
	s.seen[hdr.fragIdx>>6] |= 1 << (hdr.fragIdx & 63)
	copy(s.body[hdr.fragIdx*ra.chunk:], frag)
	if final {
		s.lastLen = len(frag)
	}
	s.got++
	if s.got < s.fragCount {
		return nil, true
	}
	s.done = true
	return s.body[:(s.fragCount-1)*ra.chunk+s.lastLen], true
}

// udpEndpoint is process self's port onto a UDP mesh.
type udpEndpoint struct {
	nd    *udpNode
	self  int
	drops []bool
	stall *stallDetector // nil unless DeadAfter > 0
}

// Self implements Endpoint.
func (ep *udpEndpoint) Self() int { return ep.self }

// N implements Endpoint.
func (ep *udpEndpoint) N() int { return ep.nd.t.n }

// Broadcast implements Endpoint. Co-hosted receivers get the pooled
// payload deposited directly (no socket); one extra reference goes to
// the node's writer loop. Same split as the TCP mesh: remote drop
// decisions are the writer's, local drops are applied here.
func (ep *udpEndpoint) Broadcast(r int, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d bytes exceeds MaxPayload %d", len(payload), MaxPayload)
	}
	nd := ep.nd
	t := nd.t
	if closed(t.done) {
		return ErrClosed
	}
	delivered := int32(0)
	for to := nd.lo; to < nd.hi; to++ {
		drop := to != ep.self && !t.pol.Deliver(r, ep.self, to)
		ep.drops[to] = drop
		if !drop {
			delivered++
		}
	}
	if t.m > 1 {
		delivered++ // the writer loop's reference
	}
	rb := newRefBuf(payload, delivered)
	for to := nd.lo; to < nd.hi; to++ {
		if ep.drops[to] {
			nd.boxes[to-nd.lo].deposit(ep.self, r, nil, nil)
		} else {
			nd.boxes[to-nd.lo].deposit(ep.self, r, rb.b, rb)
		}
	}
	if t.m > 1 {
		return nd.ring.contribute(ep.self-nd.lo, r, rb)
	}
	return nil
}

// Gather implements Endpoint: it blocks until round r closes under the
// lossy mailbox's deadline+grace rule and reports absent senders as nil
// payloads, records the realized heard-set on the meter if one is
// attached, then applies receive-side Policy delays.
func (ep *udpEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	t := ep.nd.t
	recv, missed, err := ep.nd.boxes[ep.self-ep.nd.lo].await(r, into, t.opts.RoundTimeout, t.opts.Grace)
	if err != nil {
		return nil, err
	}
	ep.stall.observe(r, missed)
	if t.opts.Meter != nil {
		t.opts.Meter.Record(r, ep.self, recv)
	}
	if err := applyDelays(t.pol, r, ep.self, recv, t.done); err != nil {
		return nil, err
	}
	return recv, nil
}

// Close implements Endpoint: UDP endpoints share the transport's
// lifetime (the socket is per node, not per process), so closing one
// tears down the whole mesh. Idempotent.
func (ep *udpEndpoint) Close() error { return ep.nd.t.Close() }
