package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPMesh is the socket transport, rebuilt around node-grouped links
// (wire-format v2). Processes are partitioned across `nodes` mesh nodes;
// each unordered node pair shares ONE duplex TCP stream, and all of a
// round's messages from one node to another ship as a single
// length-prefixed frame: a per-round header, a drop bitmap over the
// (sender × receiver) link matrix carried by that node link, and each
// sender's payload exactly once — however many receivers the peer node
// hosts. Compared with the v1 transport (one stream and one frame per
// directed process link, n² of each), this cuts connections to
// O(nodes²), syscalls to O(nodes²) per round, and the bytes crossing
// the wire by the receiver fan-in factor; co-located delivery never
// touches a socket at all.
//
// Each node runs exactly one writer event loop (it owns every outbound
// stream half, coalescing all local senders' round-r payloads into one
// frame per peer) and one reader goroutine per peer stream (each owns
// its inbound half, depositing straight into the local receivers'
// mailboxes). Goroutines scale with nodes, not with processes.
//
// With nodes == n (NewTCPLoopback) every process is its own node — the
// fully distributed one-process-per-socket-endpoint shape the E18
// measurements used; with nodes < n the transport models a cluster
// whose co-located sessions multiplex one link per peer, the deployment
// shape the agreement service is growing toward.
//
// Per-link frame layout (after a one-time uvarint node-id handshake by
// the dialing side of each stream):
//
//	uvarint frame length (bytes that follow)
//	uvarint round
//	bitmap  ceil(S*R/8) bytes; bit si*R+qi (LSB first) = the round-r
//	        message of the node's si-th process to the peer's qi-th
//	        process is delivered (0 = drop tombstone)
//	then, for each sender si with at least one bit set:
//	        uvarint payload length, payload bytes
type TCPMesh struct {
	n, m  int
	pol   Policy
	opts  TCPOpts
	stall bool // chaos mode: lossy mailboxes, deadline closure, reconnect
	ready atomic.Bool
	nodes []*meshNode
	lns   []net.Listener
	addrs []string
	done  chan struct{}

	mu        sync.Mutex
	claimed   []bool
	closed    bool
	conns     []net.Conn
	deadNodes []bool
	setupErr  error
}

// TCPOpts tunes a TCP mesh beyond the lockstep-exact defaults. The zero
// value is the classic reliable mesh: a missing frame blocks Gather
// until it arrives or the transport fails — the right contract for
// differential suites, and a wedge under a crashed peer.
type TCPOpts struct {
	// Stall enables chaos mode when Stall.RoundTimeout > 0: receive
	// mailboxes switch to the lossy deadline+grace closure the UDP mesh
	// uses (a dead peer costs a deadline, not the run), the stall
	// detector turns consecutive silence into a terminal death verdict
	// (Stall.DeadAfter), and broken streams are redialed with jittered
	// exponential backoff up to Stall.MaxReconnect before the peer node
	// is declared dead. Off by default so lockstep-exact suites keep the
	// reliable contract.
	Stall StallOpts
}

// nodeLo returns the first process hosted by node i (processes are
// partitioned contiguously and evenly: node i hosts [nodeLo(i),
// nodeLo(i+1))).
func (t *TCPMesh) nodeLo(i int) int { return i * t.n / t.m }

// nodeOf returns the node hosting process p.
func (t *TCPMesh) nodeOf(p int) int {
	// Inverse of nodeLo's balanced split; the scan is O(m) but only runs
	// at Endpoint claim time.
	for i := 0; i < t.m; i++ {
		if p >= t.nodeLo(i) && p < t.nodeLo(i+1) {
			return i
		}
	}
	return -1
}

// NewTCPLoopback returns the fully distributed mesh — one node per
// process, every listener bound to 127.0.0.1 on kernel-assigned ports —
// the same deployment shape (and constructor) as the v1 transport.
func NewTCPLoopback(n int, pol Policy) (*TCPMesh, error) {
	return NewTCPMeshLoopback(n, n, pol)
}

// NewTCPMeshLoopback returns a TCP mesh transport for n processes
// grouped onto `nodes` loopback nodes. The full mesh — listeners,
// streams, handshakes, reader and writer loops — is established before
// the constructor returns, so Endpoint never dials.
func NewTCPMeshLoopback(n, nodes int, pol Policy) (*TCPMesh, error) {
	return NewTCPMeshLoopbackOpts(n, nodes, pol, TCPOpts{})
}

// NewTCPMeshLoopbackOpts is NewTCPMeshLoopback with chaos knobs (see
// TCPOpts).
func NewTCPMeshLoopbackOpts(n, nodes int, pol Policy, opts TCPOpts) (*TCPMesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: n = %d, need >= 1", n)
	}
	if nodes < 1 || nodes > n {
		return nil, fmt.Errorf("transport: nodes = %d, need 1 <= nodes <= n = %d", nodes, n)
	}
	if pol == nil {
		pol = Perfect{}
	}
	opts.Stall = opts.Stall.withDefaults()
	t := &TCPMesh{
		n:       n,
		m:       nodes,
		pol:     pol,
		opts:    opts,
		stall:   opts.Stall.RoundTimeout > 0,
		claimed: make([]bool, n),
		done:    make(chan struct{}),
	}
	for i := 0; i < t.m; i++ {
		lo, hi := t.nodeLo(i), t.nodeLo(i+1)
		nd := &meshNode{t: t, id: i, lo: lo, hi: hi, ring: newSendRing(lo, hi-lo, t.stall, t.done)}
		nd.boxes = make([]mailbox, hi-lo)
		for j := range nd.boxes {
			if t.stall {
				nd.boxes[j] = newLossyBuffer(n)
			} else {
				nd.boxes[j] = newRoundBuffer(n)
			}
		}
		nd.conns = make([]net.Conn, t.m)
		nd.reconnecting = make([]bool, t.m)
		t.nodes = append(t.nodes, nd)
	}
	if t.m == 1 {
		return t, nil // single node: every delivery is in-memory
	}

	for i := 0; i < t.m; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		t.lns = append(t.lns, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
	}
	var accepts sync.WaitGroup
	accepts.Add(t.m * (t.m - 1) / 2)
	for i := 0; i < t.m; i++ {
		go t.acceptLoop(t.nodes[i], t.lns[i], &accepts)
	}
	// Node i dials every higher-numbered node; the accept side learns
	// the dialer from the handshake.
	for i := 0; i < t.m; i++ {
		for j := i + 1; j < t.m; j++ {
			c, err := net.Dial("tcp", t.addrs[j])
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("transport: node %d dial node %d: %w", i, j, err)
			}
			t.track(c)
			var hello [binary.MaxVarintLen64]byte
			if _, err := c.Write(hello[:binary.PutUvarint(hello[:], uint64(i))]); err != nil {
				t.Close()
				return nil, fmt.Errorf("transport: node %d handshake to node %d: %w", i, j, err)
			}
			t.nodes[i].conns[j] = c
			go t.readLoop(t.nodes[i], j, c)
		}
	}
	accepts.Wait()
	t.ready.Store(true) // accept handshakes from here on are reconnects
	t.mu.Lock()
	err := t.setupErr
	t.mu.Unlock()
	if err != nil {
		t.Close()
		return nil, err
	}
	for i := 0; i < t.m; i++ {
		go t.nodes[i].writeLoop()
	}
	return t, nil
}

// MarkDead implements DeadMarker: process p's missing deliveries from
// round fromRound onward become permanent nil tombstones at every
// hosted mailbox of every node, and p's own node's writer stops waiting
// for its contributions (its frame slots ship as drop tombstones). This
// single call patches the whole mesh because the loopback mesh is one
// object; on a real multi-host deployment each host applies the same
// verdict to its local view when its own detector fires.
func (t *TCPMesh) MarkDead(p, fromRound int) {
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

// markNodeDead is the terminal verdict of the stall detector or an
// exhausted reconnect budget: every process hosted by the peer node is
// declared dead from now on. Idempotent.
func (t *TCPMesh) markNodeDead(peer int) {
	t.mu.Lock()
	if t.closed || (t.deadNodes != nil && t.deadNodes[peer]) {
		t.mu.Unlock()
		return
	}
	if t.deadNodes == nil {
		t.deadNodes = make([]bool, t.m)
	}
	t.deadNodes[peer] = true
	t.mu.Unlock()
	lo, hi := t.nodeLo(peer), t.nodeLo(peer+1)
	if c := t.opts.Stall.Counters; c != nil {
		c.Dead.Add(int64(hi - lo))
	}
	for p := lo; p < hi; p++ {
		t.MarkDead(p, 1)
	}
}

// N implements Transport.
func (t *TCPMesh) N() int { return t.n }

// Nodes returns the node count of the mesh.
func (t *TCPMesh) Nodes() int { return t.m }

// Addrs returns the node listen addresses, indexed by node id (empty
// for a single-node mesh, which never opens a socket).
func (t *TCPMesh) Addrs() []string { return append([]string(nil), t.addrs...) }

// Endpoint implements Transport.
func (t *TCPMesh) Endpoint(self int) (Endpoint, error) {
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
	ep := &meshEndpoint{nd: t.nodes[t.nodeOf(self)], self: self, drops: make([]bool, t.n)}
	if t.stall {
		ep.stall = newStallDetector(t.n, t.opts.Stall.DeadAfter, t.opts.Stall.Counters, func(q int) {
			t.markNodeDead(t.nodeOf(q))
		})
	}
	return ep, nil
}

// Close implements Transport: it tears down listeners, streams and
// loops, and wakes every parked Gather with ErrClosed. Idempotent and
// safe from any goroutine.
func (t *TCPMesh) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	close(t.done)
	for _, ln := range t.lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, nd := range t.nodes {
		nd.ring.wake() // writer loop re-checks t.done and exits
		for _, b := range nd.boxes {
			b.close()
		}
	}
	return nil
}

// track registers a stream for teardown; a stream arriving after
// teardown (an accept racing Close) is closed on the spot.
func (t *TCPMesh) track(c net.Conn) bool {
	t.mu.Lock()
	closed := t.closed
	if !closed {
		t.conns = append(t.conns, c)
	}
	t.mu.Unlock()
	if closed {
		c.Close()
	}
	return !closed
}

func (t *TCPMesh) failSetup(err error) {
	t.mu.Lock()
	if t.setupErr == nil {
		t.setupErr = err
	}
	t.mu.Unlock()
}

// acceptLoop accepts the streams dialed by lower-numbered nodes and
// binds each to its peer via the handshake. After setup, in chaos mode,
// it also accepts replacement streams from reconnecting peers: the
// replacement closes whatever stream it supersedes and takes over the
// peer's slot.
func (t *TCPMesh) acceptLoop(nd *meshNode, ln net.Listener, accepts *sync.WaitGroup) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !t.track(c) {
			return
		}
		go func() {
			if !t.ready.Load() {
				defer accepts.Done()
			}
			c.SetReadDeadline(time.Now().Add(30 * time.Second))
			from64, err := binary.ReadUvarint(oneByteReader{c})
			c.SetReadDeadline(time.Time{})
			if err != nil {
				t.failSetup(fmt.Errorf("transport: node %d handshake read: %w", nd.id, err))
				return
			}
			from := int(from64)
			var old net.Conn
			nd.mu.Lock()
			switch {
			case from64 >= uint64(nd.id):
				err = fmt.Errorf("transport: node %d got handshake from unexpected node %d", nd.id, from64)
			case nd.conns[from] != nil && !t.stall:
				err = fmt.Errorf("transport: node %d got a second stream claiming node %d", nd.id, from)
			default:
				old = nd.conns[from]
				nd.conns[from] = c
				nd.reconnecting[from] = false
			}
			nd.mu.Unlock()
			if err != nil {
				t.failSetup(err)
				return
			}
			if old != nil {
				old.Close()
			}
			go t.readLoop(nd, from, c)
		}()
	}
}

// streamBroken handles a read or write failure on the stream to peer in
// chaos mode: the first notice (reader and writer can both hit it) tears
// the stream out of the conn table and starts recovery — the original
// dialer side redials with backoff, the accept side waits out the
// dialer's budget for a replacement — and an exhausted budget turns into
// the terminal peer-dead verdict.
func (t *TCPMesh) streamBroken(nd *meshNode, peer int, c net.Conn) {
	if closed(t.done) {
		return
	}
	nd.mu.Lock()
	if nd.conns[peer] != c {
		// A replacement (or a second notice) already took over.
		nd.mu.Unlock()
		return
	}
	nd.conns[peer] = nil
	already := nd.reconnecting[peer]
	nd.reconnecting[peer] = true
	nd.mu.Unlock()
	c.Close()
	if already {
		return
	}
	switch {
	case t.opts.Stall.MaxReconnect <= 0:
		t.markNodeDead(peer)
	case nd.id < peer:
		go t.redial(nd, peer)
	default:
		go t.awaitReplacement(nd, peer)
	}
}

// redial re-establishes the stream this node originally dialed, with
// jittered exponential backoff, up to the reconnect budget. Success
// installs the new stream for both loops; exhaustion is the terminal
// peer-dead verdict.
func (t *TCPMesh) redial(nd *meshNode, peer int) {
	o := t.opts.Stall
	for attempt := 1; attempt <= o.MaxReconnect; attempt++ {
		timer := time.NewTimer(o.backoff(nd.id, peer, attempt))
		select {
		case <-t.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		if o.Counters != nil {
			o.Counters.Retries.Add(1)
		}
		c, err := net.DialTimeout("tcp", t.addrs[peer], time.Second)
		if err != nil {
			continue
		}
		var hello [binary.MaxVarintLen64]byte
		if _, err := c.Write(hello[:binary.PutUvarint(hello[:], uint64(nd.id))]); err != nil {
			c.Close()
			continue
		}
		if !t.track(c) {
			return
		}
		nd.mu.Lock()
		nd.conns[peer] = c
		nd.reconnecting[peer] = false
		nd.mu.Unlock()
		go t.readLoop(nd, peer, c)
		return
	}
	t.markNodeDead(peer)
}

// awaitReplacement is the accept side of stream recovery: it gives the
// dialer its full backoff budget (plus dial slack) to show up with a
// replacement stream, then issues the peer-dead verdict if none did.
func (t *TCPMesh) awaitReplacement(nd *meshNode, peer int) {
	o := t.opts.Stall
	budget := time.Duration(o.MaxReconnect)*(o.ReconnectMax+o.ReconnectMax/2+time.Second) + time.Second
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-t.done:
		return
	case <-timer.C:
	}
	nd.mu.Lock()
	gone := nd.reconnecting[peer]
	nd.mu.Unlock()
	if gone {
		t.markNodeDead(peer)
	}
}

// oneByteReader adapts a net.Conn for ReadUvarint without buffering —
// the handshake must not swallow the first frame's bytes.
type oneByteReader struct{ c net.Conn }

func (r oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r.c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// meshNode is one event-loop domain of the mesh: the processes it
// hosts, their receive mailboxes, the outbound round-aggregation state
// its writer loop consumes, and one stream per peer node.
type meshNode struct {
	t      *TCPMesh
	id     int
	lo, hi int       // hosted processes [lo, hi)
	boxes  []mailbox // per hosted process (roundBuffer, or lossyBuffer in chaos mode)
	ring   *sendRing // outbound round contributions, consumed by the writer loop

	mu           sync.Mutex
	conns        []net.Conn // by peer node id; writes owned by the writer loop
	reconnecting []bool     // per peer node: stream down, replacement pending
}

func (nd *meshNode) localN() int { return nd.hi - nd.lo }

// writeLoop is the node's single outbound event loop: for each round in
// order, once every live hosted process has contributed its payload, it
// coalesces them into one v2 frame per peer node and writes each with a
// single writev. Send-side drops (the Policy) are folded into the
// frame's bitmap here; a dead local sender's slots ship as bitmap
// tombstones (its contribution is never waited for), and in chaos mode
// a broken stream, or a writer that fell behind (see sendRing), turns
// the frame into loss instead of failing the run.
func (nd *meshNode) writeLoop() {
	t := nd.t
	_, perfect := t.pol.(Perfect)
	bufs := make([]*refBuf, nd.localN())
	var body []byte
	var hdr [2 * binary.MaxVarintLen64]byte
	// vecs is re-sliced from a fixed backing array every frame:
	// net.Buffers.WriteTo consumes the slice from the front, so
	// appending to vecs[:0] would reallocate per frame.
	var vecsArr [2][]byte
	var vecs net.Buffers
	for r := 1; nd.ring.take(r, bufs); r++ {
		failed := false
		for j := 0; j < t.m && !closed(t.done) && !failed; j++ {
			if j == nd.id {
				continue
			}
			conn := nd.conns[j]
			if t.stall {
				nd.mu.Lock()
				conn = nd.conns[j]
				nd.mu.Unlock()
				if conn == nil {
					continue // stream down: this round's frame is loss
				}
			}
			peerLo, peerHi := t.nodeLo(j), t.nodeLo(j+1)
			rcv := peerHi - peerLo
			body = binary.AppendUvarint(body[:0], uint64(r))
			// Drop bitmap over the S x R link matrix of this node link,
			// zero-extended byte-wise so the buffer's capacity is reused
			// across frames instead of allocating a temp per frame.
			bitOff := len(body)
			for i := (nd.localN()*rcv + 7) / 8; i > 0; i-- {
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
					bitmap = body[bitOff : bitOff+(nd.localN()*rcv+7)/8]
				}
			}
			n := binary.PutUvarint(hdr[:], uint64(len(body)))
			vecsArr[0], vecsArr[1] = hdr[:n], body
			vecs = net.Buffers(vecsArr[:])
			if _, err := vecs.WriteTo(conn); err != nil {
				if t.stall {
					t.streamBroken(nd, j, conn)
				} else {
					nd.failLocal(fmt.Errorf("transport: node %d write to node %d: %w", nd.id, j, err))
					failed = true
				}
			}
		}
		for _, rb := range bufs {
			if rb != nil {
				rb.release()
			}
		}
		if failed || closed(t.done) {
			return
		}
	}
}

// failLocal surfaces a wire failure to every process this node hosts,
// unless the transport is already closing (teardown makes writes and
// reads fail by design).
func (nd *meshNode) failLocal(err error) {
	if closed(nd.t.done) {
		return
	}
	for _, b := range nd.boxes {
		b.fail(err)
	}
}

// readLoop is the inbound half of one node link: it parses the peer's
// coalesced round frames and deposits each sender's payload (shared,
// reference-counted) or drop tombstone straight into the hosted
// receivers' mailboxes. A clean EOF is the normal end of a peer's run
// in reliable mode; in chaos mode any stream end while the transport is
// live routes to streamBroken for reconnect, and forward round gaps are
// tolerated (the frames a dead stream swallowed are loss, closed by the
// receive deadline).
func (t *TCPMesh) readLoop(nd *meshNode, peer int, c net.Conn) {
	peerLo, peerHi := t.nodeLo(peer), t.nodeLo(peer+1)
	snd, rcv := peerHi-peerLo, nd.localN()
	bitmapLen := (snd*rcv + 7) / 8
	frameLimit := uint64(binary.MaxVarintLen64 + bitmapLen + snd*(binary.MaxVarintLen64+MaxPayload))
	br := bufio.NewReaderSize(c, 1<<16)
	var body []byte
	prevRound := 0
	fail := func(err error) {
		if t.stall {
			// Chaos mode: a broken or corrupt stream is a recoverable
			// transport event, not a run failure.
			t.streamBroken(nd, peer, c)
			return
		}
		nd.failLocal(fmt.Errorf("transport: node %d read from node %d: %w", nd.id, peer, err))
	}
	for {
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			if t.stall || !errors.Is(err, io.EOF) {
				fail(err)
			}
			return
		}
		if flen > frameLimit {
			fail(fmt.Errorf("%d-byte frame exceeds limit %d", flen, frameLimit))
			return
		}
		if cap(body) < int(flen) {
			body = make([]byte, flen)
		}
		body = body[:flen]
		if _, err := io.ReadFull(br, body); err != nil {
			fail(err)
			return
		}
		round64, k := binary.Uvarint(body)
		badRound := k <= 0 || int(round64) != prevRound+1
		if badRound && t.stall && k > 0 && int(round64) > prevRound {
			badRound = false // forward gap: the missing rounds were lost with the old stream
		}
		if badRound {
			fail(fmt.Errorf("round %d frame after round %d", round64, prevRound))
			return
		}
		prevRound = int(round64)
		rest := body[k:]
		if len(rest) < bitmapLen {
			fail(fmt.Errorf("truncated bitmap"))
			return
		}
		bitmap := rest[:bitmapLen]
		rest = rest[bitmapLen:]
		ok := true
		for si := 0; si < snd && ok; si++ {
			delivered := 0
			for qi := 0; qi < rcv; qi++ {
				bit := si*rcv + qi
				if bitmap[bit>>3]&(1<<(bit&7)) != 0 {
					delivered++
				}
			}
			if delivered == 0 {
				for qi := 0; qi < rcv; qi++ {
					nd.boxes[qi].deposit(peerLo+si, prevRound, nil, nil)
				}
				continue
			}
			plen, k := binary.Uvarint(rest)
			if k <= 0 || plen > MaxPayload || uint64(len(rest)-k) < plen {
				fail(fmt.Errorf("bad payload length for sender p%d", peerLo+si+1))
				ok = false
				break
			}
			rb := newRefBuf(rest[k:k+int(plen)], int32(delivered))
			rest = rest[k+int(plen):]
			for qi := 0; qi < rcv; qi++ {
				bit := si*rcv + qi
				if bitmap[bit>>3]&(1<<(bit&7)) != 0 {
					nd.boxes[qi].deposit(peerLo+si, prevRound, rb.b, rb)
				} else {
					nd.boxes[qi].deposit(peerLo+si, prevRound, nil, nil)
				}
			}
		}
		if !ok {
			return
		}
		if len(rest) != 0 {
			fail(fmt.Errorf("%d trailing bytes in round-%d frame", len(rest), prevRound))
			return
		}
	}
}

// closed reports whether the done channel is closed without blocking.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// meshEndpoint is process self's port onto a TCP mesh.
type meshEndpoint struct {
	nd    *meshNode
	self  int
	drops []bool
	stall *stallDetector // nil outside chaos mode
}

// Self implements Endpoint.
func (ep *meshEndpoint) Self() int { return ep.self }

// N implements Endpoint.
func (ep *meshEndpoint) N() int { return ep.nd.t.n }

// Broadcast implements Endpoint. Co-hosted receivers get the pooled
// payload deposited directly (no socket); one extra reference goes to
// the node's writer loop, which coalesces all local senders' round-r
// payloads into one frame per peer node. Remote drop decisions are the
// writer's (folded into the frame bitmap); local drops are applied
// here, as tombstone deposits.
func (ep *meshEndpoint) Broadcast(r int, payload []byte) error {
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

// Gather implements Endpoint. In chaos mode the await closes by
// deadline+grace and the missed-sender list feeds the stall detector.
func (ep *meshEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	o := ep.nd.t.opts.Stall
	recv, missed, err := ep.nd.boxes[ep.self-ep.nd.lo].await(r, into, o.RoundTimeout, o.Grace)
	if err != nil {
		return nil, err
	}
	ep.stall.observe(r, missed)
	if err := applyDelays(ep.nd.t.pol, r, ep.self, recv, ep.nd.t.done); err != nil {
		return nil, err
	}
	return recv, nil
}

// Close implements Endpoint: mesh endpoints share the transport's
// lifetime (the streams are per node pair, not per process), so closing
// one tears down the whole mesh. Idempotent.
func (ep *meshEndpoint) Close() error { return ep.nd.t.Close() }
