package transport

import (
	"fmt"
	"sync"
)

// sendRing is a socket mesh node's outbound round aggregation: each
// hosted sender contributes its round-r payload into a ring of `window`
// round slots, and the node's single writer loop takes round r once
// every live hosted sender has contributed it. The TCP and UDP meshes
// share it.
//
// A writer held off the CPU falls behind processes that close rounds by
// deadline. On a mesh whose rounds may close by deadline (lossy), that
// lateness is loss, not failure: a contribution that finds its slot
// still holding an older round releases the stale payload, and the
// writer, reaching the older round, ships it without the evicted sender
// (a bitmap tombstone). Every entry carries its round, so no payload
// ever ships under another round's number. On a reliable mesh rounds
// close by count, a writer can never fall that far behind, and an
// overrun stays a protocol error.
type sendRing struct {
	mu       sync.Mutex
	cond     sync.Cond
	bufs     [window][]*refBuf // [r%window][local sender] contributions
	rounds   [window][]int     // round of each contribution
	deadFrom []int             // per local sender: first dead round (0 = alive)
	next     int               // the round the writer is waiting for
	lossy    bool
	done     <-chan struct{}
	lo       int // first hosted process, for error messages
}

func newSendRing(lo, localN int, lossy bool, done <-chan struct{}) *sendRing {
	s := &sendRing{deadFrom: make([]int, localN), lossy: lossy, done: done, lo: lo, next: 1}
	s.cond.L = &s.mu
	for i := range s.bufs {
		s.bufs[i] = make([]*refBuf, localN)
		s.rounds[i] = make([]int, localN)
	}
	return s
}

// contribute hands local sender's round-r payload to the writer loop.
func (s *sendRing) contribute(local, r int, rb *refBuf) error {
	slot := r % window
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.bufs[slot][local]; old != nil {
		if !s.lossy {
			return fmt.Errorf("transport: p%d round %d overran the writer window", s.lo+local+1, r)
		}
		old.release() // a round the writer never reached: loss
	}
	s.bufs[slot][local], s.rounds[slot][local] = rb, r
	if ready, _ := s.readyLocked(s.next); ready {
		s.cond.Broadcast()
	}
	return nil
}

// markDead records a hosted sender's death: the writer stops waiting for
// its contributions from fromRound onward and ships its frame slots as
// drop tombstones.
func (s *sendRing) markDead(local, fromRound int) {
	fromRound = max(fromRound, 1)
	s.mu.Lock()
	if s.deadFrom[local] == 0 || s.deadFrom[local] > fromRound {
		s.deadFrom[local] = fromRound
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// wake makes a parked take re-check the done channel.
func (s *sendRing) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// readyLocked reports whether round r can ship — every live hosted
// sender has contributed it, or a later round has taken a slot entry
// (the round's missing contributions are lost) — and how many hosted
// senders are live in round r.
func (s *sendRing) readyLocked(r int) (ready bool, live int) {
	slot := r % window
	missing, overtaken := false, false
	for i, rb := range s.bufs[slot] {
		if rb != nil && s.rounds[slot][i] > r {
			overtaken = true
		}
		if f := s.deadFrom[i]; f != 0 && f <= r {
			continue
		}
		live++
		if rb == nil || s.rounds[slot][i] < r {
			missing = true
		}
	}
	return overtaken || !missing, live
}

// take blocks until round r can ship and moves its payloads into bufs
// (nil for dead, missing, or evicted senders). It returns false once the
// mesh is closing or every hosted sender is dead — whose receivers' slots
// the death verdict already pre-filled mesh-wide, so there is nothing
// left to ship, ever.
func (s *sendRing) take(r int, bufs []*refBuf) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = r
	for {
		ready, live := s.readyLocked(r)
		if live == 0 || closed(s.done) {
			return false
		}
		if ready {
			break
		}
		s.cond.Wait()
	}
	slot := r % window
	for i, rb := range s.bufs[slot] {
		bufs[i] = nil
		if rb != nil && s.rounds[slot][i] == r {
			bufs[i], s.bufs[slot][i] = rb, nil
		}
	}
	return true
}
