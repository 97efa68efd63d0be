package runtime

import (
	"sync"

	"kset/internal/algo"
)

// Codec and Decoder are the registry's interfaces (internal/algo owns
// the contract; see algo.Codec for the shared-statelessness and
// decode-into-scratch requirements). The runtime aliases them so
// transport plumbing keeps reading naturally; NewRunner takes the codec
// from the algorithm registry instead of hardwiring the k-set wire
// format.
type (
	Codec   = algo.Codec
	Decoder = algo.Decoder
)

// decodeShare deduplicates decoding across the processes of one run.
// Both transports deliver one shared payload buffer per (sender, round)
// to every co-located receiver (InProc: all n; TCPMesh: the node's
// local group), so without sharing each receiver decodes an identical
// byte string — Θ(n²) DecodeInto calls per round, the dominant cost of
// a TCP round once frames are coalesced. The cache keys on (sender,
// backing array): the first receiver to miss decodes with its own
// Decoder and publishes the value; co-located receivers reuse it.
//
// Sharing one decoded message among receivers is the round model's
// native shape — the lockstep executors (rounds.RunSequential and
// RunConcurrent, including concurrent transitions) hand every receiver
// the same Send(r) result, so Transition treats received messages as
// read-only by contract. Entry lifetime is also the model's: a value is
// reused only within its round, and the control barrier orders every
// round-r Transition before any round-r+1 Decode can overwrite the
// scratch the value lives in. Stale keys cannot alias — a recycled
// payload buffer re-enters the cache under its new round, and the
// refcount on the shared buffer keeps it pinned while any co-located
// receiver is still in the round.
type decodeShare struct {
	slots []shareSlot
}

type shareSlot struct {
	mu      sync.Mutex
	entries map[*byte]shareEntry
}

type shareEntry struct {
	round int
	val   any
	err   error
}

func newDecodeShare(n int) *decodeShare {
	s := &decodeShare{slots: make([]shareSlot, n)}
	for i := range s.slots {
		s.slots[i].entries = make(map[*byte]shareEntry, 4)
	}
	return s
}

// decode returns sender from's round-r message, decoding payload with
// dec only if no co-located receiver already has.
func (s *decodeShare) decode(dec Decoder, from, r int, payload []byte) (any, error) {
	if len(payload) == 0 {
		return dec.Decode(from, payload)
	}
	sl := &s.slots[from]
	key := &payload[0]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if e, ok := sl.entries[key]; ok && e.round == r {
		return e.val, e.err
	}
	if len(sl.entries) > 64 {
		// Pool churn can mint fresh backing arrays; drop dead rounds so
		// the map tracks only the live buffer set.
		for k, e := range sl.entries {
			if e.round != r {
				delete(sl.entries, k)
			}
		}
	}
	val, err := dec.Decode(from, payload)
	sl.entries[key] = shareEntry{round: r, val: val, err: err}
	return val, err
}
