// Package buffer implements the parameterised flit FIFOs used as the input
// lanes of the switch (paper §2.3.1: "The buffers in the design are
// parametrized in width and depth", two lanes per input port).
//
// The FIFO exposes the same observable signals the hardware buffer drives:
// Full (used to build the CH_STATUS_N channel-status signal sent back to the
// upstream node) and Empty (which activates the VC arbiter). It is a plain
// ring over flit slots. The storage is provided by the caller (Make), so a
// switch can carve all of its lanes from one contiguous slab and keep the
// FIFO headers inline in its lane records; New allocates private storage for
// a standalone FIFO. Flits are written and consumed in place — PushPtr copies
// a flit into its slot, Head exposes the head slot by pointer and Drop
// retires it — so the datapath copies a flit once per hop.
package buffer

import (
	"fmt"

	"quarc/internal/flit"
)

// FIFO is a fixed-capacity flit queue over caller-provided slots. Construct
// with Make or New.
type FIFO struct {
	buf  []flit.Flit
	head int
	size int
}

// Make returns an empty FIFO whose slots are buf; its capacity is len(buf).
// The FIFO owns buf from then on: buf must not overlap any other FIFO's
// storage, and callers carving several FIFOs from one slab should pass
// full-slice expressions (slab[lo:hi:hi]).
func Make(buf []flit.Flit) FIFO {
	if len(buf) == 0 {
		panic("buffer: FIFO needs at least one slot")
	}
	return FIFO{buf: buf}
}

// New returns a FIFO with its own storage of the given capacity (depth in
// flits). Depth must be positive.
func New(depth int) *FIFO {
	if depth <= 0 {
		panic(fmt.Sprintf("buffer: non-positive depth %d", depth))
	}
	q := Make(make([]flit.Flit, depth))
	return &q
}

// Cap returns the capacity in flits.
func (q *FIFO) Cap() int { return len(q.buf) }

// Len returns the number of buffered flits.
func (q *FIFO) Len() int { return q.size }

// Free returns the remaining capacity.
func (q *FIFO) Free() int { return len(q.buf) - q.size }

// Empty mirrors the hardware empty signal.
func (q *FIFO) Empty() bool { return q.size == 0 }

// Full mirrors the hardware full signal.
func (q *FIFO) Full() bool { return q.size == len(q.buf) }

// PushPtr copies *f into the tail slot. It reports false (and stores
// nothing) when full; the hardware equivalent is a write-enable gated by the
// full signal.
//
//quarc:hotpath
func (q *FIFO) PushPtr(f *flit.Flit) bool {
	if q.size == len(q.buf) {
		return false
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = *f
	q.size++
	return true
}

// Head returns a pointer to the head slot, or nil when the FIFO is empty.
// The pointer stays valid (and its flit unchanged) until the next Drop or
// Reset; pushes never overwrite a live slot.
//
//quarc:hotpath
func (q *FIFO) Head() *flit.Flit {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop retires the head flit in place: the slot is neither copied out nor
// cleared (flits hold no pointers, and a later push overwrites it). It
// panics on an empty FIFO, which only a desynchronised caller can produce.
//
//quarc:hotpath
func (q *FIFO) Drop() {
	if q.size == 0 {
		panic("buffer: Drop on empty FIFO")
	}
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
}

// Snapshot returns a copy of the buffered flits in queue order (head
// first). It is an inspection hook for invariant checkers and tests and
// does not disturb the queue.
func (q *FIFO) Snapshot() []flit.Flit {
	out := make([]flit.Flit, q.size)
	for i := 0; i < q.size; i++ {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

// Reset discards all contents (reset_fsm_w in the paper's write controller).
func (q *FIFO) Reset() {
	for i := range q.buf {
		q.buf[i] = flit.Flit{}
	}
	q.head, q.size = 0, 0
}
