package buffer

import (
	"testing"
	"testing/quick"

	"quarc/internal/flit"
)

func mk(seq int) flit.Flit { return flit.Flit{Seq: int32(seq), PktID: 1} }

func push(q *FIFO, f flit.Flit) bool { return q.PushPtr(&f) }

// pop copies the head out and retires it, reporting false when empty.
func pop(q *FIFO) (flit.Flit, bool) {
	h := q.Head()
	if h == nil {
		return flit.Flit{}, false
	}
	f := *h
	q.Drop()
	return f, true
}

func TestNewPanicsOnBadDepth(t *testing.T) {
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Make(nil) did not panic")
		}
	}()
	Make(nil)
}

func TestFIFOOrder(t *testing.T) {
	q := New(4)
	for i := 0; i < 4; i++ {
		if !push(q, mk(i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 4; i++ {
		f, ok := pop(q)
		if !ok || int(f.Seq) != i {
			t.Fatalf("pop %d = (%v, %v)", i, f.Seq, ok)
		}
	}
	if _, ok := pop(q); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestFullAndEmptySignals(t *testing.T) {
	q := New(2)
	if !q.Empty() || q.Full() {
		t.Fatal("fresh FIFO signals wrong")
	}
	push(q, mk(0))
	if q.Empty() || q.Full() {
		t.Fatal("half-full FIFO signals wrong")
	}
	push(q, mk(1))
	if !q.Full() || q.Empty() {
		t.Fatal("full FIFO signals wrong")
	}
	if push(q, mk(2)) {
		t.Fatal("push into full FIFO accepted")
	}
	if q.Len() != 2 || q.Free() != 0 || q.Cap() != 2 {
		t.Fatalf("Len/Free/Cap = %d/%d/%d", q.Len(), q.Free(), q.Cap())
	}
}

func TestHeadDoesNotConsume(t *testing.T) {
	q := New(2)
	push(q, mk(7))
	for i := 0; i < 3; i++ {
		h := q.Head()
		if h == nil || h.Seq != 7 {
			t.Fatalf("head %d = %v", i, h)
		}
	}
	if q.Len() != 1 {
		t.Fatal("Head consumed the flit")
	}
	if New(1).Head() != nil {
		t.Fatal("Head on empty FIFO returned a slot")
	}
	q.Drop()
	if !q.Empty() {
		t.Fatal("Drop left the flit buffered")
	}
	defer func() {
		if recover() == nil {
			t.Error("Drop on empty FIFO did not panic")
		}
	}()
	q.Drop()
}

// Lanes carved from one slab own disjoint slots: filling, draining and
// wrapping lane k never disturbs the flits buffered in its neighbours.
func TestSlabLanesDoNotAlias(t *testing.T) {
	const lanes, depth = 4, 3
	slab := make([]flit.Flit, lanes*depth)
	qs := make([]FIFO, lanes)
	for k := range qs {
		qs[k] = Make(slab[k*depth : (k+1)*depth : (k+1)*depth])
	}
	tag := func(k, i int) flit.Flit { return flit.Flit{PktID: uint64(k + 1), Seq: int32(i)} }
	// Every lane but k holds one flit; lane k is pushed through several
	// full wraps.
	for k := range qs {
		for j := range qs {
			qs[j].Reset()
			if j != k {
				push(&qs[j], tag(j, 0))
			}
		}
		for i := 0; i < 5*depth; i++ {
			for push(&qs[k], tag(k, i)) {
			}
			if f, ok := pop(&qs[k]); !ok || f.PktID != uint64(k+1) {
				t.Fatalf("lane %d popped %+v", k, f)
			}
		}
		if qs[k].Cap() != depth || qs[k].Len() != depth-1 {
			t.Fatalf("lane %d cap/len = %d/%d", k, qs[k].Cap(), qs[k].Len())
		}
		for j := range qs {
			if j == k {
				continue
			}
			got := qs[j].Snapshot()
			if len(got) != 1 || got[0] != tag(j, 0) {
				t.Fatalf("filling lane %d disturbed lane %d: %+v", k, j, got)
			}
		}
	}
}

// Head/Drop/PushPtr keep ring order across the wrap: interleaving pushes
// and drops at every occupancy, the head always carries the oldest flit,
// and the head pointer stays valid while later pushes land.
func TestHeadDropPushPtrRingOrder(t *testing.T) {
	for depth := 1; depth <= 5; depth++ {
		q := New(depth)
		next, want := 0, 0
		for step := 0; step < 40*depth; step++ {
			// Fill to a step-dependent level, then drop one or two.
			for q.Len() < 1+step%depth {
				if !push(q, mk(next)) {
					t.Fatalf("depth %d: push rejected at len %d", depth, q.Len())
				}
				next++
			}
			h := q.Head()
			if int(h.Seq) != want {
				t.Fatalf("depth %d step %d: head %d, want %d", depth, step, h.Seq, want)
			}
			if !q.Full() {
				push(q, mk(next))
				next++
				if int(h.Seq) != want {
					t.Fatalf("depth %d: push overwrote the live head slot", depth)
				}
			}
			q.Drop()
			want++
			if step%3 == 0 && q.Len() > 0 {
				q.Drop()
				want++
			}
		}
		snap := q.Snapshot()
		for i, f := range snap {
			if int(f.Seq) != want+i {
				t.Fatalf("depth %d: snapshot[%d] = %d, want %d", depth, i, f.Seq, want+i)
			}
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := New(3)
	seq := 0
	// Push/pop many times so head wraps repeatedly.
	for round := 0; round < 50; round++ {
		for push(q, mk(seq)) {
			seq++
		}
		f, ok := pop(q)
		if !ok {
			t.Fatal("pop failed on non-empty FIFO")
		}
		want := seq - q.Len() - 1
		if int(f.Seq) != want {
			t.Fatalf("round %d: popped %d, want %d", round, f.Seq, want)
		}
	}
}

func TestReset(t *testing.T) {
	q := New(4)
	push(q, mk(1))
	push(q, mk(2))
	q.Reset()
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("Reset did not empty the FIFO")
	}
	if !push(q, mk(3)) {
		t.Fatal("push after Reset failed")
	}
	if f, _ := pop(q); f.Seq != 3 {
		t.Fatal("wrong flit after Reset")
	}
}

// Property: a FIFO behaves exactly like a bounded slice queue under any
// sequence of push/pop operations.
func TestFIFOModelEquivalence(t *testing.T) {
	check := func(ops []bool, depth uint8) bool {
		d := int(depth%8) + 1
		q := New(d)
		var model []flit.Flit
		seq := 0
		for _, isPush := range ops {
			if isPush {
				f := mk(seq)
				seq++
				got := push(q, f)
				want := len(model) < d
				if got != want {
					return false
				}
				if want {
					model = append(model, f)
				}
			} else {
				got, ok := pop(q)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if got.Seq != model[0].Seq {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New(8)
	f := mk(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushPtr(&f)
		q.Drop()
	}
}
