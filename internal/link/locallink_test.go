package link

import (
	"testing"

	"quarc/internal/flit"
)

func packet(n int) []flit.Flit {
	return flit.Packet(flit.Flit{Src: 1, Dst: 2, Traffic: flit.Unicast, PktID: 7}, n)
}

func TestTransferWholePacket(t *testing.T) {
	s := &Sender{}
	r := NewReceiver(16)
	p := packet(8)
	s.StartFrame(p, 0)
	cycles, err := Transfer(s, r, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 8 {
		t.Fatalf("transfer took %d cycles, want 8 (one word per cycle)", cycles)
	}
	if r.Lanes[0].Len() != 8 {
		t.Fatalf("lane 0 holds %d flits, want 8", r.Lanes[0].Len())
	}
	for i := 0; i < 8; i++ {
		f := r.Lanes[0].Head()
		if f == nil || int(f.Seq) != i {
			t.Fatalf("flit %d missing or out of order (%v)", i, f)
		}
		r.Lanes[0].Drop()
	}
	if r.Lanes[1].Len() != 0 {
		t.Fatal("lane 1 received spurious flits")
	}
}

func TestBackPressureStallsSender(t *testing.T) {
	s := &Sender{}
	r := NewReceiver(2) // tiny buffer
	p := packet(6)
	s.StartFrame(p, 1)
	// Drain one flit every third cycle: the sender must stall on full.
	received := 0
	cycles, err := Transfer(s, r, 1000, func(c int) {
		if c%3 == 2 {
			if !r.Lanes[1].Empty() {
				r.Lanes[1].Drop()
				received++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 6 {
		t.Fatalf("transfer with back-pressure took %d cycles; expected stalls", cycles)
	}
	received += r.Lanes[1].Len()
	if received != 6 {
		t.Fatalf("received %d flits, want 6", received)
	}
	if r.Err() != nil {
		t.Fatalf("protocol violation under back-pressure: %v", r.Err())
	}
}

func TestChannelSelection(t *testing.T) {
	// Two frames on different lanes end up in different buffers.
	r := NewReceiver(8)
	for lane := 0; lane < NumVC; lane++ {
		s := &Sender{}
		s.StartFrame(packet(3), lane)
		if _, err := Transfer(s, r, 100, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.Lanes[0].Len() != 3 || r.Lanes[1].Len() != 3 {
		t.Fatalf("lane lengths %d/%d, want 3/3", r.Lanes[0].Len(), r.Lanes[1].Len())
	}
}

func TestReceiverRejectsDataOutsideFrame(t *testing.T) {
	r := NewReceiver(4)
	sig := Signals{SrcRdy: true, SOF: false, ChToStore: 0}
	if r.Clock(sig, flit.Flit{}) {
		t.Fatal("accepted data with no SOF")
	}
	if r.Err() == nil {
		t.Fatal("no protocol error recorded")
	}
}

func TestReceiverRejectsSOFInsideFrame(t *testing.T) {
	r := NewReceiver(4)
	if !r.Clock(Signals{SrcRdy: true, SOF: true, ChToStore: 0}, flit.Flit{Kind: flit.Header}) {
		t.Fatal("first SOF rejected")
	}
	if r.Clock(Signals{SrcRdy: true, SOF: true, ChToStore: 0}, flit.Flit{}) {
		t.Fatal("accepted nested SOF")
	}
}

func TestReceiverRejectsLaneChangeMidFrame(t *testing.T) {
	r := NewReceiver(4)
	r.Clock(Signals{SrcRdy: true, SOF: true, ChToStore: 0}, flit.Flit{Kind: flit.Header})
	if r.Clock(Signals{SrcRdy: true, ChToStore: 1}, flit.Flit{}) {
		t.Fatal("accepted lane change mid-frame")
	}
}

func TestReceiverRejectsBadLane(t *testing.T) {
	r := NewReceiver(4)
	if r.Clock(Signals{SrcRdy: true, SOF: true, ChToStore: 5}, flit.Flit{}) {
		t.Fatal("accepted out-of-range lane")
	}
}

func TestSenderIdleWithoutFrame(t *testing.T) {
	s := &Sender{}
	status := [NumVC]bool{true, true}
	if _, _, ok := s.Drive(status, true); ok {
		t.Fatal("idle sender drove the bus")
	}
	if s.Busy() {
		t.Fatal("idle sender claims busy")
	}
}

func TestStartFrameWhileBusyPanics(t *testing.T) {
	s := &Sender{}
	s.StartFrame(packet(2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("StartFrame while busy did not panic")
		}
	}()
	s.StartFrame(packet(2), 0)
}

func TestFiveStepHandshakeOrder(t *testing.T) {
	// §2.7: the transfer begins only once the destination advertises lane
	// space (CH_STATUS) and readiness (DST_RDY).
	s := &Sender{}
	s.StartFrame(packet(2), 0)
	var none [NumVC]bool
	if _, _, ok := s.Drive(none, true); ok {
		t.Fatal("sender transferred with CH_STATUS_N deasserted")
	}
	ready := [NumVC]bool{true, false}
	if _, _, ok := s.Drive(ready, false); ok {
		t.Fatal("sender transferred with DST_RDY_N deasserted")
	}
	sig, _, ok := s.Drive(ready, true)
	if !ok || !sig.SOF || !sig.SrcRdy {
		t.Fatalf("first word signals wrong: %+v", sig)
	}
}

func TestWireWordsCarriedOnData(t *testing.T) {
	s := &Sender{}
	r := NewReceiver(8)
	p := packet(2)
	s.StartFrame(p, 0)
	status, dstRdy := r.Drive()
	sig, _, ok := s.Drive(status, dstRdy)
	if !ok {
		t.Fatal("no transfer")
	}
	w, err := flit.EncodeWire(p[0])
	if err != nil {
		t.Fatal(err)
	}
	if sig.Data != w {
		t.Fatalf("data bus %#x, want encoded header %#x", sig.Data, w)
	}
	dec, err := flit.DecodeWire(sig.Data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Dst != p[0].Dst || dec.Kind != flit.Header {
		t.Fatalf("decoded %+v does not match header", dec)
	}
}

// Equivalence: the signal-level transfer delivers exactly the flit sequence
// a credit-based model would (one flit per cycle when space is available).
func TestSignalModelMatchesCreditModel(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		for _, plen := range []int{2, 5, 16} {
			// Credit model: send whenever the downstream queue has space,
			// drain one flit every second cycle.
			qlen := 0
			var creditTrace []int
			sent := 0
			for c := 0; sent < plen && c < 10000; c++ {
				if qlen < depth {
					qlen++
					sent++
					creditTrace = append(creditTrace, c)
				}
				if c%2 == 1 && qlen > 0 {
					qlen--
				}
			}

			// Signal model with the same drain pattern.
			s := &Sender{}
			r := NewReceiver(depth)
			s.StartFrame(packet(plen), 0)
			var sigTrace []int
			got := 0
			cyc := 0
			for s.Busy() && cyc < 10000 {
				status, dstRdy := r.Drive()
				sig, f, ok := s.Drive(status, dstRdy)
				if ok && r.Clock(sig, f) {
					s.Advance()
					sigTrace = append(sigTrace, cyc)
				}
				if cyc%2 == 1 {
					if !r.Lanes[0].Empty() {
						r.Lanes[0].Drop()
						got++
					}
				}
				cyc++
			}
			if len(sigTrace) != plen {
				t.Fatalf("depth=%d plen=%d: signal model sent %d flits", depth, plen, len(sigTrace))
			}
			if r.Err() != nil {
				t.Fatalf("depth=%d plen=%d: %v", depth, plen, r.Err())
			}
			// Same number of transfer opportunities used in both models.
			if len(creditTrace) != len(sigTrace) {
				t.Fatalf("depth=%d plen=%d: credit model %v vs signal model %v",
					depth, plen, creditTrace, sigTrace)
			}
			for i := range creditTrace {
				if creditTrace[i] != sigTrace[i] {
					t.Fatalf("depth=%d plen=%d: cycle traces differ: %v vs %v",
						depth, plen, creditTrace, sigTrace)
				}
			}
		}
	}
}
