package comm

import (
	"errors"
	"testing"

	"hetgraph/internal/machine"
)

func TestPacketRoundTripF32(t *testing.T) {
	msgs := []Msg[float32]{{Dst: 0, Val: 1.5}, {Dst: 7, Val: -0.25}, {Dst: 1 << 20, Val: 3e8}}
	h := wireHeader{epoch: 3, seq: 11, active: 42}
	b := encodePacketF32(h, msgs)
	got, gotMsgs, err := decodePacket(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.epoch != 3 || got.seq != 11 || got.active != 42 || got.headerOnly {
		t.Fatalf("header round trip: %+v", got)
	}
	if len(gotMsgs) != len(msgs) {
		t.Fatalf("got %d msgs, want %d", len(gotMsgs), len(msgs))
	}
	for i := range msgs {
		if gotMsgs[i] != msgs[i] {
			t.Errorf("msg %d: %+v != %+v", i, gotMsgs[i], msgs[i])
		}
	}
}

func TestPacketRoundTripEmpty(t *testing.T) {
	b := encodePacketF32(wireHeader{epoch: 1, seq: 0, active: 5}, nil)
	h, msgs, err := decodePacket(b)
	if err != nil || len(msgs) != 0 || h.active != 5 {
		t.Fatalf("empty round trip: %+v, %v, %v", h, msgs, err)
	}
}

func TestPacketRoundTripHeaderOnly(t *testing.T) {
	b := encodeHeaderOnly(wireHeader{epoch: 2, seq: 9, active: 17, nmsgs: 4, msgBytes: 16})
	h, msgs, err := decodePacket(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !h.headerOnly || h.epoch != 2 || h.seq != 9 || h.active != 17 || h.nmsgs != 4 || h.msgBytes != 16 {
		t.Fatalf("header-only round trip: %+v", h)
	}
	if msgs != nil {
		t.Fatalf("header-only decode returned payload %v", msgs)
	}
}

func TestPacketDecodeDetectsEveryBitFlip(t *testing.T) {
	// Flipping any single byte anywhere in the image — magic, header,
	// payload, or the CRC trailer itself — must be detected.
	b := encodePacketF32(wireHeader{epoch: 1, seq: 2, active: 3}, []Msg[float32]{{Dst: 4, Val: 5}, {Dst: 6, Val: 7}})
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x41
		if _, _, err := decodePacket(mut); !errors.Is(err, ErrCorruptPacket) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptPacket", i, err)
		}
	}
}

func TestPacketDecodeDetectsTruncation(t *testing.T) {
	b := encodePacketF32(wireHeader{epoch: 1, seq: 2, active: 3}, []Msg[float32]{{Dst: 4, Val: 5}})
	for n := 0; n < len(b); n++ {
		if _, _, err := decodePacket(b[:n]); !errors.Is(err, ErrCorruptPacket) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptPacket", n, err)
		}
	}
	if _, _, err := decodePacket(nil); !errors.Is(err, ErrCorruptPacket) {
		t.Fatalf("nil image: err = %v, want ErrCorruptPacket", err)
	}
}

func TestCorruptPacketFlipsOnlyTheCopy(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	p := encodePacket(n, []Msg[float32]{{Dst: 1, Val: 2}}, 1, 0, 0)
	orig := append([]byte(nil), p.wire...)
	c := corruptPacket(p, 3)
	if _, _, err := decodePacket(c.wire); !errors.Is(err, ErrCorruptPacket) {
		t.Fatalf("corrupted copy still decodes: %v", err)
	}
	if string(p.wire) != string(orig) {
		t.Fatal("corruptPacket mutated the original wire image")
	}
	if _, _, err := decodePacket(p.wire); err != nil {
		t.Fatalf("original no longer decodes: %v", err)
	}
}
