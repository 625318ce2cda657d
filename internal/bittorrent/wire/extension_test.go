package wire

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHandshakeExtensionBit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Handshake{Extensions: true}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[1+len(ProtocolString)+5]&0x10 == 0 {
		t.Fatal("extension reserved bit not set")
	}
	h, err := ReadHandshake(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Extensions {
		t.Fatal("extension bit not read back")
	}
	buf.Reset()
	_ = WriteHandshake(&buf, Handshake{})
	h, err = ReadHandshake(&buf)
	if err != nil || h.Extensions {
		t.Fatalf("plain handshake misread: %+v, %v", h, err)
	}
}

func TestExtendedHandshakeRoundTrip(t *testing.T) {
	in := ExtendedHandshake{PexID: ExtPexID, Port: 51413}
	body, err := MarshalExtendedHandshake(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseExtendedHandshake(body)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestExtendedHandshakeWithoutPex(t *testing.T) {
	body, err := MarshalExtendedHandshake(ExtendedHandshake{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseExtendedHandshake(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.PexID != 0 || out.Port != 0 {
		t.Fatalf("empty handshake parsed as %+v", out)
	}
	// Handshake without an "m" dict at all.
	out, err = ParseExtendedHandshake([]byte("de"))
	if err != nil || out.PexID != 0 {
		t.Fatalf("bare dict: %+v, %v", out, err)
	}
}

func TestExtendedHandshakeErrors(t *testing.T) {
	if _, err := ParseExtendedHandshake([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseExtendedHandshake([]byte("le")); err == nil {
		t.Fatal("non-dict accepted")
	}
}

// TestExtendedHandshakeOutOfRange: a ut_pex id outside 1..255 or a
// port outside 1..65535 reads as 0, "not advertised". Trusted as sent,
// 256 would put PEX gossip under byte(256) = 0, the handshake's own
// sub-ID; −3 would go out as 253; and port 70000 would be remembered
// and re-gossiped as 4464 through a uint16.
func TestExtendedHandshakeOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		pex, port         int64
		wantPex, wantPort int64
	}{
		{256, 70000, 0, 0},
		{-3, -5, 0, 0},
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{255, 65535, 255, 65535},
		{256, 6881, 0, 6881},
		{7, 65536, 7, 0},
	} {
		raw := fmt.Sprintf("d1:md6:ut_pexi%dee1:pi%dee", tc.pex, tc.port)
		got, err := ParseExtendedHandshake([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if want := (ExtendedHandshake{PexID: tc.wantPex, Port: tc.wantPort}); got != want {
			t.Errorf("%s decodes to %+v, want %+v", raw, got, want)
		}
	}
}

func TestPexRoundTrip(t *testing.T) {
	in := PexMessage{
		Added: []PexPeer{
			{IP: net.IPv4(127, 0, 0, 1), Port: 7001},
			{IP: net.IPv4(10, 1, 2, 3), Port: 65535},
		},
		Dropped: []PexPeer{{IP: net.IPv4(192, 168, 0, 9), Port: 80}},
	}
	body, err := MarshalPex(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParsePex(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Added) != 2 || len(out.Dropped) != 1 {
		t.Fatalf("parsed %+v", out)
	}
	for i := range in.Added {
		if !out.Added[i].IP.Equal(in.Added[i].IP) || out.Added[i].Port != in.Added[i].Port {
			t.Fatalf("added[%d] = %+v, want %+v", i, out.Added[i], in.Added[i])
		}
	}
	if out.Added[0].String() != "127.0.0.1:7001" {
		t.Fatalf("string form %q", out.Added[0])
	}
}

func TestPexRejectsIPv6(t *testing.T) {
	_, err := MarshalPex(PexMessage{Added: []PexPeer{{IP: net.ParseIP("::1"), Port: 1}}})
	if err == nil {
		t.Fatal("IPv6 accepted into compact format")
	}
}

func TestPexParseErrors(t *testing.T) {
	if _, err := ParsePex([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParsePex([]byte("le")); err == nil {
		t.Fatal("non-dict accepted")
	}
	// "added" not a multiple of 6.
	if _, err := ParsePex([]byte("d5:added5:abcdee")); err == nil {
		t.Fatal("ragged compact list accepted")
	}
}

func TestExtendedPayloadFraming(t *testing.T) {
	payload := ExtendedPayload(ExtPexID, []byte("body"))
	sub, body, err := SplitExtendedPayload(payload)
	if err != nil || sub != ExtPexID || string(body) != "body" {
		t.Fatalf("framing: %d %q %v", sub, body, err)
	}
	if _, _, err := SplitExtendedPayload(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestExtendedMessageThroughWire(t *testing.T) {
	body, _ := MarshalPex(PexMessage{Added: []PexPeer{{IP: net.IPv4(1, 2, 3, 4), Port: 5}}})
	msg := &Message{Type: MsgExtended, Block: ExtendedPayload(ExtPexID, body)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgExtended || !reflect.DeepEqual(got.Block, msg.Block) {
		t.Fatalf("extended message round trip: %+v", got)
	}
	// Empty extended messages are rejected.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 1, 20})); err == nil {
		t.Fatal("extended message without sub-ID accepted")
	}
}

// Property: PEX compact lists round-trip for arbitrary IPv4/port sets.
func TestPexRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, ports []uint16) bool {
		var in PexMessage
		for i := 0; i < len(raw) && i < len(ports) && i < 20; i++ {
			in.Added = append(in.Added, PexPeer{
				IP:   net.IPv4(byte(raw[i]>>24), byte(raw[i]>>16), byte(raw[i]>>8), byte(raw[i])),
				Port: ports[i],
			})
		}
		body, err := MarshalPex(in)
		if err != nil {
			return false
		}
		out, err := ParsePex(body)
		if err != nil || len(out.Added) != len(in.Added) {
			return false
		}
		for i := range in.Added {
			if !out.Added[i].IP.Equal(in.Added[i].IP) || out.Added[i].Port != in.Added[i].Port {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
