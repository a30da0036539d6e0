package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// fullMessage is a message of type typ with every field set.
func fullMessage(typ MsgType) *Message {
	return &Message{
		Type: typ, Round: -7 - int(typ), DeviceID: -3,
		Arch: "lenet-s", Reason: "reason: ünïcode too", Token: []byte{0, 1, 2, 0xff},
		Payload: []byte("payload bytes, last and contiguous"),
	}
}

// frameOf returns m's frame.
func frameOf(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMessageRoundTripAllTypes: every message type survives the wire with
// every field set, negative and extreme Round/DeviceID included, and a
// frame is exactly as long as its message says.
func TestMessageRoundTripAllTypes(t *testing.T) {
	for typ := MsgHello; typ <= MsgRoundSummary; typ++ {
		in := fullMessage(typ)
		frame := frameOf(t, in)
		if want := prefixLen + headerLen + len(in.Arch) + len(in.Reason) + len(in.Token) + len(in.Payload); len(frame) != want {
			t.Errorf("%v: frame of %d bytes, want %d", typ, len(frame), want)
		}
		out, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", typ, out, in)
		}
	}
	for _, v := range []int{math.MinInt64, math.MaxInt64, -1, 0} {
		in := &Message{Type: MsgUploadAck, Round: v, DeviceID: -v}
		out, err := ReadMessage(bytes.NewReader(frameOf(t, in)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip of %d: got %+v", v, out)
		}
	}
}

// TestWriteMessageRefuses: a message the format cannot carry is refused
// before a byte is written.
func TestWriteMessageRefuses(t *testing.T) {
	long := strings.Repeat("a", math.MaxUint16+1)
	for name, m := range map[string]*Message{
		"arch past u16":  {Type: MsgHello, Arch: long},
		"token past u16": {Type: MsgResume, Token: []byte(long)},
		"type 0":         {Payload: []byte{1}},
		"type past last": {Type: MsgRoundSummary + 1},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err == nil || buf.Len() != 0 {
			t.Errorf("%s: err %v with %d bytes written, want a refusal and none", name, err, buf.Len())
		}
	}
	for name, m := range map[string]*Message{
		"arch at u16":  {Type: MsgHello, Arch: long[1:]},
		"token at u16": {Type: MsgResume, Token: []byte(long[1:])},
	} {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// The header pushes a payload of the limit itself over it. The pages of
	// the payload are never touched: the refusal comes before the write.
	if err := WriteMessage(io.Discard, &Message{Type: MsgUpload, Payload: make([]byte, DefaultMaxMessage)}); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("oversized payload: err %v, want ErrMessageTooLarge", err)
	}
}

// TestReadMessageMalformed feeds the reader binary malformations of a
// valid frame. Each must return an error, none may panic, and none may be
// offered a payload buffer before its header validated.
func TestReadMessageMalformed(t *testing.T) {
	valid := fullMessage(MsgUpload)
	frame := frameOf(t, valid)
	text := len(valid.Arch) + len(valid.Reason) + len(valid.Token)
	// Offsets into a frame (prefix included) of the header's length fields.
	const typeAt, archLenAt, reasonLenAt, tokenLenAt = 4, 21, 23, 27

	type malformation struct {
		name string
		data []byte
		// payloadOffered is whether the header is valid up to the payload, so
		// the reader may ask for its buffer before it hits the truncation.
		payloadOffered bool
	}
	mutate := func(name string, f func(b []byte)) malformation {
		b := bytes.Clone(frame)
		f(b)
		return malformation{name: name, data: b}
	}
	cases := []malformation{
		mutate("body shorter than the header", func(b []byte) { binary.BigEndian.PutUint32(b, headerLen-1) }),
		mutate("empty body", func(b []byte) { binary.BigEndian.PutUint32(b, 0) }),
		{name: "four-byte body (the old corrupt-gob case)", data: []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}},
		mutate("body past the limit", func(b []byte) { binary.BigEndian.PutUint32(b, DefaultMaxMessage+1) }),
		mutate("arch length past the body", func(b []byte) { binary.BigEndian.PutUint16(b[archLenAt:], math.MaxUint16) }),
		mutate("token length past the body", func(b []byte) { binary.BigEndian.PutUint16(b[tokenLenAt:], math.MaxUint16) }),
		mutate("fields one byte past the body", func(b []byte) {
			binary.BigEndian.PutUint32(b[reasonLenAt:], uint32(len(valid.Reason)+len(valid.Payload)+1))
		}),
		mutate("reason length past DefaultMaxMessage", func(b []byte) { binary.BigEndian.PutUint32(b[reasonLenAt:], DefaultMaxMessage+1) }),
		mutate("reason length at the u32 limit", func(b []byte) { binary.BigEndian.PutUint32(b[reasonLenAt:], math.MaxUint32) }),
		mutate("unknown type 0", func(b []byte) { b[typeAt] = 0 }),
	}
	for typ := int(MsgRoundSummary) + 1; typ <= math.MaxUint8; typ++ {
		cases = append(cases, mutate("unknown type", func(b []byte) { b[typeAt] = byte(typ) }))
	}
	for cut := 0; cut < len(frame); cut++ {
		cases = append(cases, malformation{
			name: "strict prefix", data: frame[:cut],
			payloadOffered: cut >= prefixLen+headerLen+text,
		})
	}

	for _, c := range cases {
		offered := false
		var m Message
		err := readFrame(bytes.NewReader(c.data), &m, func(_ *Message, n int) []byte {
			offered = true
			return make([]byte, n)
		})
		if err == nil {
			t.Errorf("%s (%d bytes): accepted as %+v", c.name, len(c.data), m)
		}
		if offered && !c.payloadOffered {
			t.Errorf("%s (%d bytes): a payload buffer was asked for before the header validated", c.name, len(c.data))
		}
	}
	if _, err := ReadMessage(bytes.NewReader(cases[3].data)); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("body past the limit: err %v, want ErrMessageTooLarge", err)
	}
}

// TestReadFrameSkipsRefusedPayload: a receiver that declines a payload
// gets the frame without it and the stream stays in step.
func TestReadFrameSkipsRefusedPayload(t *testing.T) {
	first, second := fullMessage(MsgUpload), fullMessage(MsgUploadAck)
	stream := append(frameOf(t, first), frameOf(t, second)...)
	r := bytes.NewReader(stream)
	var m Message
	if err := readFrame(r, &m, func(*Message, int) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	if m.Payload != nil || m.Type != MsgUpload || m.Round != first.Round || m.Reason != first.Reason {
		t.Errorf("refused payload: got %+v", m)
	}
	out, err := ReadMessage(r)
	if err != nil || !reflect.DeepEqual(out, second) {
		t.Errorf("frame after a skipped payload: %+v, %v", out, err)
	}
}

// frameAllocs reports the allocations and bytes one call of f costs.
func frameAllocs(f func()) (allocs float64, bytesPerRun uint64) {
	const runs = 100
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestFrameHopAllocs pins the point of the format: neither writing a
// frame nor reading one into a recycled buffer allocates anything
// payload-sized — one small header buffer each, whatever the payload.
// (The gob framing allocated the payload three times per read and twice
// per write.)
func TestFrameHopAllocs(t *testing.T) {
	msg := &Message{Type: MsgUpload, Round: 3, DeviceID: 1, Payload: make([]byte, 1<<20)}
	allocs, perRun := frameAllocs(func() {
		if err := WriteMessage(io.Discard, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 || perRun >= 256 {
		t.Errorf("WriteMessage of a 1 MiB payload: %v allocations, %d bytes a call; want ≤ 1 and < 256", allocs, perRun)
	}

	frame := frameOf(t, msg)
	r := bytes.NewReader(frame)
	recycled := make([]byte, len(msg.Payload))
	buffer := func(_ *Message, n int) []byte { return recycled[:n] }
	var m Message
	allocs, perRun = frameAllocs(func() {
		r.Reset(frame)
		if err := readFrame(r, &m, buffer); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 || perRun >= 256 {
		t.Errorf("readFrame of a 1 MiB payload into a recycled buffer: %v allocations, %d bytes a call; want ≤ 1 and < 256", allocs, perRun)
	}
	if &m.Payload[0] != &recycled[0] || len(m.Payload) != len(msg.Payload) {
		t.Error("the payload was not read into the buffer supplied")
	}
}

// TestRoundSummaryRoundTrip: the summary is a fixed-width payload.
func TestRoundSummaryRoundTrip(t *testing.T) {
	in := RoundSummary{Round: 12, Absorbed: 7, Late: 1, Dropped: -2, GlobalAcc: 0.8125}
	b := EncodeRoundSummary(&in)
	if len(b) != roundSummaryLen {
		t.Fatalf("summary of %d bytes, want %d", len(b), roundSummaryLen)
	}
	out, err := DecodeRoundSummary(b)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
	for _, bad := range [][]byte{nil, b[:len(b)-1], append(bytes.Clone(b), 0)} {
		if _, err := DecodeRoundSummary(bad); err == nil {
			t.Errorf("summary of %d bytes accepted", len(bad))
		}
	}
}

// TestFuzzCorpusNamesItsTypes: every message type has a valid-<type> seed
// in FuzzReadMessage's corpus, and each such seed decodes as the type it
// is named after — so renumbering the types cannot quietly turn a seed
// into an unknown type or another type's frame.
func TestFuzzCorpusNamesItsTypes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadMessage")
	seeds, err := filepath.Glob(filepath.Join(dir, "valid-*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range seeds {
		name := strings.TrimPrefix(filepath.Base(path), "valid-")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value go test fuzz v1 file", path)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		m, err := ReadMessage(strings.NewReader(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if m.Type.String() != name {
			t.Errorf("%s decodes as a %v frame", path, m.Type)
		}
		seen[name] = true
	}
	for typ := MsgHello; typ <= MsgRoundSummary; typ++ {
		if !seen[typ.String()] {
			t.Errorf("no valid-%v seed in %s", typ, dir)
		}
	}
}

// FuzzReadMessage: the frame decoder never panics on arbitrary bytes,
// never asks for a payload buffer longer than the body the prefix
// declared, and whatever it accepts re-encodes to the identical bytes —
// the format has one encoding per message.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var m Message
		err := readFrame(r, &m, func(_ *Message, n int) []byte {
			if declared := int(binary.BigEndian.Uint32(data)); n > declared-headerLen {
				t.Fatalf("asked for a %d-byte payload buffer in a frame declaring a %d-byte body", n, declared)
			}
			if n > len(data) {
				return nil // the bytes cannot be there: skip to the EOF, buffer nothing
			}
			return make([]byte, n)
		})
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteMessage(&again, &m); err != nil {
			t.Fatalf("accepted %+v but cannot re-encode it: %v", m, err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("re-encoding differs:\n read %x\nwrote %x", consumed, again.Bytes())
		}
	})
}
