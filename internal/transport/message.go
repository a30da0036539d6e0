// Package transport implements the wire protocol between a FedZKT server
// and its devices: fixed binary frames over any net.Conn, plus a TCP
// server and device client that run the full Algorithm 1 round loop
// across machine boundaries. The in-process simulator and the networked
// runtime share the same fedzkt.Server core, so the protocol carries
// exactly the payloads the paper describes: architecture announcements
// upstream, on-device parameters in both directions.
//
// A frame is a 4-byte body length followed by the body, every integer
// big-endian:
//
//	offset  size       field
//	0       4          body length n (everything after this field; ≤ DefaultMaxMessage)
//	4       1          Type (1…11)
//	5       8          Round, two's complement
//	13      8          DeviceID, two's complement
//	21      2          archLen
//	23      4          reasonLen
//	27      2          tokenLen
//	29      archLen    Arch
//	…       reasonLen  Reason
//	…       tokenLen   Token
//	…       the rest   Payload, n − 25 − archLen − reasonLen − tokenLen bytes
//
// The payload comes last and contiguous, so a writer sends the header and
// then the caller's payload slice as it is, and a reader — every length
// checked against n before it buffers anything — reads the payload
// straight into a buffer its caller chose. A frame's size is a pure
// function of its message. There is one format and no version switch:
// both ends of a federation are built from one commit.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types, in the order they normally flow.
const (
	// MsgHello (device→server) announces the device's architecture.
	MsgHello MsgType = iota + 1
	// MsgWelcome (server→device) assigns the device id and its data-shard
	// assignment (the dataset is synthetic and reconstructed locally from
	// the seed, so only indices travel).
	MsgWelcome
	// MsgTrainRequest (server→device) starts one local training round.
	MsgTrainRequest
	// MsgUpload (device→server) carries locally trained parameters.
	MsgUpload
	// MsgDownload (server→device) carries the distilled parameters.
	MsgDownload
	// MsgDone (server→device) ends the session.
	MsgDone
	// MsgError (either direction) aborts with a reason.
	MsgError
	// MsgResume (device→server) re-joins an existing session after a
	// disconnect: DeviceID plus the signed Token issued at registration.
	// Round carries the device's pending unacknowledged upload round (0
	// when it has none), so the server knows whether a replay follows.
	MsgResume
	// MsgResumeAck (server→device) confirms a successful session resume.
	MsgResumeAck
	// MsgUploadAck (server→device) acknowledges that the upload for Round
	// has been received (absorbed, or deduplicated/dropped — either way
	// the device may discard its replay buffer for that round).
	MsgUploadAck
	// MsgRoundSummary (server→device) reports how a finished round went:
	// the Payload carries an encoded RoundSummary.
	MsgRoundSummary
)

// known reports whether t is one of the protocol's message types.
func (t MsgType) known() bool { return t >= MsgHello && t <= MsgRoundSummary }

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgTrainRequest:
		return "train-request"
	case MsgUpload:
		return "upload"
	case MsgDownload:
		return "download"
	case MsgDone:
		return "done"
	case MsgError:
		return "error"
	case MsgResume:
		return "resume"
	case MsgResumeAck:
		return "resume-ack"
	case MsgUploadAck:
		return "upload-ack"
	case MsgRoundSummary:
		return "round-summary"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is the protocol envelope.
type Message struct {
	Type     MsgType
	Round    int
	DeviceID int
	Arch     string
	// Reason carries the error description for MsgError.
	Reason string
	// Token carries the session resume token: issued by the server in
	// MsgWelcome, presented back by the device in MsgResume.
	Token []byte
	// Payload carries a state payload in the codec container format
	// (MsgUpload, MsgDownload), an encoded Assignment
	// (MsgWelcome), or an encoded RoundSummary (MsgRoundSummary). State
	// containers are self-describing, so the receiver never needs
	// out-of-band dtype knowledge. On a session the bytes alias a recycled
	// buffer — the engine's free list on the server, the session's download
	// buffer on a device — and are valid only until that buffer is given
	// back (server) or the next frame is read (device); whoever keeps a
	// state longer decodes or copies it first. WriteMessage never copies
	// or retains them.
	Payload []byte
}

// RoundSummary is the per-round report the server broadcasts to attached
// devices after each round completes (MsgRoundSummary).
type RoundSummary struct {
	// Round is the 1-based round the summary describes.
	Round int
	// Absorbed counts fresh current-round uploads absorbed this round.
	Absorbed int
	// Late counts stale uploads (from earlier rounds, within the
	// staleness bound) absorbed into the next teacher window this round.
	Late int
	// Dropped counts uploads discarded this round: staler than the bound,
	// or duplicates of rounds already absorbed.
	Dropped int
	// GlobalAcc is the server global model's test accuracy after the
	// round's distillation.
	GlobalAcc float64
}

// roundSummaryLen is the fixed width of an encoded RoundSummary: four
// big-endian int64 counters and the IEEE-754 bits of GlobalAcc.
const roundSummaryLen = 5 * 8

// EncodeRoundSummary serialises a RoundSummary for MsgRoundSummary.
func EncodeRoundSummary(s *RoundSummary) []byte {
	b := make([]byte, 0, roundSummaryLen)
	for _, v := range [...]int{s.Round, s.Absorbed, s.Late, s.Dropped} {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(v)))
	}
	return binary.BigEndian.AppendUint64(b, math.Float64bits(s.GlobalAcc))
}

// DecodeRoundSummary parses a MsgRoundSummary payload.
func DecodeRoundSummary(b []byte) (RoundSummary, error) {
	if len(b) != roundSummaryLen {
		return RoundSummary{}, fmt.Errorf("transport: round summary of %d bytes, want %d", len(b), roundSummaryLen)
	}
	field := func(i int) uint64 { return binary.BigEndian.Uint64(b[8*i:]) }
	return RoundSummary{
		Round:     int(int64(field(0))),
		Absorbed:  int(int64(field(1))),
		Late:      int(int64(field(2))),
		Dropped:   int(int64(field(3))),
		GlobalAcc: math.Float64frombits(field(4)),
	}, nil
}

// Assignment tells a device how to reconstruct its local view of the
// experiment: the synthetic dataset spec, its private shard, and the local
// training configuration.
type Assignment struct {
	DatasetName string
	Sizes       data.Sizes
	DataSeed    uint64
	Indices     []int
	Local       fed.LocalConfig
	Rounds      int
	// ModelSeed seeds the device's model initialisation. It is
	// fed.DeviceSeed(seed, id), whose state is also what the server's
	// replica of the device holds until its first upload, so server and
	// device start identically without a state crossing the wire.
	ModelSeed uint64
	// StateCodec names the state codec the federation runs with; the
	// device encodes its uploads with it so the traffic savings are real
	// on the uplink too. Downloads are self-describing containers either
	// way. An empty value selects the dense "float64" identity codec.
	StateCodec string
}

// EncodeAssignment serialises an Assignment for MsgWelcome.
func EncodeAssignment(a *Assignment) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return nil, fmt.Errorf("transport: encoding assignment: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeAssignment parses a MsgWelcome payload.
func DecodeAssignment(b []byte) (*Assignment, error) {
	var a Assignment
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&a); err != nil {
		return nil, fmt.Errorf("transport: decoding assignment: %w", err)
	}
	return &a, nil
}

// DefaultMaxMessage bounds a frame to 64 MiB, far above any model payload
// in this repository but small enough to fail fast on corrupt prefixes.
const DefaultMaxMessage = 64 << 20

// ErrMessageTooLarge reports a frame exceeding the size limit.
var ErrMessageTooLarge = errors.New("transport: message exceeds size limit")

const (
	prefixLen = 4
	// headerLen is the fixed part of a frame body (see the package comment).
	headerLen = 1 + 8 + 8 + 2 + 4 + 2
)

// WriteMessage writes one frame: the prefix, header and text fields in one
// write, then m.Payload itself in a second — never copied, never retained.
func WriteMessage(w io.Writer, m *Message) error {
	if !m.Type.known() {
		return fmt.Errorf("transport: writing unknown message type %d", uint8(m.Type))
	}
	if len(m.Arch) > math.MaxUint16 || len(m.Token) > math.MaxUint16 {
		return fmt.Errorf("transport: %v message: arch of %d bytes or token of %d exceeds %d",
			m.Type, len(m.Arch), len(m.Token), math.MaxUint16)
	}
	text := len(m.Arch) + len(m.Reason) + len(m.Token)
	body := headerLen + text + len(m.Payload)
	if body > DefaultMaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, body)
	}
	head := make([]byte, 0, prefixLen+headerLen+text)
	head = binary.BigEndian.AppendUint32(head, uint32(body))
	head = append(head, byte(m.Type))
	head = binary.BigEndian.AppendUint64(head, uint64(int64(m.Round)))
	head = binary.BigEndian.AppendUint64(head, uint64(int64(m.DeviceID)))
	head = binary.BigEndian.AppendUint16(head, uint16(len(m.Arch)))
	head = binary.BigEndian.AppendUint32(head, uint32(len(m.Reason)))
	head = binary.BigEndian.AppendUint16(head, uint16(len(m.Token)))
	head = append(head, m.Arch...)
	head = append(head, m.Reason...)
	head = append(head, m.Token...)
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("transport: writing %v frame header: %w", m.Type, err)
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return fmt.Errorf("transport: writing %v frame payload: %w", m.Type, err)
		}
	}
	return nil
}

// ReadMessage reads one frame into a fresh Message with a payload buffer
// of its own, rejecting frames larger than DefaultMaxMessage.
func ReadMessage(r io.Reader) (*Message, error) {
	m := new(Message)
	if err := readFrame(r, m, func(_ *Message, n int) []byte { return make([]byte, n) }); err != nil {
		return nil, err
	}
	return m, nil
}

// readFrame reads one frame into m, overwriting every field. Nothing is
// buffered before the whole header has been validated: the type is known
// and the announced field lengths add up to no more than the body. Only
// then, and only for a non-empty payload, it calls payload with m's header
// fields set and the payload's length n: the payload is read into the
// n-byte buffer payload returns and m.Payload aliases it, or, when payload
// returns nil, its bytes are skipped and m.Payload stays nil — how a
// receiver refuses a payload without buffering it and keeps the stream.
func readFrame(r io.Reader, m *Message, payload func(m *Message, n int) []byte) error {
	head := make([]byte, prefixLen+headerLen)
	if _, err := io.ReadFull(r, head[:prefixLen]); err != nil {
		return fmt.Errorf("transport: reading frame prefix: %w", err)
	}
	body := binary.BigEndian.Uint32(head)
	if body > DefaultMaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, body)
	}
	if body < headerLen {
		return fmt.Errorf("transport: frame body of %d bytes is shorter than its %d-byte header", body, headerLen)
	}
	if _, err := io.ReadFull(r, head[prefixLen:]); err != nil {
		return fmt.Errorf("transport: reading frame header: %w", err)
	}
	h := head[prefixLen:]
	typ := MsgType(h[0])
	if !typ.known() {
		return fmt.Errorf("transport: unknown message type %d", h[0])
	}
	archLen := int(binary.BigEndian.Uint16(h[17:]))
	reasonLen := binary.BigEndian.Uint32(h[19:])
	tokenLen := int(binary.BigEndian.Uint16(h[23:]))
	if announced := uint64(archLen) + uint64(reasonLen) + uint64(tokenLen); announced > uint64(body-headerLen) {
		return fmt.Errorf("transport: %v frame announces %d bytes of fields in a %d-byte body", typ, announced, body)
	}
	text := archLen + int(reasonLen) + tokenLen
	*m = Message{
		Type:     typ,
		Round:    int(int64(binary.BigEndian.Uint64(h[1:]))),
		DeviceID: int(int64(binary.BigEndian.Uint64(h[9:]))),
	}
	if text > 0 {
		b := make([]byte, text)
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("transport: reading %v frame fields: %w", typ, err)
		}
		m.Arch = string(b[:archLen])
		m.Reason = string(b[archLen : text-tokenLen])
		if tokenLen > 0 {
			m.Token = b[text-tokenLen:]
		}
	}
	n := int(body) - headerLen - text
	if n == 0 {
		return nil
	}
	if m.Payload = payload(m, n); m.Payload == nil {
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return fmt.Errorf("transport: skipping %v frame payload: %w", typ, err)
		}
		return nil
	}
	if _, err := io.ReadFull(r, m.Payload); err != nil {
		return fmt.Errorf("transport: reading %v frame payload: %w", typ, err)
	}
	return nil
}

// expect reads a message and verifies its type, surfacing MsgError bodies
// as errors.
func expect(r io.Reader, want MsgType) (*Message, error) {
	m, err := ReadMessage(r)
	if err != nil {
		return nil, err
	}
	if m.Type == MsgError {
		return nil, fmt.Errorf("transport: peer error: %s", m.Reason)
	}
	if m.Type != want {
		return nil, fmt.Errorf("transport: expected %v, got %v", want, m.Type)
	}
	return m, nil
}
