package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// seedMessages returns messages covering the message types and header
// fields exercised by wire_test.go.
func seedMessages() []*Message {
	return []*Message{
		{Type: MsgInvoke, Header: Header{
			Kernel: "matmul",
			Params: map[string]float64{"n": 500, "seed": 1},
		}, Body: []byte("payload-bytes")},
		{Type: MsgList},
		{Type: MsgResult, Header: Header{
			Kernel: "matmul",
			Values: map[string]float64{"checksum": 42},
		}, Body: make([]byte, 100)},
		{Type: MsgError, Header: Header{Error: "boom"}},
		{Type: MsgInvoke, Header: Header{
			Kernel:        "bitmap",
			ShmKey:        "region-1",
			WantShmResult: true,
			DeadlineNanos: 1700000000000000000,
		}},
		{Type: MsgStatsResult, Header: Header{Stats: []byte(`{"Kernels":1}`)}},
		// Multiplexed (version 2) frames: a StreamID-carrying invoke, the
		// upgrade handshake, and a per-stream cancel.
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel:   "mci",
			Params:   map[string]float64{"n": 1000},
			StreamID: 7,
		}, Body: []byte("mux-payload")},
		{Type: MsgHello, Header: Header{MuxVersion: VersionMux}},
		{Version: VersionMux, Type: MsgHelloAck, Header: Header{MuxVersion: VersionMux, MaxStreams: 64}},
		{Version: VersionMux, Type: MsgCancel, Header: Header{StreamID: 42}},
		// Out-of-band data plane (version 2): lease negotiation, grant,
		// revocation, and a leased invoke whose payload travels by handle
		// (empty body, LeaseID + LeaseLen in the header).
		{Version: VersionMux, Type: MsgLease, Header: Header{StreamID: 9, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, LeaseID: 3, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, Error: "lease denied: no arena"}},
		{Version: VersionMux, Type: MsgLeaseRevoke, Header: Header{LeaseID: 3}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel:   "mci",
			Params:   map[string]float64{"n": 1000},
			StreamID: 11,
			LeaseID:  3,
			LeaseLen: 4096,
		}},
		{Version: VersionMux, Type: MsgResult, Header: Header{
			StreamID:       11,
			LeaseID:        3,
			LeaseResultLen: 128,
		}},
		// Stale/duplicate lease shapes: an invoke against a lease the
		// server never granted, and a double grant of the same window.
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "mci", StreamID: 12, LeaseID: 999999, LeaseLen: 8,
		}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 13, LeaseID: 3, LeaseBytes: 1 << 20}},
		// Every remaining header field, so each one's encoding is seeded.
		{Type: MsgRegister, Header: Header{Kernel: "ga", Kind: "gpu", Tenant: "team-a"}},
		{Type: MsgListResult, Header: Header{Names: []string{"matmul", "", "ga"}}},
		{Type: MsgError, Header: Header{Error: "shed", Code: CodeOverloaded, Retryable: true}},
		{Type: MsgResult, Header: Header{
			ResultShmKey:    "shm-7",
			ColdStart:       true,
			CachedColdStart: true,
			InvocationID:    "inv-12",
			DurationNanos:   -5,
			Values:          map[string]float64{},
		}},
	}
}

// seedFrames returns the encoded seedMessages, used as the fuzz corpus.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	msgs := seedMessages()
	frames := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("seed Write: %v", err)
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// hdr builds a raw header: the format byte, the mask, then the parts.
func hdr(mask uint64, parts ...[]byte) []byte {
	b := binary.AppendUvarint([]byte{headerFormat}, mask)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func f64(v float64) []byte { return binary.BigEndian.AppendUint64(nil, math.Float64bits(v)) }

// hostileHeaders are malformed headers the decoder must reject.
var hostileHeaders = []struct {
	name string
	hdr  []byte
}{
	{"JSON-era header", []byte(`{"kernel":"matmul","params":{"n":500}}`)},
	{"empty header", []byte{}},
	{"unknown format byte", []byte{0x00, 0x00}},
	{"truncated mask varint", []byte{headerFormat, 0x80}},
	{"overlong mask varint", append([]byte{headerFormat}, bytes.Repeat([]byte{0xFF}, 11)...)},
	{"unknown mask bit", hdr(1 << 40)},
	{"unknown mask bit past known", hdr(hKnown + 1)},
	{"truncated stream ID varint", hdr(hStreamID, []byte{0x80, 0x80})},
	{"truncated deadline varint", hdr(hDeadlineNanos, []byte{0xFF})},
	{"string length beyond header", hdr(hKernel, uv(5), []byte("abc"))},
	{"string length near 2^64", hdr(hKernel, uv(math.MaxUint64), []byte("abc"))},
	{"map count beyond header", hdr(hParams, uv(3), uv(1), []byte("n"), f64(1))},
	{"map count near 2^64", hdr(hValues, uv(math.MaxUint64))},
	{"map key beyond header", hdr(hParams, uv(1), uv(9), []byte("n"), f64(1))},
	{"truncated map value", hdr(hParams, uv(1), uv(1), []byte("n"), []byte{1, 2, 3, 4, 5, 6, 7})},
	{"NaN param", hdr(hParams, uv(1), uv(1), []byte("n"), f64(math.NaN()))},
	{"infinite value", hdr(hValues, uv(1), uv(1), []byte("x"), f64(math.Inf(-1)))},
	{"duplicate param key", hdr(hParams, uv(2), uv(1), []byte("n"), f64(1), uv(1), []byte("n"), f64(2))},
	{"names count beyond header", hdr(hNames, uv(1000), uv(1), []byte("a"))},
	{"stats length beyond header", hdr(hStats, uv(64), []byte("{}"))},
	{"mux version out of range", hdr(hMuxVersion, uv(256))},
	{"trailing bytes", hdr(hStreamID, uv(7), []byte{0})},
	{"trailing bytes after empty mask", hdr(0, []byte("junk"))},
}

// frameWithHeader wraps a raw header in an otherwise valid frame.
func frameWithHeader(h []byte) []byte {
	b := append([]byte{}, magic[:]...)
	b = append(b, Version, byte(MsgInvoke))
	b = binary.BigEndian.AppendUint32(b, uint32(len(h)))
	b = append(b, h...)
	return binary.BigEndian.AppendUint32(b, 0)
}

func TestReadRejectsMalformedHeader(t *testing.T) {
	for _, tc := range hostileHeaders {
		if _, err := Read(bytes.NewReader(frameWithHeader(tc.hdr))); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: err = %v, want ErrBadHeader", tc.name, err)
		}
	}
}

// FuzzRead throws arbitrary byte streams at the frame decoder: it must
// never panic, and any frame it accepts must re-encode and decode to the
// same message.
func FuzzRead(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	for _, tc := range hostileHeaders {
		f.Add(frameWithHeader(tc.hdr))
	}
	// Hand-built hostile frames: truncations, oversized sections, bad
	// magic, and future protocol versions.
	f.Add([]byte("KAAS"))
	f.Add([]byte("NOPE\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{'K', 'A', 'A', 'S', 99, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'K', 'A', 'A', 'S', Version, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	huge := []byte{'K', 'A', 'A', 'S', Version, 1, 0, 0, 0, 2, headerFormat, 0}
	huge = binary.BigEndian.AppendUint32(huge, 0xFFFFFFF0) // body length lie
	f.Add(huge)
	// Truncated lease frames: every prefix boundary of an encoded
	// MsgLease/MsgLeaseAck must fail cleanly, never panic or over-read.
	var leaseBuf bytes.Buffer
	if err := Write(&leaseBuf, &Message{Version: VersionMux, Type: MsgLease,
		Header: Header{StreamID: 9, LeaseBytes: 1 << 20}}); err != nil {
		f.Fatalf("seed Write: %v", err)
	}
	leaseFrame := leaseBuf.Bytes()
	for _, cut := range []int{4, 6, 10, len(leaseFrame) / 2, len(leaseFrame) - 1} {
		if cut < len(leaseFrame) {
			f.Add(append([]byte(nil), leaseFrame[:cut]...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames must survive a round trip.
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode accepted frame: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("round trip changed frame: %+v != %+v", again, msg)
		}
	})
}

// FuzzRoundTrip encodes arbitrary well-formed messages and checks the
// decoder returns them unchanged: the header codec is lossless, strings
// that are not valid UTF-8 included.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(MsgInvoke), "matmul", "", "", float64(500), []byte("data"), int64(0), uint64(0), false)
	f.Add(uint8(MsgError), "", "team-a", "cost model: bad n", float64(-1), []byte(nil), int64(0), uint64(3), true)
	f.Add(uint8(MsgResult), "dtw", "", "", float64(3.5), make([]byte, 300), int64(1700000000000000000), uint64(1<<40), false)
	f.Add(uint8(MsgInvoke), "\xff\xfe", "\xc3", "\x80", math.Copysign(0, -1), []byte{}, int64(-1), uint64(1), true)
	f.Fuzz(func(t *testing.T, typ uint8, kernel, tenant, errText string, n float64, body []byte, deadline int64, stream uint64, cold bool) {
		msg := &Message{
			Type: MsgType(typ),
			Header: Header{
				Kernel:        kernel,
				Tenant:        tenant,
				Error:         errText,
				Params:        map[string]float64{"n": n, kernel: 1},
				DeadlineNanos: deadline,
				StreamID:      stream,
				ColdStart:     cold,
			},
			Body: body,
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			if !math.IsNaN(n) && !math.IsInf(n, 0) {
				t.Fatalf("Write of a finite message failed: %v", err)
			}
			return // non-finite params are a caller error
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of own Write failed: %v", err)
		}
		if got.Type != msg.Type {
			t.Errorf("Type = %v, want %v", got.Type, msg.Type)
		}
		if !bytes.Equal(got.Body, msg.Body) {
			t.Errorf("Body = %q, want %q", got.Body, msg.Body)
		}
		if !reflect.DeepEqual(got.Header, msg.Header) {
			t.Errorf("Header = %+v, want %+v", got.Header, msg.Header)
		}
	})
}
