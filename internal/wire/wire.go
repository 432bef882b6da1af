// Package wire implements the KaaS network protocol: a simple length-
// prefixed binary framing with a binary header and an opaque payload
// body, used between clients, the KaaS server, and task runners.
//
// Frame layout:
//
//	magic   [4]byte  "KAAS"
//	version uint8    protocol version (1 or 2)
//	type    uint8    message type
//	hdrLen  uint32   big endian, header length
//	header  []byte   encoded Header
//	bodyLen uint32   big endian, payload length
//	body    []byte   raw payload (in-band data)
//
// The header carries the control fields of the message (see Header). It
// starts with a format byte that no JSON text can start with, so a frame
// from a peer that still sends JSON headers is rejected with ErrBadHeader
// rather than misread. A uvarint presence mask follows, one bit per
// field, then the present fields in mask-bit order: strings and byte
// blobs as a uvarint length and the bytes, float maps as a uvarint count
// and (key, IEEE-754 bits) pairs, integers as varints. Bool fields are
// carried by their mask bit alone. Unknown mask bits are rejected, so a
// new field changes the format byte rather than being ignored by old
// peers. Params and values must be finite numbers on both encode and
// decode.
//
// Invocation requests may set Header.DeadlineNanos — an absolute
// wall-clock deadline in Unix nanoseconds — so a server can reject work
// that is already expired when it arrives and cancel in-flight kernels
// whose client has given up. A zero DeadlineNanos means the request never
// expires.
//
// Version 1 is the legacy one-request-per-connection protocol: each frame
// on a connection belongs to the single outstanding request. Version 2
// adds connection multiplexing: frames carry Header.StreamID, many
// requests share one connection concurrently, replies are matched to
// requests by stream, and MsgCancel aborts one stream without tearing
// down the shared socket. A connection speaks version 2 only after a
// MsgHello/MsgHelloAck negotiation (sent as version-1 frames, so a
// version-1-only peer answers with a plain error and the client falls
// back).
//
// Read never trusts a length or count for allocation: header and body
// buffers grow incrementally as bytes actually arrive, so a frame that
// claims a huge body on a truncated stream cannot force a large
// allocation, and every count inside the header is checked against the
// header bytes left before anything is sized by it. Write and Read reuse
// frame and header buffers through sync.Pools, so Write allocates
// nothing in steady state and Read allocates only the message, one copy
// of the header's string bytes, and the maps and slices it returns.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Protocol constants.
const (
	// Version is the legacy one-request-per-connection protocol version.
	Version = 1
	// VersionMux is the multiplexed protocol version: frames carry a
	// StreamID and many requests share one connection.
	VersionMux = 2
	// MaxVersion is the highest protocol version this package decodes.
	MaxVersion = VersionMux
	// MaxHeaderLen bounds the encoded header size.
	MaxHeaderLen = 1 << 20
	// MaxBodyLen bounds the payload size (256 MiB).
	MaxBodyLen = 256 << 20
)

var magic = [4]byte{'K', 'A', 'A', 'S'}

// preambleLen is the size of the fixed frame prefix: magic, version,
// type and header length.
const preambleLen = 10

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	// MsgRegister asks the server to register a kernel.
	MsgRegister MsgType = iota + 1
	// MsgRegistered acknowledges a registration.
	MsgRegistered
	// MsgInvoke requests a kernel invocation.
	MsgInvoke
	// MsgResult returns a successful invocation result.
	MsgResult
	// MsgError reports a failure.
	MsgError
	// MsgList requests the registered kernel names.
	MsgList
	// MsgListResult returns the registered kernel names.
	MsgListResult
	// MsgStats requests server statistics.
	MsgStats
	// MsgStatsResult returns server statistics.
	MsgStatsResult
	// MsgHello offers a protocol upgrade: Header.MuxVersion is the
	// highest version the client speaks. Sent as a version-1 frame so a
	// legacy server answers MsgError ("unexpected message type") and the
	// client falls back to the one-request-per-connection protocol.
	MsgHello
	// MsgHelloAck accepts a protocol upgrade: Header.MuxVersion is the
	// negotiated version and Header.MaxStreams the per-connection
	// concurrent-stream bound the server enforces.
	MsgHelloAck
	// MsgCancel aborts one in-flight stream (Header.StreamID) on a
	// multiplexed connection without closing the shared socket. The
	// cancelled invocation still produces a (best-effort, usually
	// discarded) error reply on its stream.
	MsgCancel
	// MsgControl carries a cluster control-plane request (heartbeat
	// gossip, membership status) as an opaque JSON body. The wire layer
	// does not interpret the payload; servers without a control plane
	// answer MsgError, which a joining node treats as "peer not
	// clustered".
	MsgControl
	// MsgControlAck returns the control-plane reply payload for a
	// MsgControl request.
	MsgControlAck
	// MsgLease asks the server for a window into its pooled tensor arena
	// (Header.LeaseBytes requested capacity) so later invocations on the
	// same connection can pass payloads by handle instead of in the frame
	// body. Sent only on multiplexed (version 2) connections; the reply is
	// matched by Header.StreamID like any other stream.
	MsgLease
	// MsgLeaseAck grants a lease: Header.LeaseID names the window and
	// Header.LeaseBytes its granted capacity. A denial carries
	// Header.Error instead, and the client falls back to in-band
	// transfer without surfacing a failure.
	MsgLeaseAck
	// MsgLeaseRevoke withdraws a granted lease (Header.LeaseID), sent by
	// the server on drain, connection teardown, or a circuit-breaker
	// opening. The client drops the lease from its pool; invocations
	// already in flight against it are answered with a retryable
	// LEASE_REVOKED error and resent in-band.
	MsgLeaseRevoke
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgRegistered:
		return "registered"
	case MsgInvoke:
		return "invoke"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgList:
		return "list"
	case MsgListResult:
		return "list-result"
	case MsgStats:
		return "stats"
	case MsgStatsResult:
		return "stats-result"
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgCancel:
		return "cancel"
	case MsgControl:
		return "control"
	case MsgControlAck:
		return "control-ack"
	case MsgLease:
		return "lease"
	case MsgLeaseAck:
		return "lease-ack"
	case MsgLeaseRevoke:
		return "lease-revoke"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Machine-readable error codes carried by MsgError in Header.Code. They
// classify failures so clients can decide to retry without parsing error
// text. Unrecognized codes must be treated as CodeInternal.
const (
	// CodeOverloaded: the server shed the request under admission control
	// (queue bound, in-flight cap, or deadline-aware rejection). Retryable
	// after backoff.
	CodeOverloaded = "OVERLOADED"
	// CodeUnavailable: no device can currently serve the kernel (devices
	// failed, breakers open, or the server is draining). Retryable after
	// backoff, possibly against another replica.
	CodeUnavailable = "UNAVAILABLE"
	// CodeDeadlineExceeded: the request's deadline expired before or
	// during service. Not retryable — the client's budget is gone.
	CodeDeadlineExceeded = "DEADLINE_EXCEEDED"
	// CodeUnknownKernel: the kernel is not registered (or a registration
	// conflict). Not retryable without a registration change.
	CodeUnknownKernel = "UNKNOWN_KERNEL"
	// CodeInternal: any other server-side failure. Not retryable.
	CodeInternal = "INTERNAL"
	// CodeLeaseRevoked: the invocation referenced an arena lease the
	// server has since revoked (drain, breaker-open, or connection
	// cleanup). Retryable — the client resends the same request in-band
	// (or under a fresh lease) without surfacing an error to the caller.
	CodeLeaseRevoked = "LEASE_REVOKED"
)

// Errors returned by frame decoding.
var (
	// ErrBadMagic indicates the stream is not speaking the KaaS protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion indicates an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrTooLarge indicates a frame section exceeds its limit.
	ErrTooLarge = errors.New("wire: frame too large")
)

// Header carries the control fields of a message. A field at its zero
// value (nil for maps, slices and Stats) is absent from the encoding.
type Header struct {
	// Kernel is the kernel name for register/invoke.
	Kernel string
	// Tenant identifies the invoking tenant for fair queueing on
	// MsgInvoke. Legacy (pre-tenant) peers omit it; servers map the empty
	// string to the deterministic "default" tenant so mixed-version
	// clusters do not split accounting between "" and "default".
	Tenant string
	// Kind is the device kind name for register.
	Kind string
	// Params are the invocation parameters.
	Params map[string]float64
	// Values are the scalar results of an invocation.
	Values map[string]float64
	// Error is the failure description on MsgError.
	Error string
	// Code is the machine-readable classification of the failure on
	// MsgError (one of the Code* constants). Empty on frames from servers
	// predating structured errors; clients treat that as CodeInternal.
	Code string
	// Retryable reports whether the server considers the failure
	// transient, i.e. the same request may succeed if retried after
	// backoff.
	Retryable bool
	// ShmKey names a shared-memory region holding the input payload
	// (out-of-band transfer). Empty means the payload is in the body.
	ShmKey string
	// ResultShmKey names the region where the server stored the output
	// payload when the client requested out-of-band results.
	ResultShmKey string
	// WantShmResult asks the server to return payloads out-of-band.
	WantShmResult bool
	// Names lists kernel names in MsgListResult.
	Names []string
	// Stats is an opaque JSON stats document in MsgStatsResult.
	Stats []byte
	// ColdStart reports whether the invocation started a new runner.
	ColdStart bool
	// CachedColdStart reports whether a cold start skipped JIT
	// compilation because the compiled artifact was already cached.
	// Only meaningful when ColdStart is true.
	CachedColdStart bool
	// InvocationID is the server-assigned invocation identifier returned
	// on MsgResult. It joins the client-observed result with the server's
	// structured log lines and metrics for that invocation.
	InvocationID string
	// DurationNanos is the server-side modeled invocation time.
	DurationNanos int64
	// DeadlineNanos is the absolute wall-clock deadline of the request in
	// Unix nanoseconds. Servers reject frames whose deadline has already
	// passed and cancel the invocation when it expires mid-flight. Zero
	// means no deadline.
	DeadlineNanos int64
	// StreamID identifies the request/reply stream on a multiplexed
	// (version 2) connection. The client assigns it on requests; the
	// server echoes it on the matching reply and on MsgCancel it names
	// the stream to abort. Zero on version-1 connections.
	StreamID uint64
	// MuxVersion carries the offered (MsgHello) or negotiated
	// (MsgHelloAck) protocol version during the upgrade handshake.
	MuxVersion uint8
	// MaxStreams advertises, on MsgHelloAck, how many concurrent streams
	// the server will serve per connection before applying backpressure.
	MaxStreams int
	// LeaseID names an arena lease: the granted window on MsgLeaseAck,
	// the revoked window on MsgLeaseRevoke, and — on MsgInvoke — the
	// window holding the input payload (out-of-band transfer over the
	// mux; zero means the payload is in the body or named by ShmKey).
	LeaseID uint64
	// LeaseBytes is the requested (MsgLease) or granted (MsgLeaseAck)
	// capacity of an arena lease in bytes.
	LeaseBytes int64
	// LeaseLen is the length of the input payload within the leased
	// window on a MsgInvoke that carries LeaseID.
	LeaseLen int64
	// LeaseResultLen, on MsgResult, is the length of the output payload
	// the server wrote back into the invocation's leased window. Zero
	// means the result (if any) is in the frame body.
	LeaseResultLen int64
}

// Message is one protocol frame.
type Message struct {
	Type   MsgType
	Header Header
	Body   []byte
	// Version is the protocol version of the frame: set by Read on
	// decode, honored by Write on encode. Zero encodes as Version (1).
	Version uint8
}

// maxPooledBuf caps the size of buffers retained by the frame pools so a
// single huge payload cannot pin memory forever.
const maxPooledBuf = 64 << 10

// bufPool recycles frame-encoding scratch buffers across Write calls.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// hdrPool recycles frame-decoding scratch buffers across Read calls. The
// header decoder copies everything it keeps, so the buffer never escapes.
var hdrPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameVersion resolves the version byte a message encodes with.
func frameVersion(msg *Message) (uint8, error) {
	v := msg.Version
	if v == 0 {
		v = Version
	}
	if v > MaxVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return v, nil
}

// Append encodes msg onto buf and returns the extended slice. It is the
// allocation-free core of Write, used directly by the multiplexed
// transports to coalesce several frames into one socket write. On error
// buf is returned unextended.
func Append(buf []byte, msg *Message) ([]byte, error) {
	v, err := frameVersion(msg)
	if err != nil {
		return buf, err
	}
	if len(msg.Body) > MaxBodyLen {
		return buf, fmt.Errorf("%w: body %d bytes", ErrTooLarge, len(msg.Body))
	}
	start := len(buf)
	buf = append(buf, magic[:]...)
	buf = append(buf, v, byte(msg.Type), 0, 0, 0, 0) // header length, patched below
	buf, err = appendHeader(buf, &msg.Header)
	if err != nil {
		return buf[:start], err
	}
	hdrLen := len(buf) - start - preambleLen
	if hdrLen > MaxHeaderLen {
		return buf[:start], fmt.Errorf("%w: header %d bytes", ErrTooLarge, hdrLen)
	}
	binary.BigEndian.PutUint32(buf[start+6:], uint32(hdrLen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg.Body)))
	buf = append(buf, msg.Body...)
	return buf, nil
}

// Write encodes and writes a message to w. The encoding buffer is pooled,
// so steady-state Writes of small frames do not allocate.
func Write(w io.Writer, msg *Message) error {
	bp := bufPool.Get().(*[]byte)
	buf, err := Append((*bp)[:0], msg)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	_, werr := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		bufPool.Put(bp)
	}
	if werr != nil {
		return fmt.Errorf("wire: write frame: %w", werr)
	}
	return nil
}

// Read decodes one message from r, accepting protocol versions 1 and 2
// and recording which one the frame carried in Message.Version.
func Read(r io.Reader) (*Message, error) {
	// One pooled scratch buffer carries the preamble, the header and the
	// body length in turn: a stack array handed to r.Read would escape to
	// the heap on every call.
	bp := hdrPool.Get().(*[]byte)
	defer hdrPool.Put(bp)
	pre := (*bp)[:preambleLen]
	if _, err := io.ReadFull(r, pre); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != magic {
		return nil, ErrBadMagic
	}
	if pre[4] == 0 || pre[4] > MaxVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, pre[4])
	}
	msg := &Message{Type: MsgType(pre[5]), Version: pre[4]}
	hdrLen := binary.BigEndian.Uint32(pre[6:preambleLen])
	if hdrLen > MaxHeaderLen {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTooLarge, hdrLen)
	}
	if err := readHeader(r, int(hdrLen), bp, &msg.Header); err != nil {
		return nil, err
	}
	lenBuf := (*bp)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, fmt.Errorf("wire: read body length: %w", err)
	}
	bodyLen := binary.BigEndian.Uint32(lenBuf)
	if bodyLen > MaxBodyLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, bodyLen)
	}
	if bodyLen > 0 {
		var err error
		msg.Body, err = readSection(r, int(bodyLen))
		if err != nil {
			return nil, fmt.Errorf("wire: read body: %w", err)
		}
	}
	return msg, nil
}

// readHeader reads and decodes the n-byte header into out. Small headers
// pass through the pooled scratch buffer *bp, growing it if needed (the
// decoder copies what it keeps); oversized ones fall back to the
// incremental section reader.
func readHeader(r io.Reader, n int, bp *[]byte, out *Header) error {
	if n > maxPooledBuf {
		hdr, err := readSection(r, n)
		if err != nil {
			return fmt.Errorf("wire: read header: %w", err)
		}
		return decodeHeader(hdr, out)
	}
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: read header: %w", err)
	}
	return decodeHeader(buf, out)
}

// allocChunk caps how much readSection allocates ahead of the bytes that
// have actually arrived.
const allocChunk = 64 << 10

// readSection reads exactly n bytes, growing the buffer chunk by chunk so
// a frame that lies about its length on a truncated stream only costs as
// much memory as the stream really delivers.
func readSection(r io.Reader, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	cap0 := n
	if cap0 > allocChunk {
		cap0 = allocChunk
	}
	buf := make([]byte, 0, cap0)
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > allocChunk {
			chunk = allocChunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if errors.Is(err, io.EOF) && start > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// FrameSize returns the on-wire size of a message without writing it, used
// by the network shaper to model transfer time. It encodes only the
// header, into a pooled buffer, so it allocates nothing in steady state.
func FrameSize(msg *Message) (int64, error) {
	bp := bufPool.Get().(*[]byte)
	hdr, err := appendHeader((*bp)[:0], &msg.Header)
	if cap(hdr) <= maxPooledBuf {
		*bp = hdr[:0]
		bufPool.Put(bp)
	}
	if err != nil {
		return 0, err
	}
	return int64(preambleLen + len(hdr) + 4 + len(msg.Body)), nil
}

// CheckEncodable verifies that a client-built message can be encoded
// without paying for a full header encode: the only header fields a
// caller can make unencodable are the float maps, since the protocol
// carries only finite numbers (see errNonFinite). Transports that share
// one socket across callers use it to fail an unencodable request on its
// own, before the frame reaches the connection's writer (where an encode
// failure would have to kill the shared socket).
func CheckEncodable(msg *Message) error {
	for k, v := range msg.Header.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite("param", k, v)
		}
	}
	for k, v := range msg.Header.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite("value", k, v)
		}
	}
	return nil
}
